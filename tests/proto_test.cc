// Unit tests for the protocol codecs: header round trips, opcode property
// tables, ICRC behaviour, malformed-frame rejection, and the encoders' exact
// wire bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/proto/headers.h"
#include "src/proto/packet.h"
#include "src/tcp/segment.h"
#include "tests/sha256_test_util.h"

namespace strom {
namespace {

RocePacket MakeWriteOnly() {
  RocePacket pkt;
  pkt.src_ip = MakeIp(10, 0, 0, 1);
  pkt.dst_ip = MakeIp(10, 0, 0, 2);
  pkt.bth.opcode = IbOpcode::kWriteOnly;
  pkt.bth.dest_qp = 0x123;
  pkt.bth.psn = 0x456;
  pkt.bth.ack_request = true;
  RethHeader reth;
  reth.virt_addr = 0xDEADBEEF00;
  reth.dma_length = 128;
  pkt.reth = reth;
  pkt.payload.assign(128, 0x7E);
  return pkt;
}

const MacAddr kMacA = {0x02, 0, 0, 0, 0, 1};
const MacAddr kMacB = {0x02, 0, 0, 0, 0, 2};

TEST(Headers, IpToStringFormats) {
  EXPECT_EQ(IpToString(MakeIp(192, 168, 1, 42)), "192.168.1.42");
  EXPECT_EQ(MacToString(kMacA), "02:00:00:00:00:01");
}

TEST(Headers, Ipv4ChecksumValidatesOnDecode) {
  ByteBuffer buf(Ipv4Header::kSize);
  WireWriter w(buf);
  Ipv4Header ip;
  ip.src = MakeIp(1, 2, 3, 4);
  ip.dst = MakeIp(5, 6, 7, 8);
  ip.total_length = 100;
  ip.Encode(w);
  ASSERT_EQ(w.position(), Ipv4Header::kSize);

  WireReader r(buf);
  bool ok = false;
  Ipv4Header decoded = Ipv4Header::Decode(r, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(decoded.src, ip.src);
  EXPECT_EQ(decoded.dst, ip.dst);
  EXPECT_EQ(decoded.total_length, 100);

  buf[14] ^= 0x40;  // corrupt a source-address byte
  WireReader r2(buf);
  Ipv4Header::Decode(r2, &ok);
  EXPECT_FALSE(ok);
}

TEST(Headers, BthRoundTrip) {
  ByteBuffer buf(BthHeader::kSize);
  WireWriter w(buf);
  BthHeader bth;
  bth.opcode = IbOpcode::kReadRequest;
  bth.dest_qp = 0xABCDEF;
  bth.psn = 0x123456;
  bth.ack_request = true;
  bth.Encode(w);
  ASSERT_EQ(w.position(), BthHeader::kSize);

  WireReader r(buf);
  BthHeader decoded = BthHeader::Decode(r);
  EXPECT_EQ(decoded.opcode, IbOpcode::kReadRequest);
  EXPECT_EQ(decoded.dest_qp, 0xABCDEFu);
  EXPECT_EQ(decoded.psn, 0x123456u);
  EXPECT_TRUE(decoded.ack_request);
}

TEST(Headers, RethAndAethRoundTrip) {
  ByteBuffer buf(RethHeader::kSize + AethHeader::kSize);
  WireWriter w(buf);
  RethHeader reth{0x1122334455667788ull, 0x99AABBCC, 0x01020304};
  reth.Encode(w);
  AethHeader aeth{AckSyndrome::kNakSequenceError, 0x123456};
  aeth.Encode(w);
  ASSERT_EQ(w.position(), buf.size());

  WireReader r(buf);
  RethHeader reth2 = RethHeader::Decode(r);
  AethHeader aeth2 = AethHeader::Decode(r);
  EXPECT_EQ(reth2.virt_addr, reth.virt_addr);
  EXPECT_EQ(reth2.rkey, reth.rkey);
  EXPECT_EQ(reth2.dma_length, reth.dma_length);
  EXPECT_EQ(aeth2.syndrome, AckSyndrome::kNakSequenceError);
  EXPECT_EQ(aeth2.msn, 0x123456u);
}

TEST(Headers, StromOpcodesMatchTable1) {
  // Paper Table 1: 11000 .. 11100.
  EXPECT_EQ(static_cast<uint8_t>(IbOpcode::kRpcParams), 0b11000);
  EXPECT_EQ(static_cast<uint8_t>(IbOpcode::kRpcWriteFirst), 0b11001);
  EXPECT_EQ(static_cast<uint8_t>(IbOpcode::kRpcWriteMiddle), 0b11010);
  EXPECT_EQ(static_cast<uint8_t>(IbOpcode::kRpcWriteLast), 0b11011);
  EXPECT_EQ(static_cast<uint8_t>(IbOpcode::kRpcWriteOnly), 0b11100);
}

TEST(Headers, OpcodePropertyTables) {
  EXPECT_TRUE(OpcodeHasReth(IbOpcode::kWriteFirst));
  EXPECT_TRUE(OpcodeHasReth(IbOpcode::kWriteOnly));
  EXPECT_FALSE(OpcodeHasReth(IbOpcode::kWriteMiddle));
  EXPECT_FALSE(OpcodeHasReth(IbOpcode::kWriteLast));
  EXPECT_TRUE(OpcodeHasReth(IbOpcode::kRpcParams));
  EXPECT_TRUE(OpcodeHasAeth(IbOpcode::kAck));
  EXPECT_TRUE(OpcodeHasAeth(IbOpcode::kReadRespOnly));
  EXPECT_FALSE(OpcodeHasAeth(IbOpcode::kReadRespMiddle));
  EXPECT_TRUE(OpcodeIsStrom(IbOpcode::kRpcWriteLast));
  EXPECT_FALSE(OpcodeIsStrom(IbOpcode::kWriteOnly));
  EXPECT_TRUE(OpcodeIsWriteLike(IbOpcode::kRpcWriteMiddle));
  EXPECT_FALSE(OpcodeIsWriteLike(IbOpcode::kReadRequest));
  EXPECT_TRUE(OpcodeStartsMessage(IbOpcode::kWriteFirst));
  EXPECT_FALSE(OpcodeStartsMessage(IbOpcode::kWriteLast));
  EXPECT_TRUE(OpcodeEndsMessage(IbOpcode::kWriteLast));
  EXPECT_FALSE(OpcodeEndsMessage(IbOpcode::kWriteFirst));
}

TEST(Packet, EncodeParseRoundTrip) {
  RocePacket pkt = MakeWriteOnly();
  ByteBuffer frame = EncodeRoceFrame(kMacA, kMacB, pkt).ToBuffer();
  EXPECT_EQ(frame.size(), pkt.WireSize());

  Result<RocePacket> parsed = ParseRoceFrame(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->bth.opcode, IbOpcode::kWriteOnly);
  EXPECT_EQ(parsed->bth.dest_qp, 0x123u);
  EXPECT_EQ(parsed->bth.psn, 0x456u);
  EXPECT_TRUE(parsed->bth.ack_request);
  ASSERT_TRUE(parsed->reth.has_value());
  EXPECT_EQ(parsed->reth->virt_addr, 0xDEADBEEF00ull);
  EXPECT_EQ(parsed->reth->dma_length, 128u);
  EXPECT_EQ(parsed->payload, pkt.payload);
  EXPECT_EQ(parsed->src_ip, pkt.src_ip);
  EXPECT_EQ(parsed->dst_ip, pkt.dst_ip);
}

TEST(Packet, AckRoundTrip) {
  RocePacket pkt;
  pkt.src_ip = MakeIp(10, 0, 0, 2);
  pkt.dst_ip = MakeIp(10, 0, 0, 1);
  pkt.bth.opcode = IbOpcode::kAck;
  pkt.bth.dest_qp = 7;
  pkt.bth.psn = 99;
  AethHeader aeth;
  aeth.syndrome = AckSyndrome::kAck;
  aeth.msn = 12;
  pkt.aeth = aeth;

  ByteBuffer frame = EncodeRoceFrame(kMacB, kMacA, pkt).ToBuffer();
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->aeth.has_value());
  EXPECT_EQ(parsed->aeth->msn, 12u);
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(Packet, PayloadCorruptionFailsIcrc) {
  RocePacket pkt = MakeWriteOnly();
  ByteBuffer frame = EncodeRoceFrame(kMacA, kMacB, pkt).ToBuffer();
  frame[frame.size() - 10] ^= 0x01;  // flip a payload bit
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

TEST(Packet, IcrcIgnoresVariantFields) {
  // Rewriting TTL (a router hop) must not invalidate the ICRC.
  RocePacket pkt = MakeWriteOnly();
  ByteBuffer frame = EncodeRoceFrame(kMacA, kMacB, pkt).ToBuffer();
  // TTL is at Eth(14) + offset 8; fixing up the IP checksum accordingly.
  frame[14 + 8] -= 1;
  // Recompute the IP header checksum.
  frame[14 + 10] = 0;
  frame[14 + 11] = 0;
  uint16_t csum = Ipv4Header::Checksum(ByteSpan(frame.data() + 14, 20));
  StoreBe16(frame.data() + 14 + 10, csum);
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
}

TEST(Packet, TruncatedFrameRejected) {
  RocePacket pkt = MakeWriteOnly();
  ByteBuffer frame = EncodeRoceFrame(kMacA, kMacB, pkt).ToBuffer();
  frame.resize(frame.size() / 2);
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  EXPECT_FALSE(parsed.ok());
}

TEST(Packet, NonRoceUdpPortRejected) {
  RocePacket pkt = MakeWriteOnly();
  ByteBuffer frame = EncodeRoceFrame(kMacA, kMacB, pkt).ToBuffer();
  // UDP dst port at Eth(14) + IP(20) + 2.
  StoreBe16(frame.data() + 14 + 20 + 2, 1234);
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  EXPECT_FALSE(parsed.ok());
}

TEST(Packet, WordsScalesWithWidth) {
  RocePacket pkt = MakeWriteOnly();
  const uint64_t w8 = pkt.Words(8);
  const uint64_t w64 = pkt.Words(64);
  EXPECT_GT(w8, w64);
  // 8x wider path: about 8x fewer words (rounding aside).
  EXPECT_NEAR(static_cast<double>(w8) / static_cast<double>(w64), 8.0, 1.0);
}

TEST(Packet, PayloadPerPacketLeavesHeaderRoom) {
  const size_t payload = RocePayloadPerPacket(1500);
  EXPECT_EQ(payload, 1500u - 20 - 8 - 12 - 16 - 4);
  RocePacket pkt = MakeWriteOnly();
  pkt.payload.assign(payload, 0xAA);
  // Frame must fit in Ethernet MTU (1500 IP) + 14 Eth header.
  EXPECT_LE(pkt.WireSize(), 1514u);
}

TEST(Packet, AckAndNakFramesRoundTrip) {
  for (AckSyndrome syndrome :
       {AckSyndrome::kAck, AckSyndrome::kRnrNak, AckSyndrome::kNakSequenceError,
        AckSyndrome::kNakInvalidRequest, AckSyndrome::kNakRemoteAccess}) {
    RocePacket ack;
    ack.src_ip = MakeIp(10, 0, 0, 2);
    ack.dst_ip = MakeIp(10, 0, 0, 1);
    ack.bth.opcode = IbOpcode::kAck;
    ack.bth.dest_qp = 7;
    ack.bth.psn = 0xABC123;  // a NAK carries the responder's expected PSN
    ack.aeth = AethHeader{syndrome, 0x00FEDCBA};

    ByteBuffer frame = EncodeRoceFrame(kMacB, kMacA, ack).ToBuffer();
    Result<RocePacket> parsed = ParseRoceFrame(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->bth.opcode, IbOpcode::kAck);
    EXPECT_EQ(parsed->bth.psn, 0xABC123u);
    ASSERT_TRUE(parsed->aeth.has_value());
    EXPECT_EQ(parsed->aeth->syndrome, syndrome);
    EXPECT_EQ(parsed->aeth->msn, 0x00FEDCBAu);
    EXPECT_TRUE(parsed->payload.empty());
  }
}

TEST(Packet, IcrcCoversZeroLengthPayload) {
  RocePacket pkt = MakeWriteOnly();
  pkt.payload.clear();
  pkt.reth->dma_length = 0;
  ByteBuffer frame = EncodeRoceFrame(kMacA, kMacB, pkt).ToBuffer();
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->payload.empty());

  // Even with no payload, the ICRC still covers the headers: flipping a bit
  // in the RETH must be caught.
  frame[14 + 20 + 8 + 12 + 3] ^= 0x01;
  Result<RocePacket> corrupted = ParseRoceFrame(frame);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kDataLoss);
}

TEST(Packet, IcrcCoversMaxMtuPayload) {
  const size_t payload = RocePayloadPerPacket(1500);
  RocePacket pkt = MakeWriteOnly();
  pkt.payload.assign(payload, 0x3C);
  pkt.reth->dma_length = static_cast<uint32_t>(payload);
  ByteBuffer frame = EncodeRoceFrame(kMacA, kMacB, pkt).ToBuffer();
  // A max-payload first/only packet fills the IP MTU exactly.
  EXPECT_EQ(frame.size(), 1514u);
  Result<RocePacket> parsed = ParseRoceFrame(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->payload.size(), payload);

  // Corrupt the last payload byte (just before the ICRC trailer).
  frame[frame.size() - kIcrcSize - 1] ^= 0x80;
  Result<RocePacket> corrupted = ParseRoceFrame(frame);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kDataLoss);
}

// --- Encoder wire bytes ------------------------------------------------------
//
// One frame per header shape the encoders produce, pinned by SHA-256. The
// digests were recorded from the appending encoder that the one-pass writer
// replaced, so any change to how a frame is assembled must leave every wire
// byte where it was.

ByteBuffer Pattern(size_t n, uint8_t seed) {
  ByteBuffer out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 131);
  }
  return out;
}

std::string Sha256Hex(ByteSpan bytes) {
  Sha256 sha;
  sha.Update(bytes.data(), bytes.size());
  return sha.Hex();
}

struct RoceShape {
  const char* name;
  MacAddr src_mac;
  MacAddr dst_mac;
  RocePacket pkt;
  const char* sha256;
};

RocePacket ShapePacket(IbOpcode opcode, Qpn dest_qp, Psn psn, size_t payload_bytes,
                       uint8_t seed) {
  RocePacket pkt;
  pkt.src_ip = MakeIp(10, 0, 0, 1);
  pkt.dst_ip = MakeIp(10, 0, 1, 2);
  pkt.src_udp_port = 0xC000 + seed;
  pkt.bth.opcode = opcode;
  pkt.bth.dest_qp = dest_qp;
  pkt.bth.psn = psn;
  pkt.payload = FrameBuf::Copy(Pattern(payload_bytes, seed));
  return pkt;
}

std::vector<RoceShape> RoceShapes() {
  const MacAddr host0 = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  const MacAddr host1 = {0x02, 0x00, 0x00, 0x00, 0x01, 0x02};
  std::vector<RoceShape> shapes;

  RocePacket write_only = ShapePacket(IbOpcode::kWriteOnly, 0x000123, 0x000456, 64, 1);
  write_only.bth.ack_request = true;
  write_only.reth = RethHeader{0x00007F0000001000ull, 0x00001234, 64};
  shapes.push_back({"write_only_64", host0, host1, write_only,
                    "2a5edf9a5763c6b24f0d41257e42993820875b4ce96471e144aee969bd42793f"});

  RocePacket write_middle = ShapePacket(IbOpcode::kWriteMiddle, 0x000042, 0xFFFFFE, 1024, 2);
  shapes.push_back({"write_middle_1024", host0, host1, write_middle,
                    "115887804ae796a7e659e68551b5bea52af1a774059ef60a794101b46919616c"});

  RocePacket read_request = ShapePacket(IbOpcode::kReadRequest, 0x000007, 0x000010, 0, 3);
  read_request.bth.ack_request = true;
  read_request.reth = RethHeader{0xABCDEF0123456789ull, 0xCAFEBABE, 4096};
  shapes.push_back({"read_request", host0, host1, read_request,
                    "d7e9f24c66487686b2f70f8e767dfd2aba5956f6fbb3c5bee6e0b4ae704067f7"});

  RocePacket resp_first = ShapePacket(IbOpcode::kReadRespFirst, 0x000107, 0x000010,
                                      RocePayloadPerPacket(1500), 4);
  resp_first.aeth = AethHeader{AckSyndrome::kAck, 0x000321};
  shapes.push_back({"read_resp_first_1440", host1, host0, resp_first,
                    "8a920b7ca1f40c95f774927a975bffe673c53f294e18e77cd05aba6240761b28"});

  RocePacket resp_only = ShapePacket(IbOpcode::kReadRespOnly, 0x000107, 0x000011, 100, 5);
  resp_only.bth.becn = true;
  resp_only.aeth = AethHeader{AckSyndrome::kAck, 0x000322};
  shapes.push_back({"read_resp_only_becn", host1, host0, resp_only,
                    "0858d3bc8e2d708daf548ffc832b36a6100d70ce6b93d4ce36e08ab21c6ea883"});

  RocePacket ack = ShapePacket(IbOpcode::kAck, 0x000107, 0x123456, 0, 6);
  ack.aeth = AethHeader{AckSyndrome::kAck, 0x0ABCDE};
  shapes.push_back({"ack", host1, host0, ack,
                    "ed7f36d3d1fcc2d7119e1c2e8b1c4dec50ac791dd7db1ebeca353a0de250d470"});

  RocePacket nak = ShapePacket(IbOpcode::kAck, 0x000107, 0x000077, 0, 7);
  nak.aeth = AethHeader{AckSyndrome::kNakSequenceError, 0x000009};
  shapes.push_back({"nak_sequence_error", host1, host0, nak,
                    "14400d6e5c631d3d7dfbae4bc0ddc6db31ce56bb67882753f07f86c2cbdf15c5"});

  RocePacket rpc = ShapePacket(IbOpcode::kRpcParams, 0x000002, 0x000100, 48, 8);
  rpc.bth.ack_request = true;
  rpc.reth = RethHeader{0x0000000000000001ull, 0, 48};
  shapes.push_back({"rpc_params_48", host0, host1, rpc,
                    "ebc9e6671b50f56a9219605a21f2c1b65d0c9f9edf1e0d05965286f5d4fa7172"});

  RocePacket ect0 = ShapePacket(IbOpcode::kWriteOnly, 0x000003, 0x000200, 64, 9);
  ect0.ecn_capable = true;
  ect0.reth = RethHeader{0x2000, 0x77, 64};
  shapes.push_back({"write_only_ect0", host0, host1, ect0,
                    "a3b39218316b7a208580f2b02d8ad2fbec9941bc0c59fae9fa2d47905e716155"});

  RocePacket ce = ShapePacket(IbOpcode::kWriteFirst, 0x000003, 0x000201, 1440, 10);
  ce.ecn_capable = true;
  ce.ecn_ce = true;
  ce.reth = RethHeader{0x3000, 0x77, 4096};
  shapes.push_back({"write_first_ce", host0, host1, ce,
                    "fb7ae612630d72a82395559add6fe29866cf6a10ec4262139d424598b5ca44c3"});
  return shapes;
}

void ExpectSameFields(const RocePacket& got, const RocePacket& want) {
  EXPECT_EQ(got.src_ip, want.src_ip);
  EXPECT_EQ(got.dst_ip, want.dst_ip);
  EXPECT_EQ(got.src_udp_port, want.src_udp_port);
  EXPECT_EQ(got.ecn_capable, want.ecn_capable);
  EXPECT_EQ(got.ecn_ce, want.ecn_ce);
  EXPECT_EQ(got.bth.opcode, want.bth.opcode);
  EXPECT_EQ(got.bth.ack_request, want.bth.ack_request);
  EXPECT_EQ(got.bth.becn, want.bth.becn);
  EXPECT_EQ(got.bth.pkey, want.bth.pkey);
  EXPECT_EQ(got.bth.dest_qp, want.bth.dest_qp);
  EXPECT_EQ(got.bth.psn, want.bth.psn);
  ASSERT_EQ(got.reth.has_value(), want.reth.has_value());
  if (want.reth.has_value()) {
    EXPECT_EQ(got.reth->virt_addr, want.reth->virt_addr);
    EXPECT_EQ(got.reth->rkey, want.reth->rkey);
    EXPECT_EQ(got.reth->dma_length, want.reth->dma_length);
  }
  ASSERT_EQ(got.aeth.has_value(), want.aeth.has_value());
  if (want.aeth.has_value()) {
    EXPECT_EQ(got.aeth->syndrome, want.aeth->syndrome);
    EXPECT_EQ(got.aeth->msn, want.aeth->msn);
  }
  EXPECT_EQ(got.payload, want.payload);
}

TEST(EncoderWireBytes, RoceFramesMatchRecordedDigests) {
  for (const RoceShape& shape : RoceShapes()) {
    SCOPED_TRACE(shape.name);
    const FrameBuf frame = EncodeRoceFrame(shape.src_mac, shape.dst_mac, shape.pkt);
    ASSERT_EQ(frame.size(), shape.pkt.WireSize());
    EXPECT_EQ(Sha256Hex(frame.span()), shape.sha256);

    // The span overload never sees the encoder's memo: a full byte-level
    // parse, ICRC included.
    Result<RocePacket> parsed = ParseRoceFrame(frame.span());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ExpectSameFields(*parsed, shape.pkt);
  }
}

TEST(EncoderWireBytes, TcpFramesMatchRecordedDigests) {
  const MacAddr client = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  const MacAddr server = {0x02, 0x00, 0x00, 0x00, 0x01, 0x02};
  TcpSegment syn;
  syn.src_ip = MakeIp(10, 0, 0, 1);
  syn.dst_ip = MakeIp(10, 0, 1, 2);
  syn.tcp.src_port = 40000;
  syn.tcp.dst_port = 5001;
  syn.tcp.seq = 0x01020304;
  syn.tcp.syn = true;

  TcpSegment data = syn;
  data.tcp.syn = false;
  data.tcp.ack_flag = true;
  data.tcp.seq = 0x01020305;
  data.tcp.ack = 0x0A0B0C0D;
  data.tcp.window = 0x2000;
  data.payload = Pattern(200, 11);

  const struct {
    const char* name;
    const TcpSegment& seg;
    const char* sha256;
  } cases[] = {
      {"syn", syn, "16af6317e4ca4c8e7f6d820e2f1b3dd5b933cb75041a5cd6c0d079d94988e2c2"},
      {"data_200", data, "53f127e728b09e4249115ae87d40eafc382d47dd866ad1cb31e156e06499b26c"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ByteBuffer frame = EncodeTcpFrame(client, server, c.seg);
    ASSERT_EQ(frame.size(),
              EthHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize + c.seg.payload.size());
    EXPECT_EQ(Sha256Hex(frame), c.sha256);

    Result<TcpSegment> parsed = ParseTcpFrame(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->src_ip, c.seg.src_ip);
    EXPECT_EQ(parsed->dst_ip, c.seg.dst_ip);
    EXPECT_EQ(parsed->tcp.seq, c.seg.tcp.seq);
    EXPECT_EQ(parsed->tcp.ack, c.seg.tcp.ack);
    EXPECT_EQ(parsed->tcp.syn, c.seg.tcp.syn);
    EXPECT_EQ(parsed->tcp.ack_flag, c.seg.tcp.ack_flag);
    EXPECT_EQ(parsed->tcp.window, c.seg.tcp.window);
    EXPECT_EQ(parsed->payload, c.seg.payload);
  }
}

}  // namespace
}  // namespace strom
