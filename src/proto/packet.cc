#include "src/proto/packet.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc.h"
#include "src/common/logging.h"
#include "src/common/paranoid.h"

namespace strom {

namespace {

size_t TransportHeaderSize(const RocePacket& pkt) {
  size_t n = BthHeader::kSize;
  if (pkt.reth.has_value()) {
    n += RethHeader::kSize;
  }
  if (pkt.aeth.has_value()) {
    n += AethHeader::kSize;
  }
  return n;
}

}  // namespace

size_t RocePacket::WireSize() const {
  return EthHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize + TransportHeaderSize(*this) +
         payload.size() + kIcrcSize;
}

uint64_t RocePacket::Words(size_t width_bytes) const {
  const size_t bytes = WireSize() - EthHeader::kSize;  // data-path sees IP..ICRC
  return (bytes + width_bytes - 1) / width_bytes;
}

uint32_t ComputeIcrc(ByteSpan ip_through_payload) {
  // Mask the variant fields: IP ToS (offset 1), TTL (offset 8), IP checksum
  // (offsets 10-11), UDP checksum (offsets 26-27), BTH byte 1 (flags, offset
  // 29) and BTH reserved byte (offset 32). Preceded by 8 bytes of 1s standing
  // in for the masked LRH/GRH fields, per the RoCE v2 ICRC definition.
  //
  // Every masked offset is < 33, so only the header prefix is staged in a
  // stack buffer; the payload is CRCed in place, avoiding a full-frame copy.
  static constexpr size_t kMaskedOffsets[] = {1, 8, 10, 11, 26, 27, 29, 32};
  static constexpr size_t kMaskedHeadSize = 33;
  uint8_t head[8 + kMaskedHeadSize];
  std::memset(head, 0xFF, 8);
  const size_t head_len = std::min(ip_through_payload.size(), kMaskedHeadSize);
  if (head_len > 0) {
    std::memcpy(head + 8, ip_through_payload.data(), head_len);
  }
  for (size_t off : kMaskedOffsets) {
    if (off < head_len) {
      head[8 + off] = 0xFF;
    }
  }
  Crc32 crc;
  crc.Update(ByteSpan(head, 8 + head_len));
  crc.Update(ip_through_payload.subspan(head_len));
  return crc.Finish();
}

FrameBuf EncodeRoceFrame(const MacAddr& src_mac, const MacAddr& dst_mac,
                         const RocePacket& pkt) {
  // One pooled block of exactly the wire size, written front to back in one
  // pass. No zero fill: the position check below proves every byte was
  // written. The mutable data() call invalidates a recycled block's memo.
  const size_t wire_size = pkt.WireSize();
  FrameBuf out = FrameBuf::AllocateUninit(wire_size);
  uint8_t* bytes = out.data();
  WireWriter w(MutableByteSpan(bytes, wire_size));

  EthHeader eth;
  eth.src = src_mac;
  eth.dst = dst_mac;
  eth.ethertype = kEtherTypeIpv4;
  eth.Encode(w);

  const size_t udp_payload =
      TransportHeaderSize(pkt) + pkt.payload.size() + kIcrcSize;

  Ipv4Header ip;
  ip.protocol = kIpProtoUdp;
  ip.tos = pkt.ecn_capable ? (pkt.ecn_ce ? kEcnCe : kEcnEct0) : kEcnNotCapable;
  ip.src = pkt.src_ip;
  ip.dst = pkt.dst_ip;
  ip.total_length = static_cast<uint16_t>(Ipv4Header::kSize + UdpHeader::kSize + udp_payload);
  ip.Encode(w);

  UdpHeader udp;
  udp.src_port = pkt.src_udp_port;
  udp.dst_port = kRoceUdpPort;
  udp.length = static_cast<uint16_t>(UdpHeader::kSize + udp_payload);
  udp.Encode(w);

  pkt.bth.Encode(w);
  if (pkt.reth.has_value()) {
    pkt.reth->Encode(w);
  }
  if (pkt.aeth.has_value()) {
    pkt.aeth->Encode(w);
  }
  w.Bytes(pkt.payload);

  const uint32_t icrc =
      ComputeIcrc(ByteSpan(bytes + EthHeader::kSize, w.position() - EthHeader::kSize));
  w.U32(icrc);
  STROM_CHECK_EQ(w.position(), wire_size) << "EncodeRoceFrame left bytes unwritten";

  // Memoize what was just encoded so later hops (switch MAC lookup, RX
  // verify+decode) can reuse it instead of re-deriving it from the bytes.
  // Committed last: any mutation after this point invalidates it.
  if (RoceFrameMemo* memo = out.EditMemo<RoceFrameMemo>()) {
    memo->src_mac = src_mac;
    memo->dst_mac = dst_mac;
    memo->src_ip = pkt.src_ip;
    memo->dst_ip = pkt.dst_ip;
    memo->src_udp_port = pkt.src_udp_port;
    memo->tos = ip.tos;
    memo->bth = pkt.bth;
    memo->reth = pkt.reth;
    memo->aeth = pkt.aeth;
    memo->icrc = icrc;
    memo->payload_len = static_cast<uint32_t>(pkt.payload.size());
    memo->payload_off = static_cast<uint32_t>(out.size() - kIcrcSize - pkt.payload.size());
    out.CommitMemo();
  }
  return out;
}

namespace {

// Shared parse body; `frame_buf` is non-null when the caller holds a FrameBuf,
// in which case the payload becomes a zero-copy sub-span of it.
Result<RocePacket> ParseRoceFrameImpl(ByteSpan frame, const FrameBuf* frame_buf) {
  WireReader r(frame);
  EthHeader eth = EthHeader::Decode(r);
  if (r.failed() || eth.ethertype != kEtherTypeIpv4) {
    return Status(StatusCode::kInvalidArgument, "not an IPv4 frame");
  }

  bool ip_csum_ok = false;
  Ipv4Header ip = Ipv4Header::Decode(r, &ip_csum_ok);
  if (r.failed()) {
    return Status(StatusCode::kInvalidArgument, "truncated IP header");
  }
  if (!ip_csum_ok) {
    return Status(StatusCode::kDataLoss, "IP header checksum mismatch");
  }
  if (ip.protocol != kIpProtoUdp) {
    return Status(StatusCode::kInvalidArgument, "not UDP");
  }

  UdpHeader udp = UdpHeader::Decode(r);
  if (r.failed() || udp.dst_port != kRoceUdpPort) {
    return Status(StatusCode::kInvalidArgument, "not RoCE UDP port");
  }

  // Verify ICRC over IP..payload before interpreting transport headers.
  const size_t ip_offset = EthHeader::kSize;
  const size_t ip_total = ip.total_length;
  if (ip_offset + ip_total > frame.size() || ip_total < Ipv4Header::kSize + UdpHeader::kSize +
                                                            BthHeader::kSize + kIcrcSize) {
    return Status(StatusCode::kInvalidArgument, "bad IP total length");
  }
  ByteSpan covered = frame.subspan(ip_offset, ip_total - kIcrcSize);
  const uint32_t wire_icrc = LoadBe32(frame.data() + ip_offset + ip_total - kIcrcSize);
  if (ComputeIcrc(covered) != wire_icrc) {
    return Status(StatusCode::kDataLoss, "ICRC mismatch");
  }

  RocePacket pkt;
  pkt.src_ip = ip.src;
  pkt.dst_ip = ip.dst;
  pkt.src_udp_port = udp.src_port;
  pkt.ecn_capable = (ip.tos & kEcnMask) != kEcnNotCapable;
  pkt.ecn_ce = (ip.tos & kEcnMask) == kEcnCe;
  pkt.bth = BthHeader::Decode(r);
  if (r.failed()) {
    return Status(StatusCode::kInvalidArgument, "truncated BTH");
  }
  if (OpcodeHasReth(pkt.bth.opcode)) {
    pkt.reth = RethHeader::Decode(r);
  }
  if (OpcodeHasAeth(pkt.bth.opcode)) {
    pkt.aeth = AethHeader::Decode(r);
  }
  if (r.failed()) {
    return Status(StatusCode::kInvalidArgument, "truncated extended header");
  }
  const size_t payload_end = ip_offset + ip_total - kIcrcSize;
  if (payload_end < r.position()) {
    return Status(StatusCode::kInvalidArgument, "inconsistent lengths");
  }
  const size_t payload_len = payload_end - r.position();
  if (frame_buf != nullptr) {
    pkt.payload = frame_buf->SubSpan(r.position(), payload_len);
  } else {
    pkt.payload = FrameBuf::Copy(frame.subspan(r.position(), payload_len));
  }
  return pkt;
}

// Builds a packet straight from the memo; the only byte-level work is the
// wire-trailer compare in the caller.
RocePacket PacketFromMemo(const RoceFrameMemo& memo, const FrameBuf& frame) {
  RocePacket pkt;
  pkt.src_ip = memo.src_ip;
  pkt.dst_ip = memo.dst_ip;
  pkt.src_udp_port = memo.src_udp_port;
  pkt.ecn_capable = (memo.tos & kEcnMask) != kEcnNotCapable;
  pkt.ecn_ce = (memo.tos & kEcnMask) == kEcnCe;
  pkt.bth = memo.bth;
  pkt.reth = memo.reth;
  pkt.aeth = memo.aeth;
  pkt.payload = frame.SubSpan(memo.payload_off, memo.payload_len);
  return pkt;
}

// Paranoid mode: the byte-level parse already ran; insist the memo agrees
// with it field for field. A divergence means a cache outlived a mutation,
// which breaks the fast path's core invariant — abort loudly.
void CrossCheckRoceMemo(const RoceFrameMemo& memo, const RocePacket& parsed,
                        const FrameBuf& frame) {
  STROM_CHECK_EQ(memo.src_ip, parsed.src_ip) << "paranoid: memo src_ip diverges from wire";
  STROM_CHECK_EQ(memo.dst_ip, parsed.dst_ip) << "paranoid: memo dst_ip diverges from wire";
  STROM_CHECK_EQ(memo.src_udp_port, parsed.src_udp_port)
      << "paranoid: memo udp port diverges from wire";
  STROM_CHECK(memo.bth.opcode == parsed.bth.opcode && memo.bth.psn == parsed.bth.psn &&
              memo.bth.dest_qp == parsed.bth.dest_qp &&
              memo.bth.ack_request == parsed.bth.ack_request &&
              memo.bth.becn == parsed.bth.becn)
      << "paranoid: memo BTH diverges from wire";
  STROM_CHECK(((memo.tos & kEcnMask) != kEcnNotCapable) == parsed.ecn_capable &&
              ((memo.tos & kEcnMask) == kEcnCe) == parsed.ecn_ce)
      << "paranoid: memo ECN codepoint diverges from wire";
  STROM_CHECK_EQ(memo.reth.has_value(), parsed.reth.has_value())
      << "paranoid: memo RETH presence diverges from wire";
  if (memo.reth.has_value()) {
    STROM_CHECK(memo.reth->virt_addr == parsed.reth->virt_addr &&
                memo.reth->rkey == parsed.reth->rkey &&
                memo.reth->dma_length == parsed.reth->dma_length)
        << "paranoid: memo RETH diverges from wire";
  }
  STROM_CHECK_EQ(memo.aeth.has_value(), parsed.aeth.has_value())
      << "paranoid: memo AETH presence diverges from wire";
  if (memo.aeth.has_value()) {
    STROM_CHECK(memo.aeth->syndrome == parsed.aeth->syndrome && memo.aeth->msn == parsed.aeth->msn)
        << "paranoid: memo AETH diverges from wire";
  }
  STROM_CHECK_EQ(memo.payload_len, parsed.payload.size())
      << "paranoid: memo payload length diverges from wire";
  STROM_CHECK_EQ(memo.icrc, LoadBe32(frame.data() + frame.size() - kIcrcSize))
      << "paranoid: memo ICRC diverges from wire trailer";
  const uint32_t recomputed = ComputeIcrc(
      ByteSpan(frame.data() + EthHeader::kSize, frame.size() - EthHeader::kSize - kIcrcSize));
  STROM_CHECK_EQ(memo.icrc, recomputed) << "paranoid: memo ICRC diverges from recomputed ICRC";
}

}  // namespace

Result<RocePacket> ParseRoceFrame(const FrameBuf& frame) {
  const RoceFrameMemo* memo = frame.GetMemo<RoceFrameMemo>();
  if (memo != nullptr && !ParanoidMode()) {
    // The wire bytes stay authoritative: re-check the ICRC trailer against
    // the cached value before trusting the memo. The invalidation rules make
    // a mismatch impossible, so this compare is belt and braces, not a
    // correctness gate for mutated frames (mutation already dropped the memo).
    if (memo->payload_off + memo->payload_len + kIcrcSize <= frame.size() &&
        LoadBe32(frame.data() + frame.size() - kIcrcSize) == memo->icrc) {
      return PacketFromMemo(*memo, frame);
    }
  }
  Result<RocePacket> parsed = ParseRoceFrameImpl(frame.span(), &frame);
  if (memo != nullptr && ParanoidMode() && parsed.ok()) {
    CrossCheckRoceMemo(*memo, *parsed, frame);
  }
  return parsed;
}

Result<RocePacket> ParseRoceFrame(ByteSpan frame) {
  return ParseRoceFrameImpl(frame, nullptr);
}

bool MarkEcnCe(FrameBuf& frame) {
  constexpr size_t kTosOff = EthHeader::kSize + 1;
  constexpr size_t kCsumOff = EthHeader::kSize + 10;
  // Read through the const view: the mutable data() accessor invalidates the
  // frame's memo, which must only happen when we actually rewrite bytes.
  const uint8_t* ro = frame.span().data();
  if (frame.size() < EthHeader::kSize + Ipv4Header::kSize ||
      LoadBe16(ro + 12) != kEtherTypeIpv4) {
    return false;
  }
  const uint8_t tos = ro[kTosOff];
  if ((tos & kEcnMask) == kEcnNotCapable) {
    return false;  // not ECN-capable: DCQCN switches drop instead of marking
  }
  if ((tos & kEcnMask) == kEcnCe) {
    return true;  // already marked upstream
  }
  frame.EnsureUnique();
  uint8_t* bytes = frame.data();  // invalidates any memo — intended
  bytes[kTosOff] = static_cast<uint8_t>((tos & ~kEcnMask) | kEcnCe);
  // The IP header checksum covers ToS: recompute over the header with the
  // checksum field zeroed. (The ICRC masks ToS, so the trailer stays valid.)
  bytes[kCsumOff] = 0;
  bytes[kCsumOff + 1] = 0;
  const uint16_t csum =
      Ipv4Header::Checksum(ByteSpan(bytes + EthHeader::kSize, Ipv4Header::kSize));
  StoreBe16(bytes + kCsumOff, csum);
  return true;
}

size_t RocePayloadPerPacket(size_t ip_mtu) {
  // First/only packets carry BTH+RETH; IB requires all non-last packets to
  // carry equal payload, so the chunk size is set by the RETH-bearing packet.
  STROM_CHECK_GT(ip_mtu, Ipv4Header::kSize + UdpHeader::kSize + BthHeader::kSize +
                             RethHeader::kSize + kIcrcSize);
  return ip_mtu - Ipv4Header::kSize - UdpHeader::kSize - BthHeader::kSize - RethHeader::kSize -
         kIcrcSize;
}

}  // namespace strom
