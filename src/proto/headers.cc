#include "src/proto/headers.h"

#include <cstdio>

namespace strom {

std::string MacToString(const MacAddr& mac) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", mac[0], mac[1], mac[2],
                mac[3], mac[4], mac[5]);
  return buf;
}

std::string IpToString(Ipv4Addr ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xFF, (ip >> 16) & 0xFF,
                (ip >> 8) & 0xFF, ip & 0xFF);
  return buf;
}

Ipv4Addr MakeIp(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
  return (static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
         (static_cast<uint32_t>(c) << 8) | d;
}

void EthHeader::Encode(WireWriter& w) const {
  w.Bytes(ByteSpan(dst.data(), dst.size()));
  w.Bytes(ByteSpan(src.data(), src.size()));
  w.U16(ethertype);
}

EthHeader EthHeader::Decode(WireReader& r) {
  EthHeader h;
  ByteSpan d = r.Bytes(6);
  ByteSpan s = r.Bytes(6);
  if (!r.failed()) {
    std::copy(d.begin(), d.end(), h.dst.begin());
    std::copy(s.begin(), s.end(), h.src.begin());
  }
  h.ethertype = r.U16();
  return h;
}

uint16_t Ipv4Header::Checksum(ByteSpan header_bytes) {
  uint32_t sum = 0;
  for (size_t i = 0; i + 1 < header_bytes.size(); i += 2) {
    sum += LoadBe16(header_bytes.data() + i);
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

namespace {

// The 20 header bytes of `h`, checksum included, staged in `hdr`.
void EncodeIpv4(const Ipv4Header& h, uint8_t (&hdr)[Ipv4Header::kSize]) {
  WireWriter w{MutableByteSpan(hdr)};
  w.U8(0x45);  // version 4, IHL 5
  w.U8(h.tos);
  w.U16(h.total_length);
  w.U16(h.identification);
  w.U16(0x4000);  // DF, no fragmentation
  w.U8(h.ttl);
  w.U8(h.protocol);
  w.U16(0);  // checksum placeholder
  w.U32(h.src);
  w.U32(h.dst);
  StoreBe16(hdr + 10, Ipv4Header::Checksum(ByteSpan(hdr)));
}

}  // namespace

void Ipv4Header::Encode(WireWriter& w) const {
  uint8_t hdr[kSize];
  EncodeIpv4(*this, hdr);
  w.Bytes(ByteSpan(hdr));
}

Ipv4Header Ipv4Header::Decode(WireReader& r, bool* checksum_ok) {
  Ipv4Header h;
  uint8_t ver_ihl = r.U8();
  h.tos = r.U8();
  h.total_length = r.U16();
  h.identification = r.U16();
  r.U16();  // flags/frag
  h.ttl = r.U8();
  h.protocol = r.U8();
  uint16_t wire_csum = r.U16();
  h.src = r.U32();
  h.dst = r.U32();
  if (checksum_ok != nullptr) {
    *checksum_ok = false;
    if (!r.failed() && ver_ihl == 0x45) {
      // Re-encode the decoded fields, which recomputes the checksum with the
      // field zeroed, and compare against the wire value.
      uint8_t hdr[kSize];
      EncodeIpv4(h, hdr);
      *checksum_ok = LoadBe16(hdr + 10) == wire_csum;
    }
  }
  return h;
}

void UdpHeader::Encode(WireWriter& w) const {
  w.U16(src_port);
  w.U16(dst_port);
  w.U16(length);
  w.U16(0);  // checksum unused for RoCE v2 (ICRC covers payload)
}

UdpHeader UdpHeader::Decode(WireReader& r) {
  UdpHeader h;
  h.src_port = r.U16();
  h.dst_port = r.U16();
  h.length = r.U16();
  r.U16();  // checksum
  return h;
}

const char* IbOpcodeName(IbOpcode op) {
  switch (op) {
    case IbOpcode::kWriteFirst:
      return "WRITE_FIRST";
    case IbOpcode::kWriteMiddle:
      return "WRITE_MIDDLE";
    case IbOpcode::kWriteLast:
      return "WRITE_LAST";
    case IbOpcode::kWriteOnly:
      return "WRITE_ONLY";
    case IbOpcode::kReadRequest:
      return "READ_REQUEST";
    case IbOpcode::kReadRespFirst:
      return "READ_RESP_FIRST";
    case IbOpcode::kReadRespMiddle:
      return "READ_RESP_MIDDLE";
    case IbOpcode::kReadRespLast:
      return "READ_RESP_LAST";
    case IbOpcode::kReadRespOnly:
      return "READ_RESP_ONLY";
    case IbOpcode::kAck:
      return "ACK";
    case IbOpcode::kRpcParams:
      return "RPC_PARAMS";
    case IbOpcode::kRpcWriteFirst:
      return "RPC_WRITE_FIRST";
    case IbOpcode::kRpcWriteMiddle:
      return "RPC_WRITE_MIDDLE";
    case IbOpcode::kRpcWriteLast:
      return "RPC_WRITE_LAST";
    case IbOpcode::kRpcWriteOnly:
      return "RPC_WRITE_ONLY";
  }
  return "UNKNOWN";
}

bool OpcodeHasReth(IbOpcode op) {
  switch (op) {
    case IbOpcode::kWriteFirst:
    case IbOpcode::kWriteOnly:
    case IbOpcode::kReadRequest:
    case IbOpcode::kRpcParams:
    case IbOpcode::kRpcWriteFirst:
    case IbOpcode::kRpcWriteOnly:
      return true;
    default:
      return false;
  }
}

bool OpcodeHasAeth(IbOpcode op) {
  switch (op) {
    case IbOpcode::kAck:
    case IbOpcode::kReadRespFirst:
    case IbOpcode::kReadRespLast:
    case IbOpcode::kReadRespOnly:
      return true;
    default:
      return false;
  }
}

bool OpcodeIsWriteLike(IbOpcode op) {
  switch (op) {
    case IbOpcode::kWriteFirst:
    case IbOpcode::kWriteMiddle:
    case IbOpcode::kWriteLast:
    case IbOpcode::kWriteOnly:
    case IbOpcode::kRpcParams:
    case IbOpcode::kRpcWriteFirst:
    case IbOpcode::kRpcWriteMiddle:
    case IbOpcode::kRpcWriteLast:
    case IbOpcode::kRpcWriteOnly:
      return true;
    default:
      return false;
  }
}

bool OpcodeIsStrom(IbOpcode op) {
  switch (op) {
    case IbOpcode::kRpcParams:
    case IbOpcode::kRpcWriteFirst:
    case IbOpcode::kRpcWriteMiddle:
    case IbOpcode::kRpcWriteLast:
    case IbOpcode::kRpcWriteOnly:
      return true;
    default:
      return false;
  }
}

bool OpcodeStartsMessage(IbOpcode op) {
  switch (op) {
    case IbOpcode::kWriteFirst:
    case IbOpcode::kWriteOnly:
    case IbOpcode::kReadRespFirst:
    case IbOpcode::kReadRespOnly:
    case IbOpcode::kRpcParams:
    case IbOpcode::kRpcWriteFirst:
    case IbOpcode::kRpcWriteOnly:
    case IbOpcode::kReadRequest:
    case IbOpcode::kAck:
      return true;
    default:
      return false;
  }
}

bool OpcodeEndsMessage(IbOpcode op) {
  switch (op) {
    case IbOpcode::kWriteLast:
    case IbOpcode::kWriteOnly:
    case IbOpcode::kReadRespLast:
    case IbOpcode::kReadRespOnly:
    case IbOpcode::kRpcParams:
    case IbOpcode::kRpcWriteLast:
    case IbOpcode::kRpcWriteOnly:
    case IbOpcode::kReadRequest:
    case IbOpcode::kAck:
      return true;
    default:
      return false;
  }
}

void BthHeader::Encode(WireWriter& w) const {
  w.U8(static_cast<uint8_t>(opcode));
  w.U8(0x40);  // SE=0, M=0, pad=0, tver=0; 0x40 marks our migration request bit unused
  w.U16(pkey);
  w.U8(0);  // reserved (masked in ICRC)
  w.U24(dest_qp & kQpnMask);
  w.U8(static_cast<uint8_t>((ack_request ? 0x80 : 0x00) | (becn ? 0x40 : 0x00)));
  w.U24(psn & kPsnMask);
}

BthHeader BthHeader::Decode(WireReader& r) {
  BthHeader h;
  h.opcode = static_cast<IbOpcode>(r.U8());
  r.U8();  // flags
  h.pkey = r.U16();
  r.U8();  // reserved
  h.dest_qp = r.U24();
  const uint8_t ack_byte = r.U8();
  h.ack_request = (ack_byte & 0x80) != 0;
  h.becn = (ack_byte & 0x40) != 0;
  h.psn = r.U24();
  return h;
}

void RethHeader::Encode(WireWriter& w) const {
  w.U64(virt_addr);
  w.U32(rkey);
  w.U32(dma_length);
}

RethHeader RethHeader::Decode(WireReader& r) {
  RethHeader h;
  h.virt_addr = r.U64();
  h.rkey = r.U32();
  h.dma_length = r.U32();
  return h;
}

void AethHeader::Encode(WireWriter& w) const {
  w.U8(static_cast<uint8_t>(syndrome));
  w.U24(msn & 0xFFFFFF);
}

AethHeader AethHeader::Decode(WireReader& r) {
  AethHeader h;
  h.syndrome = static_cast<AckSyndrome>(r.U8());
  h.msn = r.U24();
  return h;
}

}  // namespace strom
