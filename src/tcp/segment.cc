#include "src/tcp/segment.h"

#include "src/common/logging.h"

namespace strom {

void TcpHeader::Encode(WireWriter& w) const {
  w.U16(src_port);
  w.U16(dst_port);
  w.U32(seq);
  w.U32(ack);
  uint16_t off_flags = (5u << 12);  // data offset 5 words
  if (fin) {
    off_flags |= 0x01;
  }
  if (syn) {
    off_flags |= 0x02;
  }
  if (rst) {
    off_flags |= 0x04;
  }
  if (ack_flag) {
    off_flags |= 0x10;
  }
  w.U16(off_flags);
  w.U16(window);
  w.U16(0);  // checksum (link-level corruption is out of scope for the baseline)
  w.U16(0);  // urgent pointer
}

TcpHeader TcpHeader::Decode(WireReader& r) {
  TcpHeader h;
  h.src_port = r.U16();
  h.dst_port = r.U16();
  h.seq = r.U32();
  h.ack = r.U32();
  const uint16_t off_flags = r.U16();
  h.fin = (off_flags & 0x01) != 0;
  h.syn = (off_flags & 0x02) != 0;
  h.rst = (off_flags & 0x04) != 0;
  h.ack_flag = (off_flags & 0x10) != 0;
  h.window = r.U16();
  r.U16();  // checksum
  r.U16();  // urgent
  return h;
}

ByteBuffer EncodeTcpFrame(const MacAddr& src_mac, const MacAddr& dst_mac,
                          const TcpSegment& seg) {
  ByteBuffer frame(EthHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize +
                   seg.payload.size());
  WireWriter w(frame);
  EthHeader eth;
  eth.src = src_mac;
  eth.dst = dst_mac;
  eth.Encode(w);

  Ipv4Header ip;
  ip.protocol = kIpProtoTcp;
  ip.src = seg.src_ip;
  ip.dst = seg.dst_ip;
  ip.total_length =
      static_cast<uint16_t>(Ipv4Header::kSize + TcpHeader::kSize + seg.payload.size());
  ip.Encode(w);

  seg.tcp.Encode(w);
  w.Bytes(seg.payload);
  STROM_CHECK_EQ(w.position(), frame.size()) << "EncodeTcpFrame left bytes unwritten";
  return frame;
}

Result<TcpSegment> ParseTcpFrame(ByteSpan frame) {
  WireReader r(frame);
  EthHeader eth = EthHeader::Decode(r);
  if (r.failed() || eth.ethertype != kEtherTypeIpv4) {
    return Status(StatusCode::kInvalidArgument, "not IPv4");
  }
  bool csum_ok = false;
  Ipv4Header ip = Ipv4Header::Decode(r, &csum_ok);
  if (r.failed() || !csum_ok || ip.protocol != kIpProtoTcp) {
    return Status(StatusCode::kInvalidArgument, "not TCP");
  }
  TcpSegment seg;
  seg.src_ip = ip.src;
  seg.dst_ip = ip.dst;
  seg.tcp = TcpHeader::Decode(r);
  if (r.failed()) {
    return Status(StatusCode::kInvalidArgument, "truncated TCP header");
  }
  const size_t payload_len =
      ip.total_length - Ipv4Header::kSize - TcpHeader::kSize;
  ByteSpan payload = r.Bytes(payload_len);
  if (r.failed()) {
    return Status(StatusCode::kInvalidArgument, "truncated TCP payload");
  }
  seg.payload.assign(payload.begin(), payload.end());
  return seg;
}

}  // namespace strom
