#include "src/testbed/node.h"

#include "src/common/bytes.h"
#include "src/proto/headers.h"

namespace strom {

Node::Node(Simulator& sim, const Profile& profile, Ipv4Addr ip, MacAddr mac,
           const ArpTable& arp)
    : sim_(sim),
      ip_(ip),
      mac_(mac),
      tlb_(Tlb::kDefaultCapacity),
      dma_(sim, memory_, tlb_, profile.dma),
      stack_(sim, profile.roce, dma_, ip, mac, arp),
      engine_(sim, stack_, dma_),
      controller_(sim, stack_, &engine_, profile.controller),
      driver_(sim, memory_, tlb_, controller_),
      tcp_(sim, cpu_, ip, mac, arp) {}

void Node::AttachTelemetry(Telemetry* telemetry, int index) {
  const std::string process = "node" + std::to_string(index);
  driver_.AttachTelemetry(telemetry, process);
  controller_.AttachTelemetry(telemetry, process);
  stack_.AttachTelemetry(telemetry, process);
  engine_.AttachTelemetry(telemetry, process);
  dma_.AttachTelemetry(telemetry, process);
}

void Node::AttachCapture(PcapWriter* writer, int index) {
  stack_.AttachCapture(writer, "node" + std::to_string(index));
}

void Node::AttachSampler(Telemetry* telemetry, int index) {
  const std::string process = "node" + std::to_string(index);
  stack_.AttachSampler(telemetry, process);
  dma_.AttachSampler(telemetry, process);
  engine_.AttachSampler(telemetry, process);
}

void Node::OnFrame(FrameBuf frame, TraceContext trace) {
  // A dead NIC receives nothing; the link already counted the frame as
  // delivered, so link conservation is unaffected.
  if (!nic_alive_) {
    ++crash_rx_drops_;
    return;
  }
  // Peek at the IP protocol field (Eth 14 + IP offset 9). Read-only access
  // must go through the const accessors: mutable data() would invalidate the
  // frame's memoized header/ICRC cache on every received frame.
  const FrameBuf& peek = frame;
  if (frame.size() > EthHeader::kSize + 9 &&
      LoadBe16(peek.data() + 12) == kEtherTypeIpv4) {
    const uint8_t protocol = peek[EthHeader::kSize + 9];
    if (protocol == kIpProtoTcp) {
      // The TCP stack still speaks ByteBuffer; convert at this boundary.
      tcp_.OnFrame(frame.ToBuffer());
      return;
    }
  }
  stack_.OnFrame(std::move(frame), trace);
}

void Node::SetFrameSender(RoceStack::FrameSender sender) {
  // Belt-and-braces egress gate: the stack's own crash-epoch guards orphan
  // pre-crash TX events, but anything that still reaches the wire boundary
  // of a dead NIC (e.g. TCP, which has no crash epoch) is dropped here.
  auto gated = [this, sender](FrameBuf frame, TraceContext trace) {
    if (!nic_alive_) {
      ++crash_tx_drops_;
      return;
    }
    sender(std::move(frame), trace);
  };
  stack_.SetFrameSender(gated);
  tcp_.SetFrameSender([gated](ByteBuffer frame) {
    gated(FrameBuf::Adopt(std::move(frame)), TraceContext{});
  });
}

void Node::Crash(FaultTargetKind kind) {
  // Order matters: kill the wire boundary first so completion callbacks
  // fired by the flushes below cannot pump frames out of a mid-death NIC,
  // then orphan DMA completions before the stack flush errors every QP, so
  // a flush-triggered re-post never observes a half-dead DMA engine.
  nic_alive_ = false;
  if (kind == FaultTargetKind::kHost) {
    host_alive_ = false;  // same power domain: a host crash takes the NIC too
  }
  dma_.Crash();
  stack_.Crash();
  engine_.Crash();
}

void Node::Restart(FaultTargetKind kind) {
  if (kind == FaultTargetKind::kHost) {
    host_alive_ = true;
  }
  nic_alive_ = true;
}

}  // namespace strom
