// One simulated machine: host memory + CPU-side driver, and the StRoM NIC
// (DMA engine, TLB, RoCE stack, kernel engine, controller) — the full Fig 1
// assembly.
#ifndef SRC_TESTBED_NODE_H_
#define SRC_TESTBED_NODE_H_

#include <memory>

#include "src/cpu/cpu_model.h"
#include "src/faults/fault_plan.h"
#include "src/host/controller.h"
#include "src/host/driver.h"
#include "src/netsim/arp_table.h"
#include "src/pcie/dma_engine.h"
#include "src/pcie/host_memory.h"
#include "src/pcie/tlb.h"
#include "src/roce/stack.h"
#include "src/strom/engine.h"
#include "src/tcp/tcp_stack.h"
#include "src/testbed/calibration.h"

namespace strom {

class Node {
 public:
  Node(Simulator& sim, const Profile& profile, Ipv4Addr ip, MacAddr mac, const ArpTable& arp);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Ipv4Addr ip() const { return ip_; }
  const MacAddr& mac() const { return mac_; }

  // Attaches every component under the process name "node<index>".
  void AttachTelemetry(Telemetry* telemetry, int index);

  // Taps the NIC TX/RX boundary into `writer` (see RoceStack::AttachCapture).
  void AttachCapture(PcapWriter* writer, int index);

  // Registers queue/occupancy probes of every component with the sampler.
  void AttachSampler(Telemetry* telemetry, int index);

  // Ingress demux: RoCE (UDP 4791) frames go to the NIC stack, TCP frames to
  // the host kernel stack.
  void OnFrame(FrameBuf frame, TraceContext trace = {});
  // Wires both stacks' egress to the given sender (TCP frames are sent with
  // a null trace context).
  void SetFrameSender(RoceStack::FrameSender sender);

  // Crash-stop of one failure domain (ISSUE 10 / DESIGN.md §14):
  //   kNic  — the SmartNIC power-cycles: DMA completions, QP state, kernel
  //           pipelines, and frames in the TX/RX pipelines die atomically.
  //           Host memory, the TLB (host-resident page tables), and deployed
  //           bitstreams survive — they are stable state a restart recovers.
  //   kHost — the machine power-cycles: everything a kNic crash kills, plus
  //           host software state (sessions/leases are the workload layer's
  //           problem; it observes the crash via Fabric crash listeners).
  // While the NIC is dead, every ingress and egress frame is dropped on the
  // floor (counted). Restart() re-arms the same kind; restarting a host also
  // restarts its NIC (same power domain).
  void Crash(FaultTargetKind kind);
  void Restart(FaultTargetKind kind);
  bool nic_alive() const { return nic_alive_; }
  bool host_alive() const { return host_alive_; }
  uint64_t crash_rx_drops() const { return crash_rx_drops_; }
  uint64_t crash_tx_drops() const { return crash_tx_drops_; }

  HostMemory& memory() { return memory_; }
  Tlb& tlb() { return tlb_; }
  DmaEngine& dma() { return dma_; }
  RoceStack& stack() { return stack_; }
  StromEngine& engine() { return engine_; }
  Controller& controller() { return controller_; }
  RoceDriver& driver() { return driver_; }
  Simulator& sim() { return sim_; }
  CpuModel& cpu() { return cpu_; }
  TcpStack& tcp() { return tcp_; }

 private:
  Simulator& sim_;
  Ipv4Addr ip_;
  MacAddr mac_;
  HostMemory memory_;
  Tlb tlb_;
  DmaEngine dma_;
  RoceStack stack_;
  StromEngine engine_;
  Controller controller_;
  RoceDriver driver_;
  CpuModel cpu_;
  TcpStack tcp_;
  bool nic_alive_ = true;
  bool host_alive_ = true;
  uint64_t crash_rx_drops_ = 0;
  uint64_t crash_tx_drops_ = 0;
};

}  // namespace strom

#endif  // SRC_TESTBED_NODE_H_
