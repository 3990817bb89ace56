// Rack-scale topology: k hosts behind congestion-aware FabricSwitches,
// either a single-switch rack (num_leaves = 1, num_spines = 0) or a two-tier
// leaf/spine. Fabric only wires the rack; the run lifecycle (telemetry
// defaults, fault plans, crashes, capture, sampling, audits, the out-of-band
// QP handshake) is the topology core's (src/testbed/topology.h), shared with
// the 2-node cable, so benches and tests move between the cable and a rack
// by swapping the fixture.
//
// Placement is static and routing deterministic:
//   * host i lives on leaf i / ceil(hosts/leaves);
//   * every switch is seeded with an exact route to every host, so nothing
//     floods after construction; a leaf's seeded route to a host h on
//     another leaf points at spine h % num_spines (no per-flow hashing, no
//     RNG);
//   * the seeded routes are only where routing starts. Every switch learns
//     each frame's source over them, so a leaf reaches a remote host h
//     through whichever spine last delivered a frame from h. Spine routes,
//     and a leaf's routes to its own hosts, never move.
//
// Fault plans number the links the leaves own in (leaf, port) order: a
// leaf's host links, then its uplinks (spines own no links; each cable
// belongs to the leaf that dialed it). Link k's endpoint/peer side is plan
// target 2k and the owning switch's side is 2k+1.
#ifndef SRC_FABRIC_FABRIC_H_
#define SRC_FABRIC_FABRIC_H_

#include <string>

#include "src/netsim/fabric_switch.h"
#include "src/testbed/testbed.h"  // callers name the defaults Testbed::telemetry_defaults

namespace strom {

struct FabricTopologyConfig {
  int num_hosts = 4;
  int num_leaves = 1;
  int num_spines = 0;  // must be 0 iff num_leaves == 1
  // Switch knobs (queue cap, ECN threshold). port_rate_bps and ip_mtu
  // are overridden from the profile's link config at construction.
  FabricSwitchConfig sw;
};

class Fabric : public Topology {
 public:
  Fabric(const Profile& profile, FabricTopologyConfig topo);

  FabricSwitch& leaf(int i) { return switch_at(i); }
  FabricSwitch& spine(int i) { return switch_at(num_leaves_ + i); }
  int num_leaves() const { return num_leaves_; }
  int num_spines() const { return num_switches() - num_leaves_; }
  int LeafOf(int host) const { return host / hosts_per_leaf_; }

 private:
  // "<prefix>.fabric.pcapng" taps every switch port (interfaces
  // "<switch>.port<i>.*").
  void CaptureWire(const std::string& prefix) override;
  // Per-port probes of every switch.
  void SampleWire() override;

  int num_leaves_ = 1;
  int hosts_per_leaf_ = 1;
};

}  // namespace strom

#endif  // SRC_FABRIC_FABRIC_H_
