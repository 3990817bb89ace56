// The paper's testbed: two nodes on a direct cable. Topologies with more
// hosts or a switch tier use Fabric (src/fabric/fabric.h); both share the
// run lifecycle of the topology core (src/testbed/topology.h).
#ifndef SRC_TESTBED_TESTBED_H_
#define SRC_TESTBED_TESTBED_H_

#include <string>

#include "src/testbed/topology.h"

namespace strom {

class Testbed : public Topology {
 public:
  explicit Testbed(const Profile& profile);

  // The cable: plan sides link0 (node 0 transmits) and link1 (node 1).
  PointToPointLink* direct_link() { return cable_.get(); }

 private:
  // "<prefix>.wire.pcapng", one interface pair "wire.*" on the cable.
  void CaptureWire(const std::string& prefix) override;
  // The cable's probes under "network".
  void SampleWire() override;
};

}  // namespace strom

#endif  // SRC_TESTBED_TESTBED_H_
