#include "src/fabric/fabric.h"

#include <vector>

#include "src/common/logging.h"

namespace strom {

Fabric::Fabric(const Profile& profile, FabricTopologyConfig topo)
    : Topology(profile, topo.num_hosts), num_leaves_(topo.num_leaves) {
  STROM_CHECK_GE(topo.num_hosts, 2);
  STROM_CHECK_GE(topo.num_leaves, 1);
  if (topo.num_leaves == 1) {
    STROM_CHECK_EQ(topo.num_spines, 0) << "single-switch rack has no spine tier";
  } else {
    STROM_CHECK_GE(topo.num_spines, 1) << "multi-leaf fabric needs a spine tier";
  }

  topo.sw.port_rate_bps = profile.link.rate_bps;
  topo.sw.ip_mtu = profile.link.ip_mtu;
  hosts_per_leaf_ = (topo.num_hosts + topo.num_leaves - 1) / topo.num_leaves;

  for (int l = 0; l < topo.num_leaves; ++l) {
    switches_.push_back(
        std::make_unique<FabricSwitch>(sim_, topo.sw, "leaf" + std::to_string(l)));
  }
  for (int s = 0; s < topo.num_spines; ++s) {
    switches_.push_back(
        std::make_unique<FabricSwitch>(sim_, topo.sw, "spine" + std::to_string(s)));
  }

  // Host links.
  for (int i = 0; i < topo.num_hosts; ++i) {
    FabricSwitch& sw = leaf(LeafOf(i));
    const int port = sw.AddPort();
    PointToPointLink& link = sw.PortLink(port);
    Node* node = nodes_[i].get();
    link.Attach(0, [node](FrameBuf frame, TraceContext trace) {
      node->OnFrame(std::move(frame), trace);
    });
    node->SetFrameSender([&link](FrameBuf frame, TraceContext trace) {
      link.Send(0, std::move(frame), trace);
    });
    sw.AddStaticRoute(node->mac(), port);
  }

  // Leaf-spine cables + seeded routes: leaf l starts out reaching remote
  // host h through spine h % num_spines; spine s reaches host h through its
  // cable to leaf(h). With exact routes everywhere, nothing floods. Source
  // learning then moves a leaf's route to h onto whichever spine last
  // delivered a frame from h (FabricSwitch::OnFrame).
  // [leaf][spine] -> leaf port and [spine][leaf] -> spine port.
  std::vector<std::vector<int>> uplink(num_leaves_, std::vector<int>(topo.num_spines));
  std::vector<std::vector<int>> downlink(topo.num_spines, std::vector<int>(num_leaves_));
  for (int l = 0; l < num_leaves_; ++l) {
    for (int s = 0; s < topo.num_spines; ++s) {
      auto [lp, sp] = leaf(l).ConnectTo(spine(s));
      uplink[l][s] = lp;
      downlink[s][l] = sp;
    }
  }
  for (int h = 0; h < topo.num_hosts; ++h) {
    const int hl = LeafOf(h);
    const MacAddr& mac = nodes_[h]->mac();
    for (int l = 0; l < num_leaves_; ++l) {
      if (l != hl) {
        leaf(l).AddStaticRoute(mac, uplink[l][h % topo.num_spines]);
      }
    }
    for (int s = 0; s < topo.num_spines; ++s) {
      spine(s).AddStaticRoute(mac, downlink[s][hl]);
    }
  }

  // Plan order over owned links is (leaf, port): spines own none.
  for (auto& sw : switches_) {
    sw->AttachTelemetry(telemetry_.get(), sw->name());
    for (int port = 0; port < sw->num_ports(); ++port) {
      if (sw->OwnsPortLink(port)) {
        links_.push_back({sw->name() + ".port" + std::to_string(port), &sw->PortLink(port)});
      }
    }
  }
  InitObservability();
}

void Fabric::CaptureWire(const std::string& prefix) {
  PcapWriter* writer = OpenCapture(prefix + ".fabric.pcapng");
  // The leaves own every link, so tapping them taps each link once.
  for (int l = 0; l < num_leaves_; ++l) {
    leaf(l).AttachCapture(writer);
  }
}

void Fabric::SampleWire() {
  for (auto& sw : switches_) {
    sw->AttachSampler(telemetry_.get(), sw->name());
  }
}

}  // namespace strom
