#include "src/testbed/testbed.h"

namespace strom {

namespace {

constexpr int kNumNodes = 2;  // the paper's two machines on one cable

}  // namespace

Testbed::Testbed(const Profile& profile) : Topology(profile, kNumNodes) {
  cable_ = std::make_unique<PointToPointLink>(sim_, profile.link);
  cable_->AttachTelemetry(telemetry_.get(), "network");
  for (int i = 0; i < kNumNodes; ++i) {
    Node* node = nodes_[i].get();
    cable_->Attach(i, [node](FrameBuf frame, TraceContext trace) {
      node->OnFrame(std::move(frame), trace);
    });
    PointToPointLink* link = cable_.get();
    node->SetFrameSender([link, i](FrameBuf frame, TraceContext trace) {
      link->Send(i, std::move(frame), trace);
    });
  }
  links_.push_back({"network", cable_.get()});
  InitObservability();
}

void Testbed::CaptureWire(const std::string& prefix) {
  cable_->AttachCapture(OpenCapture(prefix + ".wire.pcapng"), "wire");
}

void Testbed::SampleWire() { cable_->AttachSampler(telemetry_.get(), "network"); }

}  // namespace strom
