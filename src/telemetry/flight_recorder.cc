#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <tuple>

#include "src/common/logging.h"
#include "src/telemetry/pcap_writer.h"

namespace strom {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'R', 'M', 'F', 'R', 'E', 'C'};
constexpr uint32_t kVersion = 1;

void PutU16(std::string* out, uint16_t v) {
  out->push_back(char(v & 0xFF));
  out->push_back(char((v >> 8) & 0xFF));
}

void PutU32(std::string* out, uint32_t v) {
  PutU16(out, uint16_t(v & 0xFFFF));
  PutU16(out, uint16_t(v >> 16));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, uint32_t(v & 0xFFFFFFFFu));
  PutU32(out, uint32_t(v >> 32));
}

bool GetU16(const std::string& in, size_t* pos, uint16_t* v) {
  if (*pos + 2 > in.size()) {
    return false;
  }
  *v = uint16_t(uint8_t(in[*pos])) | uint16_t(uint8_t(in[*pos + 1])) << 8;
  *pos += 2;
  return true;
}

bool GetU32(const std::string& in, size_t* pos, uint32_t* v) {
  uint16_t lo = 0;
  uint16_t hi = 0;
  if (!GetU16(in, pos, &lo) || !GetU16(in, pos, &hi)) {
    return false;
  }
  *v = uint32_t(lo) | uint32_t(hi) << 16;
  return true;
}

bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!GetU32(in, pos, &lo) || !GetU32(in, pos, &hi)) {
    return false;
  }
  *v = uint64_t(lo) | uint64_t(hi) << 32;
  return true;
}

// Fatal-hook plumbing. The mutex only guards registration; the hook itself
// runs on the aborting thread and reads a single pointer.
std::mutex g_recorder_mu;
FlightRecorder* g_recorder = nullptr;

void FatalDumpHook() {
  FlightRecorder* recorder = g_recorder;
  if (recorder != nullptr) {
    recorder->DumpAuto("fatal");
  }
}

}  // namespace

const char* FlightRecordTypeName(FlightRecordType type) {
  switch (type) {
    case FlightRecordType::kTx:
      return "tx";
    case FlightRecordType::kRx:
      return "rx";
    case FlightRecordType::kNak:
      return "nak";
    case FlightRecordType::kCnp:
      return "cnp";
    case FlightRecordType::kQpState:
      return "qp_state";
    case FlightRecordType::kRetransmit:
      return "retransmit";
    case FlightRecordType::kTimeout:
      return "timeout";
    case FlightRecordType::kAudit:
      return "audit";
    case FlightRecordType::kCrash:
      return "crash";
    case FlightRecordType::kRestart:
      return "restart";
    case FlightRecordType::kPeerDead:
      return "peer_dead";
    case FlightRecordType::kReconnectAttempt:
      return "reconnect_attempt";
    case FlightRecordType::kLeaseAcquired:
      return "lease_acquired";
  }
  return "?";
}

FlightRecorder::FlightRecorder(int num_hosts, size_t ring_capacity, size_t frame_capacity) {
  STROM_CHECK_GT(num_hosts, 0);
  STROM_CHECK_GT(ring_capacity, 0u);
  rings_.resize(size_t(num_hosts));
  for (Ring& ring : rings_) {
    ring.slots.resize(ring_capacity);
  }
  if (frame_capacity > 0) {
    const size_t per_host = std::max<size_t>(1, frame_capacity / size_t(num_hosts));
    frame_rings_.resize(size_t(num_hosts));
    for (FrameRing& ring : frame_rings_) {
      ring.slots.resize(per_host);
    }
  }
}

FlightRecorder::~FlightRecorder() { UnregisterGlobalFlightRecorder(this); }

std::vector<FlightRecord> FlightRecorder::HostRecords(int host) const {
  std::vector<FlightRecord> out;
  if (host < 0 || size_t(host) >= rings_.size()) {
    return out;
  }
  const Ring& ring = rings_[size_t(host)];
  out.reserve(ring.count);
  const size_t start = (ring.next + ring.slots.size() - ring.count) % ring.slots.size();
  for (size_t i = 0; i < ring.count; ++i) {
    out.push_back(ring.slots[(start + i) % ring.slots.size()]);
  }
  return out;
}

Status FlightRecorder::Dump(const std::string& stem, const std::string& reason,
                            const MetricsRegistry::Snapshot* metrics) {
  // First trigger wins, atomically: a cascade (audit violation on one worker,
  // fatal on another) keeps the original scene.
  if (dumped_.exchange(true)) {
    return Status::Ok();
  }
  Status result = Status::Ok();

  // Event rings.
  {
    std::string blob;
    blob.append(kMagic, sizeof(kMagic));
    PutU32(&blob, kVersion);
    PutU32(&blob, uint32_t(reason.size()));
    blob.append(reason);
    PutU32(&blob, uint32_t(rings_.size()));
    for (size_t h = 0; h < rings_.size(); ++h) {
      const std::vector<FlightRecord> records = HostRecords(int(h));
      PutU32(&blob, uint32_t(records.size()));
      for (const FlightRecord& r : records) {
        PutU64(&blob, r.t_ps);
        PutU32(&blob, r.qpn);
        PutU32(&blob, r.psn);
        PutU32(&blob, r.aux);
        PutU16(&blob, r.host);
        blob.push_back(char(r.type));
        blob.push_back(char(r.opcode));
      }
    }
    const std::string path = stem + ".flightrec.bin";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(blob.data(), std::streamsize(blob.size()))) {
      result = InternalError("cannot write '" + path + "'");
    }
  }

  // Metrics snapshot.
  if (metrics != nullptr) {
    std::string csv = "run,kind,name,value\n";
    MetricsSnapshotToCsv("postmortem:" + reason, *metrics, &csv);
    const std::string path = stem + ".metrics.csv";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(csv.data(), std::streamsize(csv.size()))) {
      if (result.ok()) {
        result = InternalError("cannot write '" + path + "'");
      }
    }
  }

  // Frame rings as a capture, merged back into wire order. The key
  // (time, host, per-host ordinal) is a pure function of the simulation, so
  // the bundle is deterministic.
  {
    PcapWriter pcap(stem + ".frames.pcapng");
    std::vector<uint32_t> interfaces;
    interfaces.reserve(rings_.size());
    for (size_t h = 0; h < rings_.size(); ++h) {
      interfaces.push_back(pcap.AddInterface("host" + std::to_string(h)));
    }
    std::vector<const FrameSlot*> order;
    for (const FrameRing& ring : frame_rings_) {
      const size_t start =
          (ring.next + ring.slots.size() - ring.count) % ring.slots.size();
      for (size_t i = 0; i < ring.count; ++i) {
        order.push_back(&ring.slots[(start + i) % ring.slots.size()]);
      }
    }
    std::sort(order.begin(), order.end(), [](const FrameSlot* a, const FrameSlot* b) {
      return std::tie(a->t, a->host, a->seq) < std::tie(b->t, b->host, b->seq);
    });
    for (const FrameSlot* slot : order) {
      const uint32_t iface =
          slot->host < interfaces.size() ? interfaces[slot->host] : interfaces[0];
      pcap.WritePacket(iface, slot->t, ByteSpan(slot->data, slot->cap_len),
                       slot->tx ? "fr:tx" : "fr:rx", slot->orig_len);
    }
    const Status closed = pcap.Close();
    if (result.ok() && !closed.ok()) {
      result = closed;
    }
  }

  std::fprintf(stderr, "[flight-recorder] dumped post-mortem bundle '%s.*' (%s)\n",
               stem.c_str(), reason.c_str());
  return result;
}

bool FlightRecorder::DumpAuto(const std::string& reason,
                              const MetricsRegistry::Snapshot* metrics) {
  if (auto_stem_.empty() || dumped_) {
    return false;
  }
  Dump(auto_stem_, reason, metrics);
  return true;
}

Result<FlightRecordBundle> LoadFlightRecords(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open flight record '" + path + "'");
  }
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (blob.size() < sizeof(kMagic) + 4 || blob.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("'" + path + "' is not a flight record bundle");
  }
  size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  if (!GetU32(blob, &pos, &version) || version != kVersion) {
    return InvalidArgumentError("'" + path + "': unsupported flight record version");
  }
  FlightRecordBundle bundle;
  uint32_t reason_len = 0;
  if (!GetU32(blob, &pos, &reason_len) || pos + reason_len > blob.size()) {
    return InvalidArgumentError("'" + path + "': truncated reason");
  }
  bundle.reason = blob.substr(pos, reason_len);
  pos += reason_len;
  uint32_t num_hosts = 0;
  if (!GetU32(blob, &pos, &num_hosts)) {
    return InvalidArgumentError("'" + path + "': truncated host count");
  }
  bundle.hosts.resize(num_hosts);
  for (uint32_t h = 0; h < num_hosts; ++h) {
    uint32_t count = 0;
    if (!GetU32(blob, &pos, &count)) {
      return InvalidArgumentError("'" + path + "': truncated record count");
    }
    bundle.hosts[h].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      FlightRecord r;
      uint8_t type = 0;
      uint8_t opcode = 0;
      if (!GetU64(blob, &pos, &r.t_ps) || !GetU32(blob, &pos, &r.qpn) ||
          !GetU32(blob, &pos, &r.psn) || !GetU32(blob, &pos, &r.aux) ||
          !GetU16(blob, &pos, &r.host) || pos + 2 > blob.size()) {
        return InvalidArgumentError("'" + path + "': truncated record");
      }
      type = uint8_t(blob[pos++]);
      opcode = uint8_t(blob[pos++]);
      r.type = type;
      r.opcode = opcode;
      bundle.hosts[h].push_back(r);
    }
  }
  return bundle;
}

void RegisterGlobalFlightRecorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(g_recorder_mu);
  g_recorder = recorder;
  SetFatalHook(&FatalDumpHook);
}

void UnregisterGlobalFlightRecorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(g_recorder_mu);
  if (g_recorder == recorder) {
    g_recorder = nullptr;
  }
}

}  // namespace strom
