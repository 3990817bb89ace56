// Minimal pcapng (pcap next generation) writer for wire-level capture taps.
// Produces standard little-endian pcapng files openable in Wireshark/tshark:
// one Section Header Block, one Interface Description Block per registered
// tap (LINKTYPE_ETHERNET, if_tsresol = 1 ps so simulated timestamps are
// exact), and one Enhanced Packet Block per frame. Annotations — PR 1 trace
// ids and link fate (dropped/corrupted/oversize) — are carried in the
// standard opt_comment option so they show up in Wireshark's packet details.
#ifndef SRC_TELEMETRY_PCAP_WRITER_H_
#define SRC_TELEMETRY_PCAP_WRITER_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/sim/time.h"

namespace strom {

class PcapWriter {
 public:
  // Opens `path` for writing and emits the section header. Check status()
  // before use; a failed writer swallows writes silently so capture taps
  // never take down a simulation.
  explicit PcapWriter(const std::string& path);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  const Status& status() const { return status_; }
  const std::string& path() const { return path_; }

  // Registers a capture interface (one IDB); returns its id for WritePacket.
  // All interfaces must be added before the first packet is written.
  uint32_t AddInterface(const std::string& name);

  // Appends one frame captured at simulated time `at` (picoseconds). The
  // optional comment is stored verbatim as an opt_comment option. If
  // `orig_len` is nonzero the frame is a truncated snapshot: `frame` is the
  // captured prefix and `orig_len` the on-wire length (EPB original length).
  void WritePacket(uint32_t interface_id, SimTime at, ByteSpan frame,
                   std::string_view comment = {}, uint32_t orig_len = 0);

  uint64_t packets_written() const { return packets_written_; }
  size_t interface_count() const { return interface_count_; }

  // Flushes and closes the file; further writes are dropped.
  Status Close();

 private:
  void Append(const ByteBuffer& block);

  std::string path_;
  std::ofstream out_;
  Status status_;
  size_t interface_count_ = 0;
  uint64_t packets_written_ = 0;
};

}  // namespace strom

#endif  // SRC_TELEMETRY_PCAP_WRITER_H_
