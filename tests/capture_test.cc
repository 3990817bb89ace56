// Wire-level observability tests: pcapng writer/reader round trips, the
// time-series sampler, end-to-end capture + stromtrace inspection of clean
// and fault-injected testbed runs, and the testbed's flow-stats deposit.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/proto/packet.h"
#include "src/telemetry/flow_stats.h"
#include "src/telemetry/pcap_reader.h"
#include "src/telemetry/pcap_writer.h"
#include "src/telemetry/sampler.h"
#include "src/testbed/testbed.h"
#include "src/testbed/workload.h"
#include "tools/stromtrace/inspector.h"

namespace strom {
namespace {

constexpr Qpn kQp = 1;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

size_t CountAnomalies(const Report& report, AnomalyKind kind) {
  size_t n = 0;
  for (const Anomaly& a : report.anomalies) {
    if (a.kind == kind) {
      ++n;
    }
  }
  return n;
}

TEST(PcapWriter, RoundTripsInterfacesTimestampsAndComments) {
  const std::string path = TempPath("roundtrip.pcapng");
  {
    PcapWriter writer(path);
    ASSERT_TRUE(writer.status().ok()) << writer.status();
    const uint32_t a = writer.AddInterface("wire.0to1");
    const uint32_t b = writer.AddInterface("wire.1to0");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);

    const ByteBuffer frame1 = {0x01, 0x02, 0x03, 0x04, 0x05};
    const ByteBuffer frame2 = {0xAA, 0xBB, 0xCC};
    writer.WritePacket(a, Us(1), frame1, "trace_id=42");
    writer.WritePacket(b, Ns(1500) + 1, frame2);  // odd picosecond count
    EXPECT_EQ(writer.packets_written(), 2u);
    ASSERT_TRUE(writer.Close().ok());
  }

  Result<CaptureFile> capture = ReadPcapng(path);
  ASSERT_TRUE(capture.ok()) << capture.status();
  ASSERT_EQ(capture->interfaces.size(), 2u);
  EXPECT_EQ(capture->interfaces[0], "wire.0to1");
  EXPECT_EQ(capture->interfaces[1], "wire.1to0");
  ASSERT_EQ(capture->packets.size(), 2u);
  EXPECT_EQ(capture->packets[0].interface_id, 0u);
  EXPECT_EQ(capture->packets[0].timestamp, Us(1));
  EXPECT_EQ(capture->packets[0].data, (ByteBuffer{0x01, 0x02, 0x03, 0x04, 0x05}));
  EXPECT_EQ(capture->packets[0].comment, "trace_id=42");
  // Picosecond timestamp resolution survives the round trip exactly.
  EXPECT_EQ(capture->packets[1].timestamp, Ns(1500) + 1);
  EXPECT_TRUE(capture->packets[1].comment.empty());
}

TEST(PcapWriter, EmitsStructurallyValidPcapng) {
  const std::string path = TempPath("structure.pcapng");
  {
    PcapWriter writer(path);
    const uint32_t i = writer.AddInterface("if0");
    writer.WritePacket(i, 0, ByteBuffer{0xDE, 0xAD});
    ASSERT_TRUE(writer.Close().ok());
  }
  std::ifstream f(path, std::ios::binary);
  ByteBuffer data((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  ASSERT_GE(data.size(), 12u);
  // Section Header Block type and little-endian byte-order magic.
  EXPECT_EQ(data[0], 0x0A);
  EXPECT_EQ(data[1], 0x0D);
  EXPECT_EQ(data[2], 0x0D);
  EXPECT_EQ(data[3], 0x0A);
  EXPECT_EQ(data[8], 0x4D);
  EXPECT_EQ(data[9], 0x3C);
  EXPECT_EQ(data[10], 0x2B);
  EXPECT_EQ(data[11], 0x1A);
  // Every block's leading and trailing length fields agree (ParsePcapng
  // validates this and total coverage of the file).
  EXPECT_TRUE(ParsePcapng(data).ok());

  // Truncation is detected, not silently accepted.
  ByteBuffer truncated(data.begin(), data.end() - 2);
  EXPECT_FALSE(ParsePcapng(truncated).ok());
}

TEST(Sampler, CollectsRectangularRowsAndExportsCsv) {
  TimeSeriesSampler sampler;
  double depth = 3;
  sampler.AddProbe("queue_depth", [&depth](SimTime) { return depth; });
  sampler.AddProbe("time_us", [](SimTime now) { return ToUs(now); });
  ASSERT_EQ(sampler.probe_count(), 2u);

  sampler.Sample(Us(1));
  depth = 7;
  sampler.Sample(Us(2));

  ASSERT_EQ(sampler.rows().size(), 2u);
  EXPECT_EQ(sampler.rows()[0].t, Us(1));
  EXPECT_EQ(sampler.rows()[0].values, (std::vector<double>{3, 1}));
  EXPECT_EQ(sampler.rows()[1].values, (std::vector<double>{7, 2}));

  std::string csv;
  TimeSeriesToCsv("run0", sampler.names(), sampler.rows(), &csv);
  EXPECT_NE(csv.find("run0,1.000,queue_depth,3\n"), std::string::npos);
  EXPECT_NE(csv.find("run0,2.000,queue_depth,7\n"), std::string::npos);
}

TEST(Sampler, CollectorHarvestsTimeSeriesRuns) {
  Telemetry telemetry;
  telemetry.sampler.AddProbe("x", [](SimTime) { return 1.5; });
  telemetry.sampler.Sample(Us(10));

  TelemetryCollector collector;
  collector.Collect("runA", telemetry);
  EXPECT_TRUE(telemetry.sampler.empty());  // rows moved out
  ASSERT_EQ(collector.runs().size(), 1u);
  EXPECT_EQ(collector.runs()[0].label, "runA");
  EXPECT_EQ(collector.runs()[0].series.size(), 1u);
  const std::string csv = collector.TimeSeriesCsv();
  EXPECT_NE(csv.find("run,time_us,metric,value\n"), std::string::npos);
  EXPECT_NE(csv.find("runA,10.000,x,1.5\n"), std::string::npos);
}

TEST(Inspector, FlagsInjectedPsnGapAndIcrcCorruption) {
  const std::string path = TempPath("synthetic.pcapng");
  const MacAddr mac_a = {0x02, 0, 0, 0, 0, 1};
  const MacAddr mac_b = {0x02, 0, 0, 0, 0, 2};
  auto frame_at = [&](Psn psn, IbOpcode opcode) {
    RocePacket pkt;
    pkt.src_ip = MakeIp(10, 0, 0, 1);
    pkt.dst_ip = MakeIp(10, 0, 0, 2);
    pkt.bth.opcode = opcode;
    pkt.bth.dest_qp = kQp;
    pkt.bth.psn = psn;
    if (OpcodeHasReth(opcode)) {
      RethHeader reth;
      reth.virt_addr = 0x1000;
      reth.dma_length = 3 * 1440;
      pkt.reth = reth;
    }
    pkt.payload.assign(64, 0x55);
    return EncodeRoceFrame(mac_a, mac_b, pkt);
  };
  {
    PcapWriter writer(path);
    const uint32_t i = writer.AddInterface("wire.0to1");
    writer.WritePacket(i, Us(1), frame_at(1000, IbOpcode::kWriteFirst));
    writer.WritePacket(i, Us(2), frame_at(1001, IbOpcode::kWriteMiddle));
    // PSN 1002 never appears: a gap the responder would NAK.
    writer.WritePacket(i, Us(3), frame_at(1003, IbOpcode::kWriteLast));
    // Valid PSN but a corrupted payload byte: ICRC no longer matches.
    FrameBuf corrupt = frame_at(1004, IbOpcode::kWriteOnly);
    corrupt[corrupt.size() - kIcrcSize - 1] ^= 0x01;
    writer.WritePacket(i, Us(4), corrupt);
    ASSERT_TRUE(writer.Close().ok());
  }

  Result<Report> report = InspectFile(path);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->roce_packets, 4u);
  EXPECT_EQ(CountAnomalies(*report, AnomalyKind::kPsnGap), 1u);
  EXPECT_EQ(CountAnomalies(*report, AnomalyKind::kIcrcMismatch), 1u);
  EXPECT_EQ(report->ErrorCount(/*strict=*/false), 2u);

  // The report names both defects.
  const std::string text = FormatReport(*report);
  EXPECT_NE(text.find("psn_gap"), std::string::npos);
  EXPECT_NE(text.find("icrc_mismatch"), std::string::npos);
  EXPECT_NE(text.find("expected psn 1002"), std::string::npos);
}

TEST(Inspector, AcceptsRetransmitsAndNaksUnlessStrict) {
  const std::string path = TempPath("retransmit.pcapng");
  const MacAddr mac_a = {0x02, 0, 0, 0, 0, 1};
  const MacAddr mac_b = {0x02, 0, 0, 0, 0, 2};
  auto write_only = [&](Psn psn) {
    RocePacket pkt;
    pkt.src_ip = MakeIp(10, 0, 0, 1);
    pkt.dst_ip = MakeIp(10, 0, 0, 2);
    pkt.bth.opcode = IbOpcode::kWriteOnly;
    pkt.bth.dest_qp = kQp;
    pkt.bth.psn = psn;
    RethHeader reth;
    reth.dma_length = 8;
    pkt.reth = reth;
    pkt.payload.assign(8, 0x11);
    return EncodeRoceFrame(mac_a, mac_b, pkt);
  };
  RocePacket nak;
  nak.src_ip = MakeIp(10, 0, 0, 2);
  nak.dst_ip = MakeIp(10, 0, 0, 1);
  nak.bth.opcode = IbOpcode::kAck;
  nak.bth.dest_qp = kQp;
  nak.bth.psn = 2000;
  nak.aeth = AethHeader{AckSyndrome::kNakSequenceError, 1};
  {
    PcapWriter writer(path);
    const uint32_t i = writer.AddInterface("wire.0to1");
    writer.WritePacket(i, Us(1), write_only(2000));
    writer.WritePacket(i, Us(2), EncodeRoceFrame(mac_b, mac_a, nak));
    writer.WritePacket(i, Us(3), write_only(2000));  // go-back-N retransmit
    ASSERT_TRUE(writer.Close().ok());
  }
  Result<Report> report = InspectFile(path);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(CountAnomalies(*report, AnomalyKind::kDuplicatePsn), 1u);
  EXPECT_EQ(CountAnomalies(*report, AnomalyKind::kNak), 1u);
  // Loss recovery is not a defect... unless the capture was of a clean run.
  EXPECT_EQ(report->ErrorCount(/*strict=*/false), 0u);
  EXPECT_EQ(report->ErrorCount(/*strict=*/true), 2u);
}

// Drives one RDMA WRITE and one RDMA READ across a two-node testbed and
// returns the capture paths (files are closed when the testbed dies).
std::vector<std::string> RunCapturedTraffic(const std::string& prefix, bool inject_faults,
                                            TelemetryCollector* collector = nullptr) {
  Testbed bed(Profile10G());
  std::vector<std::string> paths = bed.EnableCapture(TempPath(prefix));
  bed.StartSampling(Us(1));
  bed.ConnectQp(0, kQp, 1, kQp);

  const size_t n = 4 * 1440;  // multi-packet message
  const VirtAddr local = bed.node(0).driver().AllocBuffer(MiB(1))->addr;
  const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
  const ByteBuffer data = RandomBytes(n, 7);
  EXPECT_TRUE(bed.node(0).driver().WriteHost(local, data).ok());

  if (inject_faults) {
    // First frame out of node 0 is dropped; the retransmission timeout fires
    // and the first retransmitted frame is corrupted (ICRC drop at node 1);
    // the next timeout finally delivers it.
    bed.direct_link()->DropNext(0, 1);
    bed.direct_link()->CorruptNext(0, 1);
  }

  bool write_done = false;
  bed.node(0).driver().PostWrite(kQp, local, remote, static_cast<uint32_t>(n),
                                 [&](Status st) {
                                   EXPECT_TRUE(st.ok()) << st;
                                   write_done = true;
                                 });
  bed.sim().RunUntil([&] { return write_done; });
  EXPECT_TRUE(write_done);

  bool read_done = false;
  bed.node(0).driver().PostRead(kQp, local + KiB(64), remote,
                                static_cast<uint32_t>(n), [&](Status st) {
                                  EXPECT_TRUE(st.ok()) << st;
                                  read_done = true;
                                });
  bed.sim().RunUntil([&] { return read_done; });
  EXPECT_TRUE(read_done);
  bed.sim().RunUntilIdle();

  EXPECT_FALSE(bed.telemetry().sampler.empty());
  if (collector != nullptr) {
    collector->Collect("capture_run", bed.telemetry());
  }
  return paths;
}

TEST(CaptureIntegration, CleanRunCapturesConformantTraffic) {
  TelemetryCollector collector;
  const std::vector<std::string> paths =
      RunCapturedTraffic("clean", /*inject_faults=*/false, &collector);
  // Wire capture plus one NIC capture per node.
  ASSERT_EQ(paths.size(), 3u);

  uint64_t wire_packets = 0;
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    Result<Report> report = InspectFile(path);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report->roce_packets, 0u);
    // A clean run must survive strict inspection: no loss, no recovery.
    EXPECT_EQ(report->ErrorCount(/*strict=*/true), 0u) << FormatReport(*report);
    if (path.find(".wire.") != std::string::npos) {
      wire_packets = report->roce_packets;
      // Both the WRITE and the READ flows are visible.
      bool saw_write = false;
      bool saw_read_resp = false;
      for (const FlowSummary& f : report->flows) {
        saw_write |= f.opcode_counts.count(static_cast<uint8_t>(IbOpcode::kWriteFirst)) > 0;
        saw_read_resp |=
            f.opcode_counts.count(static_cast<uint8_t>(IbOpcode::kReadRespFirst)) > 0;
      }
      EXPECT_TRUE(saw_write);
      EXPECT_TRUE(saw_read_resp);
    }
  }
  // 4-packet write + ACK + read request + 4 response packets at minimum.
  EXPECT_GE(wire_packets, 10u);

  // The periodic sampler produced queue-depth and utilization series.
  const std::string csv = collector.TimeSeriesCsv();
  EXPECT_NE(csv.find("node0.roce.wr_queue_depth"), std::string::npos);
  EXPECT_NE(csv.find("network.link0.utilization"), std::string::npos);
  EXPECT_NE(csv.find("node0.dma.read_backlog_ns"), std::string::npos);
}

TEST(CaptureIntegration, InjectedFaultsAreFlaggedExactly) {
  const std::vector<std::string> paths =
      RunCapturedTraffic("faulty", /*inject_faults=*/true);
  std::string wire_path;
  std::string rx_path;
  for (const std::string& path : paths) {
    if (path.find(".wire.") != std::string::npos) {
      wire_path = path;
    }
    if (path.find("node1.nic") != std::string::npos) {
      rx_path = path;
    }
  }
  ASSERT_FALSE(wire_path.empty());
  ASSERT_FALSE(rx_path.empty());

  // Wire capture: exactly the two injected faults are hard anomalies — one
  // frame annotated as dropped, one frame whose ICRC no longer matches.
  Result<Report> wire = InspectFile(wire_path);
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(CountAnomalies(*wire, AnomalyKind::kDroppedFrame), 1u) << FormatReport(*wire);
  EXPECT_EQ(CountAnomalies(*wire, AnomalyKind::kIcrcMismatch), 1u) << FormatReport(*wire);
  EXPECT_EQ(CountAnomalies(*wire, AnomalyKind::kPsnGap), 0u) << FormatReport(*wire);
  EXPECT_EQ(CountAnomalies(*wire, AnomalyKind::kMalformed), 0u);
  EXPECT_EQ(CountAnomalies(*wire, AnomalyKind::kMtuViolation), 0u);
  EXPECT_EQ(wire->ErrorCount(/*strict=*/false), 2u);
  // Recovery shows up as observations: the go-back-N retransmissions.
  EXPECT_GT(CountAnomalies(*wire, AnomalyKind::kDuplicatePsn), 0u);

  // The receiving NIC saw the corrupted frame too and dropped it there.
  Result<Report> rx = InspectFile(rx_path);
  ASSERT_TRUE(rx.ok()) << rx.status();
  EXPECT_EQ(CountAnomalies(*rx, AnomalyKind::kIcrcMismatch), 1u) << FormatReport(*rx);
  // The dropped frame never reached the receiver: it is absent here, not
  // annotated (no dropped_frame anomaly on the RX side).
  EXPECT_EQ(CountAnomalies(*rx, AnomalyKind::kDroppedFrame), 0u);
}

TEST(CaptureIntegration, CableFlowStatsCsvAccountsEveryCompletedWr) {
  // bench --record=flows on the cable: node 0 streams WRITEs and READs to
  // node 1, and the run's flows.csv must hold one completion per completed
  // WR.
  TelemetryCollector collector;
  const TestbedTelemetryDefaults saved = Testbed::telemetry_defaults;
  Testbed::telemetry_defaults.collector = &collector;
  Testbed::telemetry_defaults.flow_stats = true;
  constexpr int kOps = 16;
  uint64_t completed = 0;
  {
    Testbed bed(Profile10G());
    EXPECT_NE(bed.flow_stats(), nullptr);
    bed.ConnectQp(0, kQp, 1, kQp);
    RoceDriver& drv = bed.node(0).driver();
    const VirtAddr local = drv.AllocBuffer(MiB(1))->addr;
    const VirtAddr remote = bed.node(1).driver().AllocBuffer(MiB(1))->addr;
    EXPECT_TRUE(drv.WriteHost(local, RandomBytes(kOps * KiB(4), 5)).ok());
    for (int op = 0; op < kOps; ++op) {
      const VirtAddr src = local + uint64_t(op) * KiB(4);
      const VirtAddr dst = remote + uint64_t(op) * KiB(4);
      const auto done = [&completed](Status st) {
        EXPECT_TRUE(st.ok()) << st;
        completed += st.ok() ? 1 : 0;
      };
      if (op % 2 == 0) {
        drv.PostWrite(kQp, src, dst, static_cast<uint32_t>(KiB(4)), done);
      } else {
        drv.PostRead(kQp, src, dst, static_cast<uint32_t>(KiB(4)), done);
      }
    }
    bed.sim().RunUntilIdle();
  }  // teardown deposits the flow stats
  Testbed::telemetry_defaults = saved;
  EXPECT_EQ(completed, uint64_t(kOps));

  const std::string dir = TempPath("cable_flows");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(collector.WriteFiles(dir).ok());
  Result<FlowCsvReport> csv = LoadFlowCsv(dir + "/flows.csv");
  ASSERT_TRUE(csv.ok()) << csv.status();
  EXPECT_EQ(csv->malformed_rows, 0u);
  ASSERT_FALSE(csv->flows.empty());
  double completions = 0;
  for (const FlowCsvReport::Flow& flow : csv->flows) {
    for (const auto& [name, value] : flow.metrics) {
      completions += name == "completions" ? value : 0;
    }
  }
  EXPECT_EQ(completions, double(completed));
}

TEST(CaptureIntegration, SamplingAloneKeepsRunUntilIdleTerminating) {
  // A periodic sampler must not wedge RunUntilIdle: once all real work has
  // drained, the tick stops re-arming itself.
  Testbed bed(Profile10G());
  bed.StartSampling(Us(5));
  bed.sim().RunUntilIdle();
  EXPECT_EQ(bed.telemetry().sampler.rows().size(), 1u);
}

}  // namespace
}  // namespace strom
