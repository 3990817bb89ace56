#include "src/host/driver.h"

#include <algorithm>
#include <coroutine>
#include <utility>

#include "src/common/logging.h"

namespace strom {

RoceDriver::RoceDriver(Simulator& sim, HostMemory& memory, Tlb& tlb, Controller& controller)
    : sim_(sim), memory_(memory), tlb_(tlb), controller_(controller) {}

void RoceDriver::AttachTelemetry(Telemetry* telemetry, const std::string& process) {
  tracer_ = &telemetry->tracer;
  track_ = tracer_->RegisterTrack(process, "verbs");
}

void RoceDriver::BeginTrace(WorkRequest& wr, const char* verb) {
  if (tracer_ == nullptr) {
    return;
  }
  wr.trace = tracer_->StartTrace();
  if (!wr.trace.sampled()) {
    return;
  }
  const SimTime posted = sim_.now();
  wr.on_complete = [this, trace = wr.trace, verb, posted,
                    inner = std::move(wr.on_complete)](Status st) {
    tracer_->Span(trace, track_, verb, posted, sim_.now());
    if (inner) {
      inner(st);
    }
  };
}

Result<RdmaBuffer> RoceDriver::AllocBuffer(uint64_t size) {
  if (size == 0) {
    return InvalidArgumentError("zero-size buffer");
  }
  const uint64_t pages = (size + kHugePageSize - 1) / kHugePageSize;
  const VirtAddr base = next_va_;
  for (uint64_t i = 0; i < pages; ++i) {
    const PhysAddr phys = memory_.AllocPage();
    STROM_RETURN_IF_ERROR(tlb_.Map(base + i * kHugePageSize, phys));
  }
  next_va_ = base + pages * kHugePageSize;
  return RdmaBuffer{base, size};
}

Status RoceDriver::WriteHost(VirtAddr addr, ByteSpan data) {
  uint64_t done = 0;
  while (done < data.size()) {
    Result<PhysAddr> phys = tlb_.Translate(addr + done);
    if (!phys.ok()) {
      return phys.status();
    }
    const uint64_t chunk =
        std::min<uint64_t>(data.size() - done, kHugePageSize - HugePageOffset(addr + done));
    memory_.Write(*phys, data.subspan(done, chunk));
    done += chunk;
  }
  return Status::Ok();
}

Result<ByteBuffer> RoceDriver::ReadHost(VirtAddr addr, uint64_t len) const {
  ByteBuffer out(len);
  uint64_t done = 0;
  while (done < len) {
    Result<PhysAddr> phys = tlb_.Translate(addr + done);
    if (!phys.ok()) {
      return phys.status();
    }
    const uint64_t chunk = std::min<uint64_t>(len - done, kHugePageSize - HugePageOffset(addr + done));
    memory_.Read(*phys, MutableByteSpan(out.data() + done, chunk));
    done += chunk;
  }
  return out;
}

uint64_t RoceDriver::ReadHostU64(VirtAddr addr) const {
  // One translate and one in-place page read, no buffer: run-loop
  // predicates call this after every event. Words straddling a page take
  // the general path.
  if (HugePageOffset(addr) + 8 <= kHugePageSize) {
    Result<PhysAddr> phys = tlb_.Translate(addr);
    STROM_CHECK(phys.ok()) << phys.status();
    return memory_.ReadU64(*phys);
  }
  Result<ByteBuffer> data = ReadHost(addr, 8);
  STROM_CHECK(data.ok()) << data.status();
  return LoadLe64(data->data());
}

void RoceDriver::WriteHostU64(VirtAddr addr, uint64_t value) {
  uint8_t buf[8];
  StoreLe64(buf, value);
  Status st = WriteHost(addr, ByteSpan(buf, 8));
  STROM_CHECK(st.ok()) << st;
}

void RoceDriver::FillHost(VirtAddr addr, uint64_t len, uint8_t value) {
  ByteBuffer chunk(std::min<uint64_t>(len, kHugePageSize), value);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t n = std::min<uint64_t>(len - done, chunk.size());
    Status st = WriteHost(addr + done, ByteSpan(chunk.data(), n));
    STROM_CHECK(st.ok()) << st;
    done += n;
  }
}

WorkRequest RoceDriver::MakeRequest(WorkRequest::Kind kind, Qpn qpn, VirtAddr local,
                                    VirtAddr remote, uint32_t length,
                                    std::function<void(Status)> done) {
  WorkRequest wr;
  wr.kind = kind;
  wr.qpn = qpn;
  wr.local_addr = local;
  wr.remote_addr = remote;
  wr.length = length;
  wr.wr_id = next_wr_id_++;
  wr.on_complete = std::move(done);
  return wr;
}

void RoceDriver::PostWrite(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length,
                           std::function<void(Status)> done) {
  WorkRequest wr =
      MakeRequest(WorkRequest::Kind::kWrite, qpn, local, remote, length, std::move(done));
  BeginTrace(wr, "write");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostRead(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length,
                          std::function<void(Status)> done) {
  WorkRequest wr =
      MakeRequest(WorkRequest::Kind::kRead, qpn, local, remote, length, std::move(done));
  BeginTrace(wr, "read");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostWriteBatch(Qpn qpn, std::vector<BatchWrite> writes) {
  std::vector<WorkRequest> batch;
  batch.reserve(writes.size());
  for (BatchWrite& w : writes) {
    WorkRequest wr = MakeRequest(WorkRequest::Kind::kWrite, qpn, w.local, w.remote, w.length,
                                 std::move(w.done));
    BeginTrace(wr, "write");
    batch.push_back(std::move(wr));
  }
  controller_.PostWorkBatch(std::move(batch));
}

void RoceDriver::PostRpc(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params,
                         std::function<void(Status)> done) {
  WorkRequest wr = MakeRequest(WorkRequest::Kind::kRpc, qpn, 0, rpc_opcode,
                               static_cast<uint32_t>(params.size()), std::move(done));
  wr.inline_data = std::move(params);
  BeginTrace(wr, "rpc");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostRpcWrite(uint32_t rpc_opcode, Qpn qpn, VirtAddr origin, uint32_t length,
                              std::function<void(Status)> done) {
  WorkRequest wr = MakeRequest(WorkRequest::Kind::kRpcWrite, qpn, origin, rpc_opcode, length,
                               std::move(done));
  BeginTrace(wr, "rpc_write");
  controller_.PostWork(std::move(wr));
}

void RoceDriver::PostLocalRpc(uint32_t rpc_opcode, Qpn qpn, ByteBuffer params) {
  TraceContext trace;
  if (tracer_ != nullptr) {
    trace = tracer_->StartTrace();
    if (trace.sampled()) {
      tracer_->Instant(trace, track_, "local_rpc", sim_.now());
    }
  }
  controller_.PostLocalRpc(rpc_opcode, qpn, std::move(params), trace);
}

ValueTask<RoceCounters> RoceDriver::QueryNicCounters() {
  co_await Delay(sim_, controller_.counter_read_cost());
  co_return controller_.ReadNicCounters();
}

namespace {

// Bridges a callback-style post into an awaitable completion.
struct CompletionState {
  SimEvent event;
  Status status;
  explicit CompletionState(Simulator& sim) : event(sim) {}
};

}  // namespace

ValueTask<Status> RoceDriver::Write(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length) {
  auto state = std::make_shared<CompletionState>(sim_);
  PostWrite(qpn, local, remote, length, [state](Status st) {
    state->status = st;
    state->event.Trigger();
  });
  co_await state->event.Wait();
  co_return state->status;
}

ValueTask<Status> RoceDriver::Read(Qpn qpn, VirtAddr local, VirtAddr remote, uint32_t length) {
  auto state = std::make_shared<CompletionState>(sim_);
  PostRead(qpn, local, remote, length, [state](Status st) {
    state->status = st;
    state->event.Trigger();
  });
  co_await state->event.Wait();
  co_return state->status;
}

namespace {

// One PollU64 wait, parked on its word; it lives in the PollU64 frame while
// suspended. The host thread would re-read the word every kPollInterval from
// the instant it started (its grid), so the first write that overlaps the
// word schedules the wake at the first grid instant at or after the write
// (DESIGN.md §13). A wake that finds the sentinel again re-arms the watch on
// the same grid, and no event runs while nothing writes the word.
class PollAwaiter final : public HostMemory::WordWatch {
 public:
  PollAwaiter(Simulator& sim, HostMemory& mem, PhysAddr addr, uint64_t sentinel)
      : sim_(sim), mem_(mem), addr_(addr), sentinel_(sentinel) {}

  bool await_ready() {
    value_ = mem_.ReadU64(addr_);
    return value_ != sentinel_;
  }
  void await_suspend(std::coroutine_handle<> h) {
    waiter_ = h;
    grid_ = sim_.now();
    Arm(mem_, addr_);
  }
  uint64_t await_resume() const { return value_; }

 private:
  void OnWrite() override {
    const SimTime late = sim_.now() - grid_;
    const SimTime ticks = std::max<SimTime>(1, (late + kPollInterval - 1) / kPollInterval);
    sim_.ScheduleAt(grid_ + ticks * kPollInterval, [this] { Wake(); });
  }

  void Wake() {
    value_ = mem_.ReadU64(addr_);
    if (value_ == sentinel_) {
      grid_ = sim_.now();
      Arm(mem_, addr_);
      return;
    }
    waiter_.resume();  // may destroy *this; nothing may follow
  }

  Simulator& sim_;
  HostMemory& mem_;
  PhysAddr addr_;
  uint64_t sentinel_;
  uint64_t value_ = 0;
  SimTime grid_ = 0;  // the last instant the word was read
  std::coroutine_handle<> waiter_;
};

}  // namespace

ValueTask<uint64_t> RoceDriver::PollU64(VirtAddr addr, uint64_t sentinel) {
  STROM_CHECK_LE(HugePageOffset(addr) + 8, kHugePageSize)
      << "PollU64 at 0x" << std::hex << addr
      << ": the word straddles two huge pages, which are not physically adjacent";
  Result<PhysAddr> phys = tlb_.Translate(addr);
  STROM_CHECK(phys.ok()) << phys.status();
  co_return co_await PollAwaiter(sim_, memory_, *phys, sentinel);
}

}  // namespace strom
