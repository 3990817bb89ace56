#include "src/kernels/get.h"

#include "src/common/logging.h"

namespace strom {

ByteBuffer GetParams::Encode() const {
  ByteBuffer out(kEncodedSize, 0);
  StoreLe64(out.data(), target_addr);
  StoreLe64(out.data() + 8, ht_entry_addr);
  StoreLe64(out.data() + 16, key);
  return out;
}

std::optional<GetParams> GetParams::Decode(ByteSpan data) {
  if (data.size() < kEncodedSize) {
    return std::nullopt;
  }
  GetParams p;
  p.target_addr = LoadLe64(data.data());
  p.ht_entry_addr = LoadLe64(data.data() + 8);
  p.key = LoadLe64(data.data() + 16);
  return p;
}

GetKernel::GetKernel(Simulator& sim, KernelConfig config, uint32_t rpc_opcode)
    : StromKernel(sim, config), rpc_opcode_(rpc_opcode) {
  const SimTime clk = config.clock_ps;
  fetch_stage_ =
      std::make_unique<LambdaStage>(sim, clk, "fetch_ht_entry", [this] { return FetchHtEntry(); });
  parse_stage_ =
      std::make_unique<LambdaStage>(sim, clk, "parse_ht_entry", [this] { return ParseHtEntry(); });
  merge_stage_ =
      std::make_unique<LambdaStage>(sim, clk, "merge_read_cmds", [this] { return MergeReadCmds(); });
  split_stage_ =
      std::make_unique<LambdaStage>(sim, clk, "split_read_data", [this] { return SplitReadData(); });

  // Wire the DATAFLOW graph: each FIFO wakes its consumer on push and its
  // producer on pop (back-pressure).
  fetch_stage_->WakeOnPush(streams_.qpn_in);
  fetch_stage_->WakeOnPop(ht_cmd_fifo_);
  fetch_stage_->WakeOnPop(meta_fifo_);

  parse_stage_->WakeOnPush(meta_fifo_);
  parse_stage_->WakeOnPush(ht_entry_fifo_);
  parse_stage_->WakeOnPop(value_cmd_fifo_);
  parse_stage_->WakeOnPop(streams_.roce_meta_out);

  merge_stage_->WakeOnPush(ht_cmd_fifo_);
  merge_stage_->WakeOnPush(value_cmd_fifo_);
  merge_stage_->WakeOnPop(streams_.dma_cmd_out);
  merge_stage_->WakeOnPop(read_src_fifo_);

  split_stage_->WakeOnPush(read_src_fifo_);
  split_stage_->WakeOnPush(streams_.dma_data_in);
  split_stage_->WakeOnPop(streams_.roce_data_out);
  split_stage_->WakeOnPop(ht_entry_fifo_);
}

// Listing 3: consumes qpnIn+paramIn, issues the hash-table-entry read and
// forwards the metadata needed downstream.
uint64_t GetKernel::FetchHtEntry() {
  if (streams_.qpn_in.Empty() || streams_.param_in.Empty() || ht_cmd_fifo_.Full() ||
      meta_fifo_.Full()) {
    return 0;
  }
  const Qpn qpn = streams_.qpn_in.Pop();
  ByteBuffer raw = streams_.param_in.Pop();
  std::optional<GetParams> params = GetParams::Decode(raw);
  if (!params.has_value()) {
    STROM_LOG(kWarning) << "get: malformed parameters";
    return 1;
  }
  ht_cmd_fifo_.Push(MemCmd{params->ht_entry_addr, kGetHtEntrySize, false});
  meta_fifo_.Push(InternalMeta{qpn, params->key, params->target_addr});
  return 1;  // II=1
}

// Listing 4: matches the lookup key against the three buckets (unrolled in
// hardware), emits the value-read command and the RoCE response metadata.
uint64_t GetKernel::ParseHtEntry() {
  if (meta_fifo_.Empty() || ht_entry_fifo_.Empty() || value_cmd_fifo_.Full() ||
      streams_.roce_meta_out.Full() || streams_.roce_data_out.Full() ||
      status_fifo_.Full()) {
    return 0;
  }
  const InternalMeta meta = meta_fifo_.Pop();
  NetChunk entry = ht_entry_fifo_.Pop();
  if (entry.error || entry.data.size() < kGetHtEntrySize) {
    // Hash-table read failed: status-only error response so the client's
    // completion poll still fires.
    RoceMeta out;
    out.qpn = meta.qpn;
    out.addr = meta.target_addr;
    out.length = kStatusWordSize;
    uint8_t status[kStatusWordSize];
    StoreLe64(status, MakeStatusWord(KernelStatusCode::kError, 1, 0));
    NetChunk status_chunk;
    status_chunk.data = FrameBuf::Copy(ByteSpan(status, kStatusWordSize));
    status_chunk.last = true;
    streams_.roce_data_out.Push(std::move(status_chunk));
    streams_.roce_meta_out.Push(out);
    return 1;
  }

  bool match[kGetBuckets];
  GetBucket buckets[kGetBuckets];
  const ByteSpan entry_bytes = entry.data.span();
  for (size_t i = 0; i < kGetBuckets; ++i) {  // UNROLL
    const uint8_t* b = entry_bytes.data() + i * kGetBucketStride;
    buckets[i].key = LoadLe64(b);
    buckets[i].value_ptr = LoadLe64(b + 8);
    buckets[i].value_len = LoadLe32(b + 16);
    match[i] = buckets[i].key == meta.lookup_key;
  }
  // Check which key matches (Listing 4 defaults to bucket 0).
  const size_t match_idx = match[1] ? 1 : (match[2] ? 2 : 0);

  value_cmd_fifo_.Push(
      MemCmd{buckets[match_idx].value_ptr, buckets[match_idx].value_len, false});
  RoceMeta out;
  out.qpn = meta.qpn;
  out.addr = meta.target_addr;
  out.length = buckets[match_idx].value_len + kStatusWordSize;
  streams_.roce_meta_out.Push(out);
  status_fifo_.Push(
      MakeStatusWord(match[match_idx] ? KernelStatusCode::kOk : KernelStatusCode::kNotFound,
                     1, buckets[match_idx].value_len));
  return 1;
}

// Merges the two command streams toward the DMA engine, tagging each command
// so split_read_data can route the returning data.
uint64_t GetKernel::MergeReadCmds() {
  if (streams_.dma_cmd_out.Full() || read_src_fifo_.Full()) {
    return 0;
  }
  if (!ht_cmd_fifo_.Empty()) {
    streams_.dma_cmd_out.Push(ht_cmd_fifo_.Pop());
    read_src_fifo_.Push(ReadSource::kHtEntry);
    return 1;
  }
  if (!value_cmd_fifo_.Empty()) {
    streams_.dma_cmd_out.Push(value_cmd_fifo_.Pop());
    read_src_fifo_.Push(ReadSource::kValue);
    return 1;
  }
  return 0;
}

// Routes DMA read data to the requesting stage: hash-table entries loop back
// into parse_ht_entry, values stream out to the network.
uint64_t GetKernel::SplitReadData() {
  if (read_src_fifo_.Empty() || streams_.dma_data_in.Empty()) {
    return 0;
  }
  const ReadSource src = read_src_fifo_.Front();
  if (src == ReadSource::kHtEntry) {
    if (ht_entry_fifo_.Full()) {
      return 0;
    }
    read_src_fifo_.Pop();
    ht_entry_fifo_.Push(streams_.dma_data_in.Pop());
    return Words(kGetHtEntrySize);
  }
  if (streams_.roce_data_out.Full() || status_fifo_.Empty()) {
    return 0;
  }
  read_src_fifo_.Pop();
  NetChunk value = streams_.dma_data_in.Pop();
  uint64_t status_word = status_fifo_.Pop();
  if (value.error || value.data.size() < StatusWordExtra(status_word)) {
    // Value read failed: substitute a zero-filled value and flip the status
    // to kError so the response still carries exactly meta.length bytes.
    const uint32_t value_len = StatusWordExtra(status_word);
    ByteBuffer zeros(value_len, 0);
    value.data = FrameBuf::Adopt(std::move(zeros));
    status_word = MakeStatusWord(KernelStatusCode::kError, 1, value_len);
  }
  const uint64_t cycles = Words(value.data.size());
  value.last = false;
  streams_.roce_data_out.Push(std::move(value));

  uint8_t status[kStatusWordSize];
  StoreLe64(status, status_word);
  NetChunk status_chunk;
  status_chunk.data = FrameBuf::Copy(ByteSpan(status, kStatusWordSize));
  status_chunk.last = true;
  streams_.roce_data_out.Push(std::move(status_chunk));
  ++gets_served_;
  return cycles;
}

}  // namespace strom
