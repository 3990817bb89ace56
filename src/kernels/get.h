// GET kernel: a faithful port of paper Listing 2 — the key-value store GET
// offload built from four HLS DATAFLOW functions connected by FIFOs:
//
//   fetch_ht_entry  -> htCmdFifo, metaFifo
//   parse_ht_entry  -> valueCmdFifo, roceMetaOut
//   merge_read_cmds -> readSrcFifo, dmaCmdOut
//   split_read_data -> htEntryFifo, roceDataOut
//
// Like the listing, it assumes exactly one matching key in the 3-bucket hash
// table entry (no miss handling; the traversal kernel covers chaining). Each
// stage is pipelined with II=1, so independent GETs overlap in the pipeline.
//
// Hash table entry layout (64 B): three buckets at offsets 0/20/40, each
// {key: 8 B, value_ptr: 8 B, value_len: 4 B}; last 4 bytes unused.
#ifndef SRC_KERNELS_GET_H_
#define SRC_KERNELS_GET_H_

#include <memory>
#include <optional>
#include <string>

#include "src/strom/kernel.h"

namespace strom {

inline constexpr uint32_t kGetRpcOpcode = 0x50;

inline constexpr size_t kGetHtEntrySize = 64;
inline constexpr size_t kGetBuckets = 3;
inline constexpr size_t kGetBucketStride = 20;

struct GetParams {
  VirtAddr target_addr = 0;    // response buffer on the requester
  VirtAddr ht_entry_addr = 0;  // hash table entry to fetch
  uint64_t key = 0;

  static constexpr size_t kEncodedSize = 24;
  ByteBuffer Encode() const;
  static std::optional<GetParams> Decode(ByteSpan data);
};

// One bucket of a 64 B hash-table entry, as the kernel parses it: key,
// value pointer and value length, kGetBucketStride bytes apart.
struct GetBucket {
  uint64_t key = 0;
  VirtAddr value_ptr = 0;
  uint32_t value_len = 0;
};

// Response at target_addr: [value][status word]; poll target + value_len.
class GetKernel : public StromKernel {
 public:
  GetKernel(Simulator& sim, KernelConfig config, uint32_t rpc_opcode = kGetRpcOpcode);

  uint32_t rpc_opcode() const override { return rpc_opcode_; }
  std::string name() const override { return "get"; }

  uint64_t gets_served() const { return gets_served_; }

 private:
  struct InternalMeta {
    Qpn qpn = 0;
    uint64_t lookup_key = 0;
    VirtAddr target_addr = 0;
  };
  enum class ReadSource { kHtEntry, kValue };

  uint64_t FetchHtEntry();
  uint64_t ParseHtEntry();
  uint64_t MergeReadCmds();
  uint64_t SplitReadData();

  uint32_t rpc_opcode_;

  // Internal FIFOs, named as in Listing 2.
  Fifo<ReadSource> read_src_fifo_{64, "readSrcFifo"};
  Fifo<MemCmd> ht_cmd_fifo_{64, "htCmdFifo"};
  Fifo<MemCmd> value_cmd_fifo_{64, "valueCmdFifo"};
  Fifo<InternalMeta> meta_fifo_{64, "metaFifo"};
  Fifo<NetChunk> ht_entry_fifo_{64, "htEntryFifo"};
  Fifo<uint64_t> status_fifo_{64, "statusFifo"};

  std::unique_ptr<LambdaStage> fetch_stage_;
  std::unique_ptr<LambdaStage> parse_stage_;
  std::unique_ptr<LambdaStage> merge_stage_;
  std::unique_ptr<LambdaStage> split_stage_;

  uint64_t gets_served_ = 0;
};

}  // namespace strom

#endif  // SRC_KERNELS_GET_H_
