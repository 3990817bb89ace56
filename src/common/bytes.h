// Byte buffer helpers: endian-aware reads/writes and a bounds-checked
// wire-format writer/reader used by the protocol codecs in src/proto/.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/logging.h"

namespace strom {

using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;
using ByteBuffer = std::vector<uint8_t>;

// Big-endian (network order) accessors.
inline void StoreBe16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}
inline void StoreBe24(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 16);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v);
}
inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}
inline void StoreBe64(uint8_t* p, uint64_t v) {
  StoreBe32(p, static_cast<uint32_t>(v >> 32));
  StoreBe32(p + 4, static_cast<uint32_t>(v));
}
inline uint16_t LoadBe16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}
inline uint32_t LoadBe24(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 16) | (static_cast<uint32_t>(p[1]) << 8) | p[2];
}
inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}
inline uint64_t LoadBe64(const uint8_t* p) {
  return (static_cast<uint64_t>(LoadBe32(p)) << 32) | LoadBe32(p + 4);
}

// Little-endian accessors (host data structures in simulated memory).
inline void StoreLe32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void StoreLe64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Sequential big-endian writer: a cursor over a buffer sized before the first
// byte is written. Every write is bounds-checked in every build; running past
// the end is fatal, never a silent overrun. Callers that fill a buffer whole
// check position() against its size once they are done.
class WireWriter {
 public:
  explicit WireWriter(MutableByteSpan out) : out_(out) {}

  size_t position() const { return pos_; }

  void U8(uint8_t v) { *Claim(1) = v; }
  void U16(uint16_t v) { StoreBe16(Claim(2), v); }
  void U24(uint32_t v) { StoreBe24(Claim(3), v); }
  void U32(uint32_t v) { StoreBe32(Claim(4), v); }
  void U64(uint64_t v) { StoreBe64(Claim(8), v); }
  void Bytes(ByteSpan data) {
    if (!data.empty()) {
      std::memcpy(Claim(data.size()), data.data(), data.size());
    }
  }

 private:
  // Advances the cursor by `n` and returns where those bytes go.
  uint8_t* Claim(size_t n) {
    STROM_CHECK_LE(n, out_.size() - pos_)
        << "WireWriter overrun: " << n << " bytes at position " << pos_ << " of "
        << out_.size();
    uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }

  MutableByteSpan out_;
  size_t pos_ = 0;
};

// Sequential big-endian reader over a ByteSpan; sets failed() on overrun
// instead of crashing so the RX path can drop malformed packets.
class WireReader {
 public:
  explicit WireReader(ByteSpan data) : data_(data) {}

  bool failed() const { return failed_; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  uint16_t U16() {
    if (!Need(2)) {
      return 0;
    }
    uint16_t v = LoadBe16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }
  uint32_t U24() {
    if (!Need(3)) {
      return 0;
    }
    uint32_t v = LoadBe24(data_.data() + pos_);
    pos_ += 3;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) {
      return 0;
    }
    uint32_t v = LoadBe32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) {
      return 0;
    }
    uint64_t v = LoadBe64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  ByteSpan Bytes(size_t n) {
    if (!Need(n)) {
      return {};
    }
    ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  ByteSpan Rest() {
    ByteSpan out = data_.subspan(pos_);
    pos_ = data_.size();
    return out;
  }
  void Skip(size_t n) { (void)Bytes(n); }

 private:
  bool Need(size_t n) {
    if (failed_ || pos_ + n > data_.size()) {
      failed_ = true;
      return false;
    }
    return true;
  }

  ByteSpan data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// Debug hexdump ("0a 1b 2c ..."), capped at `max_bytes`.
std::string HexDump(ByteSpan data, size_t max_bytes = 64);

}  // namespace strom

#endif  // SRC_COMMON_BYTES_H_
