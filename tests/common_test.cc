// Unit tests for src/common: byte I/O, CRC, hashing, RNG, status types.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/crc.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace strom {
namespace {

TEST(Bytes, BigEndianRoundTrip) {
  uint8_t buf[8];
  StoreBe16(buf, 0xBEEF);
  EXPECT_EQ(LoadBe16(buf), 0xBEEF);
  StoreBe24(buf, 0xABCDEF);
  EXPECT_EQ(LoadBe24(buf), 0xABCDEFu);
  StoreBe32(buf, 0xDEADBEEF);
  EXPECT_EQ(LoadBe32(buf), 0xDEADBEEFu);
  StoreBe64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(LoadBe64(buf), 0x0123456789ABCDEFull);
}

TEST(Bytes, LittleEndianRoundTrip) {
  uint8_t buf[8];
  StoreLe32(buf, 0xCAFEBABE);
  EXPECT_EQ(LoadLe32(buf), 0xCAFEBABEu);
  StoreLe64(buf, 0xFEEDFACE12345678ull);
  EXPECT_EQ(LoadLe64(buf), 0xFEEDFACE12345678ull);
}

TEST(Bytes, WireWriterReaderRoundTrip) {
  ByteBuffer buf(1 + 2 + 3 + 4 + 8 + 3);
  WireWriter w(buf);
  w.U8(0x12);
  EXPECT_EQ(w.position(), 1u);
  w.U16(0x3456);
  w.U24(0x789ABC);
  w.U32(0xDEF01234);
  w.U64(0x1122334455667788ull);
  EXPECT_EQ(w.position(), 18u);
  const uint8_t raw[3] = {1, 2, 3};
  w.Bytes(ByteSpan(raw, 3));
  w.Bytes(ByteSpan());  // an empty write claims nothing
  EXPECT_EQ(w.position(), buf.size());

  WireReader r(buf);
  EXPECT_EQ(r.U8(), 0x12);
  EXPECT_EQ(r.U16(), 0x3456);
  EXPECT_EQ(r.U24(), 0x789ABCu);
  EXPECT_EQ(r.U32(), 0xDEF01234u);
  EXPECT_EQ(r.U64(), 0x1122334455667788ull);
  ByteSpan rest = r.Bytes(3);
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[2], 3);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesDeathTest, WireWriterOverrunDies) {
  ByteBuffer buf(4);
  WireWriter w(buf);
  w.U32(0xDEADBEEF);
  EXPECT_DEATH(w.U8(0), "WireWriter overrun: 1 bytes at position 4 of 4");
}

TEST(Bytes, WireReaderOverrunSetsFailed) {
  ByteBuffer buf = {1, 2};
  WireReader r(buf);
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_TRUE(r.failed());
}

TEST(Bytes, HexDumpTruncates) {
  ByteBuffer buf(100, 0xAB);
  std::string dump = HexDump(buf, 4);
  EXPECT_EQ(dump, "ab ab ab ab ...");
}

TEST(Crc32, KnownVector) {
  // IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(Crc32::Compute(ByteSpan(reinterpret_cast<const uint8_t*>(s), 9)), 0xCBF43926u);
}

TEST(Crc64, KnownVector) {
  // CRC-64/XZ check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(Crc64::Compute(ByteSpan(reinterpret_cast<const uint8_t*>(s), 9)),
            0x995DC9BBDF1939FAull);
}

TEST(Crc64, IncrementalMatchesOneShot) {
  ByteBuffer data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  Crc64 crc;
  crc.Update(ByteSpan(data.data(), 123));
  crc.Update(ByteSpan(data.data() + 123, 456));
  crc.Update(ByteSpan(data.data() + 579, data.size() - 579));
  EXPECT_EQ(crc.Finish(), Crc64::Compute(data));
}

TEST(Crc64, DetectsSingleBitFlip) {
  ByteBuffer data(64, 0x5A);
  const uint64_t before = Crc64::Compute(data);
  data[17] ^= 0x01;
  EXPECT_NE(Crc64::Compute(data), before);
}

TEST(Crc32, ResetRestartsState) {
  Crc32 crc;
  crc.Update(ByteBuffer{1, 2, 3});
  crc.Reset();
  crc.Update(ByteBuffer{9});
  EXPECT_EQ(crc.Finish(), Crc32::Compute(ByteBuffer{9}));
}

// The slice-by-8 tables must be bit-exact with the byte-at-a-time reference
// for every length (the bulk loop kicks in at >= 8 bytes and leaves a 0-7
// byte tail) and every source alignment (the span start need not be
// word-aligned).
TEST(Crc, SliceBy8MatchesReferenceOnRandomLengthsAndAlignments) {
  Rng rng(0xC5C5C5C5ull);
  ByteBuffer pool(70000);
  for (auto& b : pool) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Exhaust the short lengths at several alignments: covers the tail-only
  // path, the slice-by-8 threshold (8), and the clmul fold threshold (64)
  // plus its 16-byte block boundaries.
  for (size_t len = 0; len <= 192; ++len) {
    for (size_t off = 0; off < 9; ++off) {
      const ByteSpan span(pool.data() + off, len);
      EXPECT_EQ(Crc32::Compute(span),
                crc_reference::Crc32Update(0xFFFFFFFFu, span) ^ 0xFFFFFFFFu);
      EXPECT_EQ(Crc64::Compute(span),
                crc_reference::Crc64Update(~0ull, span) ^ ~0ull);
    }
  }
  // Random larger lengths and alignments.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.Below(65000);
    const size_t off = rng.Below(64);
    const ByteSpan span(pool.data() + off, len);
    ASSERT_EQ(Crc32::Compute(span),
              crc_reference::Crc32Update(0xFFFFFFFFu, span) ^ 0xFFFFFFFFu)
        << "len=" << len << " off=" << off;
    ASSERT_EQ(Crc64::Compute(span),
              crc_reference::Crc64Update(~0ull, span) ^ ~0ull)
        << "len=" << len << " off=" << off;
  }
}

// Incremental Update() must carry state across arbitrary chunk boundaries
// exactly like the reference does — kernels fold in one stream beat at a
// time, so mid-word splits are the common case.
TEST(Crc, ChunkedUpdatesMatchReferenceAcrossArbitrarySplits) {
  Rng rng(7);
  ByteBuffer data(4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (int trial = 0; trial < 50; ++trial) {
    Crc32 c32;
    Crc64 c64;
    uint32_t r32 = 0xFFFFFFFFu;
    uint64_t r64 = ~0ull;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t n = std::min<size_t>(data.size() - pos, rng.Range(1, 23));
      const ByteSpan chunk(data.data() + pos, n);
      if (n == 1 && rng.Chance(0.5)) {
        c32.Update(data[pos]);  // exercise the single-byte overload too
        c64.Update(data[pos]);
      } else {
        c32.Update(chunk);
        c64.Update(chunk);
      }
      r32 = crc_reference::Crc32Update(r32, chunk);
      r64 = crc_reference::Crc64Update(r64, chunk);
      pos += n;
    }
    EXPECT_EQ(c32.Finish(), r32 ^ 0xFFFFFFFFu);
    EXPECT_EQ(c64.Finish(), r64 ^ ~0ull);
  }
}

TEST(Hash, Mix64IsBijectiveOnSamples) {
  // Distinct inputs map to distinct outputs (spot check).
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_NE(Mix64(0), Mix64(0xFFFFFFFFFFFFFFFFull));
  EXPECT_EQ(Mix64(42), Mix64(42));
}

TEST(Hash, HashBytesDependsOnAllBytes) {
  ByteBuffer a(33, 0);
  ByteBuffer b = a;
  b[32] = 1;  // tail byte beyond the 8-byte chunks
  EXPECT_NE(HashBytes(a), HashBytes(b));
}

TEST(Hash, SeedChangesHash) {
  ByteBuffer data{1, 2, 3, 4};
  EXPECT_NE(HashBytes(data, 1), HashBytes(data, 2));
}

TEST(Hash, RadixPartitionTakesLowBits) {
  EXPECT_EQ(RadixPartition(0x12345678, 8), 0x78u);
  EXPECT_EQ(RadixPartition(0xFFFF, 10), 0x3FFu);
  EXPECT_EQ(RadixPartition(1024, 10), 0u);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Chance(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = NotFoundError("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NOT_FOUND: missing key");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad(InternalError("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
}

TEST(PsnArithmetic, WrapsAt24Bits) {
  EXPECT_EQ(PsnAdd(0xFFFFFF, 1), 0u);
  EXPECT_EQ(PsnAdd(0xFFFFFE, 3), 1u);
}

TEST(PsnArithmetic, DistanceIsSigned) {
  EXPECT_EQ(PsnDistance(10, 15), 5);
  EXPECT_EQ(PsnDistance(15, 10), -5);
  EXPECT_EQ(PsnDistance(0xFFFFFF, 2), 3);   // across the wrap
  EXPECT_EQ(PsnDistance(2, 0xFFFFFF), -3);
}

}  // namespace
}  // namespace strom
