// The wire codec's building blocks: util/crc32 against its slicing-by-8
// reference, and util/bytes' array codec.  Frame-level byte pins live in
// test_wire.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/prng.h"

namespace spmv {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_below(256));
  return v;
}

TEST(Crc32, CheckValue) {
  // The CRC-32/ISO-HDLC check value, on both paths.
  const char* digits = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_portable(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32_portable(nullptr, 0), 0u);
}

TEST(Crc32, ChainsAcrossTheFoldBoundary) {
  // crc32(ab) == crc32(b, crc32(a)) at every split of inputs that cross
  // the 64-byte fold threshold on either side.
  for (const std::size_t n : {63u, 64u, 65u, 130u, 200u}) {
    const auto buf = random_bytes(n, n);
    const std::uint32_t whole = crc32(buf.data(), n);
    for (std::size_t cut = 0; cut <= n; ++cut) {
      const std::uint32_t a = crc32(buf.data(), cut);
      EXPECT_EQ(crc32(buf.data() + cut, n - cut, a), whole)
          << "n=" << n << " cut=" << cut;
    }
  }
}

TEST(Crc32, MatchesPortableAtEveryLengthOffsetAndSeed) {
  const auto buf = random_bytes(1100 + 16, 7);
  std::size_t mismatches = 0;
  for (const std::uint32_t seed : {0u, 0xFFFFFFFFu, 0x9E3779B9u}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t n = 0; n <= 1100; ++n) {
        const std::uint8_t* p = buf.data() + offset;
        if (crc32(p, n, seed) != crc32_portable(p, n, seed)) {
          ADD_FAILURE() << "seed=" << seed << " offset=" << offset
                        << " n=" << n;
          if (++mismatches == 10) return;
        }
      }
    }
  }
}

TEST(Crc32, MatchesPortableOnReplySizedInputs) {
  // 18,832 B is one rpc-solver MULTIPLY_RESULT payload.
  for (const std::size_t n : {18832u, 65536u, 69999u}) {
    const auto buf = random_bytes(n, n);
    EXPECT_EQ(crc32(buf.data(), n), crc32_portable(buf.data(), n))
        << "n=" << n;
    EXPECT_EQ(crc32(buf.data() + 3, n - 3, 0xDEADBEEFu),
              crc32_portable(buf.data() + 3, n - 3, 0xDEADBEEFu))
        << "n=" << n;
  }
}

double from_bits(std::uint64_t u) { return std::bit_cast<double>(u); }

/// Doubles whose bit patterns a value-converting codec would lose.
std::vector<double> awkward_doubles() {
  using L = std::numeric_limits<double>;
  return {
      L::quiet_NaN(),
      from_bits(0x7FF8DEADBEEF0001),  // quiet NaN with a payload
      L::signaling_NaN(),
      from_bits(0x7FF0000000000001),  // signalling NaN, smallest payload
      from_bits(0xFFF4000000000000),  // negative signalling NaN
      -0.0,
      0.0,
      L::denorm_min(),
      -L::denorm_min(),
      from_bits(0x000FFFFFFFFFFFFF),  // largest subnormal
      L::infinity(),
      -L::infinity(),
      L::max(),
      L::lowest(),
      1.0 / 3.0,
  };
}

TEST(ByteCodec, ArrayRoundTripIsBitIdentical) {
  const std::vector<double> in = awkward_doubles();
  ByteWriter w;
  w.put_array<double>(in);
  ASSERT_EQ(w.size(), in.size() * sizeof(double));
  // The same bytes put_f64 writes one element at a time.
  ByteWriter ref;
  for (const double x : in) ref.put_f64(x);
  EXPECT_EQ(w.bytes(), ref.bytes());

  ByteReader r(w.bytes());
  std::vector<double> out = {42.0};  // replaced, not appended to
  ASSERT_TRUE(r.get_array(in.size(), out));
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(in[i]))
        << "i=" << i;
  }
}

TEST(ByteCodec, IntegerArraysAreLittleEndian) {
  const std::vector<std::uint32_t> u32 = {0x01020304u, 0xFFFFFFFFu, 0};
  const std::vector<std::uint64_t> u64 = {0x0102030405060708ull, 1};
  ByteWriter w;
  w.put_array<std::uint32_t>(u32);
  w.put_array<std::uint64_t>(u64);
  ByteWriter ref;
  for (const auto v : u32) ref.put_u32(v);
  for (const auto v : u64) ref.put_u64(v);
  ASSERT_EQ(w.bytes(), ref.bytes());
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[12], 0x08);

  ByteReader r(w.bytes());
  std::vector<std::uint32_t> u32_out;
  std::vector<std::uint64_t> u64_out;
  ASSERT_TRUE(r.get_array(u32.size(), u32_out));
  ASSERT_TRUE(r.get_array(u64.size(), u64_out));
  EXPECT_EQ(u32_out, u32);
  EXPECT_EQ(u64_out, u64);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodec, ReaderSpansAtOddOffsets) {
  // Arrays that start at every offset 0..8 of the buffer: the reader's
  // copy must not assume the source is aligned for the element type.
  const std::vector<double> in = awkward_doubles();
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    ByteWriter w;
    for (std::size_t i = 0; i < offset; ++i) w.put_u8(0xAA);
    w.put_array<double>(in);
    w.put_u8(0x55);
    ByteReader r(std::span(w.bytes()).subspan(offset));
    std::vector<double> out;
    ASSERT_TRUE(r.get_array(in.size(), out)) << "offset=" << offset;
    ASSERT_EQ(out.size(), in.size());
    const std::size_t bytes = in.size() * sizeof(double);
    EXPECT_EQ(std::memcmp(out.data(), in.data(), bytes), 0)
        << "offset=" << offset;
    std::uint8_t tail = 0;
    ASSERT_TRUE(r.get_u8(tail));
    EXPECT_EQ(tail, 0x55);
  }
}

TEST(ByteCodec, ZeroLengthArrays) {
  // Writing and reading nothing touches no memory, even from an empty
  // vector (null data) into an empty span.
  ByteWriter w;
  w.put_array<double>(std::span<const double>{});
  w.put_array<std::uint32_t>(std::vector<std::uint32_t>{});
  EXPECT_EQ(w.size(), 0u);
  ByteReader r(std::span<const std::uint8_t>{});
  std::vector<double> out = {1.0, 2.0};
  ASSERT_TRUE(r.get_array(0, out));
  EXPECT_TRUE(out.empty());
  std::vector<std::uint64_t> none;
  ASSERT_TRUE(r.get_array(0, none));
  EXPECT_TRUE(none.empty());
}

TEST(ByteCodec, ShortInputFailsBeforeResizing) {
  // A count the bytes cannot back fails without resizing the output or
  // moving the reader, however large it is.
  const std::vector<std::uint8_t> bytes(15, 0);
  ByteReader r(bytes);
  std::vector<double> out = {7.0};
  EXPECT_FALSE(r.get_array(2, out));
  EXPECT_FALSE(r.get_array(std::numeric_limits<std::uint64_t>::max(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7.0);
  EXPECT_EQ(r.position(), 0u);
  std::vector<std::uint32_t> words;
  ASSERT_TRUE(r.get_array(3, words));
  EXPECT_EQ(r.remaining(), 3u);
}

}  // namespace
}  // namespace spmv
