// Wire-protocol tests: every frame type round-trips bit-identically,
// malformed input (truncated, oversized, corrupted, wrong version) is
// rejected fail-closed, and a seeded random-bytes fuzz never crashes or
// over-allocates — the suite CI runs under ASan/UBSan.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "net/delta.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace spmv::net {
namespace {

std::vector<std::uint8_t> frame_of(FrameType type, std::uint64_t id,
                                   std::span<const std::uint8_t> payload) {
  return encode_frame(type, id, payload);
}

ParseStatus parse(std::span<const std::uint8_t> buf, FrameHeader& h,
                  std::span<const std::uint8_t>& payload,
                  std::size_t& consumed,
                  std::size_t max_payload = kMaxSanePayload) {
  return parse_frame(buf, max_payload, h, payload, consumed);
}

TEST(WireFrame, EmptyPayloadRoundTrip) {
  const auto f = frame_of(FrameType::kStats, 77, {});
  ASSERT_EQ(f.size(), kHeaderSize);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  ASSERT_EQ(parse(f, h, p, consumed), ParseStatus::kFrame);
  EXPECT_EQ(h.type, FrameType::kStats);
  EXPECT_EQ(h.request_id, 77u);
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(consumed, f.size());
}

TEST(WireFrame, NeedMoreOnEveryTruncation) {
  std::vector<std::uint8_t> payload(100, 0xAB);
  const auto f = frame_of(FrameType::kMultiply, 5, payload);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  // Every proper prefix must ask for more bytes, never error, never parse.
  for (std::size_t cut = 0; cut < f.size(); ++cut) {
    const auto st =
        parse(std::span(f.data(), cut), h, p, consumed);
    EXPECT_EQ(st, ParseStatus::kNeedMore) << "cut=" << cut;
  }
  ASSERT_EQ(parse(f, h, p, consumed), ParseStatus::kFrame);
  EXPECT_EQ(consumed, f.size());
}

TEST(WireFrame, BadMagicDetectedAtFourBytes) {
  std::vector<std::uint8_t> buf = {'H', 'T', 'T', 'P'};
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  EXPECT_EQ(parse(buf, h, p, consumed), ParseStatus::kBadMagic);
}

TEST(WireFrame, HeaderCorruptionRejected) {
  const auto good = frame_of(FrameType::kHealth, 9, {});
  // Flip one bit in every header byte before the CRC field itself.
  for (std::size_t i = 4; i < 24; ++i) {
    auto bad = good;
    bad[i] ^= 0x01;
    FrameHeader h;
    std::span<const std::uint8_t> p;
    std::size_t consumed = 0;
    const auto st = parse(bad, h, p, consumed);
    EXPECT_EQ(st, ParseStatus::kBadHeaderCrc) << "byte=" << i;
  }
}

TEST(WireFrame, WrongVersionRejected) {
  auto f = frame_of(FrameType::kHello, 1, {});
  f[4] = kWireVersion + 1;
  // Re-seal the header CRC so the version check (not the CRC) fires.
  const std::uint32_t crc = crc32(f.data(), 24);
  std::memcpy(f.data() + 24, &crc, 4);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  EXPECT_EQ(parse(f, h, p, consumed), ParseStatus::kBadVersion);
}

TEST(WireFrame, PayloadCorruptionRejectedButAddressable) {
  std::vector<std::uint8_t> payload(64, 0x5A);
  auto f = frame_of(FrameType::kMultiply, 1234, payload);
  f[kHeaderSize + 10] ^= 0xFF;
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  EXPECT_EQ(parse(f, h, p, consumed), ParseStatus::kBadPayloadCrc);
  // The header survived its own CRC: the server can still address the
  // error reply to the request id.
  EXPECT_EQ(h.request_id, 1234u);
}

TEST(WireFrame, OversizedRejectedBeforeBuffering) {
  std::vector<std::uint8_t> payload(1024, 1);
  const auto f = frame_of(FrameType::kUploadMatrix, 2, payload);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  // Limit below the advertised payload: rejected from the header alone,
  // even though the payload bytes are not present.
  EXPECT_EQ(parse(std::span(f.data(), kHeaderSize), h, p, consumed, 512),
            ParseStatus::kOversized);
  EXPECT_EQ(h.request_id, 2u);
}

TEST(WireFrame, UnknownTypeRejected) {
  // 4 and 19 are the retired multi-operand multiply and its result: they
  // must parse as unknown, never as some other frame.
  for (const std::uint8_t type : {0x7F, 4, 19}) {
    auto f = frame_of(FrameType::kStats, 3, {});
    f[5] = type;
    const std::uint32_t crc = crc32(f.data(), 24);
    std::memcpy(f.data() + 24, &crc, 4);
    FrameHeader h;
    std::span<const std::uint8_t> p;
    std::size_t consumed = 0;
    EXPECT_EQ(parse(f, h, p, consumed), ParseStatus::kUnknownType)
        << "type " << int{type};
    EXPECT_EQ(h.request_id, 3u) << "the error reply must stay addressable";
  }
}

TEST(WireFrame, BackToBackFramesParseInOrder) {
  auto a = frame_of(FrameType::kStats, 1, {});
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto b = frame_of(FrameType::kCancel, 2, payload);
  a.insert(a.end(), b.begin(), b.end());
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  ASSERT_EQ(parse(a, h, p, consumed), ParseStatus::kFrame);
  EXPECT_EQ(h.request_id, 1u);
  a.erase(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(consumed));
  ASSERT_EQ(parse(a, h, p, consumed), ParseStatus::kFrame);
  EXPECT_EQ(h.request_id, 2u);
  EXPECT_EQ(p.size(), 3u);
}

// Whole v2 frames, byte for byte: header, both CRC words and payload, as
// the first version-2 codec (slicing-by-8 CRC, per-element arrays)
// wrote them.  Round-trip tests cannot catch a CRC or codec change that
// both ends share; these frames can.  Both payloads are over 64 bytes,
// so the CRC's folding path runs on hosts that have it.

/// 20 doubles covering -0.0, +inf and a subnormal.
MultiplyResult golden_result() {
  MultiplyResult r;
  for (int i = 0; i < 20; ++i) r.y.push_back(0.25 * i - 1.5);
  r.y[3] = -0.0;
  r.y[7] = std::numeric_limits<double>::infinity();
  r.y[11] = 1e-310;
  r.y[19] = 6.02214076e23;
  return r;
}

TEST(WireFrame, MultiplyResultFrameBytesPinned) {
  const std::vector<std::uint8_t> v2 = {
      0x53, 0x50, 0x4d, 0x56, 0x02, 0x12, 0x00, 0x00, 0x08, 0x07, 0x06, 0x05,
      0x04, 0x03, 0x02, 0x01, 0xa4, 0x00, 0x00, 0x00, 0x31, 0xbd, 0xe9, 0xd2,
      0x0b, 0x8b, 0xb6, 0xb2, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xf8, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4, 0xbf,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xbf, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0xbf, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xe8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
      0x2b, 0xe6, 0x70, 0x8b, 0x68, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfc, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x02, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x40, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x08, 0x40, 0x17, 0xc5, 0x57, 0xca, 0x85, 0xe1, 0xdf, 0x44};
  const MultiplyResult in = golden_result();
  EXPECT_EQ(frame_of(FrameType::kMultiplyResult, 0x0102030405060708ull,
                     encode_multiply_result(in)),
            v2);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  ASSERT_EQ(parse(v2, h, p, consumed), ParseStatus::kFrame);
  EXPECT_EQ(h.type, FrameType::kMultiplyResult);
  EXPECT_EQ(consumed, v2.size());
  MultiplyResult out;
  ASSERT_TRUE(decode_multiply_result(p, out));
  ASSERT_EQ(out.y.size(), in.y.size());
  EXPECT_EQ(std::memcmp(out.y.data(), in.y.data(),
                        in.y.size() * sizeof(double)),
            0);
}

TEST(WireFrame, UploadFrameBytesPinned) {
  const std::vector<std::uint8_t> v2 = {
      0x53, 0x50, 0x4d, 0x56, 0x02, 0x02, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x7f, 0x00, 0x00, 0x00, 0xd2, 0x3f, 0x33, 0xd1,
      0xfd, 0xb7, 0x3f, 0x59, 0x01, 0x00, 0x41, 0x03, 0x00, 0x00, 0x00, 0x04,
      0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x11, 0x40, 0x59, 0xf3, 0xf8, 0xc2, 0x1f, 0x6e, 0xa5, 0x01};
  UploadMatrixRequest in;
  in.name = "A";
  in.rows = 3;
  in.cols = 4;
  in.row_ptr = {0, 2, 2, 5};
  in.col_idx = {0, 3, 1, 2, 3};
  in.values = {1.5, -2.0, 0.0, 4.25, 1e-300};
  EXPECT_EQ(frame_of(FrameType::kUploadMatrix, 42, encode_upload(in)), v2);
  FrameHeader h;
  std::span<const std::uint8_t> p;
  std::size_t consumed = 0;
  ASSERT_EQ(parse(v2, h, p, consumed), ParseStatus::kFrame);
  EXPECT_EQ(h.type, FrameType::kUploadMatrix);
  EXPECT_EQ(h.request_id, 42u);
  UploadMatrixRequest out;
  ASSERT_TRUE(decode_upload(p, out));
  EXPECT_EQ(out.row_ptr, in.row_ptr);
  EXPECT_EQ(out.col_idx, in.col_idx);
  EXPECT_EQ(out.values, in.values);
}

// --- payload codecs ---------------------------------------------------------

TEST(WirePayload, HelloRoundTrip) {
  HelloRequest in;
  in.requested_quota = 64;
  in.client_name = "solver-7";
  in.resume_session_id = 0x1122334455667788ULL;
  in.resume_token = 0xdeadbeefcafef00dULL;
  HelloRequest out;
  ASSERT_TRUE(decode_hello(encode_hello(in), out));
  EXPECT_EQ(out.requested_quota, 64u);
  EXPECT_EQ(out.client_name, "solver-7");
  EXPECT_EQ(out.resume_session_id, in.resume_session_id);
  EXPECT_EQ(out.resume_token, in.resume_token);

  HelloOk ok_in;
  ok_in.session_id = 99;
  ok_in.quota = 32;
  ok_in.max_payload = 1 << 20;
  ok_in.resume_token = 0x0123456789abcdefULL;
  ok_in.resumed = 1;
  HelloOk ok_out;
  ASSERT_TRUE(decode_hello_ok(encode_hello_ok(ok_in), ok_out));
  EXPECT_EQ(ok_out.session_id, 99u);
  EXPECT_EQ(ok_out.quota, 32u);
  EXPECT_EQ(ok_out.max_payload, 1u << 20);
  EXPECT_EQ(ok_out.resume_token, ok_in.resume_token);
  EXPECT_EQ(ok_out.resumed, 1u);
}

TEST(WirePayload, StatusRoundTrip) {
  StatusMsg in;
  in.code = StatusCode::kDeadlineExceeded;
  in.message = "deadline passed before dispatch";
  StatusMsg out;
  ASSERT_TRUE(decode_status(encode_status(in), out));
  EXPECT_EQ(out.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(out.message, in.message);
}

TEST(WirePayload, UploadRoundTrip) {
  UploadMatrixRequest in;
  in.name = "A";
  in.rows = 3;
  in.cols = 4;
  in.row_ptr = {0, 2, 2, 5};
  in.col_idx = {0, 3, 1, 2, 3};
  in.values = {1.5, -2.0, 0.0, 4.25, 1e-300};
  UploadMatrixRequest out;
  ASSERT_TRUE(decode_upload(encode_upload(in), out));
  EXPECT_EQ(out.name, "A");
  EXPECT_EQ(out.rows, 3u);
  EXPECT_EQ(out.cols, 4u);
  EXPECT_EQ(out.row_ptr, in.row_ptr);
  EXPECT_EQ(out.col_idx, in.col_idx);
  EXPECT_EQ(out.values, in.values);
}

TEST(WirePayload, UploadLyingCountRejectedWithoutAllocation) {
  UploadMatrixRequest in;
  in.name = "A";
  in.rows = 1;
  in.cols = 1;
  in.row_ptr = {0, 1};
  in.col_idx = {0};
  in.values = {1.0};
  auto bytes = encode_upload(in);
  // The values count lives right before the doubles; forge it huge.  The
  // decoder must reject against remaining bytes, not trust the count.
  const std::uint32_t huge = 0x7FFFFFFF;
  std::memcpy(bytes.data() + bytes.size() - 8 - 4, &huge, 4);
  UploadMatrixRequest out;
  EXPECT_FALSE(decode_upload(bytes, out));
}

TEST(WirePayload, MultiplyFullOperandRoundTrip) {
  MultiplyRequest in;
  in.name = "A";
  in.deadline_us = 250000;
  in.priority = -3;
  OperandSpec spec;
  spec.mode = OperandMode::kFull;
  spec.n = 4;
  spec.full = {1.0, -0.0, 3.5, std::numeric_limits<double>::infinity()};
  in.operand = std::move(spec);
  const std::vector<std::uint8_t> bytes = encode_multiply(in);
  // The v2 MULTIPLY payload, byte for byte: name (u16 length + bytes),
  // deadline_us, priority, operand count (always 1), then the operand
  // (mode, n, n doubles).  Pins the format peers already speak.
  const std::vector<std::uint8_t> v2 = {
      0x01, 0x00, 0x41, 0x90, 0xd0, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfd,
      0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x40,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f};
  EXPECT_EQ(bytes, v2);
  MultiplyRequest out;
  ASSERT_TRUE(decode_multiply(bytes, out));
  EXPECT_EQ(out.name, "A");
  EXPECT_EQ(out.deadline_us, 250000u);
  EXPECT_EQ(out.priority, -3);
  EXPECT_EQ(out.operand.mode, OperandMode::kFull);
  ASSERT_EQ(out.operand.full.size(), 4u);
  // Bit-identical including the -0.0.
  EXPECT_EQ(std::memcmp(out.operand.full.data(), in.operand.full.data(),
                        4 * sizeof(double)),
            0);
}

TEST(WirePayload, MultiplyDeltaAndCachedOperandsRoundTrip) {
  MultiplyRequest delta_in;
  delta_in.name = "B";
  delta_in.operand.mode = OperandMode::kDelta;
  delta_in.operand.n = 8;
  delta_in.operand.delta.n = 8;
  delta_in.operand.delta.runs = {{1, 2}, {6, 1}};
  delta_in.operand.delta.values = {9.0, 10.0, 11.0};
  MultiplyRequest out;
  ASSERT_TRUE(decode_multiply(encode_multiply(delta_in), out));
  EXPECT_EQ(out.name, "B");
  EXPECT_EQ(out.operand.mode, OperandMode::kDelta);
  ASSERT_EQ(out.operand.delta.runs.size(), 2u);
  EXPECT_EQ(out.operand.delta.runs[0].start, 1u);
  EXPECT_EQ(out.operand.delta.runs[1].count, 1u);
  EXPECT_EQ(out.operand.delta.values.size(), 3u);

  MultiplyRequest cached_in;
  cached_in.name = "B";
  cached_in.operand.mode = OperandMode::kCached;
  cached_in.operand.n = 8;
  MultiplyRequest cached_out;
  ASSERT_TRUE(decode_multiply(encode_multiply(cached_in), cached_out));
  EXPECT_EQ(cached_out.operand.mode, OperandMode::kCached);
  EXPECT_EQ(cached_out.operand.n, 8u);
}

/// A MULTIPLY payload whose operand-count field reads `count`, followed
/// by `operands` well-formed kCached operands of length 4.
std::vector<std::uint8_t> multiply_with_count(std::uint32_t count,
                                              std::uint32_t operands) {
  ByteWriter w;
  w.put_string("A");
  w.put_u64(0);  // deadline_us
  w.put_i32(0);  // priority
  w.put_u32(count);
  for (std::uint32_t i = 0; i < operands; ++i) {
    w.put_u8(static_cast<std::uint8_t>(OperandMode::kCached));
    w.put_u32(4);
  }
  return w.take();
}

TEST(WirePayload, MultiplyOperandCountMustBeOne) {
  // MULTIPLY carries exactly one operand.  Any other count is rejected
  // before an operand is read: none, two well-formed operands, or a
  // flood-sized claim that nothing may ever be sized from.
  MultiplyRequest out;
  EXPECT_TRUE(decode_multiply(multiply_with_count(1, 1), out));
  EXPECT_FALSE(decode_multiply(multiply_with_count(0, 0), out));
  EXPECT_FALSE(decode_multiply(multiply_with_count(2, 2), out));
  EXPECT_FALSE(decode_multiply(multiply_with_count(0xFFFFFFFFu, 1), out));
}

TEST(WirePayload, ResultsRoundTrip) {
  MultiplyResult in;
  in.y = {0.5, 1.5, -2.5};
  MultiplyResult out;
  ASSERT_TRUE(decode_multiply_result(encode_multiply_result(in), out));
  EXPECT_EQ(out.y, in.y);
}

TEST(WirePayload, StatsAndHealthRoundTrip) {
  StatsResult in;
  in.requests = 10;
  in.delta_bytes_saved = 123456;
  in.rpc_p99_us = 777;
  in.active_sessions = 3;
  in.health_state = 1;
  StatsResult out;
  ASSERT_TRUE(decode_stats_result(encode_stats_result(in), out));
  EXPECT_EQ(out.requests, 10u);
  EXPECT_EQ(out.delta_bytes_saved, 123456u);
  EXPECT_EQ(out.rpc_p99_us, 777u);
  EXPECT_EQ(out.active_sessions, 3u);
  EXPECT_EQ(out.health_state, 1);

  HealthResult hin;
  hin.ready = 1;
  hin.health_state = 2;
  hin.draining = 1;
  // HEALTH_RESULT keeps its v2 bytes: ready, health_state, draining, then
  // the retired u64 slot, written as 0.
  const std::vector<std::uint8_t> v2_bytes = {1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(encode_health_result(hin), v2_bytes);
  HealthResult hout;
  ASSERT_TRUE(decode_health_result(v2_bytes, hout));
  EXPECT_EQ(hout.ready, 1);
  EXPECT_EQ(hout.health_state, 2);
  EXPECT_EQ(hout.draining, 1);
  // A v2 peer that still fills the slot decodes; the value is dropped.
  const std::vector<std::uint8_t> slot_set = {1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(decode_health_result(slot_set, hout));
  EXPECT_EQ(hout.ready, 1);
  EXPECT_EQ(hout.health_state, 0);
  EXPECT_EQ(hout.draining, 0);
}

TEST(WirePayload, EncodersSizeTheirBufferExactly) {
  // Each payload is allocated once at its final size: no growth copies,
  // and no slack held while it waits in a send queue or replay window.
  HelloRequest hello;
  hello.client_name = "solver";
  UploadMatrixRequest upload;
  upload.name = "A";
  upload.row_ptr = {0, 1};
  upload.col_idx = {0};
  upload.values = {1.0};
  MultiplyRequest full;
  full.name = "A";
  full.operand.n = 3;
  full.operand.full = {1.0, 2.0, 3.0};
  MultiplyRequest delta;
  delta.name = "A";
  delta.operand.mode = OperandMode::kDelta;
  delta.operand.n = 8;
  delta.operand.delta.n = 8;
  delta.operand.delta.runs = {{1, 2}};
  delta.operand.delta.values = {4.0, 5.0};
  MultiplyResult result;
  result.y = {1.0, 2.0};
  // Checked on the returned vectors themselves: a copy would allocate
  // exactly whatever the encoder did.
  const auto exact = [](const std::vector<std::uint8_t>& v) {
    return v.capacity() == v.size();
  };
  EXPECT_TRUE(exact(encode_hello(hello)));
  EXPECT_TRUE(exact(encode_hello_ok(HelloOk{})));
  EXPECT_TRUE(exact(encode_status(StatusMsg{StatusCode::kShed, "full"})));
  EXPECT_TRUE(exact(encode_upload(upload)));
  EXPECT_TRUE(exact(encode_multiply(full)));
  EXPECT_TRUE(exact(encode_multiply(delta)));
  EXPECT_TRUE(exact(encode_multiply_result(result)));
  EXPECT_TRUE(exact(encode_cancel(CancelRequest{1})));
  EXPECT_TRUE(exact(encode_stats_result(StatsResult{})));
  EXPECT_TRUE(exact(encode_health_result(HealthResult{})));
}

TEST(WirePayload, CancelRoundTrip) {
  CancelRequest in;
  in.target_id = 0xDEADBEEFCAFEull;
  CancelRequest out;
  ASSERT_TRUE(decode_cancel(encode_cancel(in), out));
  EXPECT_EQ(out.target_id, in.target_id);
}

TEST(WirePayload, TrailingGarbageRejected) {
  auto bytes = encode_cancel(CancelRequest{42});
  bytes.push_back(0);
  CancelRequest out;
  EXPECT_FALSE(decode_cancel(bytes, out));
}

// --- delta ------------------------------------------------------------------

TEST(WireDelta, DiffApplyBitIdentical) {
  std::vector<double> base(100, 1.0);
  std::vector<double> next = base;
  next[3] = 7.0;
  next[4] = -0.0;  // bit change operator== would miss against +0.0
  next[50] = std::nan("");
  next[99] = 2.0;
  const DeltaVec d = diff(base, next, /*merge_gap=*/1);
  std::vector<double> x = base;
  ASSERT_TRUE(spmv::net::apply(d, x));
  EXPECT_EQ(std::memcmp(x.data(), next.data(), x.size() * sizeof(double)), 0);
}

TEST(WireDelta, UnchangedVectorIsEmptyDelta) {
  std::vector<double> v(64, 3.25);
  v[10] = std::nan("");  // NaN -> same NaN bit pattern: unchanged
  const DeltaVec d = diff(v, v);
  EXPECT_TRUE(d.runs.empty());
  EXPECT_TRUE(d.values.empty());
}

TEST(WireDelta, MergeGapBridgesNearbyRuns) {
  std::vector<double> base(32, 0.0);
  std::vector<double> next = base;
  next[4] = 1.0;
  next[7] = 2.0;  // gap of 2 unchanged entries
  const DeltaVec split = diff(base, next, /*merge_gap=*/1);
  EXPECT_EQ(split.runs.size(), 2u);
  const DeltaVec merged = diff(base, next, /*merge_gap=*/4);
  ASSERT_EQ(merged.runs.size(), 1u);
  EXPECT_EQ(merged.runs[0].start, 4u);
  EXPECT_EQ(merged.runs[0].count, 4u);
  std::vector<double> x = base;
  ASSERT_TRUE(spmv::net::apply(merged, x));
  EXPECT_EQ(x, next);
}

TEST(WireDelta, ForgedDeltaRejectedWithoutWriting) {
  std::vector<double> x(10, 1.0);
  const std::vector<double> orig = x;
  DeltaVec oob;  // run past the end
  oob.n = 10;
  oob.runs = {{8, 4}};
  oob.values = {1, 2, 3, 4};
  EXPECT_FALSE(spmv::net::apply(oob, x));
  EXPECT_EQ(x, orig);

  DeltaVec overlap;
  overlap.n = 10;
  overlap.runs = {{2, 3}, {4, 2}};
  overlap.values = {1, 2, 3, 4, 5};
  EXPECT_FALSE(spmv::net::apply(overlap, x));
  EXPECT_EQ(x, orig);

  DeltaVec short_values;
  short_values.n = 10;
  short_values.runs = {{0, 5}};
  short_values.values = {1.0};
  EXPECT_FALSE(spmv::net::apply(short_values, x));
  EXPECT_EQ(x, orig);

  DeltaVec wrong_len;
  wrong_len.n = 11;
  wrong_len.runs = {{0, 1}};
  wrong_len.values = {1.0};
  EXPECT_FALSE(spmv::net::apply(wrong_len, x));
  EXPECT_EQ(x, orig);
}

// --- fuzz -------------------------------------------------------------------

// Seeded random byte streams through the frame parser: whatever the
// bytes, the parser must return a verdict without crashing, reading out
// of bounds, or allocating from an unchecked count (ASan/UBSan gate).
TEST(WireFuzz, RandomBytesNeverCrashParser) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 512);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> buf(len(rng));
    for (auto& b : buf) b = static_cast<std::uint8_t>(byte(rng));
    FrameHeader h;
    std::span<const std::uint8_t> p;
    std::size_t consumed = 0;
    (void)parse_frame(buf, 1 << 16, h, p, consumed);
  }
}

// Corrupt valid frames at random offsets: the parser must reject (or,
// when the flip lands in the payload of a frame whose CRCs were
// re-sealed, still behave sanely) and the payload decoders must never
// trust a forged count.
TEST(WireFuzz, MutatedFramesNeverCrashDecoders) {
  std::mt19937 rng(8080);
  std::uniform_int_distribution<int> byte(0, 255);

  MultiplyRequest req;
  req.name = "fuzz";
  OperandSpec spec;
  spec.mode = OperandMode::kDelta;
  spec.n = 16;
  spec.delta.n = 16;
  spec.delta.runs = {{0, 4}, {8, 2}};
  spec.delta.values = {1, 2, 3, 4, 5, 6};
  req.operand = std::move(spec);
  const auto payload = encode_multiply(req);

  for (int iter = 0; iter < 2000; ++iter) {
    auto mutated = payload;
    std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
    for (int flips = 0; flips < 4; ++flips) {
      mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    MultiplyRequest out;
    (void)decode_multiply(mutated, out);
    UploadMatrixRequest up;
    (void)decode_upload(mutated, up);
    StatsResult st;
    (void)decode_stats_result(mutated, st);
  }
}

TEST(WireFuzz, RandomDeltasNeverCorrupt) {
  std::mt19937 rng(31415);
  std::uniform_int_distribution<std::uint32_t> u32(0, 64);
  for (int iter = 0; iter < 2000; ++iter) {
    DeltaVec d;
    d.n = u32(rng);
    const std::uint32_t nruns = u32(rng) % 8;
    for (std::uint32_t i = 0; i < nruns; ++i) {
      d.runs.push_back({u32(rng), u32(rng)});
    }
    d.values.assign(u32(rng), 1.0);
    std::vector<double> x(32, 0.5);
    const std::vector<double> orig = x;
    if (!spmv::net::apply(d, x)) {
      // Rejected deltas must leave the vector untouched.
      EXPECT_EQ(x, orig);
    }
  }
}

}  // namespace
}  // namespace spmv::net
