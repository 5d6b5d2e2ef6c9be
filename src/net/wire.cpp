#include "net/wire.h"

#include <stdexcept>

#include "util/crc32.h"

namespace spmv::net {

bool is_known_frame_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kUploadMatrix:
    case FrameType::kMultiply:
    case FrameType::kCancel:
    case FrameType::kStats:
    case FrameType::kHealth:
    case FrameType::kGoodbye:
    case FrameType::kHelloOk:
    case FrameType::kStatus:
    case FrameType::kMultiplyResult:
    case FrameType::kStatsResult:
    case FrameType::kHealthResult:
      return true;
  }
  return false;
}

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kUploadMatrix: return "UPLOAD_MATRIX";
    case FrameType::kMultiply: return "MULTIPLY";
    case FrameType::kCancel: return "CANCEL";
    case FrameType::kStats: return "STATS";
    case FrameType::kHealth: return "HEALTH";
    case FrameType::kGoodbye: return "GOODBYE";
    case FrameType::kHelloOk: return "HELLO_OK";
    case FrameType::kStatus: return "STATUS";
    case FrameType::kMultiplyResult: return "MULTIPLY_RESULT";
    case FrameType::kStatsResult: return "STATS_RESULT";
    case FrameType::kHealthResult: return "HEALTH_RESULT";
  }
  return "?";
}

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnknownMatrix: return "UNKNOWN_MATRIX";
    case StatusCode::kBadRequest: return "BAD_REQUEST";
    case StatusCode::kShed: return "SHED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kShutdown: return "SHUTDOWN";
    case StatusCode::kQuotaExceeded: return "QUOTA_EXCEEDED";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kProtocolError: return "PROTOCOL_ERROR";
    case StatusCode::kBusy: return "BUSY";
    case StatusCode::kConnectionLost: return "CONNECTION_LOST";
    case StatusCode::kRetryUnknown: return "RETRY_UNKNOWN";
    case StatusCode::kRetryPending: return "RETRY_PENDING";
  }
  return "?";
}

const char* to_string(ParseStatus s) {
  switch (s) {
    case ParseStatus::kFrame: return "frame";
    case ParseStatus::kNeedMore: return "need-more";
    case ParseStatus::kBadMagic: return "bad-magic";
    case ParseStatus::kBadVersion: return "bad-version";
    case ParseStatus::kBadHeaderCrc: return "bad-header-crc";
    case ParseStatus::kBadPayloadCrc: return "bad-payload-crc";
    case ParseStatus::kOversized: return "oversized";
    case ParseStatus::kUnknownType: return "unknown-type";
  }
  return "?";
}

ParseStatus parse_frame(std::span<const std::uint8_t> buf,
                        std::size_t max_payload, FrameHeader& header,
                        std::span<const std::uint8_t>& payload,
                        std::size_t& consumed) {
  consumed = 0;
  payload = {};
  // Reject non-protocol bytes as early as possible: the magic is checked
  // the moment 4 bytes exist, before waiting for a full header.
  if (buf.size() >= 4) {
    ByteReader magic_peek(buf.first(4));
    std::uint32_t magic = 0;
    (void)magic_peek.get_u32(magic);
    if (magic != kMagic) return ParseStatus::kBadMagic;
  }
  if (buf.size() < kHeaderSize) return ParseStatus::kNeedMore;

  ByteReader r(buf.first(kHeaderSize));
  std::uint32_t magic = 0;
  std::uint8_t type_raw = 0;
  std::uint32_t header_crc = 0;
  // Fixed-size reads over a 28-byte span cannot fail; the |= chain keeps
  // the [[nodiscard]] contract honest without 9 if-statements.
  bool ok = r.get_u32(magic);
  ok = r.get_u8(header.version) && ok;
  ok = r.get_u8(type_raw) && ok;
  ok = r.get_u16(header.flags) && ok;
  ok = r.get_u64(header.request_id) && ok;
  ok = r.get_u32(header.payload_len) && ok;
  ok = r.get_u32(header.payload_crc) && ok;
  ok = r.get_u32(header_crc) && ok;
  if (!ok) return ParseStatus::kNeedMore;  // unreachable: size checked above

  // The header CRC gates *everything* decoded from it: until it checks
  // out, payload_len / version / type are noise and must not be acted on.
  if (crc32(buf.data(), kHeaderSize - 4) != header_crc) {
    return ParseStatus::kBadHeaderCrc;
  }
  if (header.version != kWireVersion) return ParseStatus::kBadVersion;
  // Size check precedes everything payload-related: an adversarial
  // payload_len never causes buffering or allocation beyond max_payload.
  if (header.payload_len > max_payload ||
      header.payload_len > kMaxSanePayload) {
    return ParseStatus::kOversized;
  }
  if (!is_known_frame_type(type_raw)) return ParseStatus::kUnknownType;
  header.type = static_cast<FrameType>(type_raw);

  if (buf.size() < kHeaderSize + header.payload_len) {
    return ParseStatus::kNeedMore;
  }
  payload = buf.subspan(kHeaderSize, header.payload_len);
  const std::uint32_t want =
      payload.empty() ? 0u : crc32(payload.data(), payload.size());
  if (want != header.payload_crc) {
    payload = {};
    return ParseStatus::kBadPayloadCrc;
  }
  consumed = kHeaderSize + header.payload_len;
  return ParseStatus::kFrame;
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxSanePayload) {
    throw std::length_error("encode_frame: payload exceeds protocol limit");
  }
  ByteWriter w(kHeaderSize + payload.size());
  w.put_u32(kMagic);
  w.put_u8(kWireVersion);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u16(0);  // flags, reserved
  w.put_u64(request_id);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_u32(payload.empty() ? 0u : crc32(payload.data(), payload.size()));
  w.put_u32(crc32(w.data(), kHeaderSize - 4));
  w.put_bytes(payload.data(), payload.size());
  return w.take();
}

// ---------------------------------------------------------------------------
// Payload codecs

// Every encoder sizes its writer to the exact payload, so the buffer is
// allocated once and holds no slack while it waits in a send queue or a
// replay window.

std::vector<std::uint8_t> encode_hello(const HelloRequest& r) {
  ByteWriter w(4 + 4 + ByteWriter::string_size(r.client_name) + 8 + 8);
  w.put_u32(r.app_version);
  w.put_u32(r.requested_quota);
  w.put_string(r.client_name);
  w.put_u64(r.resume_session_id);
  w.put_u64(r.resume_token);
  return w.take();
}

bool decode_hello(std::span<const std::uint8_t> p, HelloRequest& out) {
  ByteReader r(p);
  return r.get_u32(out.app_version) && r.get_u32(out.requested_quota) &&
         r.get_string(out.client_name) && r.get_u64(out.resume_session_id) &&
         r.get_u64(out.resume_token) && r.remaining() == 0;
}

std::vector<std::uint8_t> encode_hello_ok(const HelloOk& r) {
  ByteWriter w(8 + 4 + 8 + 4 + 8 + 1);
  w.put_u64(r.session_id);
  w.put_u32(r.quota);
  w.put_u64(r.max_payload);
  w.put_u32(r.app_version);
  w.put_u64(r.resume_token);
  w.put_u8(r.resumed);
  return w.take();
}

bool decode_hello_ok(std::span<const std::uint8_t> p, HelloOk& out) {
  ByteReader r(p);
  return r.get_u64(out.session_id) && r.get_u32(out.quota) &&
         r.get_u64(out.max_payload) && r.get_u32(out.app_version) &&
         r.get_u64(out.resume_token) && r.get_u8(out.resumed) &&
         r.remaining() == 0;
}

std::vector<std::uint8_t> encode_status(const StatusMsg& r) {
  ByteWriter w(1 + ByteWriter::string_size(r.message));
  w.put_u8(static_cast<std::uint8_t>(r.code));
  w.put_string(r.message);
  return w.take();
}

bool decode_status(std::span<const std::uint8_t> p, StatusMsg& out) {
  ByteReader r(p);
  std::uint8_t code = 0;
  if (!r.get_u8(code) || !r.get_string(out.message) || r.remaining() != 0) {
    return false;
  }
  if (code > static_cast<std::uint8_t>(StatusCode::kRetryPending)) {
    return false;
  }
  out.code = static_cast<StatusCode>(code);
  return true;
}

std::vector<std::uint8_t> encode_upload(const UploadMatrixRequest& r) {
  ByteWriter w(ByteWriter::string_size(r.name) + 4 + 4 + 3 * 8 +
               r.row_ptr.size() * sizeof(std::uint64_t) +
               r.col_idx.size() * sizeof(std::uint32_t) +
               r.values.size() * sizeof(double));
  w.put_string(r.name);
  w.put_u32(r.rows);
  w.put_u32(r.cols);
  w.put_u64(r.row_ptr.size());
  w.put_array<std::uint64_t>(r.row_ptr);
  w.put_u64(r.col_idx.size());
  w.put_array<std::uint32_t>(r.col_idx);
  w.put_u64(r.values.size());
  w.put_array<double>(r.values);
  return w.take();
}

bool decode_upload(std::span<const std::uint8_t> p,
                   UploadMatrixRequest& out) {
  ByteReader r(p);
  if (!r.get_string(out.name) || !r.get_u32(out.rows) ||
      !r.get_u32(out.cols)) {
    return false;
  }
  // get_array checks every count against the bytes actually present
  // before the vector is sized from it — a forged count fails there, it
  // never allocates.
  std::uint64_t n = 0;
  if (!r.get_u64(n) || !r.get_array(n, out.row_ptr)) return false;
  if (!r.get_u64(n) || !r.get_array(n, out.col_idx)) return false;
  return r.get_u64(n) && r.get_array(n, out.values) && r.remaining() == 0;
}

namespace {

void encode_operand(ByteWriter& w, const OperandSpec& spec) {
  w.put_u8(static_cast<std::uint8_t>(spec.mode));
  w.put_u32(spec.n);
  switch (spec.mode) {
    case OperandMode::kFull:
      w.put_array<double>(spec.full);
      break;
    case OperandMode::kDelta:
      w.put_u32(static_cast<std::uint32_t>(spec.delta.runs.size()));
      for (const DeltaRun& run : spec.delta.runs) {
        w.put_u32(run.start);
        w.put_u32(run.count);
      }
      w.put_array<double>(spec.delta.values);
      break;
    case OperandMode::kCached:
      break;
  }
}

bool decode_operand(ByteReader& r, OperandSpec& out) {
  std::uint8_t mode = 0;
  if (!r.get_u8(mode) ||
      mode > static_cast<std::uint8_t>(OperandMode::kCached) ||
      !r.get_u32(out.n)) {
    return false;
  }
  out.mode = static_cast<OperandMode>(mode);
  switch (out.mode) {
    case OperandMode::kFull:
      return r.get_array(out.n, out.full);
    case OperandMode::kDelta: {
      out.delta.n = out.n;
      std::uint32_t run_count = 0;
      // Bytes-present check before sizing, as everywhere: each run is 8
      // bytes of header plus >= 8 bytes of payload, so run_count is
      // bounded by remaining/16 in any valid frame.
      if (!r.get_u32(run_count) || r.remaining() / 16 < run_count) {
        return false;
      }
      out.delta.runs.resize(run_count);
      std::uint64_t total = 0;
      for (DeltaRun& run : out.delta.runs) {
        if (!r.get_u32(run.start) || !r.get_u32(run.count)) return false;
        total += run.count;
      }
      return r.get_array(total, out.delta.values);
    }
    case OperandMode::kCached:
      return true;
  }
  return false;
}

}  // namespace

std::size_t operand_wire_bytes(const OperandSpec& spec) {
  std::size_t bytes = 1 + sizeof(std::uint32_t);  // mode + n
  switch (spec.mode) {
    case OperandMode::kFull:
      bytes += spec.full.size() * sizeof(double);
      break;
    case OperandMode::kDelta:
      bytes += wire_bytes(spec.delta);
      break;
    case OperandMode::kCached:
      break;
  }
  return bytes;
}

std::vector<std::uint8_t> encode_multiply(const MultiplyRequest& r) {
  ByteWriter w(ByteWriter::string_size(r.name) + 8 + 4 + 4 +
               operand_wire_bytes(r.operand));
  w.put_string(r.name);
  w.put_u64(r.deadline_us);
  w.put_i32(r.priority);
  w.put_u32(1);  // operand count: always 1 (see kWireVersion)
  encode_operand(w, r.operand);
  return w.take();
}

bool decode_multiply(std::span<const std::uint8_t> p, MultiplyRequest& out) {
  ByteReader r(p);
  std::uint32_t count = 0;
  return r.get_string(out.name) && r.get_u64(out.deadline_us) &&
         r.get_i32(out.priority) && r.get_u32(count) && count == 1 &&
         decode_operand(r, out.operand) && r.remaining() == 0;
}

std::vector<std::uint8_t> encode_multiply_result(const MultiplyResult& r) {
  ByteWriter w(4 + r.y.size() * sizeof(double));
  w.put_u32(static_cast<std::uint32_t>(r.y.size()));
  w.put_array<double>(r.y);
  return w.take();
}

bool decode_multiply_result(std::span<const std::uint8_t> p,
                            MultiplyResult& out) {
  ByteReader r(p);
  std::uint32_t n = 0;
  return r.get_u32(n) && r.get_array(n, out.y) && r.remaining() == 0;
}

std::vector<std::uint8_t> encode_cancel(const CancelRequest& r) {
  ByteWriter w(8);
  w.put_u64(r.target_id);
  return w.take();
}

bool decode_cancel(std::span<const std::uint8_t> p, CancelRequest& out) {
  ByteReader r(p);
  return r.get_u64(out.target_id) && r.remaining() == 0;
}

std::vector<std::uint8_t> encode_stats_result(const StatsResult& r) {
  ByteWriter w(15 * 8 + 4 + 1 + 8);
  w.put_u64(r.requests);
  w.put_u64(r.completed);
  w.put_u64(r.failed);
  w.put_u64(r.bytes_in);
  w.put_u64(r.bytes_out);
  w.put_u64(r.full_operands);
  w.put_u64(r.delta_operands);
  w.put_u64(r.cached_operands);
  w.put_u64(r.delta_bytes_saved);
  w.put_u64(r.rpc_p50_us);
  w.put_u64(r.rpc_p99_us);
  w.put_u64(r.server_completed);
  w.put_u64(r.server_shed);
  w.put_u64(r.server_expired);
  w.put_u64(r.server_cancelled);
  w.put_u32(r.active_sessions);
  w.put_u8(r.health_state);
  w.put_u64(r.ewma_queue_latency_us);
  return w.take();
}

bool decode_stats_result(std::span<const std::uint8_t> p, StatsResult& out) {
  ByteReader r(p);
  bool ok = r.get_u64(out.requests);
  ok = ok && r.get_u64(out.completed);
  ok = ok && r.get_u64(out.failed);
  ok = ok && r.get_u64(out.bytes_in);
  ok = ok && r.get_u64(out.bytes_out);
  ok = ok && r.get_u64(out.full_operands);
  ok = ok && r.get_u64(out.delta_operands);
  ok = ok && r.get_u64(out.cached_operands);
  ok = ok && r.get_u64(out.delta_bytes_saved);
  ok = ok && r.get_u64(out.rpc_p50_us);
  ok = ok && r.get_u64(out.rpc_p99_us);
  ok = ok && r.get_u64(out.server_completed);
  ok = ok && r.get_u64(out.server_shed);
  ok = ok && r.get_u64(out.server_expired);
  ok = ok && r.get_u64(out.server_cancelled);
  ok = ok && r.get_u32(out.active_sessions);
  ok = ok && r.get_u8(out.health_state);
  ok = ok && r.get_u64(out.ewma_queue_latency_us);
  return ok && r.remaining() == 0;
}

std::vector<std::uint8_t> encode_health_result(const HealthResult& r) {
  ByteWriter w(3 + 8);
  w.put_u8(r.ready);
  w.put_u8(r.health_state);
  w.put_u8(r.draining);
  w.put_u64(0);  // retired v2 slot (see HealthResult)
  return w.take();
}

bool decode_health_result(std::span<const std::uint8_t> p,
                          HealthResult& out) {
  ByteReader r(p);
  std::uint64_t retired = 0;
  return r.get_u8(out.ready) && r.get_u8(out.health_state) &&
         r.get_u8(out.draining) && r.get_u64(retired) &&
         r.remaining() == 0;
}

}  // namespace spmv::net
