// Versioned length-prefixed binary wire protocol for the SpMV service.
//
// Every frame is a fixed 28-byte header followed by `payload_len` bytes:
//
//   offset  size  field
//        0     4  magic        "SPMV" (0x564D5053 little-endian)
//        4     1  version      kWireVersion; mismatch rejects the frame
//        5     1  type         FrameType
//        6     2  flags        reserved, must be 0 through version 2
//        8     8  request_id   client-chosen, echoed verbatim in replies
//       16     4  payload_len  bytes following the header
//       20     4  payload_crc  CRC32 of the payload (0 when empty)
//       24     4  header_crc   CRC32 of bytes [0, 24)
//
// All integers are little-endian; doubles travel as the LE bytes of their
// IEEE-754 bit pattern (bit-identical round trip, NaN/-0.0 included).
//
// Parsing is *fail-closed*: the magic is checked as soon as 4 bytes
// exist, the header CRC before any field is trusted, payload_len against
// the connection's limit before a single payload byte is awaited, and
// every count inside a payload against the bytes actually present before
// any allocation is sized from it.  A malformed or adversarial byte
// stream can therefore never drive an unbounded allocation or an
// out-of-range read — it yields a ParseStatus the server answers with a
// PROTOCOL_ERROR status (when a request id is known) and a closed
// connection.
//
// Request frames: HELLO (session handshake), UPLOAD_MATRIX (CSR arrays,
// tuned server-side), MULTIPLY / MULTIPLY_BATCH (operands full,
// delta-encoded against the session's cached x, or cached verbatim —
// net/delta.h), CANCEL, STATS, HEALTH, GOODBYE.  Response frames echo the
// request id: HELLO_OK, STATUS (code + message — every failure, SHED
// included, is a STATUS), MULTIPLY_RESULT, MULTIPLY_BATCH_RESULT,
// STATS_RESULT, HEALTH_RESULT.  A server-initiated GOODBYE (request id 0)
// announces drain shutdown.
//
// Frames that arrive mid-drain: once the server starts draining, it
// still answers every request frame it has received by its final read,
// just before it sends its GOODBYE.  MULTIPLY, MULTIPLY_BATCH and
// UPLOAD_MATRIX get a STATUS kShutdown (a retransmission gets its usual
// replay-window answer instead); HELLO, CANCEL, STATS, HEALTH and GOODBYE
// are answered as usual.  Requests admitted before the drain get their
// results.  Then the server half-closes the connection and closes it once
// the client has acknowledged that FIN.  A frame that arrives after the
// final read goes unanswered and may turn the close into a reset: after
// the GOODBYE the client reads EOF or ECONNRESET.  A client whose stack
// acknowledges the FIN within the server's drain_grace loses no reply
// sent before it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/delta.h"
#include "util/bytes.h"

namespace spmv::net {

inline constexpr std::uint32_t kMagic = 0x564D5053u;  // "SPMV"
/// Version history: 1 = original protocol; 2 = HELLO gained
/// resume_session_id/resume_token and HELLO_OK gained
/// resume_token/resumed (required fields — a version-1 peer cannot
/// parse them, so the handshake must fail as a version mismatch, not as
/// a malformed payload).
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kHeaderSize = 28;
/// Absolute payload sanity cap; ServerConfig/ClientOptions clamp below it.
inline constexpr std::size_t kMaxSanePayload = std::size_t{1} << 30;
/// Decode-time ceiling on MULTIPLY/MULTIPLY_BATCH operand counts when the
/// caller passes no tighter bound.  The count is also validated against
/// the bytes actually present, but an operand can encode in as little as
/// 5 bytes, so without a cap one max-payload frame of kCached operands
/// could force a multi-GiB transient OperandSpec allocation before any
/// application-level admission check runs.  Servers pass their
/// ServerConfig::max_quota instead — any admissible request satisfies it.
inline constexpr std::uint32_t kMaxMultiplyOperands = 4096;

enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 1,
  kUploadMatrix = 2,
  kMultiply = 3,
  kMultiplyBatch = 4,
  kCancel = 5,
  kStats = 6,
  kHealth = 7,
  kGoodbye = 8,  // also server -> client at drain shutdown (request id 0)
  // server -> client
  kHelloOk = 16,
  kStatus = 17,
  kMultiplyResult = 18,
  kMultiplyBatchResult = 19,
  kStatsResult = 20,
  kHealthResult = 21,
};

[[nodiscard]] bool is_known_frame_type(std::uint8_t t);
[[nodiscard]] const char* to_string(FrameType t);

/// Application-level outcome carried by STATUS frames (and batch items).
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInternal = 1,          ///< unexpected server-side failure
  kUnknownMatrix = 2,     ///< no such matrix registered
  kBadRequest = 3,        ///< malformed/inconsistent request payload
  kShed = 4,              ///< admission control rejected the request
  kDeadlineExceeded = 5,  ///< request deadline passed before dispatch
  kCancelled = 6,         ///< CANCEL (or disconnect) won the race
  kShutdown = 7,          ///< server or scheduler draining/stopped
  kQuotaExceeded = 8,     ///< session in-flight quota exhausted
  kNotFound = 9,          ///< CANCEL target unknown or already decided
  kProtocolError = 10,    ///< wire-level violation; connection closes
  kBusy = 11,             ///< queue full (non-shed policies) / no slots
  kConnectionLost = 12,   ///< client-side synthetic: transport died
  /// Retry of a multiply whose replay-cache entry was evicted: the server
  /// genuinely does not know the outcome.  NOT safely retryable — the
  /// caller must decide whether re-executing is acceptable.
  kRetryUnknown = 13,
  /// Retry of a multiply that is still executing (in flight from a prior
  /// connection of this session).  Safely retryable: back off and re-send
  /// the same request id; once it decides, the replay cache answers.
  kRetryPending = 14,
};

[[nodiscard]] const char* to_string(StatusCode code);

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kStatus;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

enum class ParseStatus : std::uint8_t {
  kFrame,         ///< one complete, validated frame extracted
  kNeedMore,      ///< prefix is consistent; wait for more bytes
  kBadMagic,      ///< not this protocol — close
  kBadVersion,    ///< unknown wire version — close
  kBadHeaderCrc,  ///< corrupted header — close
  kBadPayloadCrc, ///< corrupted payload — close (header was valid)
  kOversized,     ///< payload_len exceeds the connection limit — close
  kUnknownType,   ///< valid header, unrecognized frame type — close
};

[[nodiscard]] const char* to_string(ParseStatus s);

/// Try to extract one frame from the front of `buf`.  On kFrame, `header`
/// and `payload` (a view into `buf`) are set and `consumed` is the total
/// frame size to drop from the buffer.  On kNeedMore nothing is consumed.
/// On any error the connection should be torn down; `header` holds
/// whatever was decodable (request_id is valid from kBadPayloadCrc /
/// kOversized / kUnknownType on, letting the server address its error
/// reply).
[[nodiscard]] ParseStatus parse_frame(std::span<const std::uint8_t> buf,
                                      std::size_t max_payload,
                                      FrameHeader& header,
                                      std::span<const std::uint8_t>& payload,
                                      std::size_t& consumed);

/// Assemble a complete frame (header CRCs filled in) around `payload`.
/// Throws std::length_error when the payload exceeds kMaxSanePayload: the
/// 32-bit length field cannot carry it, and truncating would emit a
/// self-consistent header that disagrees with the bytes behind it,
/// desynchronizing the stream with a confusing CRC/magic error far away.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t request_id,
    std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// Payload structs + encode/decode per frame type.  Decoders return false
// on any bounds/consistency violation (the caller answers kBadRequest or
// closes); they never throw and never allocate from unchecked counts.

struct HelloRequest {
  std::uint32_t app_version = kWireVersion;
  std::uint32_t requested_quota = 0;  ///< 0 = server default
  std::string client_name;
  /// Resumption of a prior session after a reconnect: the session id and
  /// the resume token HELLO_OK issued for it.  0 = fresh session.  On a
  /// successful resume the server restores quota, statistics, in-flight
  /// bookkeeping and the reply-replay window; the cached operand vector
  /// is intentionally NOT restored (the client ships full and rebuilds
  /// the delta base).
  std::uint64_t resume_session_id = 0;
  std::uint64_t resume_token = 0;
};

struct HelloOk {
  std::uint64_t session_id = 0;
  std::uint32_t quota = 0;           ///< granted in-flight quota
  std::uint64_t max_payload = 0;     ///< server's frame payload limit
  std::uint32_t app_version = kWireVersion;
  /// Present resume_token back in a later HELLO to resume this session.
  std::uint64_t resume_token = 0;
  /// 1 when this HELLO_OK resumed the requested prior session; 0 when a
  /// fresh session was opened (no resume requested, or it was rejected —
  /// the client must treat any unacknowledged multiplies as unknown).
  std::uint8_t resumed = 0;
};

struct StatusMsg {
  StatusCode code = StatusCode::kOk;
  std::string message;
};

struct UploadMatrixRequest {
  std::string name;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
};

/// How a MULTIPLY ships its x operand.
enum class OperandMode : std::uint8_t {
  kFull = 0,    ///< dense vector, replaces the session cache
  kDelta = 1,   ///< DeltaVec against the cached vector (net/delta.h)
  kCached = 2,  ///< reuse the cached vector untouched
};

struct OperandSpec {
  OperandMode mode = OperandMode::kFull;
  std::uint32_t n = 0;          ///< full vector length (all modes)
  std::vector<double> full;     ///< kFull payload
  DeltaVec delta;               ///< kDelta payload
};

struct MultiplyRequest {
  std::string name;
  std::uint64_t deadline_us = 0;  ///< relative to receipt; 0 = none
  std::int32_t priority = 0;
  /// Exactly one operand for MULTIPLY; k >= 1 for MULTIPLY_BATCH.  Batch
  /// deltas chain: item i's delta applies to item i-1's resulting vector.
  std::vector<OperandSpec> operands;
};

struct MultiplyResult {
  std::vector<double> y;
};

struct BatchItemResult {
  StatusCode status = StatusCode::kOk;
  std::vector<double> y;  ///< present when status == kOk
};

struct MultiplyBatchResult {
  std::vector<BatchItemResult> items;
};

struct CancelRequest {
  std::uint64_t target_id = 0;  ///< request id of the in-flight MULTIPLY
};

/// Per-session and global counters answered to STATS.
struct StatsResult {
  // session scope
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t full_operands = 0;
  std::uint64_t delta_operands = 0;
  std::uint64_t cached_operands = 0;
  std::uint64_t delta_bytes_saved = 0;
  std::uint64_t rpc_p50_us = 0;
  std::uint64_t rpc_p99_us = 0;
  // server scope
  std::uint64_t server_completed = 0;
  std::uint64_t server_shed = 0;
  std::uint64_t server_expired = 0;
  std::uint64_t server_cancelled = 0;
  std::uint32_t active_sessions = 0;
  std::uint8_t health_state = 0;  ///< serve::HealthState
  std::uint64_t ewma_queue_latency_us = 0;
};

struct HealthResult {
  std::uint8_t ready = 0;         ///< accepting work: not shedding/draining
  std::uint8_t health_state = 0;  ///< serve::HealthState
  std::uint8_t draining = 0;
  /// 1 while the watchdog flags the scheduler's one dispatcher stalled,
  /// else 0 (the field predates the single dispatcher; name and slot
  /// stay for wire compatibility).
  std::uint64_t stalled_dispatchers = 0;
};

// Encoders: payload bytes only (wrap with encode_frame).
[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloRequest& r);
[[nodiscard]] std::vector<std::uint8_t> encode_hello_ok(const HelloOk& r);
[[nodiscard]] std::vector<std::uint8_t> encode_status(const StatusMsg& r);
[[nodiscard]] std::vector<std::uint8_t> encode_upload(
    const UploadMatrixRequest& r);
[[nodiscard]] std::vector<std::uint8_t> encode_multiply(
    const MultiplyRequest& r);
[[nodiscard]] std::vector<std::uint8_t> encode_multiply_result(
    const MultiplyResult& r);
[[nodiscard]] std::vector<std::uint8_t> encode_multiply_batch_result(
    const MultiplyBatchResult& r);
[[nodiscard]] std::vector<std::uint8_t> encode_cancel(const CancelRequest& r);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_result(
    const StatsResult& r);
[[nodiscard]] std::vector<std::uint8_t> encode_health_result(
    const HealthResult& r);

// Decoders: false on any malformed payload; `out` may be partially
// written on failure.
[[nodiscard]] bool decode_hello(std::span<const std::uint8_t> p,
                                HelloRequest& out);
[[nodiscard]] bool decode_hello_ok(std::span<const std::uint8_t> p,
                                   HelloOk& out);
[[nodiscard]] bool decode_status(std::span<const std::uint8_t> p,
                                 StatusMsg& out);
[[nodiscard]] bool decode_upload(std::span<const std::uint8_t> p,
                                 UploadMatrixRequest& out);
/// `max_operands` bounds the operand count before anything is sized from
/// it (see kMaxMultiplyOperands); counts above it decode as malformed.
[[nodiscard]] bool decode_multiply(
    std::span<const std::uint8_t> p, bool batch, MultiplyRequest& out,
    std::uint32_t max_operands = kMaxMultiplyOperands);
[[nodiscard]] bool decode_multiply_result(std::span<const std::uint8_t> p,
                                          MultiplyResult& out);
[[nodiscard]] bool decode_multiply_batch_result(
    std::span<const std::uint8_t> p, MultiplyBatchResult& out);
[[nodiscard]] bool decode_cancel(std::span<const std::uint8_t> p,
                                 CancelRequest& out);
[[nodiscard]] bool decode_stats_result(std::span<const std::uint8_t> p,
                                       StatsResult& out);
[[nodiscard]] bool decode_health_result(std::span<const std::uint8_t> p,
                                        HealthResult& out);

/// Encoded size of one operand spec as encode_multiply would ship it —
/// what the client's full-vs-delta crossover compares.
[[nodiscard]] std::size_t operand_wire_bytes(const OperandSpec& spec);

}  // namespace spmv::net
