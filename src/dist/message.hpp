// The distributed campaign wire protocol (DESIGN.md §12).
//
// Messages travel as self-delimiting binary frames with the same FNV-1a
// checksum discipline as the result store's cells.log:
//
//   frame   u32 'FNEM' | u32 type | u32 payload_len
//           | u64 fnv1a(type ‖ payload_len ‖ payload) | payload bytes
//
// all integers little-endian; the checksum covers the type and length
// fields too, so a flipped header bit is caught, not just payload rot.
// FrameBuffer is an incremental TOTAL decoder over a byte stream: any
// malformation — wrong magic, absurd length, checksum mismatch — yields
// kCorrupt (the receiver drops the connection and the sender's work is
// retried elsewhere), never an exception, a crash, or a misparsed
// message.  Bytes are hostile by assumption: the chaos tests inject
// random prefixes, truncations and bit flips through FaultyTransport.
//
// Message payloads use the store's ByteWriter/ByteReader codec
// (store/codec.hpp).  Every decode_* is total and returns nullopt on any
// malformation, including trailing garbage.
//
// Conversation (coordinator serves, worker drives):
//
//   worker     -> HELLO {fingerprint, name}        (once per connection)
//   coordinator-> WELCOME {ok, message}            (!ok: campaign mismatch)
//   worker     -> PULL
//   coordinator-> JOB {index, kind, key, lease_ms, heartbeat_ms,
//                      parent_runs?}               | WAIT {retry_ms} | DONE
//   worker     -> HEARTBEAT {index}                (while computing)
//   worker     -> RESULT {index, kind, key, data}  (cell record / metric)
//
// Reconnect is idempotent: a worker may HELLO again at any time and
// resume pulling; the coordinator's lease bookkeeping handles whatever
// the old connection left behind.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fne {

/// Bump when the frame layout or any payload schema changes.  Carried in
/// HELLO/WELCOME via the campaign fingerprint mix so mismatched builds
/// refuse each other instead of trading garbage.
inline constexpr std::uint32_t kWireProtocolVersion = 2;

enum class MsgType : std::uint32_t {
  kHello = 1,
  kWelcome = 2,
  kPull = 3,
  kJob = 4,
  kWait = 5,
  kDone = 6,
  kResult = 7,
  kHeartbeat = 8,
  // Scenario-service conversation (DESIGN.md §13) — same frames, JSON
  // text payloads: client -> kRequest {json}, service -> kResponse {json}.
  kRequest = 9,
  kResponse = 10,
};

struct Message {
  MsgType type = MsgType::kPull;
  std::string payload;
};

/// Frame a message for the wire (header + checksum + payload).
[[nodiscard]] std::string encode_frame(const Message& msg);

/// Incremental frame decoder over a received byte stream.  Append bytes
/// as they arrive; next() yields complete verified messages.  One
/// kCorrupt poisons the buffer permanently — after garbage there is no
/// trustworthy resynchronization point, so the connection must drop.
class FrameBuffer {
 public:
  enum class Next {
    kMessage,   ///< `out` holds a verified message
    kNeedMore,  ///< no complete frame buffered yet
    kCorrupt,   ///< stream is garbage; drop the connection
  };

  void append(std::string_view bytes);
  [[nodiscard]] Next next(Message& out);

  /// Buffered-but-unparsed byte count (tests).
  [[nodiscard]] std::size_t pending_bytes() const noexcept { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

// -- typed payloads ---------------------------------------------------------

struct HelloPayload {
  std::uint64_t fingerprint = 0;  ///< CampaignPlan::fingerprint ^ protocol mix
  std::string worker_name;
};

struct WelcomePayload {
  bool ok = false;
  std::string message;  ///< human-readable reject reason when !ok
};

struct JobPayload {
  std::uint64_t index = 0;   ///< job index in the shared CampaignPlan
  std::uint32_t kind = 0;    ///< CampaignJob::Kind as u32 (worker re-checks)
  std::string key;           ///< cell content key (worker verifies vs its plan)
  std::uint64_t lease_ms = 0;
  std::uint64_t heartbeat_ms = 0;
  std::string parent_runs;   ///< kMetric only: encode_runs of the parent run
};

struct WaitPayload {
  std::uint64_t retry_ms = 0;
};

struct ResultPayload {
  std::uint64_t index = 0;
  std::uint32_t kind = 0;
  std::string key;   ///< echoed cell key — wrong key => rejected
  std::string data;  ///< cell: encode_runs; metric: encode_metric_record
};

struct HeartbeatPayload {
  std::uint64_t index = 0;
};

[[nodiscard]] std::string encode_hello(const HelloPayload& p);
[[nodiscard]] std::optional<HelloPayload> decode_hello(std::string_view bytes);
[[nodiscard]] std::string encode_welcome(const WelcomePayload& p);
[[nodiscard]] std::optional<WelcomePayload> decode_welcome(std::string_view bytes);
[[nodiscard]] std::string encode_job(const JobPayload& p);
[[nodiscard]] std::optional<JobPayload> decode_job(std::string_view bytes);
[[nodiscard]] std::string encode_wait(const WaitPayload& p);
[[nodiscard]] std::optional<WaitPayload> decode_wait(std::string_view bytes);
[[nodiscard]] std::string encode_result(const ResultPayload& p);
[[nodiscard]] std::optional<ResultPayload> decode_result(std::string_view bytes);
[[nodiscard]] std::string encode_heartbeat(const HeartbeatPayload& p);
[[nodiscard]] std::optional<HeartbeatPayload> decode_heartbeat(std::string_view bytes);

/// MetricRecord <-> bytes for RESULT frames of kMetric jobs.  Total
/// decode like everything else on the wire.
struct MetricRecordWire {
  std::string name;
  std::string payload;
  std::string brief;
};
[[nodiscard]] std::string encode_metric_record(const MetricRecordWire& m);
[[nodiscard]] std::optional<MetricRecordWire> decode_metric_record(std::string_view bytes);

/// What both endpoints actually compare in HELLO/WELCOME: the campaign
/// plan fingerprint mixed with the protocol version, so a version skew
/// reads as a campaign mismatch and the connection is refused.
[[nodiscard]] std::uint64_t wire_fingerprint(std::uint64_t plan_fingerprint);

class Transport;

/// One step of pumping a transport into a FrameBuffer.  Returns after at
/// most `timeout_ms` with either a verified message or the reason there
/// is none yet; kTimeout covers both "no bytes" and "frame incomplete"
/// (the caller loops against its own deadline).
enum class ReadStatus {
  kMessage,
  kTimeout,
  kEof,      ///< peer closed cleanly
  kError,    ///< connection reset / transport error
  kCorrupt,  ///< stream failed verification; drop the connection
};
[[nodiscard]] ReadStatus read_message(Transport& transport, FrameBuffer& buf, Message& out,
                                      int timeout_ms);

}  // namespace fne
