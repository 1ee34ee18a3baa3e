// Length-framed messages between CollectorClient and the audit service, riding the
// wire-format v2 record frame (u8 type, u64 length, u32 CRC32C(payload), payload) over a
// Connection — one CRC discipline for files and sockets.
//
// Protocol (client = a collector shard, service = the verifier-side daemon):
//
//   client                                service
//   ── Hello{version, shard, epoch} ──────►   registers/looks up the (epoch, shard) stream
//   ◄─ HelloAck{received counts, sealed,      resume point: the client re-sends data
//              max in-flight, ack interval}   records from these indexes
//   ── TraceRecord{index, rec type, bytes} ─► spooled in order; duplicates (< received
//   ── ReportsRecord{index, rec type, bytes}► count, a resume overlap) are skipped
//   ◄─ Ack{received counts}                   every ack-interval records — the client
//                                             bounds unacked bytes by max in-flight
//   ── EndEpoch{total counts} ────────────►   totals must match; spool files seal
//   ◄─ EpochSealed{epoch}                     (footer + fsync + rename into place)
//   ◄─ Error{code, message}                   any time: retryable / corruption / protocol
//
// Failure taxonomy: a disconnect or a frame cut off mid-stream is retryable I/O
// ("io-transient: net: ..." — reconnect and resume, NEVER tamper evidence); a frame whose
// CRC does not match is localized corruption ("wire: ..."), never silently accepted — the
// record is not spooled and the sender re-sends it after the resume handshake.
#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/net/transport.h"

namespace orochi {
namespace net {

// First field of every Hello, so a stray non-orochi peer is rejected before anything
// else is parsed.
inline constexpr uint32_t kProtocolMagic = 0x4F524348;  // "HCRO" little-endian.

// Frame types (the u8 of the record frame).
inline constexpr uint8_t kFrameHello = 1;          // client → service
inline constexpr uint8_t kFrameHelloAck = 2;       // service → client
inline constexpr uint8_t kFrameTraceRecord = 3;    // client → service
inline constexpr uint8_t kFrameReportsRecord = 4;  // client → service
inline constexpr uint8_t kFrameEndEpoch = 5;       // client → service
inline constexpr uint8_t kFrameAck = 6;            // service → client
inline constexpr uint8_t kFrameEpochSealed = 7;    // service → client
inline constexpr uint8_t kFrameError = 8;          // either direction

// A forged length must not make a receiver attempt a huge allocation; no legitimate
// trace/reports record approaches this.
inline constexpr uint64_t kMaxFramePayloadBytes = 64ull << 20;

struct HelloFrame {
  uint32_t format_version = 0;  // wire::kFormatVersion the client will encode with.
  uint32_t shard_id = 0;        // Nonzero: the collector's stamp.
  uint64_t epoch = 0;
};

struct HelloAckFrame {
  uint64_t trace_received = 0;    // Records already spooled — the client's resume point.
  uint64_t reports_received = 0;
  uint8_t sealed = 0;             // The epoch/shard stream already sealed (late rejoin).
  uint64_t max_in_flight_bytes = 0;   // Backpressure bound the service enforces.
  uint64_t ack_interval_records = 0;  // How often the service acks.
};

// One trace/reports section record in flight. `index` is the record's position in its
// stream (0-based, per section), so a resumed client re-sending from the acked count is
// deduplicated exactly; a gap is a protocol error, never silently spooled around.
struct RecordFrame {
  uint64_t index = 0;
  uint8_t record_type = 0;  // wire::kTraceRec* / wire::kReportsRec*.
  std::string payload;      // The record's canonical wire payload bytes.
};

struct EndEpochFrame {
  uint64_t trace_records = 0;    // Totals the spooled streams must match to seal.
  uint64_t reports_records = 0;
};

struct AckFrame {
  uint64_t trace_received = 0;
  uint64_t reports_received = 0;
};

struct EpochSealedFrame {
  uint64_t epoch = 0;
};

enum class ErrorCode : uint8_t {
  kRetryable = 1,   // Reconnect and resume (attached stream busy, shutdown, ...).
  kCorruption = 2,  // A frame failed its CRC — re-send after the resume handshake.
  kProtocol = 3,    // Version/handshake/sequence violation — do not retry.
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kProtocol;
  std::string message;
};

// --- payload codecs (all decoders parse defensively and never crash on forged bytes) ---

std::string EncodeHello(const HelloFrame& f);
Result<HelloFrame> DecodeHello(const std::string& payload);
std::string EncodeHelloAck(const HelloAckFrame& f);
Result<HelloAckFrame> DecodeHelloAck(const std::string& payload);
std::string EncodeRecord(const RecordFrame& f);
Result<RecordFrame> DecodeRecord(const std::string& payload);
std::string EncodeEndEpoch(const EndEpochFrame& f);
Result<EndEpochFrame> DecodeEndEpoch(const std::string& payload);
std::string EncodeAck(const AckFrame& f);
Result<AckFrame> DecodeAck(const std::string& payload);
std::string EncodeEpochSealed(const EpochSealedFrame& f);
Result<EpochSealedFrame> DecodeEpochSealed(const std::string& payload);
std::string EncodeError(const ErrorFrame& f);
Result<ErrorFrame> DecodeError(const std::string& payload);

// Reads one CRC-checked frame at a time off a connection.
class FrameReader {
 public:
  explicit FrameReader(Connection* conn) : conn_(conn) {}

  // True: *type/*payload hold the next frame (CRC verified). False: the peer closed
  // cleanly at a frame boundary. Errors: a close mid-frame is transient-tagged
  // ("io-transient: net: ..."), a CRC mismatch is "wire: ..." corruption.
  Result<bool> Next(uint8_t* type, std::string* payload);

 private:
  Connection* conn_;
};

// Writes frames; reusable scratch keeps a hot sender allocation-free.
class FrameWriter {
 public:
  explicit FrameWriter(Connection* conn) : conn_(conn) {}

  Status Send(uint8_t type, const std::string& payload);

 private:
  Connection* conn_;
  std::string scratch_;
};

}  // namespace net
}  // namespace orochi

#endif  // SRC_NET_FRAME_H_
