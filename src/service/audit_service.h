// The live audit service: a long-running verifier-side daemon that turns the offline
// spill-file handoff of the paper's periodic-audit deployment (§2, §4.5) into networked
// streaming ingestion. N collector shards connect (src/service/collector_client.h), each
// streams its epoch's trace and reports records over the framed protocol of
// src/net/frame.h, and the service spools the records straight back into the canonical
// wire-format spill files — byte-identical to what Collector::Flush / WriteReportsFile
// would have produced locally — so when an epoch seals, the continuous audit is exactly
// AuditSession::FeedShardedEpoch over the sealed pairs, and the verdict is bit-identical
// to an offline audit of the same traffic.
//
// Failure handling follows the AuditOutcome taxonomy end to end:
//   - a client disconnect or short frame is retryable I/O: the stream stays resumable,
//     the client reconnects and re-sends from the acked counts, never tamper evidence;
//   - a frame that fails its CRC is localized corruption: the record is never spooled,
//     the client is told (ErrorCode::kCorruption) and re-sends after the resume
//     handshake — corruption in transit is never silently accepted;
//   - a shard whose EndEpoch totals disagree with what was actually spooled is
//     quarantined: its epoch never seals, and WaitEpochVerdict reports the quarantine
//     instead of a verdict.
#ifndef SRC_SERVICE_AUDIT_SERVICE_H_
#define SRC_SERVICE_AUDIT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/audit_session.h"
#include "src/net/frame.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_server.h"

namespace orochi {

// Knobs of the service, each with an OROCHI_* environment override resolved by
// ResolveServiceOptions (malformed values are hard "config: ..." errors, never silent
// fallbacks — same contract as OROCHI_AUDIT_THREADS / OROCHI_AUDIT_BUDGET).
struct ServiceOptions {
  // Where to listen (OROCHI_LISTEN_ADDRESS): "tcp:HOST:PORT" (port 0 = ephemeral; see
  // AuditService::address() for the bound one) or "unix:/path".
  std::string listen_address = "tcp:127.0.0.1:0";
  // Backpressure: the most unacked bytes a client may keep in flight before it must wait
  // for an Ack (OROCHI_MAX_INFLIGHT_BYTES; 0 = unbounded). Advertised in the HelloAck.
  uint64_t max_in_flight_bytes = 4ull << 20;
  // The service acks every this many records (OROCHI_ACK_INTERVAL; must be positive —
  // a client bounded by max_in_flight_bytes waits on acks to make progress).
  uint64_t ack_interval_records = 256;
  // Distinct shard streams an epoch needs sealed before it is audited
  // (OROCHI_SHARDS_PER_EPOCH; must be positive).
  uint32_t shards_per_epoch = 1;
  // Directory the per-epoch spill files land in, named epoch_<E>_shard_<S>.trace /
  // .reports. Sealed atomically (temp + fsync + rename), so anything visible under these
  // names is a complete, auditable spill file.
  std::string spool_dir;
  // Observability endpoint (OROCHI_STATS_ADDRESS): when nonempty, Start() also binds an
  // obs::StatsServer here serving /metrics (Prometheus text), /metrics.json, /epochs
  // (per-epoch verdict + phase decomposition + checkpoint reuse), and /shards (per-shard
  // connection state, spooled counts, unacked bytes, quarantine reason). Empty = off.
  std::string stats_address;
  Env* env = nullptr;              // Spool I/O; nullptr = Env::Default().
  Transport* transport = nullptr;  // Listener; nullptr = Transport::Default().
};

// Applies the OROCHI_* environment overrides to `base` (explicitly-set fields win only
// where the env var is unset: the env, when present, is authoritative, mirroring
// ResolveAuditThreads). Returns a hard config error for malformed or out-of-range values.
Result<ServiceOptions> ResolveServiceOptions(ServiceOptions base);

// Counters a long-running deployment watches; snapshot via AuditService::stats(). Each
// field is this service's share of the orochi_service_* series of the same name.
struct ServiceStats {
  uint64_t connections_accepted = 0;
  uint64_t frames = 0;  // Protocol frames read from attached shard streams.
  uint64_t records_spooled = 0;
  uint64_t records_deduped = 0;  // Resume overlap: re-sent records skipped exactly.
  uint64_t bytes_spooled = 0;
  uint64_t corrupt_frames = 0;  // CRC failures caught (and never spooled).
  uint64_t shard_reattaches = 0;  // Streams re-attached by a reconnecting collector.
  uint64_t shards_sealed = 0;
  uint64_t shards_quarantined = 0;
  uint64_t epochs_audited = 0;
  uint64_t epochs_accepted = 0;
};

class AuditService {
 public:
  // The audit side mirrors AuditSession::Open: `app` + `audit_options` + the initial
  // state both sides agree on before the first epoch. `options` should already be
  // resolved (ResolveServiceOptions).
  AuditService(const Application* app, AuditOptions audit_options, InitialState initial,
               ServiceOptions options);
  ~AuditService();
  AuditService(const AuditService&) = delete;
  AuditService& operator=(const AuditService&) = delete;

  // Binds the listener and starts the accept and audit threads.
  Status Start();
  // Stops accepting, disconnects every live client, waits for the audit thread to finish
  // the epoch it is on, and joins all threads. Idempotent.
  void Stop();

  // The address actually bound (resolves "tcp:...:0" to the real ephemeral port).
  const std::string& address() const { return address_; }
  // The stats endpoint actually bound; empty when ServiceOptions::stats_address was unset.
  const std::string& stats_address() const { return stats_address_; }

  // Blocks until `epoch` has a verdict (all its shards sealed and the continuous audit
  // reached it), a shard of it was quarantined (an error Result naming the shard), or the
  // service stopped (an error Result). Verdicts are retained, so this can be re-asked.
  Result<AuditResult> WaitEpochVerdict(uint64_t epoch);

  ServiceStats stats() const;

 private:
  struct ShardStream;
  struct EpochState;

  void AcceptLoop();
  void HandleConnection(std::unique_ptr<Connection> conn);
  void AuditLoop();
  // The body of HandleConnection once the stream is attached; returns the error to log
  // (empty = clean). Detaching/notifying happens in HandleConnection.
  Status ServeStream(Connection* conn, net::FrameReader* reader, net::FrameWriter* writer,
                     const net::HelloFrame& hello, EpochState* epoch, ShardStream* stream);
  // Appends one raw record frame to the shard's spool, or skips it as resume overlap.
  Status SpoolRecord(ShardStream* stream, bool is_trace, const net::RecordFrame& rec);
  // Seals both spool files (end record + fsync + rename); on success marks the shard
  // sealed and, when the epoch is complete, hands it to the audit thread.
  Status SealShard(EpochState* epoch, ShardStream* stream, const net::EndEpochFrame& end);

  // Renders the /epochs and /shards endpoint bodies from the service state under mu_.
  std::string EpochsJson() const;
  std::string ShardsJson() const;

  const Application* app_;
  AuditOptions audit_options_;
  ServiceOptions options_;
  std::string address_;
  std::string stats_address_;
  std::unique_ptr<obs::StatsServer> stats_server_;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::thread audit_thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;           // Epoch/stream state changes (attach, seal, verdict).
  bool started_ = false;
  bool stopping_ = false;
  std::unique_ptr<AuditSession> session_;  // Touched only by the audit thread after Start.
  std::map<uint64_t, std::unique_ptr<EpochState>> epochs_;
  std::vector<uint64_t> sealed_ready_;     // Complete epochs awaiting the audit thread.
  std::map<uint64_t, Result<AuditResult>> verdicts_;
  std::set<Connection*> live_connections_;

  // One cell per orochi_service_* series; stats() reads them without taking mu_.
  obs::MetricsRegistry* const registry_ = obs::MetricsRegistry::Default();
  obs::CounterCell connections_{registry_, "orochi_service_connections_total",
                                "collector connections accepted"};
  obs::CounterCell frames_{registry_, "orochi_service_frames_total",
                           "protocol frames read from attached shard streams"};
  obs::CounterCell records_spooled_{registry_, "orochi_service_records_spooled_total",
                                    "records appended to epoch spool files"};
  obs::CounterCell records_deduped_{
      registry_, "orochi_service_records_deduped_total",
      "resume-overlap records skipped exactly (already spooled before a reconnect)"};
  obs::CounterCell bytes_spooled_{registry_, "orochi_service_bytes_spooled_total",
                                  "bytes appended to epoch spool files"};
  obs::CounterCell corrupt_frames_{registry_, "orochi_service_corrupt_frames_total",
                                   "frames that failed their CRC (never spooled)"};
  obs::CounterCell shard_reattaches_{
      registry_, "orochi_service_shard_reattaches_total",
      "shard streams re-attached by a reconnecting collector (attach count - 1)"};
  obs::CounterCell shards_sealed_{registry_, "orochi_service_shards_sealed_total",
                                  "shard spool pairs sealed"};
  obs::CounterCell shards_quarantined_{
      registry_, "orochi_service_shards_quarantined_total",
      "shards quarantined for end-epoch totals disagreeing with the spool"};
  obs::CounterCell epochs_audited_{registry_, "orochi_service_epochs_audited_total",
                                   "epochs the continuous audit reached a verdict for"};
  obs::CounterCell epochs_accepted_{registry_, "orochi_service_epochs_accepted_total",
                                    "epochs accepted"};
};

}  // namespace orochi

#endif  // SRC_SERVICE_AUDIT_SERVICE_H_
