#include "src/service/audit_service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "src/common/strings.h"
#include "src/objects/wire_format.h"
#include "src/objects/wire_primitives.h"
#include "src/obs/metrics.h"

namespace orochi {

namespace {

// One env knob: overrides *out when set, hard "config: ..." error when malformed.
Status ApplyUint64Knob(const char* name, const char* what, uint64_t* out) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return Status::Ok();
  }
  Result<uint64_t> v = ParseUint64(env);
  if (!v.ok()) {
    return Status::Error("config: " + std::string(name) + "='" + env + "' is not a valid " +
                         what + " (" + v.error() + ")");
  }
  *out = v.value();
  return Status::Ok();
}

bool ValidTraceRecordType(uint8_t type) {
  return type == wire::kTraceRecRequest || type == wire::kTraceRecResponse;
}

bool ValidReportsRecordType(uint8_t type) {
  return type >= wire::kReportsRecObject && type <= wire::kReportsRecOpLogSegment;
}

}  // namespace

Result<ServiceOptions> ResolveServiceOptions(ServiceOptions base) {
  if (const char* env = std::getenv("OROCHI_LISTEN_ADDRESS")) {
    if (*env == '\0') {
      return Result<ServiceOptions>::Error(
          "config: OROCHI_LISTEN_ADDRESS is set but empty");
    }
    base.listen_address = env;
  }
  if (const char* env = std::getenv("OROCHI_STATS_ADDRESS")) {
    // Unlike the listen address, empty here is a deliberate "off" — the knob doubles as
    // the enable switch — but a set-and-garbage value must still fail loudly, which the
    // stats Listen() does at Start().
    base.stats_address = env;
  }
  if (Status st = ApplyUint64Knob("OROCHI_MAX_INFLIGHT_BYTES", "byte bound",
                                  &base.max_in_flight_bytes);
      !st.ok()) {
    return Result<ServiceOptions>::Error(st.error());
  }
  if (Status st = ApplyUint64Knob("OROCHI_ACK_INTERVAL", "record count",
                                  &base.ack_interval_records);
      !st.ok()) {
    return Result<ServiceOptions>::Error(st.error());
  }
  uint64_t shards = base.shards_per_epoch;
  if (Status st = ApplyUint64Knob("OROCHI_SHARDS_PER_EPOCH", "shard count", &shards);
      !st.ok()) {
    return Result<ServiceOptions>::Error(st.error());
  }
  if (shards == 0 || shards > UINT32_MAX) {
    return Result<ServiceOptions>::Error(
        "config: OROCHI_SHARDS_PER_EPOCH must be a positive shard count, got " +
        std::to_string(shards));
  }
  base.shards_per_epoch = static_cast<uint32_t>(shards);
  if (base.ack_interval_records == 0) {
    // A client bounded by max_in_flight_bytes waits on acks; never acking would wedge it.
    return Result<ServiceOptions>::Error(
        "config: OROCHI_ACK_INTERVAL must be positive (a bounded sender waits on acks)");
  }
  return base;
}

// One collector shard's in-progress stream for one epoch. Spool members are touched only
// by the handler currently attached (attachment is exclusive under AuditService::mu_).
struct AuditService::ShardStream {
  uint32_t shard_id = 0;
  bool attached = false;
  bool sealed = false;
  bool quarantined = false;
  std::string quarantine_reason;
  uint64_t attaches = 0;  // Guarded by mu_; attaches - 1 = reconnects of this stream.

  bool opened = false;
  std::string trace_path;
  std::string reports_path;
  AtomicFileWriter trace_atomic;
  AtomicFileWriter reports_atomic;
  // Counts are written by the one attached handler but read by the /shards endpoint at
  // any time, hence atomics (plain loads/stores; attachment already orders the writes).
  std::atomic<uint64_t> trace_received{0};    // Records spooled — the client's resume point.
  std::atomic<uint64_t> reports_received{0};
  std::atomic<uint64_t> trace_bytes{0};   // Bytes written so far (header included), for the footer.
  std::atomic<uint64_t> reports_bytes{0};
  std::atomic<uint64_t> unacked_bytes{0};  // In-flight bytes since the last ack sent.
};

struct AuditService::EpochState {
  uint64_t epoch = 0;
  std::map<uint32_t, std::unique_ptr<ShardStream>> shards;
  uint32_t sealed_count = 0;
  bool enqueued = false;  // Complete and handed to the audit thread.
};

AuditService::AuditService(const Application* app, AuditOptions audit_options,
                           InitialState initial, ServiceOptions options)
    : app_(app), audit_options_(std::move(audit_options)), options_(std::move(options)) {
  session_ = std::make_unique<AuditSession>(
      AuditSession::Open(app_, audit_options_, std::move(initial)));
}

AuditService::~AuditService() { Stop(); }

Status AuditService::Start() {
  Result<std::unique_ptr<Listener>> listener =
      ResolveTransport(options_.transport)->Listen(options_.listen_address);
  if (!listener.ok()) {
    return Status::Error(listener.error());
  }
  listener_ = std::move(listener.value());
  address_ = listener_->address();
  if (!options_.stats_address.empty()) {
    stats_server_ = std::make_unique<obs::StatsServer>();
    stats_server_->Handle("/metrics", "text/plain; version=0.0.4", [] {
      return obs::MetricsRegistry::Default()->TextExposition();
    });
    stats_server_->Handle("/metrics.json", "application/json", [] {
      return obs::MetricsRegistry::Default()->JsonExposition();
    });
    stats_server_->Handle("/epochs", "application/json", [this] { return EpochsJson(); });
    stats_server_->Handle("/shards", "application/json", [this] { return ShardsJson(); });
    // The stats endpoint always rides the production transport: the main listener may sit
    // behind a FaultInjectingTransport in tests, and a scraper must not eat its faults.
    if (Status st = stats_server_->Start(options_.stats_address); !st.ok()) {
      stats_server_.reset();
      listener_->Close();
      listener_.reset();
      return st;
    }
    stats_address_ = stats_server_->address();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  audit_thread_ = std::thread([this] { AuditLoop(); });
  return Status::Ok();
}

void AuditService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      return;
    }
    stopping_ = true;
    // Shut the live connections down under the lock: a pointer still in the set is
    // owned by a handler that cannot deregister (and free it) until we release mu_.
    for (Connection* conn : live_connections_) {
      conn->Shutdown();  // Unblocks handlers waiting in ReadSome.
    }
  }
  cv_.notify_all();
  listener_->Close();
  accept_thread_.join();
  {
    // Handlers run detached; wait for each to deregister on its way out.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return live_connections_.empty(); });
  }
  audit_thread_.join();
  if (stats_server_ != nullptr) {
    // Last so an operator can scrape the final counters right up to the join above.
    stats_server_->Stop();
  }
}

ServiceStats AuditService::stats() const {
  ServiceStats s;
  s.connections_accepted = connections_.Value();
  s.frames = frames_.Value();
  s.records_spooled = records_spooled_.Value();
  s.records_deduped = records_deduped_.Value();
  s.bytes_spooled = bytes_spooled_.Value();
  s.corrupt_frames = corrupt_frames_.Value();
  s.shard_reattaches = shard_reattaches_.Value();
  s.shards_sealed = shards_sealed_.Value();
  s.shards_quarantined = shards_quarantined_.Value();
  s.epochs_audited = epochs_audited_.Value();
  s.epochs_accepted = epochs_accepted_.Value();
  return s;
}

void AuditService::AcceptLoop() {
  while (true) {
    Result<std::unique_ptr<Connection>> conn = listener_->Accept();
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    if (!conn.ok()) {
      // A transient accept failure must not spin the loop hot.
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    connections_.Inc();
    Connection* raw = conn.value().get();
    live_connections_.insert(raw);
    lock.unlock();
    std::thread([this, owned = std::move(conn).value()]() mutable {
      HandleConnection(std::move(owned));
    }).detach();
  }
}

Status AuditService::SpoolRecord(ShardStream* stream, bool is_trace,
                                 const net::RecordFrame& rec) {
  std::string frame;
  wire::AppendRecordFrame(&frame, rec.record_type, rec.payload);
  AtomicFileWriter& atomic = is_trace ? stream->trace_atomic : stream->reports_atomic;
  if (Status st = atomic.file()->Append(frame); !st.ok()) {
    return st;
  }
  if (is_trace) {
    stream->trace_received++;
    stream->trace_bytes += frame.size();
  } else {
    stream->reports_received++;
    stream->reports_bytes += frame.size();
  }
  records_spooled_.Inc();
  bytes_spooled_.Inc(frame.size());
  return Status::Ok();
}

Status AuditService::SealShard(EpochState* epoch, ShardStream* stream,
                               const net::EndEpochFrame& end) {
  if (end.trace_records != stream->trace_received ||
      end.reports_records != stream->reports_received) {
    // The client claims totals the spool does not have: either direction means records
    // were lost or invented between collector and verifier, so the shard is quarantined —
    // the epoch never seals and the verdict wait reports it, never a silent accept.
    std::string reason =
        "net: shard " + std::to_string(stream->shard_id) + " of epoch " +
        std::to_string(epoch->epoch) + " quarantined: end-epoch totals " +
        std::to_string(end.trace_records) + "/" + std::to_string(end.reports_records) +
        " do not match spooled " + std::to_string(stream->trace_received) + "/" +
        std::to_string(stream->reports_received);
    shards_quarantined_.Inc();
    std::lock_guard<std::mutex> lock(mu_);
    stream->quarantined = true;
    stream->quarantine_reason = reason;
    cv_.notify_all();
    return Status::Error(reason);
  }
  // Footer counts mirror TraceWriter/ReportsWriter exactly: the trace section carries one
  // extra non-end record (the shard-info header written at open).
  std::string tail;
  wire::AppendEndRecordFrame(&tail, stream->trace_received + 1, stream->trace_bytes);
  if (Status st = stream->trace_atomic.file()->Append(tail); !st.ok()) {
    return st;
  }
  if (Status st = stream->trace_atomic.Commit(); !st.ok()) {
    return st;
  }
  tail.clear();
  wire::AppendEndRecordFrame(&tail, stream->reports_received, stream->reports_bytes);
  if (Status st = stream->reports_atomic.file()->Append(tail); !st.ok()) {
    return st;
  }
  if (Status st = stream->reports_atomic.Commit(); !st.ok()) {
    return st;
  }
  shards_sealed_.Inc();
  std::lock_guard<std::mutex> lock(mu_);
  stream->sealed = true;
  epoch->sealed_count++;
  if (!epoch->enqueued && epoch->sealed_count >= options_.shards_per_epoch) {
    epoch->enqueued = true;
    sealed_ready_.push_back(epoch->epoch);
    cv_.notify_all();
  }
  return Status::Ok();
}

Status AuditService::ServeStream(Connection* conn, net::FrameReader* reader,
                                 net::FrameWriter* writer, const net::HelloFrame& hello,
                                 EpochState* epoch, ShardStream* stream) {
  (void)conn;
  if (!stream->opened) {
    std::string base = options_.spool_dir + "/epoch_" + std::to_string(hello.epoch) +
                       "_shard_" + std::to_string(hello.shard_id);
    stream->trace_path = base + ".trace";
    stream->reports_path = base + ".reports";
    if (Status st = stream->trace_atomic.Open(options_.env, stream->trace_path); !st.ok()) {
      return st;
    }
    if (Status st = stream->reports_atomic.Open(options_.env, stream->reports_path);
        !st.ok()) {
      return st;
    }
    // The service writes both in-file headers itself from the handshake, so what a client
    // streams are pure data records and a sealed spool is byte-identical to a local
    // Collector::Flush / WriteReportsFile of the same traffic.
    std::string head = wire::EnvelopeHeader(wire::Section::kTrace);
    std::string shard_info;
    wire_primitives::PutU32(&shard_info, hello.shard_id);
    wire::AppendRecordFrame(&head, wire::kTraceRecShardInfo, shard_info);
    if (Status st = stream->trace_atomic.file()->Append(head); !st.ok()) {
      return st;
    }
    stream->trace_bytes = head.size();
    head = wire::EnvelopeHeader(wire::Section::kReports);
    if (Status st = stream->reports_atomic.file()->Append(head); !st.ok()) {
      return st;
    }
    stream->reports_bytes = head.size();
    stream->opened = true;
  }

  net::HelloAckFrame ack;
  ack.trace_received = stream->trace_received;
  ack.reports_received = stream->reports_received;
  ack.sealed = stream->sealed ? 1 : 0;
  ack.max_in_flight_bytes = options_.max_in_flight_bytes;
  ack.ack_interval_records = options_.ack_interval_records;
  if (Status st = writer->Send(net::kFrameHelloAck, net::EncodeHelloAck(ack)); !st.ok()) {
    return st;
  }

  uint64_t since_ack = 0;
  uint64_t bytes_since_ack = 0;
  auto send_ack = [&]() {
    since_ack = 0;
    bytes_since_ack = 0;
    stream->unacked_bytes.store(0, std::memory_order_relaxed);
    net::AckFrame a;
    a.trace_received = stream->trace_received;
    a.reports_received = stream->reports_received;
    return writer->Send(net::kFrameAck, net::EncodeAck(a));
  };
  auto send_error = [&](net::ErrorCode code, const std::string& message) {
    net::ErrorFrame e;
    e.code = code;
    e.message = message;
    (void)writer->Send(net::kFrameError, net::EncodeError(e));
  };

  while (true) {
    uint8_t type = 0;
    std::string payload;
    Result<bool> next = reader->Next(&type, &payload);
    if (!next.ok()) {
      if (!IsTransientIoError(next.error())) {
        // A frame that failed its CRC: tell the client, drop the connection, keep the
        // received counts — the record was never spooled and the resume re-sends it.
        corrupt_frames_.Inc();
        send_error(net::ErrorCode::kCorruption, next.error());
      }
      return Status::Error(next.error());
    }
    if (!next.value()) {
      return Status::Ok();  // Clean close at a frame boundary.
    }
    frames_.Inc();
    switch (type) {
      case net::kFrameTraceRecord:
      case net::kFrameReportsRecord: {
        bool is_trace = (type == net::kFrameTraceRecord);
        Result<net::RecordFrame> rec = net::DecodeRecord(payload);
        if (!rec.ok()) {
          send_error(net::ErrorCode::kProtocol, rec.error());
          return Status::Error(rec.error());
        }
        bool type_ok = is_trace ? ValidTraceRecordType(rec.value().record_type)
                                : ValidReportsRecordType(rec.value().record_type);
        if (!type_ok) {
          std::string msg = "net: illegal record type " +
                            std::to_string(rec.value().record_type) + " in a " +
                            (is_trace ? std::string("trace") : std::string("reports")) +
                            " stream";
          send_error(net::ErrorCode::kProtocol, msg);
          return Status::Error(msg);
        }
        uint64_t expected = is_trace ? stream->trace_received : stream->reports_received;
        if (rec.value().index > expected) {
          std::string msg = "net: record index " + std::to_string(rec.value().index) +
                            " skips ahead of " + std::to_string(expected) +
                            " (gap in the stream)";
          send_error(net::ErrorCode::kProtocol, msg);
          return Status::Error(msg);
        }
        if (rec.value().index < expected) {
          // Resume overlap from a reconnected client: already spooled, skip exactly.
          records_deduped_.Inc();
        } else if (Status st = SpoolRecord(stream, is_trace, rec.value()); !st.ok()) {
          send_error(net::ErrorCode::kRetryable, st.error());
          return st;
        }
        since_ack++;
        bytes_since_ack += wire::kRecordFrameBytesV2 + payload.size();
        stream->unacked_bytes.store(bytes_since_ack, std::memory_order_relaxed);
        // Acks pace the client's flow control, so they must fire on bytes too: a few
        // huge records can hit the in-flight byte bound long before the record interval.
        bool byte_due = options_.max_in_flight_bytes > 0 &&
                        bytes_since_ack >= options_.max_in_flight_bytes / 2;
        if (since_ack >= options_.ack_interval_records || byte_due) {
          if (Status st = send_ack(); !st.ok()) {
            return st;
          }
        }
        break;
      }
      case net::kFrameEndEpoch: {
        Result<net::EndEpochFrame> end = net::DecodeEndEpoch(payload);
        if (!end.ok()) {
          send_error(net::ErrorCode::kProtocol, end.error());
          return Status::Error(end.error());
        }
        if (!stream->sealed) {
          if (Status st = SealShard(epoch, stream, end.value()); !st.ok()) {
            send_error(stream->quarantined ? net::ErrorCode::kProtocol
                                           : net::ErrorCode::kRetryable,
                       st.error());
            return st;
          }
        }
        if (Status st = send_ack(); !st.ok()) {
          return st;
        }
        net::EpochSealedFrame sealed;
        sealed.epoch = hello.epoch;
        if (Status st = writer->Send(net::kFrameEpochSealed, net::EncodeEpochSealed(sealed));
            !st.ok()) {
          return st;
        }
        break;  // The client closes once it has seen the seal.
      }
      default: {
        std::string msg = "net: unexpected frame type " + std::to_string(type) +
                          " from an attached shard stream";
        send_error(net::ErrorCode::kProtocol, msg);
        return Status::Error(msg);
      }
    }
  }
}

void AuditService::HandleConnection(std::unique_ptr<Connection> conn) {
  net::FrameReader reader(conn.get());
  net::FrameWriter writer(conn.get());
  auto send_error = [&](net::ErrorCode code, const std::string& message) {
    net::ErrorFrame e;
    e.code = code;
    e.message = message;
    (void)writer.Send(net::kFrameError, net::EncodeError(e));
  };
  auto deregister = [&]() {
    std::lock_guard<std::mutex> lock(mu_);
    live_connections_.erase(conn.get());
    cv_.notify_all();
  };

  uint8_t type = 0;
  std::string payload;
  Result<bool> first = reader.Next(&type, &payload);
  if (!first.ok() || !first.value() || type != net::kFrameHello) {
    if (first.ok() && first.value()) {
      send_error(net::ErrorCode::kProtocol, "net: expected a hello frame first");
    }
    deregister();
    return;
  }
  Result<net::HelloFrame> hello = net::DecodeHello(payload);
  if (!hello.ok()) {
    send_error(net::ErrorCode::kProtocol, hello.error());
    deregister();
    return;
  }
  if (hello.value().format_version != wire::kFormatVersion) {
    send_error(net::ErrorCode::kProtocol,
               "net: peer speaks wire format v" +
                   std::to_string(hello.value().format_version) + ", this service spools v" +
                   std::to_string(wire::kFormatVersion));
    deregister();
    return;
  }
  if (hello.value().shard_id == 0) {
    send_error(net::ErrorCode::kProtocol, "net: shard id 0 is reserved (unsharded spill)");
    deregister();
    return;
  }

  EpochState* epoch = nullptr;
  ShardStream* stream = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      lock.unlock();
      send_error(net::ErrorCode::kRetryable, "net: audit service stopping");
      deregister();
      return;
    }
    std::unique_ptr<EpochState>& slot = epochs_[hello.value().epoch];
    if (slot == nullptr) {
      slot = std::make_unique<EpochState>();
      slot->epoch = hello.value().epoch;
    }
    epoch = slot.get();
    std::unique_ptr<ShardStream>& sslot = epoch->shards[hello.value().shard_id];
    if (sslot == nullptr) {
      if (epoch->enqueued) {
        lock.unlock();
        send_error(net::ErrorCode::kProtocol,
                   "net: epoch " + std::to_string(hello.value().epoch) +
                       " is already complete; a new shard cannot join it");
        deregister();
        return;
      }
      sslot = std::make_unique<ShardStream>();
      sslot->shard_id = hello.value().shard_id;
    }
    stream = sslot.get();
    if (stream->quarantined) {
      std::string reason = stream->quarantine_reason;
      lock.unlock();
      send_error(net::ErrorCode::kProtocol, reason);
      deregister();
      return;
    }
    if (stream->attached) {
      // A reconnecting client can race the teardown of its dead predecessor, whose
      // handler is still draining; give the detach a moment before bouncing the client.
      cv_.wait_for(lock, std::chrono::seconds(2),
                   [&] { return !stream->attached || stopping_; });
    }
    if (stream->attached || stopping_) {
      lock.unlock();
      send_error(net::ErrorCode::kRetryable, "net: shard stream busy; reconnect");
      deregister();
      return;
    }
    stream->attached = true;
    stream->attaches++;
    if (stream->attaches > 1) {
      shard_reattaches_.Inc();
    }
  }

  (void)ServeStream(conn.get(), &reader, &writer, hello.value(), epoch, stream);

  {
    // Notify while still holding mu_: the moment the erase is visible to a Stop()
    // waiting for live_connections_ to drain, the service may be destroyed — a notify
    // outside the lock could touch a dead condition variable.
    std::lock_guard<std::mutex> lock(mu_);
    stream->attached = false;
    live_connections_.erase(conn.get());
    cv_.notify_all();
  }
}

void AuditService::AuditLoop() {
  while (true) {
    uint64_t epoch_id = 0;
    std::vector<ShardEpochFiles> files;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !sealed_ready_.empty(); });
      if (sealed_ready_.empty()) {
        return;  // Stopping with nothing left to audit.
      }
      // Epochs audit in ascending order of completion: each accepted final state seeds
      // the next epoch, the paper's steady state between audit periods.
      auto it = std::min_element(sealed_ready_.begin(), sealed_ready_.end());
      epoch_id = *it;
      sealed_ready_.erase(it);
      EpochState* epoch = epochs_.at(epoch_id).get();
      for (const auto& [shard_id, stream] : epoch->shards) {
        if (stream->sealed) {
          files.push_back(ShardEpochFiles{stream->trace_path, stream->reports_path});
        }
      }
    }
    // The audit runs outside the lock: ingestion of later epochs proceeds concurrently.
    Result<AuditResult> verdict = session_->FeedShardedEpoch(files);
    // Counted before the verdict is published under mu_, so a caller returning from
    // WaitEpochVerdict already sees this epoch in stats().
    epochs_audited_.Inc();
    if (verdict.ok() && verdict.value().accepted) {
      epochs_accepted_.Inc();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      verdicts_.emplace(epoch_id, std::move(verdict));
    }
    cv_.notify_all();
  }
}

std::string AuditService::EpochsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"epochs\": [";
  bool first = true;
  for (const auto& [epoch_id, epoch] : epochs_) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{\"epoch\": " + std::to_string(epoch_id);
    out += ", \"shards_sealed\": " + std::to_string(epoch->sealed_count);
    out += ", \"shards_expected\": " + std::to_string(options_.shards_per_epoch);
    std::string state = epoch->enqueued ? "auditing" : "ingesting";
    for (const auto& [shard_id, stream] : epoch->shards) {
      if (stream->quarantined) {
        state = "quarantined";
      }
    }
    auto vit = verdicts_.find(epoch_id);
    if (vit != verdicts_.end()) {
      if (!vit->second.ok()) {
        state = "error";
        out += ", \"error\": \"" + obs::JsonEscape(vit->second.error()) + "\"";
      } else {
        const AuditResult& v = vit->second.value();
        state = v.accepted ? "accepted" : "rejected";
        if (!v.accepted) {
          out += ", \"reason\": \"" + obs::JsonEscape(v.reason) + "\"";
        }
        out += ", \"phases\": " + v.phases.Json();
        out += ", \"audit\": {\"num_groups\": " + std::to_string(v.stats.num_groups) +
               ", \"ops_checked\": " + std::to_string(v.stats.ops_checked) +
               ", \"db_selects_issued\": " + std::to_string(v.stats.db_selects_issued) +
               ", \"db_selects_deduped\": " + std::to_string(v.stats.db_selects_deduped) +
               ", \"checkpoint_chunks_reused\": " +
               std::to_string(v.stats.checkpoint_chunks_reused) + "}";
      }
    }
    out += ", \"state\": \"" + state + "\"}";
  }
  out += "]}";
  return out;
}

std::string AuditService::ShardsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"shards\": [";
  bool first = true;
  for (const auto& [epoch_id, epoch] : epochs_) {
    for (const auto& [shard_id, stream] : epoch->shards) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += "{\"epoch\": " + std::to_string(epoch_id);
      out += ", \"shard\": " + std::to_string(shard_id);
      out += std::string(", \"attached\": ") + (stream->attached ? "true" : "false");
      out += std::string(", \"sealed\": ") + (stream->sealed ? "true" : "false");
      out += ", \"attaches\": " + std::to_string(stream->attaches);
      out += ", \"trace_records\": " +
             std::to_string(stream->trace_received.load(std::memory_order_relaxed));
      out += ", \"reports_records\": " +
             std::to_string(stream->reports_received.load(std::memory_order_relaxed));
      out += ", \"trace_bytes\": " +
             std::to_string(stream->trace_bytes.load(std::memory_order_relaxed));
      out += ", \"reports_bytes\": " +
             std::to_string(stream->reports_bytes.load(std::memory_order_relaxed));
      out += ", \"unacked_bytes\": " +
             std::to_string(stream->unacked_bytes.load(std::memory_order_relaxed));
      out += std::string(", \"quarantined\": ") + (stream->quarantined ? "true" : "false");
      if (stream->quarantined) {
        out += ", \"quarantine_reason\": \"" + obs::JsonEscape(stream->quarantine_reason) +
               "\"";
      }
      out += "}";
    }
  }
  out += "]}";
  return out;
}

Result<AuditResult> AuditService::WaitEpochVerdict(uint64_t epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = verdicts_.find(epoch);
    if (it != verdicts_.end()) {
      return it->second;
    }
    auto eit = epochs_.find(epoch);
    if (eit != epochs_.end()) {
      for (const auto& [shard_id, stream] : eit->second->shards) {
        if (stream->quarantined) {
          return Result<AuditResult>::Error(stream->quarantine_reason);
        }
      }
    }
    if (stopping_) {
      return Result<AuditResult>::Error("net: audit service stopped before epoch " +
                                        std::to_string(epoch) + " had a verdict");
    }
    cv_.wait(lock);
  }
}

}  // namespace orochi
