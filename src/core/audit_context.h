// Shared audit-time state: the OpMap, versioned stores built by the redo pass (§4.5),
// CheckOp / SimOp (simulate-and-check, §3.3 and Figure 12), non-determinism validation
// (§4.6), and read-query deduplication. Both the grouped SIMD-on-demand re-execution and
// the per-request (baseline / fallback / OOO) re-executions drive this context.
//
// Concurrency model (parallel audit): after Prepare() the versioned stores, parsed logs,
// OpMap, and trace indexes are immutable, so CheckOp/SimOp reads are lock-free. The only
// mutable shared state on the re-execution path is (a) the SELECT dedup cache, striped
// over per-stripe mutexes so §4.5 query dedup keeps working across threads (a cached
// SELECT result is one immutable Value that every request reading it shares;
// copy-on-write stays safe because the cache keeps a reference), and (b)
// per-request cursors/output slots, which are pre-built for every traced rid in
// Prepare() and only ever touched by the one worker executing that rid's group.
// Stats on the hot path accumulate into a per-worker AuditWorkerState and are merged at
// join, keeping counters contention-free.
#ifndef SRC_CORE_AUDIT_CONTEXT_H_
#define SRC_CORE_AUDIT_CONTEXT_H_

#include <array>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/core/process_reports.h"
#include "src/obs/trace.h"
#include "src/lang/step_result.h"
#include "src/objects/reports.h"
#include "src/objects/stores.h"
#include "src/objects/trace.h"
#include "src/server/application.h"
#include "src/sql/versioned_database.h"

namespace orochi {

struct AuditOptions {
  size_t max_group_size = 3000;      // acc-PHP's group cap (§4.7).
  bool enable_query_dedup = true;    // §4.5 read-query dedup (ablation switch).
  // Worker threads for grouped re-execution. 0 = auto: OROCHI_AUDIT_THREADS when set,
  // else std::thread::hardware_concurrency().
  size_t num_threads = 0;
  // Memory budget (bytes) for trace payloads resident during an out-of-core streaming
  // audit (AuditSession::FeedEpochFilesStreamed / FeedShardedEpoch): workers block until
  // their chunk fits, and a single chunk larger than the whole budget is admitted only
  // while nothing else is resident. 0 = auto: OROCHI_AUDIT_BUDGET when set, else
  // unlimited. Ignored by the in-memory path.
  size_t max_resident_bytes = 0;
  // Inert: read by nothing (see the compatibility block in src/stream/stream_audit.h).
  size_t prefetch_depth = 0;
  // I/O environment every spill read/write of the audit goes through. nullptr = the
  // production posix environment; tests install a FaultInjectingEnv here to drive the
  // whole pipeline through injected faults. Not owned.
  Env* io_env = nullptr;
  // When nonempty, FeedEpochFilesStreamed journals completed pass-2 chunks to this
  // sidecar file and, on a later run over the same epoch, resumes without re-executing
  // them. Removed once a verdict (accept or reject) is reached.
  std::string checkpoint_path;
  // Phase tracer the audit's TraceSpans record into. nullptr = the process-wide
  // obs::PhaseTracer::Default(); concurrent sessions that want isolated per-epoch
  // attribution install private tracers here. Not owned.
  obs::PhaseTracer* tracer = nullptr;
  InterpreterOptions interp;
};

// Counts only: where the audit's time went is AuditResult::phases (the obs::PhaseTracer
// spans), the single clock.
struct AuditStats {
  uint64_t total_instructions = 0;
  uint64_t multivalent_instructions = 0;
  uint64_t num_groups = 0;
  uint64_t groups_multi = 0;     // Groups with more than one request.
  uint64_t fallback_groups = 0;  // Groups re-executed per-request (§4.7 escape hatch).
  uint64_t ops_checked = 0;
  uint64_t db_selects_issued = 0;   // SELECTs actually run against versioned storage.
  uint64_t db_selects_deduped = 0;  // SELECTs answered from the dedup cache.
  // Pass-2 chunk tasks replayed from a checkpoint journal instead of re-executed (only
  // nonzero on a resumed streamed audit; see src/stream/checkpoint.h).
  uint64_t checkpoint_chunks_reused = 0;
  // Pass-3 response compares skipped on resume because they sit below the prior run's
  // journaled compare watermark.
  uint64_t compare_records_resumed = 0;
  // Largest record payload pass 1 transiently materialized while indexing the reports
  // spill (max-merged, not summed). Bounded by ~wire::kMaxOpLogSegmentBytes for v3
  // spills; a v1/v2 file pays its largest monolithic op-log record.
  uint64_t pass1_transient_peak_bytes = 0;

  struct GroupStat {
    std::string script;
    uint32_t n;        // Requests in the group.
    uint64_t length;   // Instructions executed by the group (l_c in Figure 11).
    double alpha;      // Fraction of univalent instructions (alpha_c in Figure 11).
  };
  std::vector<GroupStat> group_stats;

  // Folds a per-worker (or per-task) stats block into this one. The parallel audit merges
  // task blocks in group order, so group_stats ordering matches sequential execution.
  void MergeFrom(const AuditStats& o);
};

// Per-worker mutable state for the re-execution hot path: a stats block the worker owns
// exclusively (merged under the caller's control) and a scratch buffer reused for
// op-content serialization so CheckOp does not allocate per comparison.
struct AuditWorkerState {
  explicit AuditWorkerState(AuditStats* s) : stats(s) {}
  AuditStats* stats;
  std::string scratch;
};

// Forward-scan access to one object's op log with entry contents materialized. The
// in-memory path never installs one (the resident Reports backs scans directly); the
// out-of-core path installs a segment-paging scanner (src/stream/reports_index.h) before
// Prepare(), so the versioned-store builds read spilled log contents in bounded pages
// charged against the same budget as trace payloads. The entries handed to `fn` must be
// identical to the resident log's — the scanner only changes *when* contents bytes are
// resident, never what the builds see.
class OpLogScanner {
 public:
  virtual ~OpLogScanner() = default;
  // Invokes fn(entry, seqnum) for every entry of `object`'s log in order (seqnum is
  // 1-based). A non-ok Status from fn aborts the scan and is returned; the scanner's own
  // I/O failures are also returned (callers distinguish them via io_failed()).
  virtual Status Scan(size_t object,
                      const std::function<Status(const OpRecord&, uint64_t)>& fn) = 0;
  // True when the last Scan error came from paging (a file-level problem, not an audit
  // verdict) — mirrors AuditExecOutcome::gate_failed.
  virtual bool io_failed() const { return false; }
};

class AuditContext {
 public:
  AuditContext(const Trace* trace, const Reports* reports, const Application* app,
               const InitialState* initial, AuditOptions options);

  // Installs the op-log scanner the versioned-store builds read spilled contents through.
  // Must be called before Prepare(); null (the default) scans the resident reports.
  void set_oplog_scanner(OpLogScanner* scanner) { oplog_scanner_ = scanner; }

  // Balanced-trace check, ProcessOpReports, and the versioned-storage builds, traced as
  // the prepare, proc_op_reports and store_build phases. An error means the audit
  // REJECTs with that reason. On success the versioned stores are frozen: everything the
  // re-execution phase reads is immutable from here on.
  Status Prepare();

  // CheckOp (Figure 12 lines 10-15): validates that the program-generated op matches the
  // unique log entry claiming (rid, opnum); returns that entry's (object, seqnum).
  Result<OpLocation> CheckOp(RequestId rid, uint32_t opnum, const StateOpRequest& op,
                             AuditWorkerState* ws);
  Result<OpLocation> CheckOp(RequestId rid, uint32_t opnum, const StateOpRequest& op) {
    return CheckOp(rid, opnum, op, &inline_ws_);
  }

  // SimOp (Figure 12 lines 17-28) extended with write results: reads are fed from the
  // logs / versioned stores; DB writes return the redo pass outcome.
  Result<Value> SimOp(const StateOpRequest& op, OpLocation loc, AuditWorkerState* ws);
  Result<Value> SimOp(const StateOpRequest& op, OpLocation loc) {
    return SimOp(op, loc, &inline_ws_);
  }

  // --- Non-determinism feeding (§4.6) ---
  // Resets the per-request cursor (re-execution is idempotent; a request may re-run).
  void ResetNondet(RequestId rid);
  Result<Value> NextNondet(RequestId rid, const NondetRequest& req);
  Status CheckNondetConsumed(RequestId rid);

  // M(rid) with default 0.
  uint32_t OpCount(RequestId rid) const;

  // The trace's request event for rid; nullptr when absent.
  const TraceEvent* RequestEvent(RequestId rid) const;

  const ProcessedReports& processed() const { return processed_; }
  AuditStats& stats() { return stats_; }

  // Produced-output registry (filled by the re-execution drivers). Slots exist for every
  // traced rid after Prepare(), so concurrent SetOutput calls for distinct rids never
  // mutate the map structure; callers must only pass rids present in the trace.
  void SetOutput(RequestId rid, std::string body);
  // The output a re-execution produced for rid, or nullptr when none was set. Same
  // concurrency discipline as SetOutput: only the worker owning rid's task may call this
  // while tasks run (the checkpoint journal captures a chunk's outputs through it).
  const std::string* ProducedOutput(RequestId rid) const;
  // Compares produced outputs against the trace's responses (the final accept check),
  // traced as the pass3_compare phase.
  Status CompareOutputs();
  // Verdict for one traced response against the produced outputs; empty = match. The
  // single source of both rejection reasons ("never re-executed" / mismatch):
  // CompareOutputs walks the in-memory trace with it, and the out-of-core comparer calls
  // it per re-streamed response body (the skeleton trace holds no bodies), so the two
  // paths cannot drift apart.
  std::string CheckResponseOutput(RequestId rid, const std::string& body) const;

  // The end-of-period object state implied by the logs (kept as the next InitialState).
  InitialState ExtractFinalState() const;

 private:
  // Forward scan over one op log: via the installed scanner (spilled contents paged in
  // per segment) or directly over the resident reports. Shared by the three builds.
  Status ScanOpLog(size_t object,
                   const std::function<Status(const OpRecord&, uint64_t)>& fn);

  Status BuildRegisterIndexes();
  Status BuildVersionedKv();
  Status BuildVersionedDb();

  struct DedupEntry {
    uint64_t ts;
    // StmtResultToValue of the SELECT. Never mutated: programs that modify a returned
    // row array copy it first, because this reference keeps the array shared.
    Value result;
  };
  // The db log, interned: the redo parses each distinct op-contents text and each
  // distinct statement text once per epoch, errors included, and every log entry with
  // the same bytes shares that parse. Immutable after Prepare() except `dedup`. Only
  // SELECT parses outlive the redo (pass 2 reads writes from redo_affected_).
  struct InternedSql {
    size_t id;  // Position in sql_table_; picks the dedup stripe.
    Result<SqlStatement> stmt;
    // SELECT dedup cache of this statement, sorted by ts; guarded by
    // dedup_mu_[id % kDedupStripes].
    mutable std::vector<DedupEntry> dedup;
  };
  struct InternedDbOp {
    Result<DbContents> contents;
    std::vector<const InternedSql*> stmts;  // One per statement when contents.ok().
  };

  Result<Value> SimDbOp(const StateOpRequest& op, OpLocation loc, AuditWorkerState* ws);
  // Executes (or dedups) one SELECT at timestamp ts; returns its program-visible value.
  Result<Value> RunSelect(const InternedSql& sql, uint64_t ts, AuditWorkerState* ws);

  const Trace* trace_;
  const Reports* reports_;
  const Application* app_;
  const InitialState* initial_;
  AuditOptions options_;
  OpLogScanner* oplog_scanner_ = nullptr;

  ProcessedReports processed_;
  std::unordered_map<RequestId, const TraceEvent*> request_events_;

  // Per-register-object parsed write sequences: (seqnum, value), ascending.
  std::vector<std::vector<std::pair<uint64_t, Value>>> register_writes_;
  VersionedKv versioned_kv_;
  VersionedDatabase versioned_db_;
  int kv_object_ = -1;
  int db_object_ = -1;

  std::deque<InternedSql> sql_table_;
  std::deque<InternedDbOp> db_op_table_;
  // Per db-log entry (seqnum - 1): its interned op; null for a non-db-typed entry.
  std::vector<const InternedDbOp*> db_log_parsed_;
  // Redo outcomes for write statements (by ts).
  std::unordered_map<uint64_t, int64_t> redo_affected_;

  // Stripes of the per-statement dedup caches, so dedup works across audit workers; the
  // (expensive) SELECT itself runs outside any lock against the frozen versioned store.
  static constexpr size_t kDedupStripes = 16;
  std::array<std::mutex, kDedupStripes> dedup_mu_;

  // Nondet cursors and monotonicity state. Pre-built for every traced rid in Prepare();
  // re-execution only mutates existing entries (one worker per rid at a time).
  struct NondetCursor {
    size_t pos = 0;
    bool has_last_time = false;
    int64_t last_time = 0;
    bool has_last_micro = false;
    double last_micro = 0;
  };
  std::unordered_map<RequestId, NondetCursor> nondet_cursors_;
  static const std::vector<NondetRecord> kNoNondet;

  struct OutputSlot {
    bool produced = false;
    std::string body;
  };
  std::unordered_map<RequestId, OutputSlot> outputs_;

  AuditStats stats_;
  // Worker state backing the single-threaded convenience overloads (baseline / OOO /
  // main-thread callers): stats feed straight into stats_.
  AuditWorkerState inline_ws_;
};

}  // namespace orochi

#endif  // SRC_CORE_AUDIT_CONTEXT_H_
