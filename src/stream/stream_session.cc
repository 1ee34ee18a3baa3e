// The out-of-core members of AuditSession (declared in src/core/audit_session.h): the
// two-pass streaming audit and its sharded-ingestion front door.
//
//   pass 1  StreamTraceSet + StreamReportsSet / ShardMerge — stream every spill record,
//           keep trace and reports skeletons + byte-offset indexes (payloads and op-log
//           contents stay on disk)
//   prepare AuditContext::Prepare — the versioned-store builds consume each op log as a
//           forward scan, paged in by SegmentedOpLogScanner in byte-capped segments
//   pass 2  ExecuteAuditPlan + StreamTaskGate — re-execute chunks whose request payloads
//           AND claimed op-log entry contents are paged in on demand, both charged to the
//           one ChunkBudget
//   pass 3  StreamedCompareOutputs — page response bodies in one at a time (point reads
//           via the pass-1 index) and compare against the produced outputs, in trace order
//
// Verdict, rejection reason, and final_state are bit-identical to the in-memory
// FeedEpoch/FeedEpochFiles path at every thread count: both paths run the same planner
// and executor (src/core/audit_plan.h) over the same AuditContext — the streaming path
// only changes *when* payload and contents bytes are resident, never what the audit
// computes.
#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/audit_plan.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/stream/checkpoint.h"
#include "src/stream/stream_audit.h"

namespace orochi {

namespace {

// A maximal run of consecutive-seqnum op-log entries of one object a chunk's
// re-execution will CheckOp against — the loader's unit, one pread per file-contiguous
// piece.
struct ClaimedRun {
  size_t object;
  uint64_t first_seqnum;
  uint64_t count;
};

// What Acquire computed for a task, kept so Release never redoes the op-map walk.
struct ClaimedChunk {
  std::vector<ClaimedRun> runs;
  uint64_t trace_bytes = 0;
  uint64_t report_bytes = 0;
};

// Pages one chunk's request payloads and op-log entry contents in around its
// re-execution. Acquire/Release run on the worker thread executing the task; pool tasks
// never share a rid (duplicate claims run serially after the join), and every op-log
// entry is claimed by exactly one (rid, opnum) — CheckLogs rejects duplicate claims
// before any task runs — so the skeleton events and log entries a gate call mutates are
// only ever read by that same thread's RunGroupChunk.
class StreamTaskGate : public AuditTaskGate {
 public:
  StreamTaskGate(StreamTraceSet* traces, TraceChunkLoader* trace_loader,
                 StreamReportsSet* reports, ReportsChunkLoader* reports_loader,
                 ChunkBudget* budget, const AuditContext* ctx)
      : traces_(traces), trace_loader_(trace_loader), reports_(reports),
        reports_loader_(reports_loader), budget_(budget), ctx_(ctx) {}

  Status Acquire(const AuditTask& task) override {
    ClaimedChunk chunk = ClaimChunk(task);
    // One admission covers both sides: resident trace + reports bytes share the budget.
    const uint64_t bytes = chunk.trace_bytes + chunk.report_bytes;
    budget_->Acquire(bytes);
    if (Status st = LoadChunk(task, chunk); !st.ok()) {
      budget_->Release(bytes);
      return st;
    }
    std::lock_guard<std::mutex> lock(mu_);
    claimed_[task.order] = std::move(chunk);
    return Status::Ok();
  }

  void Release(const AuditTask& task) override {
    ClaimedChunk chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = claimed_.find(task.order);
      chunk = std::move(it->second);  // Release always pairs a successful Acquire.
      claimed_.erase(it);
    }
    UnloadChunk(task, chunk);
    budget_->Release(chunk.trace_bytes + chunk.report_bytes);
  }

 private:
  // Pages the claim in: residency brackets, one batched trace load, one load per op-log
  // run. On error everything already installed is evicted again (skeletons clean; the
  // budget charge is untouched — Acquire refunds it).
  Status LoadChunk(const AuditTask& task, const ClaimedChunk& chunk) {
    trace_loader_->OnChunkResident(chunk.trace_bytes);
    reports_loader_->OnChunkResident(chunk.report_bytes);
    auto roll_back = [&](bool trace_loaded, size_t runs_loaded) {
      EvictTracePrefix(task, trace_loaded ? task.rids.size() : 0);
      EvictRuns(chunk.runs, runs_loaded);
      trace_loader_->OnChunkEvicted(chunk.trace_bytes);
      reports_loader_->OnChunkEvicted(chunk.report_bytes);
    };
    std::vector<size_t> indexes;
    indexes.reserve(task.rids.size());
    for (RequestId rid : task.rids) {
      size_t index = traces_->RequestIndex(rid);
      if (index != SIZE_MAX) {  // Planning already verified every chunk rid is traced.
        indexes.push_back(index);
      }
    }
    if (Status st = trace_loader_->LoadBatch(*traces_, indexes,
                                             traces_->mutable_skeleton());
        !st.ok()) {
      roll_back(false, 0);  // LoadBatch evicted its own partial installs.
      return st;
    }
    for (size_t i = 0; i < chunk.runs.size(); i++) {
      if (Status st = reports_loader_->Load(reports_, chunk.runs[i].object,
                                            chunk.runs[i].first_seqnum,
                                            chunk.runs[i].count);
          !st.ok()) {
        roll_back(true, i);
        return st;
      }
    }
    return Status::Ok();
  }

  void UnloadChunk(const AuditTask& task, const ClaimedChunk& chunk) {
    EvictTracePrefix(task, task.rids.size());
    EvictRuns(chunk.runs, chunk.runs.size());
    trace_loader_->OnChunkEvicted(chunk.trace_bytes);
    reports_loader_->OnChunkEvicted(chunk.report_bytes);
  }

  // One walk per task: the chunk's trace payload bytes, and the op-log entries its
  // CheckOps compare contents against — every (rid, opnum) claim of the chunk's rids,
  // except entries the skeleton types as db ops (their contents were parsed into the
  // context's db log during Prepare's redo scan, and CheckOp compares the parsed form,
  // never the raw contents). Entries are sorted and coalesced into consecutive-seqnum
  // runs so the loader fetches each run with single preads instead of one per entry.
  ClaimedChunk ClaimChunk(const AuditTask& task) const {
    ClaimedChunk chunk;
    const OpMap& op_map = ctx_->processed().op_map;
    const Reports& skeleton = reports_->skeleton();
    std::vector<std::pair<size_t, uint64_t>> entries;  // (object, seqnum)
    for (RequestId rid : task.rids) {
      size_t index = traces_->RequestIndex(rid);
      if (index != SIZE_MAX) {
        chunk.trace_bytes += traces_->loc(index).bytes;
      }
      const uint32_t m = ctx_->OpCount(rid);
      for (uint32_t opnum = 1; opnum <= m; opnum++) {
        OpLocation loc = op_map.Find(rid, opnum);
        if (!loc.valid() || loc.seqnum == 0 ||
            loc.object >= skeleton.op_logs.size() ||
            loc.seqnum > skeleton.op_logs[loc.object].size()) {
          continue;  // CheckLogs guarantees validity; stay defensive anyway.
        }
        if (skeleton.op_logs[loc.object][loc.seqnum - 1].type == StateOpType::kDbOp) {
          continue;
        }
        chunk.report_bytes += reports_->loc(loc.object, loc.seqnum).bytes;
        entries.emplace_back(loc.object, loc.seqnum);
      }
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [object, seqnum] : entries) {
      if (!chunk.runs.empty() && chunk.runs.back().object == object &&
          chunk.runs.back().first_seqnum + chunk.runs.back().count == seqnum) {
        chunk.runs.back().count++;
      } else {
        chunk.runs.push_back({object, seqnum, 1});
      }
    }
    return chunk;
  }

  void EvictTracePrefix(const AuditTask& task, size_t count) {
    Trace* skeleton = traces_->mutable_skeleton();
    for (size_t i = 0; i < count; i++) {
      size_t index = traces_->RequestIndex(task.rids[i]);
      if (index != SIZE_MAX) {
        trace_loader_->Evict(*traces_, index, &skeleton->events[index]);
      }
    }
  }

  void EvictRuns(const std::vector<ClaimedRun>& runs, size_t count) {
    for (size_t i = 0; i < count; i++) {
      reports_loader_->Evict(reports_, runs[i].object, runs[i].first_seqnum,
                             runs[i].count);
    }
  }

  StreamTraceSet* traces_;
  TraceChunkLoader* trace_loader_;
  StreamReportsSet* reports_;
  ReportsChunkLoader* reports_loader_;
  ChunkBudget* budget_;
  const AuditContext* ctx_;
  std::mutex mu_;  // Guards claimed_ (one insert + one extract per task).
  std::unordered_map<size_t, ClaimedChunk> claimed_;
};

// How many responses pass 3 compares between compare-watermark journal appends. Each
// append is a frame + fsync; every 16 responses keeps resume granularity fine without
// making the fsync the compare loop's bottleneck.
constexpr uint64_t kCompareJournalEvery = 16;

// Pass 3: AuditContext::CompareOutputs for an epoch whose skeleton holds no response
// bodies — page each response body in by itself (a point read via the pass-1 index, so
// the request payloads, the bulk of the file, are never re-read), run it through the
// context's shared per-response check so both paths reject with the same reason from the
// same code, and evict before moving on. Index order is trace order, and each body is
// charged to the budget while resident, so the resident-byte guarantee covers the
// compare pass too. With a journal, responses below the prior run's compare watermark
// are skipped (their count lands in *resumed) — sound because the fingerprint binds each
// response payload's CRC and a surviving journal means every compared response matched —
// and the advancing watermark is journaled every kCompareJournalEvery responses.
// *reject_reason carries the audit verdict (empty = outputs match); the Status is file
// health only.
Status StreamedCompareOutputs(const AuditContext& ctx, StreamTraceSet* set,
                              TraceChunkLoader* loader, ChunkBudget* budget,
                              CheckpointJournal* journal, uint64_t* resumed,
                              std::string* reject_reason) {
  reject_reason->clear();
  *resumed = 0;
  const uint64_t watermark = journal != nullptr ? journal->prior_compare_watermark() : 0;
  uint64_t responses_seen = 0;
  Trace* skeleton = set->mutable_skeleton();
  for (size_t i = 0; i < set->num_events(); i++) {
    TraceEvent& event = skeleton->events[i];
    if (event.kind != TraceEvent::Kind::kResponse) {
      continue;
    }
    if (responses_seen < watermark) {
      responses_seen++;
      (*resumed)++;
      continue;
    }
    const uint64_t bytes = set->loc(i).bytes;
    budget->Acquire(bytes);
    loader->OnChunkResident(bytes);
    Status load = loader->Load(*set, i, &event);
    std::string verdict;
    if (load.ok()) {
      verdict = ctx.CheckResponseOutput(event.rid, event.body);
      loader->Evict(*set, i, &event);
    }
    loader->OnChunkEvicted(bytes);
    budget->Release(bytes);
    if (!load.ok()) {
      return load;
    }
    if (!verdict.empty()) {
      *reject_reason = std::move(verdict);
      return Status::Ok();
    }
    responses_seen++;
    if (journal != nullptr && responses_seen % kCompareJournalEvery == 0) {
      journal->RecordCompareWatermark(responses_seen);
    }
  }
  return Status::Ok();
}

}  // namespace

Result<AuditResult> AuditSession::FeedMergedEpochStreamed(MergedShards&& merged,
                                                          const StreamAuditHooks* hooks) {
  using R = Result<AuditResult>;
  // Config errors are hard errors before the epoch is consumed.
  Result<size_t> threads = ResolveAuditThreads(options_);
  if (!threads.ok()) {
    return R::Error(threads.error());
  }
  uint64_t budget_bytes = 0;
  if (hooks == nullptr || hooks->budget == nullptr) {
    Result<uint64_t> resolved = ResolveAuditBudget(options_);
    if (!resolved.ok()) {
      return R::Error(resolved.error());
    }
    budget_bytes = resolved.value();
  }
  epochs_fed_++;
  AuditResult out;
  obs::PhaseTracer* tracer = obs::ResolveTracer(options_.tracer);
  const obs::PhaseBreakdown phase_mark = tracer->totals();
  AuditContext ctx(&merged.traces.skeleton(), &merged.reports.skeleton(), app_, &state_,
                   options_);

  FileTraceChunkLoader default_loader(&merged.traces, options_.io_env);
  FileReportsChunkLoader default_reports_loader(&merged.reports, options_.io_env);
  ChunkBudget default_budget(budget_bytes);
  TraceChunkLoader* loader =
      hooks != nullptr && hooks->loader != nullptr ? hooks->loader : &default_loader;
  ReportsChunkLoader* reports_loader =
      hooks != nullptr && hooks->reports_loader != nullptr ? hooks->reports_loader
                                                           : &default_reports_loader;
  ChunkBudget* budget =
      hooks != nullptr && hooks->budget != nullptr ? hooks->budget : &default_budget;

  // Pass-1 transient residency (whole record payloads held while indexing) is outside
  // the chunk budget's sight; surface the peak so tests and operators can hold it against
  // the budget. v3 segmented spills bound it by one segment, not one object's log.
  ctx.stats().pass1_transient_peak_bytes = merged.reports.pass1_transient_peak_bytes();

  // Resumable audit: the sidecar checkpoint journals pass-2 chunk tasks and the pass-3
  // compare watermark. It opens before Prepare, so a run killed there leaves the prior
  // journal rewritten and intact for the next resume. The fingerprint binds the journal
  // to this exact (epoch content, audit options) combination — computed from the pass-1
  // skeletons including payload CRCs, so a stale, foreign, or tampered-epoch checkpoint
  // contributes nothing. An unusable checkpoint path is a file-level error — the epoch
  // is unconsumed and retryable.
  std::unique_ptr<CheckpointJournal> journal;
  if (!options_.checkpoint_path.empty()) {
    Result<std::unique_ptr<CheckpointJournal>> opened = CheckpointJournal::Open(
        options_.io_env, options_.checkpoint_path,
        StreamEpochFingerprint(state_, merged.traces, merged.reports, options_));
    if (!opened.ok()) {
      epochs_fed_--;
      return R::Error(opened.error());
    }
    journal = std::move(opened).value();
  }
  // Once a verdict (accept or reject) is reached the checkpoint is spent: the next audit
  // of this path starts from a different state, and leaving the file would only cost a
  // fingerprint-mismatch discard. Removal failures are therefore ignorable. Every
  // rejection goes through `reject`, so no verdict path can leave the sidecar behind.
  auto spend_checkpoint = [&] {
    if (journal != nullptr) {
      journal->RemoveFile();
    }
  };
  auto reject = [&](std::string reason) {
    spend_checkpoint();
    out.phases = tracer->totals().DiffSince(phase_mark);
    out.reason = std::move(reason);
    out.stats = ctx.stats();
    return R(out);
  };

  // The versioned-store builds inside Prepare() consume spilled op-log contents as
  // budget-bounded segment scans instead of resident logs.
  SegmentedOpLogScanner scanner(&merged.reports, reports_loader, budget);
  ctx.set_oplog_scanner(&scanner);
  if (Status st = ctx.Prepare(); !st.ok()) {
    if (scanner.io_failed()) {
      // Paging a log segment in failed (spill file vanished or changed mid-audit): a
      // file-level error, not a verdict — the epoch is unconsumed.
      epochs_fed_--;
      return R::Error(st.error());
    }
    return reject(st.error());
  }

  AuditPlan plan = PlanAuditTasks(&ctx, merged.reports.skeleton(), app_, options_);

  StreamTaskGate gate(&merged.traces, loader, &merged.reports, reports_loader, budget,
                      &ctx);
  AuditExecOutcome exec = ExecuteAuditPlan(&ctx, app_, options_, plan, &gate, journal.get());
  if (exec.gate_failed) {
    // Paging a chunk in failed (spill file vanished or changed mid-audit): a file-level
    // error, not a verdict — the epoch is unconsumed, exactly like a corrupt
    // FeedEpochFiles. The checkpoint survives for the retry.
    epochs_fed_--;
    return R::Error(exec.fail_reason);
  }
  if (exec.fail_order != kNoAuditFailure) {
    return reject(exec.fail_reason);
  }

  std::string compare_reason;
  {
    obs::TraceSpan span(tracer, obs::Phase::kPass3Compare);
    uint64_t resumed = 0;
    Status st = StreamedCompareOutputs(ctx, &merged.traces, loader, budget, journal.get(),
                                       &resumed, &compare_reason);
    ctx.stats().compare_records_resumed += resumed;
    if (!st.ok()) {
      // The journal keeps the compare watermark retired so far for the retry.
      epochs_fed_--;
      return R::Error(st.error());
    }
  }
  if (!compare_reason.empty()) {
    return reject(std::move(compare_reason));
  }
  spend_checkpoint();
  out.phases = tracer->totals().DiffSince(phase_mark);
  CommitAccepted(&ctx, &out);
  return out;
}

Result<AuditResult> AuditSession::FeedEpochFilesStreamed(const std::string& trace_path,
                                                         const std::string& reports_path,
                                                         const StreamAuditHooks* hooks) {
  using R = Result<AuditResult>;
  obs::PhaseTracer* tracer = obs::ResolveTracer(options_.tracer);
  const obs::PhaseBreakdown phase_mark = tracer->totals();
  // Built directly (not via MergeShards) so single-file error messages stay identical to
  // FeedEpochFiles' — the degenerate one-shard case is a drop-in replacement.
  MergedShards merged;
  {
    obs::TraceSpan span(tracer, obs::Phase::kPass1Skeleton);
    Result<uint32_t> shard = merged.traces.AppendFile(trace_path, options_.io_env);
    if (!shard.ok()) {
      return R::Error(shard.error());
    }
    if (Status st = merged.reports.AppendFile(reports_path, options_.io_env); !st.ok()) {
      return R::Error(st.error());
    }
    merged.shard_ids.push_back(shard.value());
  }
  R result = FeedMergedEpochStreamed(std::move(merged), hooks);
  if (result.ok()) {
    // Re-attribute from the outer mark so pass-1 skeleton time is part of this epoch.
    result.value().phases = tracer->totals().DiffSince(phase_mark);
  }
  return result;
}

Result<AuditResult> AuditSession::FeedShardedEpoch(const std::vector<ShardEpochFiles>& shards,
                                                   const StreamAuditHooks* hooks) {
  // Per-shard pass-1 builds overlap on the audit's own worker count; a config error here
  // surfaces before any shard is read.
  Result<size_t> threads = ResolveAuditThreads(options_);
  if (!threads.ok()) {
    return Result<AuditResult>::Error(threads.error());
  }
  obs::PhaseTracer* tracer = obs::ResolveTracer(options_.tracer);
  const obs::PhaseBreakdown phase_mark = tracer->totals();
  Result<MergedShards> merged =
      MergeShards(shards, {}, options_.io_env, threads.value(), tracer);
  if (!merged.ok()) {
    return Result<AuditResult>::Error(merged.error());
  }
  Result<AuditResult> result = FeedMergedEpochStreamed(std::move(merged).value(), hooks);
  if (result.ok()) {
    // Re-attribute from the outer mark so shard-merge and pass-1 time are part of this
    // epoch.
    result.value().phases = tracer->totals().DiffSince(phase_mark);
  }
  return result;
}

Result<AuditResult> AuditSession::FeedShardedEpoch(const std::string& manifest_path,
                                                   const StreamAuditHooks* hooks) {
  Result<size_t> threads = ResolveAuditThreads(options_);
  if (!threads.ok()) {
    return Result<AuditResult>::Error(threads.error());
  }
  obs::PhaseTracer* tracer = obs::ResolveTracer(options_.tracer);
  const obs::PhaseBreakdown phase_mark = tracer->totals();
  Result<MergedShards> merged =
      MergeShardsFromManifest(manifest_path, options_.io_env, threads.value(), tracer);
  if (!merged.ok()) {
    return Result<AuditResult>::Error(merged.error());
  }
  Result<AuditResult> result = FeedMergedEpochStreamed(std::move(merged).value(), hooks);
  if (result.ok()) {
    // Re-attribute from the outer mark so shard-merge and pass-1 time are part of this
    // epoch.
    result.value().phases = tracer->totals().DiffSince(phase_mark);
  }
  return result;
}

}  // namespace orochi
