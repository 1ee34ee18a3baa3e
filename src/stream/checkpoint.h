// Resumable streamed audits: a sidecar wire file (Section::kCheckpoint) journaling audit
// progress — completed pass-2 chunk tasks (replayed on resume instead of re-executed) and
// the pass-3 compare watermark — so a verifier killed in *any* phase resumes without
// redoing retired work (a kill mid-Prepare reruns the in-memory store builds, which no
// journal record could skip). Because the engine is deterministic and only successful
// work is journaled, a resumed run's verdict, rejection reason, and final state are
// bit-identical to an uninterrupted run at every thread count and memory budget.
//
// File layout: the standard 13-byte envelope, then one meta record carrying the epoch
// fingerprint, then progress records appended (and fsynced) as work retires. There is
// deliberately no end record — the file is an append journal whose tail may be torn by a
// crash; loading tolerates that by keeping every record before the first
// malformed/CRC-failed byte and discarding the rest. A fingerprint mismatch (different
// epoch content, different audit-relevant options) discards the whole file, so a stale
// checkpoint can never smuggle another epoch's outputs into this one.
#ifndef SRC_STREAM_CHECKPOINT_H_
#define SRC_STREAM_CHECKPOINT_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/io_env.h"
#include "src/core/audit_plan.h"

namespace orochi {

class StreamTraceSet;
class StreamReportsSet;

// Identity of one (epoch content, audit-options) combination, computed from the pass-1
// skeletons BEFORE Prepare so the journal covers every later phase: initial-state
// fingerprint, every trace event's kind/rid/script plus its payload CRC and length,
// the reports skeleton in full (objects, per-entry rid/opnum/type plus entry-frame CRCs,
// groups, op counts, nondet records), and the options that change what the audit computes
// (max_group_size, enable_query_dedup). Binding payload CRCs is what makes replay sound:
// both runs' pass 1 read the spill files end to end, so a file that changed between runs
// cannot fingerprint-match. The plan needs no separate binding — it is a deterministic
// function of the skeletons and options, so task orders stay stable across runs.
// Deliberately NOT hashed: thread count, memory budget, io_env, checkpoint_path — those
// change scheduling, never the verdict, and a checkpoint must survive a resume under a
// different thread count or budget.
uint64_t StreamEpochFingerprint(const InitialState& initial, const StreamTraceSet& traces,
                                const StreamReportsSet& reports,
                                const AuditOptions& options);

class CheckpointJournal : public AuditTaskJournal {
 public:
  // Opens (or creates) the journal at `path`. An existing file with a matching
  // fingerprint contributes its intact records for replay; a missing, torn-at-the-head,
  // corrupt, or fingerprint-mismatched file contributes nothing. Either way the file is
  // rewritten fresh (envelope + meta + surviving records) and held open for appends —
  // only a failure to write that fresh journal is an error, because it means the
  // checkpoint path itself is unusable.
  static Result<std::unique_ptr<CheckpointJournal>> Open(Env* env, const std::string& path,
                                                         uint64_t fingerprint);
  ~CheckpointJournal() override = default;

  const AuditTaskRecord* Lookup(size_t order) override;
  // Appends + fsyncs one record. Best-effort: a write failure poisons further appends
  // (the journal stops growing) but never the audit.
  void Record(const AuditTask& task, const AuditTaskRecord& record) override;

  // --- Pass-3 compare watermark: responses fully compared, in trace order ---
  // A resumed run skips re-comparing the first `prior_compare_watermark()` responses:
  // sound because the fingerprint binds every response payload's CRC, and a surviving
  // journal means the prior run reached no verdict — all compared responses matched.
  uint64_t prior_compare_watermark() const { return compare_loaded_; }
  // Appends the watermark (monotone; appends only when it advances past what is on disk).
  void RecordCompareWatermark(uint64_t responses_compared);

  // Closes the append handle and deletes the journal file. Called once a verdict
  // (accept or reject) is reached; an I/O-failed audit keeps the file for resume.
  Status RemoveFile();

  // Records loaded from a prior run, i.e. the number of tasks a resume can skip.
  size_t resumable_tasks() const { return loaded_; }

 private:
  CheckpointJournal(Env* env, std::string path) : env_(env), path_(std::move(path)) {}

  void AppendFrame(uint8_t type, const std::string& payload);

  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> out_;
  std::mutex mu_;  // Guards out_, write_failed_, compare_appended_; compare_loaded_
                   // and records_ are frozen after Open.
  std::unordered_map<size_t, AuditTaskRecord> records_;
  uint64_t compare_loaded_ = 0;
  uint64_t compare_appended_ = 0;  // Highest watermark on disk (loaded or appended).
  size_t loaded_ = 0;
  bool write_failed_ = false;
};

}  // namespace orochi

#endif  // SRC_STREAM_CHECKPOINT_H_
