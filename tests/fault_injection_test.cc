// Fault-tolerance of the audit pipeline under a deterministic injected-fault I/O
// environment (src/common/io_env.h). Three properties are on trial:
//
//   1. Taxonomy soundness (200-schedule sweep): whatever faults fire, the audit never
//      crashes, never falsely accepts (an accept always reproduces the server's true
//      final state), and never misreports an injected I/O fault as server tampering.
//      Schedules with only absorbable faults (transient errors, short reads) must accept.
//   2. Atomic spills (kill-point sweep): crash the writer after every possible write-side
//      operation; a reader of the spill path always sees the previous complete file or
//      the new complete file, never a torn prefix.
//   3. Resumable audits: an audit killed in ANY phase with a checkpoint journal resumes
//      to a bit-identical verdict/reason/final_state at every thread count and budget,
//      and actually reuses journaled progress instead of redoing it — pass-2 chunk tasks
//      (kill mid-pass-2) and the pass-3 compare watermark (kill mid-compare). A kill
//      mid-Prepare reruns the in-memory store builds and must still resume bit-identically.
#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/io_env.h"
#include "src/core/audit_session.h"
#include "src/core/auditor.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/stream/stream_audit.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

Workload CounterWorkload(size_t n) {
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < n; i++) {
    WorkItem item;
    item.script = (i % 4 == 3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "k" + std::to_string(i % 5);
    item.params["who"] = "w" + std::to_string(i % 7);
    w.items.push_back(std::move(item));
  }
  return w;
}

// --- 1. The 200-schedule fault sweep ---

TEST(FaultInjection, SweepNeverFalselyAcceptsOrMisreportsFaults) {
  const uint64_t base_seed = TestBaseSeed(0xFA017);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Workload w = CounterWorkload(48);
  ServedWorkload served = ServeWorkload(w);
  const std::string truth = InitialStateFingerprint(served.final_state);
  const std::string trace_path = TestTempDir() + "/fi_sweep_trace.bin";
  const std::string reports_path = TestTempDir() + "/fi_sweep_reports.bin";

  constexpr int kSchedules = 200;
  int accepted = 0;
  int io_errors = 0;
  int write_failures = 0;
  uint64_t faults_fired = 0;
  for (int s = 0; s < kSchedules; s++) {
    FaultOptions fo;
    fo.seed = base_seed + static_cast<uint64_t>(s);
    // Absorbable faults in every schedule: retries and short-read loops must hide them.
    fo.p_read_transient = 0.02;
    fo.p_short_read = 0.10;
    const bool absorbable_only = (s % 3 == 0);
    if (!absorbable_only) {
      fo.p_read_error = 0.002;
      fo.p_append_error = 0.004;
      fo.p_sync_error = 0.004;
      fo.p_rename_error = 0.004;
    }
    FaultInjectingEnv env(nullptr, fo);

    Status wt = WriteTraceFile(trace_path, served.trace, /*shard_id=*/0, &env);
    Status wr = wt.ok() ? WriteReportsFile(reports_path, served.reports, &env) : wt;
    if (!wt.ok() || !wr.ok()) {
      // A failed spill is an error at write time — and an atomic one: the audit below
      // must not even see a file from this schedule, so skip to the next.
      EXPECT_FALSE(absorbable_only) << "schedule " << s << ": " << wt.error() << wr.error();
      write_failures++;
      faults_fired += env.faults_injected();
      continue;
    }

    AuditOptions opts;
    opts.num_threads = 2;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 2048;
    opts.io_env = &env;
    AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> r = session.FeedEpochFilesStreamed(trace_path, reports_path);
    faults_fired += env.faults_injected();
    switch (ClassifyAuditOutcome(r)) {
      case AuditOutcome::kAccepted:
        accepted++;
        // No falsely-accepted epoch: an accept must reproduce the true final state.
        EXPECT_EQ(InitialStateFingerprint(r.value().final_state), truth)
            << "schedule " << s;
        break;
      case AuditOutcome::kIoError: {
        EXPECT_FALSE(absorbable_only)
            << "schedule " << s << " surfaced an absorbable fault: " << r.error();
        io_errors++;
        AuditIoError info = ParseAuditIoError(r.error());
        EXPECT_FALSE(info.detail.empty());
        break;
      }
      case AuditOutcome::kRejected:
        ADD_FAILURE() << "schedule " << s
                      << " misreported an injected I/O fault as tampering: "
                      << r.value().reason;
        break;
      case AuditOutcome::kConfigError:
        ADD_FAILURE() << "schedule " << s << " misclassified as config error: " << r.error();
        break;
    }
  }
  // The sweep must genuinely exercise both sides of the taxonomy.
  EXPECT_GE(accepted, kSchedules / 3) << "absorbable-only schedules must all accept";
  EXPECT_GT(io_errors + write_failures, 0);
  EXPECT_GT(faults_fired, 0u);
}

// --- 2. Kill-point sweeps: atomic spill visibility ---

TEST(FaultInjection, TraceSpillKillPointSweepNeverExposesPartialFile) {
  ServedWorkload a = ServeWorkload(CounterWorkload(10));
  ServedWorkload b = ServeWorkload(CounterWorkload(20));
  const std::string path = TestTempDir() + "/fi_kill_trace.bin";

  // Learn the write-op count N of spilling version B, then crash after 0..N-1 ops.
  FaultInjectingEnv counting(nullptr, FaultOptions{});
  ASSERT_TRUE(WriteTraceFile(path, b.trace, /*shard_id=*/0, &counting).ok());
  const uint64_t n_ops = counting.write_ops();
  ASSERT_GT(n_ops, 2u);

  for (uint64_t k = 0; k < n_ops; k++) {
    ASSERT_TRUE(WriteTraceFile(path, a.trace).ok());  // Previous complete epoch.
    FaultOptions fo;
    fo.crash_after_writes = k;
    FaultInjectingEnv env(nullptr, fo);
    Status crashed = WriteTraceFile(path, b.trace, /*shard_id=*/0, &env);
    // A reader (fault-free) must see a COMPLETE file: version A or version B, nothing
    // in between — AppendFile validates the envelope, every CRC, and the footer.
    StreamTraceSet set;
    Result<uint32_t> shard = set.AppendFile(path);
    ASSERT_TRUE(shard.ok()) << "crash point " << k << ": " << shard.error();
    EXPECT_TRUE(set.num_events() == a.trace.events.size() ||
                set.num_events() == b.trace.events.size())
        << "crash point " << k << " exposed a partial spill (" << set.num_events()
        << " events)";
    if (crashed.ok()) {
      EXPECT_EQ(set.num_events(), b.trace.events.size()) << "crash point " << k;
    }
  }
}

TEST(FaultInjection, StateFileKillPointSweepNeverExposesPartialFile) {
  ServedWorkload a = ServeWorkload(CounterWorkload(10));
  ServedWorkload b = ServeWorkload(CounterWorkload(20));
  const std::string fp_a = InitialStateFingerprint(a.final_state);
  const std::string fp_b = InitialStateFingerprint(b.final_state);
  ASSERT_NE(fp_a, fp_b);
  const std::string path = TestTempDir() + "/fi_kill_state.bin";

  FaultInjectingEnv counting(nullptr, FaultOptions{});
  ASSERT_TRUE(WriteInitialStateFile(path, b.final_state, &counting).ok());
  const uint64_t n_ops = counting.write_ops();
  ASSERT_GT(n_ops, 2u);

  for (uint64_t k = 0; k < n_ops; k++) {
    ASSERT_TRUE(WriteInitialStateFile(path, a.final_state).ok());
    FaultOptions fo;
    fo.crash_after_writes = k;
    FaultInjectingEnv env(nullptr, fo);
    (void)WriteInitialStateFile(path, b.final_state, &env);
    Result<InitialState> read = ReadInitialStateFile(path);
    ASSERT_TRUE(read.ok()) << "crash point " << k << ": " << read.error();
    const std::string fp = InitialStateFingerprint(read.value());
    EXPECT_TRUE(fp == fp_a || fp == fp_b) << "crash point " << k;
  }
}

// --- 3. Checkpointed resume: bit-identical to an uninterrupted audit ---

TEST(FaultInjection, ResumeAfterMidAuditKillIsBitIdentical) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = TestTempDir() + "/fi_resume_trace.bin";
  const std::string reports_path = TestTempDir() + "/fi_resume_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  // Uninterrupted in-memory reference: the verdict every resumed run must reproduce.
  AuditOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.max_group_size = 8;
  AuditSession ref_session = AuditSession::Open(&w.app, ref_opts, served.initial);
  Result<AuditResult> ref = ref_session.FeedEpochFiles(trace_path, reports_path);
  ASSERT_TRUE(ref.ok()) << ref.error();
  ASSERT_TRUE(ref.value().accepted) << ref.value().reason;
  const std::string ref_fp = InitialStateFingerprint(ref.value().final_state);

  // Run 1 is killed mid-pass-2 after 80 or 120 of the 160 payload loads (~10 or ~15 of
  // the 20 chunk tasks retired and journaled); pass 2 needs every payload once, so both
  // kill points land before it finishes.
  for (uint64_t allowed : {uint64_t{80}, uint64_t{120}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t budget : {size_t{64}, size_t{4096}, size_t{0}}) {
        SCOPED_TRACE("allowed=" + std::to_string(allowed) + " threads=" +
                     std::to_string(threads) + " budget=" + std::to_string(budget));
        const std::string checkpoint =
            TestTempDir() + "/fi_resume_" + std::to_string(allowed) + "_" +
            std::to_string(threads) + "_" + std::to_string(budget) + ".ckpt";
        AuditOptions opts;
        opts.num_threads = threads;
        opts.max_group_size = 8;
        opts.max_resident_bytes = budget;
        opts.checkpoint_path = checkpoint;

        StreamTraceSet probe;
        ASSERT_TRUE(probe.AppendFile(trace_path).ok());
        KillSwitchLoader killer(&probe, allowed);
        StreamAuditHooks hooks;
        hooks.loader = &killer;
        AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
        Result<AuditResult> killed =
            first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
        ASSERT_FALSE(killed.ok());
        EXPECT_EQ(ClassifyAuditOutcome(killed), AuditOutcome::kIoError) << killed.error();
        // The kill left the checkpoint behind for the resume.
        Result<bool> left = Env::Default()->FileExists(checkpoint);
        ASSERT_TRUE(left.ok() && left.value());

        // Run 2: clean resume over the same files and checkpoint.
        AuditSession resumed = AuditSession::Open(&w.app, opts, served.initial);
        Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
        ASSERT_TRUE(got.ok()) << got.error();
        EXPECT_TRUE(got.value().accepted) << got.value().reason;
        EXPECT_EQ(got.value().reason, ref.value().reason);
        EXPECT_EQ(InitialStateFingerprint(got.value().final_state), ref_fp);
        // The resume genuinely reused journaled chunks instead of re-executing them.
        EXPECT_GT(got.value().stats.checkpoint_chunks_reused, 0u);
        // A verdict spends the checkpoint.
        Result<bool> spent = Env::Default()->FileExists(checkpoint);
        EXPECT_TRUE(spent.ok() && !spent.value());
      }
    }
  }
}

// Reports-side twin of KillSwitchLoader: the first `allowed` op-log content loads
// succeed, then every load fails permanently — which is how a process death lands inside
// Prepare, whose versioned-store builds page spilled op-log segments through this loader.
class KillSwitchReportsLoader : public ReportsChunkLoader {
 public:
  KillSwitchReportsLoader(const StreamReportsSet* set, uint64_t allowed)
      : real_(set), allowed_(allowed) {}

  Status Load(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
              uint64_t count) override {
    if (loads_.fetch_add(1) >= allowed_) {
      return Status::Error("io: injected mid-prepare kill at op-log load " +
                           std::to_string(allowed_));
    }
    return real_.Load(set, object, first_seqnum, count);
  }
  void Evict(StreamReportsSet* set, size_t object, uint64_t first_seqnum,
             uint64_t count) override {
    real_.Evict(set, object, first_seqnum, count);
  }

 private:
  FileReportsChunkLoader real_;
  std::atomic<uint64_t> loads_{0};
  const uint64_t allowed_;
};

TEST(FaultInjection, ResumeAfterMidPrepareKillIsBitIdentical) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = TestTempDir() + "/fi_prep_trace.bin";
  const std::string reports_path = TestTempDir() + "/fi_prep_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  AuditOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.max_group_size = 8;
  AuditSession ref_session = AuditSession::Open(&w.app, ref_opts, served.initial);
  Result<AuditResult> ref = ref_session.FeedEpochFiles(trace_path, reports_path);
  ASSERT_TRUE(ref.ok() && ref.value().accepted)
      << (ref.ok() ? ref.value().reason : ref.error());
  const std::string ref_fp = InitialStateFingerprint(ref.value().final_state);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string checkpoint =
        TestTempDir() + "/fi_prep_" + std::to_string(threads) + ".ckpt";
    AuditOptions opts;
    opts.num_threads = threads;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 4096;
    opts.checkpoint_path = checkpoint;

    // Run 1: killed mid-Prepare after 8 op-log segment loads — some per-object forward
    // scans have retired, the rest never ran.
    StreamReportsSet probe;
    ASSERT_TRUE(probe.AppendFile(reports_path).ok());
    KillSwitchReportsLoader killer(&probe, /*allowed=*/8);
    StreamAuditHooks hooks;
    hooks.reports_loader = &killer;
    AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> killed =
        first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(ClassifyAuditOutcome(killed), AuditOutcome::kIoError) << killed.error();
    Result<bool> left = Env::Default()->FileExists(checkpoint);
    ASSERT_TRUE(left.ok() && left.value());

    // Run 2: clean resume. The stores are in-memory, so Prepare re-scans every object,
    // and the verdict must be bit-identical to the uninterrupted reference.
    AuditSession resumed = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_TRUE(got.value().accepted) << got.value().reason;
    EXPECT_EQ(got.value().reason, ref.value().reason);
    EXPECT_EQ(InitialStateFingerprint(got.value().final_state), ref_fp);
    Result<bool> spent = Env::Default()->FileExists(checkpoint);
    EXPECT_TRUE(spent.ok() && !spent.value());
  }
}

TEST(FaultInjection, ResumeAfterMidCompareKillIsBitIdentical) {
  Workload w = CounterWorkload(160);
  ServedWorkload served = ServeWorkload(w);
  const std::string trace_path = TestTempDir() + "/fi_cmp_trace.bin";
  const std::string reports_path = TestTempDir() + "/fi_cmp_reports.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  AuditOptions ref_opts;
  ref_opts.num_threads = 1;
  ref_opts.max_group_size = 8;
  AuditSession ref_session = AuditSession::Open(&w.app, ref_opts, served.initial);
  Result<AuditResult> ref = ref_session.FeedEpochFiles(trace_path, reports_path);
  ASSERT_TRUE(ref.ok() && ref.value().accepted)
      << (ref.ok() ? ref.value().reason : ref.error());
  const std::string ref_fp = InitialStateFingerprint(ref.value().final_state);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string checkpoint =
        TestTempDir() + "/fi_cmp_" + std::to_string(threads) + ".ckpt";
    AuditOptions opts;
    opts.num_threads = threads;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 4096;
    opts.checkpoint_path = checkpoint;

    // Run 1: killed mid-pass-3. Pass 2 loads each of the 160 request payloads exactly
    // once; allowing 200 loads retires all of pass 2 (journaling every chunk) and dies
    // at the 40th response body of the compare pass — past the 32-response compare
    // watermark the journal recorded.
    StreamTraceSet probe;
    ASSERT_TRUE(probe.AppendFile(trace_path).ok());
    KillSwitchLoader killer(&probe, /*allowed=*/200);
    StreamAuditHooks hooks;
    hooks.loader = &killer;
    AuditSession first = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> killed =
        first.FeedEpochFilesStreamed(trace_path, reports_path, &hooks);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(ClassifyAuditOutcome(killed), AuditOutcome::kIoError) << killed.error();
    Result<bool> left = Env::Default()->FileExists(checkpoint);
    ASSERT_TRUE(left.ok() && left.value());

    // Run 2: clean resume — every pass-2 chunk replays from the journal, the compare
    // pass skips the responses below the watermark (sound: the fingerprint binds every
    // response payload's CRC, and a surviving journal means no verdict was reached, so
    // every compared response matched), and the verdict is bit-identical.
    AuditSession resumed = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> got = resumed.FeedEpochFilesStreamed(trace_path, reports_path);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_TRUE(got.value().accepted) << got.value().reason;
    EXPECT_EQ(got.value().reason, ref.value().reason);
    EXPECT_EQ(InitialStateFingerprint(got.value().final_state), ref_fp);
    EXPECT_GT(got.value().stats.checkpoint_chunks_reused, 0u);
    EXPECT_GT(got.value().stats.compare_records_resumed, 0u);
    Result<bool> spent = Env::Default()->FileExists(checkpoint);
    EXPECT_TRUE(spent.ok() && !spent.value());
  }
}

// Seeded read-fault sweep over clean spill files: only the audit's own reads draw
// faults, at twice the main sweep's hard-error rate, with two pass-2 workers paging
// chunks under a 2 KiB budget. The taxonomy must hold regardless of which worker's read
// draws the fault — absorbable faults stay invisible, hard faults surface as I/O errors
// attributed to a file (never as tampering) without consuming the epoch, and an accept
// still reproduces the true final state.
TEST(FaultInjection, SeededEioDuringPass2KeepsTheOutcomeTaxonomy) {
  const uint64_t base_seed = TestBaseSeed(0xFA10);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Workload w = CounterWorkload(64);
  ServedWorkload served = ServeWorkload(w);
  const std::string truth = InitialStateFingerprint(served.final_state);
  const std::string trace_path = TestTempDir() + "/fi_eio_sweep_trace.bin";
  const std::string reports_path = TestTempDir() + "/fi_eio_sweep_reports.bin";
  // Spill once with the default env: every schedule below audits the same clean files.
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  constexpr int kSchedules = 90;
  int accepted = 0;
  int io_errors = 0;
  uint64_t faults_fired = 0;
  for (int s = 0; s < kSchedules; s++) {
    FaultOptions fo;
    fo.seed = base_seed + static_cast<uint64_t>(s);
    fo.p_read_transient = 0.02;
    fo.p_short_read = 0.10;
    const bool absorbable_only = (s % 3 == 0);
    if (!absorbable_only) {
      fo.p_read_error = 0.004;
    }
    FaultInjectingEnv env(nullptr, fo);

    AuditOptions opts;
    opts.num_threads = 2;
    opts.max_group_size = 8;
    opts.max_resident_bytes = 2048;
    opts.io_env = &env;
    AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
    Result<AuditResult> r = session.FeedEpochFilesStreamed(trace_path, reports_path);
    faults_fired += env.faults_injected();
    switch (ClassifyAuditOutcome(r)) {
      case AuditOutcome::kAccepted:
        accepted++;
        EXPECT_EQ(InitialStateFingerprint(r.value().final_state), truth)
            << "schedule " << s;
        break;
      case AuditOutcome::kIoError: {
        EXPECT_FALSE(absorbable_only)
            << "schedule " << s << " surfaced an absorbable fault: " << r.error();
        io_errors++;
        AuditIoError info = ParseAuditIoError(r.error());
        EXPECT_FALSE(info.detail.empty());
        // A failed audit consumes nothing: the epoch can be retried.
        EXPECT_EQ(session.epochs_fed(), 0u);
        break;
      }
      case AuditOutcome::kRejected:
        ADD_FAILURE() << "schedule " << s
                      << " misreported an injected I/O fault as tampering: "
                      << r.value().reason;
        break;
      case AuditOutcome::kConfigError:
        ADD_FAILURE() << "schedule " << s << " misclassified as config error: "
                      << r.error();
        break;
    }
  }
  EXPECT_GE(accepted, kSchedules / 3) << "absorbable-only schedules must all accept";
  EXPECT_GT(io_errors, 0);
  EXPECT_GT(faults_fired, 0u);
}

TEST(FaultInjection, StaleCheckpointFromDifferentEpochIsIgnored) {
  Workload w = CounterWorkload(60);
  ServedWorkload served = ServeWorkload(w);
  ServedWorkload other = ServeWorkload(CounterWorkload(40));
  const std::string trace_path = TestTempDir() + "/fi_stale_trace.bin";
  const std::string reports_path = TestTempDir() + "/fi_stale_reports.bin";
  const std::string other_trace = TestTempDir() + "/fi_stale_trace2.bin";
  const std::string other_reports = TestTempDir() + "/fi_stale_reports2.bin";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());
  ASSERT_TRUE(WriteTraceFile(other_trace, other.trace).ok());
  ASSERT_TRUE(WriteReportsFile(other_reports, other.reports).ok());
  const std::string checkpoint = TestTempDir() + "/fi_stale.ckpt";

  AuditOptions opts;
  opts.num_threads = 2;
  opts.max_group_size = 8;
  opts.checkpoint_path = checkpoint;

  // Kill an audit of the OTHER epoch so its checkpoint survives at the same path.
  {
    StreamTraceSet probe;
    ASSERT_TRUE(probe.AppendFile(other_trace).ok());
    KillSwitchLoader killer(&probe, /*allowed=*/16);
    StreamAuditHooks hooks;
    hooks.loader = &killer;
    AuditSession session = AuditSession::Open(&w.app, opts, other.initial);
    Result<AuditResult> killed =
        session.FeedEpochFilesStreamed(other_trace, other_reports, &hooks);
    ASSERT_FALSE(killed.ok());
    Result<bool> left = Env::Default()->FileExists(checkpoint);
    ASSERT_TRUE(left.ok() && left.value());
  }

  // Auditing THIS epoch against the stale checkpoint must ignore it (fingerprint
  // mismatch): nothing reused, verdict identical to the ground truth.
  AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
  Result<AuditResult> got = session.FeedEpochFilesStreamed(trace_path, reports_path);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_TRUE(got.value().accepted) << got.value().reason;
  EXPECT_EQ(got.value().stats.checkpoint_chunks_reused, 0u);
  EXPECT_EQ(InitialStateFingerprint(got.value().final_state),
            InitialStateFingerprint(served.final_state));
}

// A rejection reached inside Prepare (CheckLogs: the alleged op counts disagree with
// the logs) is a verdict like any other, so it must spend the checkpoint journal too —
// not leave a sidecar that only a later fingerprint mismatch would discard.
TEST(FaultInjection, PrepareRejectSpendsTheCheckpoint) {
  Workload w = CounterWorkload(40);
  ServedWorkload served = ServeWorkload(w);
  ASSERT_FALSE(served.reports.op_counts.empty());
  RequestId bumped = served.reports.op_counts.begin()->first;
  for (const auto& [rid, count] : served.reports.op_counts) {
    (void)count;
    bumped = std::min(bumped, rid);
  }
  served.reports.op_counts[bumped]++;
  const std::string trace_path = TestTempDir() + "/fi_prep_reject_trace.bin";
  const std::string reports_path = TestTempDir() + "/fi_prep_reject_reports.bin";
  const std::string checkpoint = TestTempDir() + "/fi_prep_reject.ckpt";
  ASSERT_TRUE(WriteTraceFile(trace_path, served.trace).ok());
  ASSERT_TRUE(WriteReportsFile(reports_path, served.reports).ok());

  AuditOptions opts;
  opts.num_threads = 2;
  opts.max_resident_bytes = 4096;
  opts.checkpoint_path = checkpoint;
  AuditSession session = AuditSession::Open(&w.app, opts, served.initial);
  Result<AuditResult> got = session.FeedEpochFilesStreamed(trace_path, reports_path);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(ClassifyAuditOutcome(got), AuditOutcome::kRejected);
  EXPECT_NE(got.value().reason.find("CheckLogs"), std::string::npos) << got.value().reason;
  Result<bool> spent = Env::Default()->FileExists(checkpoint);
  ASSERT_TRUE(spent.ok());
  EXPECT_FALSE(spent.value()) << "a Prepare-phase REJECT left " << checkpoint;
}

// --- Error propagation out of the server-side spill paths (satellite coverage) ---

TEST(FaultInjection, FlushAndExportPropagateWriteFailuresAndKeepData) {
  Workload w = CounterWorkload(12);
  ServedWorkload served = ServeWorkload(w);

  FaultOptions fo;
  fo.p_append_error = 1.0;  // Every append fails (ENOSPC from the first byte).
  FaultInjectingEnv env(nullptr, fo);

  Collector collector(/*shard_id=*/3, &env);
  for (const TraceEvent& e : served.trace.events) {
    if (e.kind == TraceEvent::Kind::kRequest) {
      collector.RecordRequest(e.rid, e.script, e.params);
    } else {
      collector.RecordResponse(e.rid, e.body);
    }
  }
  const std::string trace_path = TestTempDir() + "/fi_flush_trace.bin";
  Status flush = collector.Flush(trace_path);
  EXPECT_FALSE(flush.ok());
  // The failed flush loses no recorded traffic: the trace is still there to retry.
  EXPECT_EQ(collector.TakeTrace().events.size(), served.trace.events.size());

  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true, .io_env = &env});
  const std::string reports_path = TestTempDir() + "/fi_export_reports.bin";
  EXPECT_FALSE(core.ExportReports(reports_path).ok());

  EXPECT_FALSE(
      WriteInitialStateFile(TestTempDir() + "/fi_state.bin", served.initial, &env)
          .ok());
}

TEST(FaultInjection, OutcomeTaxonomyParsing) {
  AuditIoError e = ParseAuditIoError(
      "wire: crc mismatch in record 3 (type 2) at offset 123 in /tmp/epoch_trace.bin");
  EXPECT_EQ(e.file, "/tmp/epoch_trace.bin");
  EXPECT_EQ(e.offset, 123u);
  EXPECT_FALSE(e.detail.empty());

  Result<AuditResult> config = Result<AuditResult>::Error(
      "config: OROCHI_AUDIT_THREADS='x' is not a valid thread count");
  EXPECT_EQ(ClassifyAuditOutcome(config), AuditOutcome::kConfigError);
  Result<AuditResult> io =
      Result<AuditResult>::Error("io: unexpected end of file at offset 9 in /tmp/t.bin");
  EXPECT_EQ(ClassifyAuditOutcome(io), AuditOutcome::kIoError);
  AuditResult rejected;
  rejected.reason = "output: rid 4 response does not match re-execution";
  EXPECT_EQ(ClassifyAuditOutcome(Result<AuditResult>(rejected)), AuditOutcome::kRejected);
}

}  // namespace
}  // namespace orochi
