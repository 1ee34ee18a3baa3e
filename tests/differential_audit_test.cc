// Randomized differential property test: for generated workloads — pristine and
// adversarially tampered — every audit engine must agree. FeedEpoch (in-memory),
// FeedEpochFilesStreamed (out-of-core, trace payloads + op-log contents paged under a
// budget), and FeedShardedEpoch (merge-join ingestion) are cross-checked on verdict,
// rejection reason, and final_state across {1, 2, 8} worker threads × {tiny, default,
// unlimited} memory budgets. Any divergence — a tamper caught by one path but not
// another, a reason that depends on scheduling, a final state that depends on paging —
// is a bug by construction (the engines share one planner/executor), and this test is
// the net that catches it.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/server/tamper.h"
#include "src/stream/stream_audit.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};
// Tiny forces the oversized-chunk one-at-a-time path, default forces steady paging
// churn, 0 never blocks — three very different schedules that must not change anything.
constexpr size_t kBudgets[] = {64, 4096, 0};

AuditOptions Options(size_t threads, size_t budget) {
  AuditOptions options;
  options.num_threads = threads;
  options.max_group_size = 16;  // Small chunks: many page-in/evict cycles per group.
  options.max_resident_bytes = budget;
  return options;
}

Workload RandomCounterWorkload(Rng* rng, size_t n) {
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < n; i++) {
    WorkItem item;
    item.script = rng->Chance(0.3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "k" + std::to_string(rng->UniformInt(0, 6));
    item.params["who"] = "w" + std::to_string(rng->UniformInt(0, 9));
    w.items.push_back(std::move(item));
  }
  return w;
}

Workload RandomForumWorkload(Rng* rng, size_t n) {
  ForumConfig config;
  config.num_topics = 4;
  config.seed_posts_per_topic = 3;
  config.num_users = 9;
  config.num_requests = n;
  config.reply_fraction = 0.15;
  config.login_fraction = 0.10;
  config.seed = static_cast<uint64_t>(rng->UniformInt(1, 1 << 20));
  return MakeForumWorkload(config);
}

std::vector<RequestId> TracedRids(const Trace& trace) {
  std::vector<RequestId> rids;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == TraceEvent::Kind::kRequest) {
      rids.push_back(e.rid);
    }
  }
  return rids;
}

// Applies one randomly chosen adversarial mutation from the tamper library. Returns
// false only if no mutation found a target in 20 attempts (practically never for the
// generated workloads). The mutation need not be *caught* — a request moved between
// groups of the same script is legitimate advice — the property under test is that every
// engine renders the same judgment on it.
bool ApplyRandomTamper(Rng* rng, Trace* trace, Reports* reports, std::string* label) {
  std::vector<RequestId> rids = TracedRids(*trace);
  if (rids.empty()) {
    return false;
  }
  auto rand_rid = [&] {
    return rids[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(rids.size()) - 1))];
  };
  auto rand_log = [&](size_t min_len, size_t* object) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < reports->op_logs.size(); i++) {
      if (reports->op_logs[i].size() >= min_len) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      return false;
    }
    *object = candidates[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    return true;
  };
  for (int attempt = 0; attempt < 20; attempt++) {
    size_t object = 0;
    switch (rng->UniformInt(0, 6)) {
      case 0:
        if (TamperResponseBody(trace, rand_rid(), "<forged response>")) {
          *label = "forged response body";
          return true;
        }
        break;
      case 1:
        if (rids.size() >= 2 && SwapResponseBodies(trace, rids.front(), rids.back())) {
          *label = "swapped response bodies";
          return true;
        }
        break;
      case 2:
        if (rand_log(1, &object)) {
          size_t idx = static_cast<size_t>(rng->UniformInt(
              0, static_cast<int64_t>(reports->op_logs[object].size()) - 1));
          if (DropLogEntry(reports, object, idx)) {
            *label = "dropped log entry";
            return true;
          }
        }
        break;
      case 3:
        if (rand_log(1, &object)) {
          size_t idx = static_cast<size_t>(rng->UniformInt(
              0, static_cast<int64_t>(reports->op_logs[object].size()) - 1));
          if (TamperLogContents(reports, object, idx, "corrupted-op-contents")) {
            *label = "forged log contents";
            return true;
          }
        }
        break;
      case 4: {
        RequestId rid = rand_rid();
        auto it = reports->op_counts.find(rid);
        uint32_t count = it == reports->op_counts.end() ? 0 : it->second;
        if (TamperOpCount(reports, rid, count + 1)) {
          *label = "misstated op count";
          return true;
        }
        break;
      }
      case 5:
        if (MoveRequestToGroup(reports, rand_rid(), 0xDEAD)) {
          *label = "moved request between groups";
          return true;
        }
        break;
      case 6:
        if (rand_log(2, &object)) {
          size_t n = reports->op_logs[object].size();
          size_t i = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 2));
          if (SwapLogEntries(reports, object, i, i + 1)) {
            *label = "swapped log entries";
            return true;
          }
        }
        break;
    }
  }
  return false;
}

struct Verdict {
  bool accepted = false;
  std::string reason;
  std::string fingerprint;  // Empty unless accepted.
};

Verdict FromResult(const AuditResult& r) {
  Verdict v;
  v.accepted = r.accepted;
  v.reason = r.reason;
  if (r.accepted) {
    v.fingerprint = InitialStateFingerprint(r.final_state);
  }
  return v;
}

void ExpectSameVerdict(const Verdict& got, const Verdict& ref, const std::string& what) {
  EXPECT_EQ(got.accepted, ref.accepted) << what << ": " << got.reason << " vs " << ref.reason;
  EXPECT_EQ(got.reason, ref.reason) << what;
  EXPECT_EQ(got.fingerprint, ref.fingerprint) << what;
}

TEST(DifferentialAudit, GeneratedWorkloadsAgreeAcrossEnginesThreadsAndBudgets) {
  const uint64_t base_seed = TestBaseSeed(0);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  size_t case_id = 0;
  size_t tampered_cases = 0;
  for (uint64_t offset : {11u, 22u, 33u, 44u}) {
    const uint64_t seed = base_seed + offset;
    Rng rng(seed);
    Workload w = seed % 2 == 0
                     ? RandomForumWorkload(&rng, 40 + static_cast<size_t>(rng.UniformInt(0, 20)))
                     : RandomCounterWorkload(&rng, 50 + static_cast<size_t>(rng.UniformInt(0, 30)));
    ServedWorkload served = ServeWorkload(w);

    struct Variant {
      std::string label;
      Trace trace;
      Reports reports;
    };
    std::vector<Variant> variants;
    variants.push_back({"pristine", served.trace, served.reports});
    for (int t = 0; t < 3; t++) {
      Variant v{"?", served.trace, served.reports};
      if (ApplyRandomTamper(&rng, &v.trace, &v.reports, &v.label)) {
        tampered_cases++;
        variants.push_back(std::move(v));
      }
    }

    for (const Variant& variant : variants) {
      case_id++;
      const std::string tag =
          "seed " + std::to_string(seed) + " case " + std::to_string(case_id) + " (" +
          variant.label + ")";
      const std::string trace_path =
          TestTempDir() + "/diff_" + std::to_string(case_id) + "_trace.bin";
      const std::string reports_path =
          TestTempDir() + "/diff_" + std::to_string(case_id) + "_reports.bin";
      ASSERT_TRUE(WriteTraceFile(trace_path, variant.trace).ok());
      ASSERT_TRUE(WriteReportsFile(reports_path, variant.reports).ok());

      AuditSession ref_session = AuditSession::Open(&w.app, Options(1, 0), served.initial);
      Verdict ref = FromResult(ref_session.FeedEpoch(variant.trace, variant.reports));

      for (size_t threads : kThreadCounts) {
        AuditSession mem =
            AuditSession::Open(&w.app, Options(threads, 0), served.initial);
        ExpectSameVerdict(FromResult(mem.FeedEpoch(variant.trace, variant.reports)), ref,
                          tag + " in-memory @" + std::to_string(threads) + "t");
        for (size_t budget : kBudgets) {
          const std::string combo = tag + " @" + std::to_string(threads) + "t/" +
                                    std::to_string(budget) + "b";
          AuditSession streamed =
              AuditSession::Open(&w.app, Options(threads, budget), served.initial);
          Result<AuditResult> got =
              streamed.FeedEpochFilesStreamed(trace_path, reports_path);
          ASSERT_TRUE(got.ok()) << combo << ": " << got.error();
          ExpectSameVerdict(FromResult(got.value()), ref, combo + " streamed");

          AuditSession sharded =
              AuditSession::Open(&w.app, Options(threads, budget), served.initial);
          Result<AuditResult> via_shards = sharded.FeedShardedEpoch(
              std::vector<ShardEpochFiles>{{trace_path, reports_path}});
          ASSERT_TRUE(via_shards.ok()) << combo << ": " << via_shards.error();
          ExpectSameVerdict(FromResult(via_shards.value()), ref, combo + " sharded");
        }
      }
    }
  }
  // The sweep must have exercised real adversaries, not just pristine epochs.
  EXPECT_GE(tampered_cases, 8u);
}

// Sharded ingestion differential: N randomly generated shard slices (disjoint rids and
// key spaces) audited via FeedShardedEpoch must match one in-memory audit of the
// materialized merged epoch — pristine and with a tampered shard — across thread counts
// and budgets.
TEST(DifferentialAudit, RandomShardedEpochsMatchTheMergedInMemoryAudit) {
  const uint64_t base_seed = TestBaseSeed(0);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Rng rng(base_seed + 99);
  Workload base;
  base.app = BuildCounterApp();
  ASSERT_TRUE(
      base.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)").ok());

  struct ShardSpill {
    std::string trace_path;
    std::string reports_path;
  };
  std::vector<ShardSpill> spills;
  for (uint32_t shard = 1; shard <= 3; shard++) {
    ServerCore core(&base.app, base.initial, ServerOptions{.record_reports = true});
    Collector collector(shard);
    {
      ThreadServer server(&core, &collector, /*num_workers=*/4);
      RequestId rid = 1 + 1000 * shard;
      size_t n = 25 + static_cast<size_t>(rng.UniformInt(0, 15));
      for (size_t i = 0; i < n; i++) {
        RequestParams params;
        params["key"] = "s" + std::to_string(shard) + "_k" +
                        std::to_string(rng.UniformInt(0, 4));
        params["who"] = "s" + std::to_string(shard) + "_w" +
                        std::to_string(rng.UniformInt(0, 6));
        server.Submit(rid++, rng.Chance(0.25) ? "/counter/read" : "/counter/hit", params);
      }
      server.Drain();
    }
    ShardSpill spill;
    spill.trace_path =
        TestTempDir() + "/diff_shard" + std::to_string(shard) + "_trace.bin";
    spill.reports_path =
        TestTempDir() + "/diff_shard" + std::to_string(shard) + "_reports.bin";
    ASSERT_TRUE(collector.Flush(spill.trace_path).ok());
    ASSERT_TRUE(core.ExportReports(spill.reports_path).ok());
    spills.push_back(std::move(spill));
  }

  // A tampered variant: forge a response inside shard 2's spilled trace.
  std::vector<ShardSpill> tampered = spills;
  {
    Result<Trace> t = ReadTraceFile(spills[1].trace_path);
    ASSERT_TRUE(t.ok());
    std::vector<RequestId> rids = TracedRids(t.value());
    ASSERT_FALSE(rids.empty());
    ASSERT_TRUE(TamperResponseBody(&t.value(), rids[rids.size() / 2], "<forged>"));
    tampered[1].trace_path = TestTempDir() + "/diff_shard2_tampered_trace.bin";
    ASSERT_TRUE(WriteTraceFile(tampered[1].trace_path, t.value(), /*shard_id=*/2).ok());
  }

  for (const auto& [label, shard_set] :
       {std::pair<std::string, std::vector<ShardSpill>>{"pristine", spills},
        std::pair<std::string, std::vector<ShardSpill>>{"tampered", tampered}}) {
    // Reference: materialize the merged epoch (ascending shard id) and audit in memory.
    Trace merged_trace;
    Reports merged_reports;
    for (const ShardSpill& s : shard_set) {
      Result<Trace> t = ReadTraceFile(s.trace_path);
      Result<Reports> r = ReadReportsFile(s.reports_path);
      ASSERT_TRUE(t.ok() && r.ok());
      merged_trace.events.insert(merged_trace.events.end(), t.value().events.begin(),
                                 t.value().events.end());
      ASSERT_TRUE(AppendReports(&merged_reports, r.value()).ok());
    }
    AuditSession ref_session = AuditSession::Open(&base.app, Options(1, 0), base.initial);
    Verdict ref = FromResult(ref_session.FeedEpoch(merged_trace, merged_reports));
    EXPECT_EQ(ref.accepted, label == std::string("pristine")) << ref.reason;

    std::vector<ShardEpochFiles> files;
    for (const ShardSpill& s : shard_set) {
      files.push_back({s.trace_path, s.reports_path});
    }
    for (size_t threads : kThreadCounts) {
      for (size_t budget : kBudgets) {
        AuditSession sharded =
            AuditSession::Open(&base.app, Options(threads, budget), base.initial);
        Result<AuditResult> got = sharded.FeedShardedEpoch(files);
        ASSERT_TRUE(got.ok()) << got.error();
        ExpectSameVerdict(FromResult(got.value()), ref,
                          label + " @" + std::to_string(threads) + "t/" +
                              std::to_string(budget) + "b");
      }
    }
  }
}

}  // namespace
}  // namespace orochi
