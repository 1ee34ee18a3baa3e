// Parallel-audit determinism: the SSCO audit must be a pure function of
// (trace, reports, initial state) — the worker-thread count may change wall-clock time but
// never the verdict, the rejection reason, the final state, or the work-volume stats.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/auditor.h"
#include "src/server/tamper.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

Workload SmallCounterWorkload(size_t n) {
  Workload w;
  w.name = "counter";
  w.app = BuildCounterApp();
  Result<StmtResult> r =
      w.initial.db.ExecuteText("CREATE TABLE hits (key TEXT, who TEXT, n INT)");
  EXPECT_TRUE(r.ok());
  for (size_t i = 0; i < n; i++) {
    WorkItem item;
    item.script = (i % 4 == 3) ? "/counter/read" : "/counter/hit";
    item.params["key"] = "k" + std::to_string(i % 3);
    item.params["who"] = "w" + std::to_string(i % 5);
    w.items.push_back(std::move(item));
  }
  return w;
}

AuditResult AuditAt(const Workload& w, const ServedWorkload& served, size_t threads) {
  AuditOptions options;
  options.num_threads = threads;
  // Small chunks force several tasks per group so multi-thread runs genuinely interleave.
  options.max_group_size = 64;
  Auditor auditor(&w.app, options);
  return auditor.Audit(served.trace, served.reports, served.initial);
}

void ExpectSameVerdictAcrossThreadCounts(const Workload& w, const ServedWorkload& served,
                                         bool expect_accept) {
  AuditResult base = AuditAt(w, served, 1);
  EXPECT_EQ(base.accepted, expect_accept) << w.name << ": " << base.reason;
  std::string base_fp = base.accepted ? InitialStateFingerprint(base.final_state) : "";
  for (size_t threads : {size_t{2}, size_t{8}}) {
    AuditResult r = AuditAt(w, served, threads);
    EXPECT_EQ(r.accepted, base.accepted) << w.name << " at " << threads << " threads";
    EXPECT_EQ(r.reason, base.reason) << w.name << " at " << threads << " threads";
    if (base.accepted) {
      EXPECT_EQ(InitialStateFingerprint(r.final_state), base_fp)
          << w.name << ": final_state diverged at " << threads << " threads";
      // Work-volume stats must not depend on scheduling. Dedup-cache hits may convert to
      // issued SELECTs under concurrency (two workers racing on the same window), so only
      // the sum is invariant.
      EXPECT_EQ(r.stats.total_instructions, base.stats.total_instructions) << w.name;
      EXPECT_EQ(r.stats.multivalent_instructions, base.stats.multivalent_instructions)
          << w.name;
      EXPECT_EQ(r.stats.ops_checked, base.stats.ops_checked) << w.name;
      EXPECT_EQ(r.stats.num_groups, base.stats.num_groups) << w.name;
      EXPECT_EQ(r.stats.groups_multi, base.stats.groups_multi) << w.name;
      EXPECT_EQ(r.stats.fallback_groups, base.stats.fallback_groups) << w.name;
      EXPECT_EQ(r.stats.db_selects_issued + r.stats.db_selects_deduped,
                base.stats.db_selects_issued + base.stats.db_selects_deduped)
          << w.name;
      // group_stats merge in group-walk order, so the sequences line up exactly.
      ASSERT_EQ(r.stats.group_stats.size(), base.stats.group_stats.size()) << w.name;
      for (size_t i = 0; i < r.stats.group_stats.size(); i++) {
        EXPECT_EQ(r.stats.group_stats[i].script, base.stats.group_stats[i].script);
        EXPECT_EQ(r.stats.group_stats[i].n, base.stats.group_stats[i].n);
        EXPECT_EQ(r.stats.group_stats[i].length, base.stats.group_stats[i].length);
      }
    }
  }
}

TEST(ParallelAudit, CounterAcceptedIdenticallyAcrossThreadCounts) {
  Workload w = SmallCounterWorkload(200);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, WikiAcceptedIdenticallyAcrossThreadCounts) {
  WikiConfig config;
  config.num_pages = 20;
  config.num_users = 10;
  config.num_requests = 600;
  Workload w = MakeWikiWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, ForumAcceptedIdenticallyAcrossThreadCounts) {
  ForumConfig config;
  config.num_topics = 4;
  config.num_users = 12;
  config.num_requests = 600;
  Workload w = MakeForumWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, ConfAcceptedIdenticallyAcrossThreadCounts) {
  ConfConfig config;
  config.num_papers = 12;
  config.num_reviewers = 6;
  config.reviews_target = 30;
  config.review_length = 200;
  config.max_updates_per_paper = 4;
  config.views_per_reviewer = 20;
  Workload w = MakeConfWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/true);
}

TEST(ParallelAudit, TamperedForumRejectedWithSameReasonAcrossThreadCounts) {
  ForumConfig config;
  config.num_topics = 4;
  config.num_users = 12;
  config.num_requests = 400;
  Workload w = MakeForumWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  ASSERT_TRUE(TamperResponseBody(&served.trace, 7, "<html>forged</html>"));
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/false);
}

// A REJECTed epoch's work-volume stats must not depend on scheduling either: only tasks
// up to the failing one merge, and every schedule runs exactly those. The forged SELECT
// text (a trailing space: it still parses, so the redo accepts it) fails CheckOp in pass 2
// mid-epoch, so at more than one thread later tasks race the failure.
TEST(ParallelAudit, RejectedEpochStatsIdenticalAcrossThreadCountsAndRuns) {
  ForumConfig config;
  config.num_topics = 4;
  config.num_users = 12;
  config.num_requests = 400;
  Workload w = MakeForumWorkload(config);
  ServedWorkload served = ServeWorkload(w);
  int db_object = served.reports.FindObject(ObjectKind::kDb, "");
  ASSERT_GE(db_object, 0);
  size_t db_len = served.reports.op_logs[static_cast<size_t>(db_object)].size();
  ASSERT_GE(db_len, 2u);
  const std::vector<OpRecord>& log = served.reports.op_logs[static_cast<size_t>(db_object)];
  size_t victim = db_len / 2;
  for (; victim < db_len; victim++) {
    Result<DbContents> dc = ParseDbContents(log[victim].contents);
    if (dc.ok() && dc.value().success && dc.value().sql.size() == 1 &&
        dc.value().sql[0].rfind("SELECT", 0) == 0) {
      break;
    }
  }
  ASSERT_LT(victim, db_len) << "no single-SELECT entry in the second half of the db log";
  DbContents dc = ParseDbContents(log[victim].contents).value();
  ASSERT_TRUE(TamperLogContents(&served.reports, static_cast<size_t>(db_object), victim,
                                MakeDbContents({dc.sql[0] + " "}, dc.is_txn, true)));
  AuditResult base = AuditAt(w, served, 1);
  ASSERT_FALSE(base.accepted);
  ASSERT_EQ(base.reason, "CheckOp: db statements mismatch");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (int rep = 0; rep < 5; rep++) {
      AuditResult r = AuditAt(w, served, threads);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " rep=" + std::to_string(rep));
      EXPECT_FALSE(r.accepted);
      EXPECT_EQ(r.reason, base.reason);
      EXPECT_EQ(r.stats.total_instructions, base.stats.total_instructions);
      EXPECT_EQ(r.stats.multivalent_instructions, base.stats.multivalent_instructions);
      EXPECT_EQ(r.stats.ops_checked, base.stats.ops_checked);
      EXPECT_EQ(r.stats.num_groups, base.stats.num_groups);
      EXPECT_EQ(r.stats.db_selects_issued + r.stats.db_selects_deduped,
                base.stats.db_selects_issued + base.stats.db_selects_deduped);
    }
  }
}

// A kv-log swap that is a real tamper: a set S and the next get G of the same key from
// another request, with no set of that key in between and S writing a value other than
// the one the key held before. After the swap G reads the older value, so G's request
// re-executes differently. Not every swap is a tamper: two gets of one key (which
// concurrent serving may log first) swap into an equivalent log that a sound verifier
// must accept. Returns {log.size(), log.size()} when no such pair exists.
std::pair<size_t, size_t> ObservableKvSwap(const std::vector<OpRecord>& log) {
  // Key -> serialized value of its latest set; "" (no serialization) while unset.
  std::map<std::string, std::string> held;
  // Key -> position of its latest set, while that set changed the key's value.
  std::map<std::string, size_t> changed_by;
  for (size_t i = 0; i < log.size(); i++) {
    const OpRecord& op = log[i];
    if (op.type == StateOpType::kKvSet) {
      KvSetContents kv = ParseKvSetContents(op.contents).value();
      std::string value = kv.value.Serialize();
      if (value != held[kv.key]) {
        changed_by[kv.key] = i;
      } else {
        changed_by.erase(kv.key);
      }
      held[kv.key] = value;
    } else if (op.type == StateOpType::kKvGet) {
      auto it = changed_by.find(op.contents);
      if (it != changed_by.end() && log[it->second].rid != op.rid) {
        return {it->second, i};
      }
    }
  }
  return {log.size(), log.size()};
}

TEST(ParallelAudit, TamperedLogRejectedWithSameReasonAcrossThreadCounts) {
  Workload w = SmallCounterWorkload(120);
  ServedWorkload served = ServeWorkload(w);
  int kv_object = served.reports.FindObject(ObjectKind::kKv, "");
  ASSERT_GE(kv_object, 0);
  const std::vector<OpRecord>& log = served.reports.op_logs[static_cast<size_t>(kv_object)];
  auto [set_pos, get_pos] = ObservableKvSwap(log);
  ASSERT_LT(get_pos, log.size()) << "no observable swap in a " << log.size() << "-entry kv log";
  ASSERT_TRUE(SwapLogEntries(&served.reports, static_cast<size_t>(kv_object), set_pos, get_pos));
  ExpectSameVerdictAcrossThreadCounts(w, served, /*expect_accept=*/false);
}

// A rid listed in two control-flow groups is adversarial input: re-execution is
// idempotent, so the audit must still accept — at every thread count (such chunks are
// serialized internally to keep per-rid state single-writer).
TEST(ParallelAudit, DuplicateRidAcrossGroupsStaysDeterministic) {
  Workload w = SmallCounterWorkload(100);
  ServedWorkload served = ServeWorkload(w);
  ASSERT_FALSE(served.reports.groups.empty());
  uint64_t first_tag = served.reports.groups.begin()->first;
  RequestId dup = served.reports.groups.begin()->second.front();
  uint64_t fresh_tag = served.reports.groups.rbegin()->first + 1;
  served.reports.groups[fresh_tag].push_back(dup);
  AuditResult base = AuditAt(w, served, 1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    AuditResult r = AuditAt(w, served, threads);
    EXPECT_EQ(r.accepted, base.accepted) << "threads=" << threads;
    EXPECT_EQ(r.reason, base.reason) << "threads=" << threads;
  }
  (void)first_tag;
}

}  // namespace
}  // namespace orochi
