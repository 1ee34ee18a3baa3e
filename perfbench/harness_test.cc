// Tests of the benchmark's own machinery: the generated request list is a function of the
// seed alone, the tamper gate really fires on a forged epoch, and the counting Env hands
// every byte through unchanged.
#include "perfbench/harness.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/thread_server.h"

namespace orochi {
namespace perfbench {
namespace {

std::string TestDir(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/perfbench_test_" + name + "_" +
         std::to_string(::getpid());
}

// The generated requests flattened to one string per request.
std::vector<std::string> RequestList(const BenchWorkload& b) {
  std::vector<std::string> out;
  for (const WorkItem& item : b.workload.items) {
    std::string s = item.script;
    for (const auto& [k, v] : item.params) {
      s += "|" + k + "=" + v;
    }
    out.push_back(s);
  }
  return out;
}

TEST(Workloads, SameSeedSameRequestsOtherSeedOtherRequests) {
  for (const std::string& name : WorkloadNames()) {
    Result<BenchWorkload> a = MakeBenchWorkload(name, 7);
    Result<BenchWorkload> b = MakeBenchWorkload(name, 7);
    Result<BenchWorkload> c = MakeBenchWorkload(name, 8);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << name;
    EXPECT_FALSE(a.value().workload.items.empty()) << name;
    EXPECT_EQ(RequestList(a.value()), RequestList(b.value())) << name;
    EXPECT_NE(RequestList(a.value()), RequestList(c.value())) << name;
    EXPECT_EQ(a.value().epoch_ends.back(), a.value().workload.items.size()) << name;
  }
  EXPECT_EQ(MakeBenchWorkload("live", 1).value().epoch_ends.size(), 4u);
  EXPECT_FALSE(MakeBenchWorkload("nope", 1).ok());
}

// Serves a small wiki epoch and spills it, as the benchmark's live leg would.
class SpilledEpoch : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("epoch");
    ASSERT_TRUE(ResetDir(dir_).ok());
    WikiConfig config;
    config.num_requests = 300;
    config.seed = 5;
    w_ = MakeWikiWorkload(config);
    ServerCore core(&w_.app, w_.initial);
    Collector collector(/*shard_id=*/1);
    {
      ThreadServer server(&core, &collector, 2);
      RequestId rid = 1;
      for (const WorkItem& item : w_.items) {
        server.Submit(rid++, item.script, item.params);
      }
      server.Drain();
    }
    trace_path_ = dir_ + "/e.trace";
    reports_path_ = dir_ + "/e.reports";
    ASSERT_TRUE(collector.Flush(trace_path_).ok());
    ASSERT_TRUE(WriteReportsFile(reports_path_, core.TakeReports()).ok());
  }
  void TearDown() override { RemoveTree(dir_); }

  std::string dir_;
  Workload w_;
  std::string trace_path_;
  std::string reports_path_;
};

TEST_F(SpilledEpoch, TamperGateRejectsTheForgedCopyForEverySeed) {
  AuditOptions options;
  options.num_threads = 2;
  options.max_resident_bytes = 4096;
  for (uint64_t seed : {1u, 2u, 3u}) {
    TamperOutcome t = RunTamperGate(&w_.app, w_.initial, options, trace_path_,
                                    reports_path_, dir_, seed);
    EXPECT_TRUE(t.tampered) << t.detail;
    EXPECT_TRUE(t.rejected) << t.detail;
  }
  // The honest pair itself must pass, so the rejection above is the forgery's doing.
  AuditSession session = AuditSession::Open(&w_.app, options, w_.initial);
  Result<AuditResult> honest = session.FeedEpochFilesStreamed(trace_path_, reports_path_);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest.value().accepted) << honest.value().reason;
}

TEST_F(SpilledEpoch, TamperGateReportsAMissingEpochInsteadOfPassing) {
  TamperOutcome t = RunTamperGate(&w_.app, w_.initial, AuditOptions{},
                                  dir_ + "/absent.trace", reports_path_, dir_, 1);
  EXPECT_FALSE(t.tampered);
  EXPECT_FALSE(t.rejected);
}

TEST_F(SpilledEpoch, CountingEnvForwardsBytesUnchanged) {
  CountingEnv env(nullptr);
  Result<std::unique_ptr<ReadableFile>> plain = Env::Default()->OpenRead(trace_path_);
  Result<std::unique_ptr<ReadableFile>> counted = env.OpenRead(trace_path_);
  ASSERT_TRUE(plain.ok() && counted.ok());
  const uint64_t size = FileBytes(trace_path_);
  ASSERT_GT(size, 4096u);
  std::string want(size, '\0');
  ASSERT_TRUE(ReadFullAt(plain.value().get(), trace_path_, 0, size, want.data()).ok());

  // PReadSome through ReadFullAt.
  std::string got(size, '\0');
  ASSERT_TRUE(ReadFullAt(counted.value().get(), trace_path_, 0, size, got.data()).ok());
  EXPECT_EQ(got, want);
  EXPECT_GE(env.reads(), 1u);
  EXPECT_EQ(env.read_bytes(), size);

  // StartReadAt / Wait at an offset.
  const uint64_t reads_before = env.reads();
  std::string part(1000, '\0');
  std::unique_ptr<PendingRead> pending =
      env.StartReadAt(counted.value().get(), trace_path_, 3000, part.size(), part.data());
  ASSERT_TRUE(pending->Wait().ok());
  EXPECT_EQ(part, want.substr(3000, 1000));
  EXPECT_GT(env.reads(), reads_before);
  EXPECT_GE(env.read_bytes(), size + 1000);

  // A whole audit through the env reads the same epoch to the same verdict.
  AuditOptions options;
  options.io_env = &env;
  options.num_threads = 2;
  options.max_resident_bytes = 4096;
  AuditSession counted_session = AuditSession::Open(&w_.app, options, w_.initial);
  Result<AuditResult> r = counted_session.FeedEpochFilesStreamed(trace_path_, reports_path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().accepted) << r.value().reason;
  options.io_env = nullptr;
  AuditSession plain_session = AuditSession::Open(&w_.app, options, w_.initial);
  Result<AuditResult> base = plain_session.FeedEpochFilesStreamed(trace_path_, reports_path_);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(InitialStateFingerprint(r.value().final_state),
            InitialStateFingerprint(base.value().final_state));
}

TEST(Spans, NestAndDisable) {
  SpanRecorder on(true);
  {
    ScopedSpan outer(&on, "outer", 1);
    ScopedSpan inner(&on, "inner", 2);
    on.Add("worker", outer.id(), 3, 0, 1);
  }
  EXPECT_EQ(on.size(), 3u);
  SpanRecorder off(false);
  {
    ScopedSpan s(&off, "x");
    EXPECT_EQ(s.id(), 0u);
  }
  EXPECT_EQ(off.size(), 0u);
}

TEST(Helpers, Median) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

}  // namespace
}  // namespace perfbench
}  // namespace orochi
