// Shared helpers for the test suite: run a workload through the recording server and hand
// back everything an audit needs, seeds for randomized sweeps, and a private temp dir.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/objects/reports.h"
#include "src/objects/stores.h"
#include "src/objects/trace.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/thread_server.h"
#include "src/stream/chunk_loader.h"
#include "src/workload/workloads.h"

namespace orochi {

struct ServedWorkload {
  Trace trace;
  Reports reports;
  InitialState initial;   // The state the audit bootstraps from.
  InitialState final_state;  // The server's state after the run (ground truth).
};

// Serves every item of the workload on `num_workers` threads with recording enabled and
// returns the collected trace + reports.
inline ServedWorkload ServeWorkload(const Workload& workload, int num_workers = 4) {
  ServedWorkload out;
  out.initial = workload.initial;
  ServerCore core(&workload.app, workload.initial, ServerOptions{.record_reports = true});
  Collector collector;
  {
    ThreadServer server(&core, &collector, num_workers);
    RequestId next_rid = 1;
    for (const WorkItem& item : workload.items) {
      server.Submit(next_rid++, item.script, item.params);
    }
    server.Drain();
  }
  out.trace = collector.TakeTrace();
  out.reports = core.TakeReports();
  out.final_state = core.SnapshotState();
  return out;
}

// Base seed for randomized sweeps: OROCHI_TEST_SEED when set (decimal or 0x-hex), else
// `default_seed`. Sweeps derive their per-phase seeds from this base by fixed offsets, so
// exporting the value a failure printed reruns the exact same schedule. A malformed seed
// is a config error — silently reverting to the default would rerun the wrong schedule.
inline uint64_t TestBaseSeed(uint64_t default_seed) {
  const char* env = std::getenv("OROCHI_TEST_SEED");
  if (env == nullptr || *env == '\0') {
    return default_seed;
  }
  Result<uint64_t> parsed = ParseSeed(env);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config: OROCHI_TEST_SEED='%s' is not a valid seed (%s)\n", env,
                 parsed.error().c_str());
    std::exit(2);
  }
  return parsed.value();
}

// gtest SCOPED_TRACE message naming the base seed, so any failing assertion in a seeded
// sweep prints the exact rerun command.
inline std::string SeedTraceMessage(uint64_t base_seed) {
  return "rerun with OROCHI_TEST_SEED=" + std::to_string(base_seed);
}

// Trace loader that simulates a process killed mid-audit: the first `allowed` payload
// loads (pass-2 requests, then pass-3 responses) succeed, then every load fails
// permanently. Tasks already paged in retire (and journal); the failing load surfaces an
// I/O error, never a verdict.
class KillSwitchLoader : public TraceChunkLoader {
 public:
  KillSwitchLoader(const StreamTraceSet* set, uint64_t allowed)
      : real_(set), allowed_(allowed) {}

  Status Load(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    if (loads_.fetch_add(1) >= allowed_) {
      return Status::Error("io: injected mid-audit kill at payload load " +
                           std::to_string(allowed_) + " in " +
                           set.file_path(set.loc(index).file));
    }
    return real_.Load(set, index, event);
  }
  void Evict(const StreamTraceSet& set, size_t index, TraceEvent* event) override {
    real_.Evict(set, index, event);
  }

 private:
  FileTraceChunkLoader real_;
  std::atomic<uint64_t> loads_{0};
  const uint64_t allowed_;
};

// This test process's private scratch directory: a pid-suffixed directory below
// ::testing::TempDir(), emptied on first use and removed at exit. Every spill file,
// checkpoint, spool and socket a suite creates goes under it, so concurrent runs (ctest
// -j, other build trees) never share a path, and a checkpoint left by a killed run is
// never resumed by the next one.
inline const std::string& TestTempDir() {
  // Never destroyed, so the atexit cleanup can still read it.
  static const std::string* dir =
      new std::string(::testing::TempDir() + "/orochi_test_" + std::to_string(::getpid()));
  static const bool created = [] {
    std::error_code ec;
    std::filesystem::remove_all(*dir, ec);
    std::filesystem::create_directories(*dir, ec);
    std::atexit([] {
      std::error_code ignored;
      std::filesystem::remove_all(*dir, ignored);
    });
    return true;
  }();
  (void)created;
  return *dir;
}

}  // namespace orochi

#endif  // TESTS_TEST_UTIL_H_
