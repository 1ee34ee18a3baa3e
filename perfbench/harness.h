// Building blocks of the verifier benchmark (verifier_bench.cc), kept apart from its
// main() so the benchmark's own tests can exercise them: seeded workload generation, the
// benchmark-side tracing (spans kept in memory, written at the end), a counting Env
// wrapper, a timing AuditTaskGate, and the tamper gate that proves a forged response is
// rejected. Nothing here changes what the verifier computes; every hook only forwards
// and observes.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/io_env.h"
#include "src/common/result.h"
#include "src/core/audit_plan.h"
#include "src/workload/workloads.h"

namespace orochi {
namespace perfbench {

// Seconds on the steady clock; every span and timing in the benchmark uses it.
double NowSeconds();

// --- Workloads ---

// The benchmark's workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// One benchmark workload: the application, its initial state, and the generated
// requests cut into the epochs the server closes one after another.
struct BenchWorkload {
  Workload workload;
  std::vector<size_t> epoch_ends;  // Exclusive end index into workload.items per epoch.
};

// Generates `name`'s requests from `seed` (the seed goes into the app's *Config::seed;
// the verifier only ever sees the generated requests). Unknown names are an error.
Result<BenchWorkload> MakeBenchWorkload(const std::string& name, uint64_t seed);

// --- Spans ---

struct Span {
  std::string name;
  double start = 0;  // NowSeconds().
  double end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a root span.
  uint64_t key = 0;     // The epoch (or chunk) the span worked on.
};

// In-memory span log. A disabled recorder records nothing, so untraced runs pay one
// branch per boundary. Begin/End nest on the calling (main) thread; Add records a span
// measured elsewhere (a worker thread) under an explicit parent. Thread-safe.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Opens a span whose parent is the innermost open span; returns its id (0 if disabled).
  uint64_t Begin(const std::string& name, uint64_t key);
  void End(uint64_t id);
  void Add(const std::string& name, uint64_t parent, uint64_t key, double start,
           double end);
  size_t size() const;
  // Writes {"spans": [...]} with times in microseconds since the first span.
  Status WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;  // Indexes into spans_ (ids are index + 1).
};

// RAII Begin/End that also yields the span's wall time.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, uint64_t key = 0)
      : rec_(rec), id_(rec->Begin(name, key)), start_(NowSeconds()) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }
  double Elapsed() const { return NowSeconds() - start_; }

 private:
  SpanRecorder* rec_;
  uint64_t id_;
  double start_;
};

// --- Counting Env ---

// Forwards every Env method to `base` unchanged and counts the reads that pass through:
// PReadSome calls of the files it opens and StartReadAt/Wait pairs.
class CountingEnv : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(ResolveEnv(base)) {}
  Result<std::unique_ptr<ReadableFile>> OpenRead(const std::string& path) override;
  std::unique_ptr<PendingRead> StartReadAt(ReadableFile* file, const std::string& path,
                                           uint64_t offset, size_t n, char* buf) override;
  Result<std::unique_ptr<WritableFile>> OpenWrite(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenAppend(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;

  uint64_t reads() const { return reads_.load(); }
  uint64_t read_bytes() const { return read_bytes_.load(); }
  double read_seconds() const { return static_cast<double>(read_ns_.load()) * 1e-9; }
  void CountRead(uint64_t bytes, double seconds);

 private:
  Env* base_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> read_ns_{0};
};

// --- Timing gate ---

// AuditTaskGate whose Acquire/Release bracket each chunk's re-execution
// (ExecuteAuditPlan calls them around RunGroupChunk): records every chunk's wall time
// and, when tracing, a "chunk" span under `parent`.
class TimingGate : public AuditTaskGate {
 public:
  TimingGate(SpanRecorder* rec, uint64_t parent, uint64_t key)
      : rec_(rec), parent_(parent), key_(key) {}
  Status Acquire(const AuditTask& task) override;
  void Release(const AuditTask& task) override;
  // Per-chunk wall seconds, in completion order.
  std::vector<double> chunk_seconds() const;

 private:
  SpanRecorder* rec_;
  const uint64_t parent_;
  const uint64_t key_;
  mutable std::mutex mu_;
  std::vector<std::pair<size_t, double>> started_;  // (task order, start) in flight.
  std::vector<double> done_;
};

// --- Tamper gate ---

struct TamperOutcome {
  bool tampered = false;  // A response body was actually changed.
  bool rejected = false;  // The streamed audit of the tampered copy REJECTed.
  std::string detail;     // Rejection reason, or why the gate could not run.
};

// Copies one epoch's spill pair with the response body of a seed-chosen request changed
// (TamperResponseBody), writes the copy under `dir`, and audits it with
// FeedEpochFilesStreamed from `initial`. Soundness requires rejected == true.
TamperOutcome RunTamperGate(const Application* app, const InitialState& initial,
                            const AuditOptions& options, const std::string& trace_path,
                            const std::string& reports_path, const std::string& dir,
                            uint64_t seed);

// --- Small helpers ---

// Median of `v` (mean of the middle two for an even count); 0 for an empty input.
double Median(std::vector<double> v);
uint64_t FileBytes(const std::string& path);
// Removes `path` and everything under it (no error if absent).
Status RemoveTree(const std::string& path);
// RemoveTree, then creates `path` (and missing parents) empty.
Status ResetDir(const std::string& path);

}  // namespace perfbench
}  // namespace orochi

#endif  // PERFBENCH_HARNESS_H_
