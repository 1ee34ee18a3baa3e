// Lock-cheap metrics for the audit pipeline: monotonic counters, gauges, and
// fixed-bucket histograms, collected in a registry that snapshots to JSON and
// Prometheus-style text exposition (served by src/obs/stats_server.h).
//
// Design constraints, in order:
//   1. Hot paths never contend. Counter and Histogram updates land in one of several
//      cache-line-padded shards chosen per thread, so two workers bumping the same
//      metric never touch the same cache line. No update path takes a lock.
//   2. Reads are exact. A snapshot sums the shards with acquire loads, so a quiescent
//      registry reports exactly the updates that happened-before the read (the TSan
//      exactness tests in tests/obs_test.cc rely on this).
//   3. Registration is cheap to amortize. Call-site idiom:
//        static obs::Counter* const fsyncs = obs::MetricsRegistry::Default()->GetCounter(
//            "orochi_io_fsyncs_total", "fsync calls issued by spill writers");
//        fsyncs->Inc();
//      The function-local static makes the name lookup a one-time cost. An object that
//      also reports its own count (a service's stats()) holds a CounterCell per series
//      instead, so each event is tallied once for both views.
//
// This header sits below src/common (orochi_common links orochi_obs), so every layer —
// io_env included — can record without dependency cycles.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace orochi {
namespace obs {

namespace internal {
// One cache-line-padded atomic cell. 64 is the common x86/ARM line size; a wrong guess
// costs false sharing, never correctness.
struct alignas(64) PaddedU64 {
  std::atomic<uint64_t> v{0};
};
// Shard count for per-thread striping: enough that a dozen audit workers rarely collide,
// small enough that summing on snapshot stays trivial.
inline constexpr size_t kShards = 16;
// The calling thread's stable shard index (assigned round-robin at first use).
size_t ShardIndex();
}  // namespace internal

// Monotonic counter. Inc is a relaxed fetch_add on a per-thread shard.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    shards_[internal::ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_acquire);
    }
    return total;
  }

 private:
  internal::PaddedU64 shards_[internal::kShards];
};

// Gauge: a value that goes up and down (or a monotone high-water mark via SetMax).
// A single atomic — gauges are set at phase boundaries, not in per-op hot loops.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  // Monotone ratchet: keeps the largest value ever set (peak resident bytes etc.).
  void SetMax(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_acquire); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket histogram for latencies and sizes. Bucket bounds are upper bounds in
// ascending order; an implicit +Inf bucket catches the tail. The sum is kept in
// micro-units (value * 1e6, rounded to nearest) so updates stay integer atomics —
// exact for the micro-resolution values the pipeline records.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  struct Snapshot {
    std::vector<double> bounds;     // Upper bounds, ascending; +Inf implicit at the end.
    std::vector<uint64_t> buckets;  // bounds.size() + 1 cumulative-free per-bucket counts.
    uint64_t count = 0;
    double sum = 0;  // Reconstructed from micro-units.
  };
  Snapshot TakeSnapshot() const;

 private:
  struct alignas(64) Shard {
    explicit Shard(size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<uint64_t>> counts;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_micros{0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Name -> metric registry. Get* registers on first use and returns the same pointer on
// every later call (pointers stay valid for the registry's lifetime). Asking for an
// existing name as a different metric type returns a process-wide dummy metric instead
// of crashing — the misuse shows up as a missing series in the exposition, never as UB.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every built-in instrument records into.
  static MetricsRegistry* Default();

  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  // `bounds` only applies on first registration; later calls get the existing histogram.
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);

  // Prometheus-style text exposition: "# HELP"/"# TYPE" then samples, metrics in name
  // order, histograms as name_bucket{le="..."} / name_sum / name_count. Deterministic
  // for a quiescent registry.
  std::string TextExposition() const;
  // The same snapshot as one JSON object: {"counters":{...},"gauges":{...},
  // "histograms":{name:{"bounds":[...],"buckets":[...],"count":n,"sum":s}}}.
  std::string JsonExposition() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;  // Guards the map shape only; updates never take it.
  std::map<std::string, Entry> metrics_;
};

// One instance's share of a registry counter. Inc bumps the instance's own count and the
// process-wide series in the same call, so Value() (this instance's count) and the
// exposition (every instance's, including ones since destroyed) come from one tally per
// event. The series is looked up once, at construction.
class CounterCell {
 public:
  CounterCell(MetricsRegistry* registry, const std::string& name, const std::string& help)
      : series_(registry->GetCounter(name, help)) {}
  CounterCell(const CounterCell&) = delete;
  CounterCell& operator=(const CounterCell&) = delete;

  void Inc(uint64_t n = 1) {
    own_.fetch_add(n, std::memory_order_relaxed);
    series_->Inc(n);
  }
  uint64_t Value() const { return own_.load(std::memory_order_relaxed); }

 private:
  Counter* const series_;
  std::atomic<uint64_t> own_{0};
};

// Escapes a string for embedding in a JSON string literal (shared by the expositions
// and the service's /epochs /shards endpoints).
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace orochi

#endif  // SRC_OBS_METRICS_H_
