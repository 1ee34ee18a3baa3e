// Audit-phase tracing: scoped TraceSpans emitted by the audit pipeline aggregate into a
// per-epoch phase-decomposition record — the audit's only clock, and the runtime twin of
// the paper's Figure 9 (audit cost split into report processing / storage build /
// re-execution / DB query / comparison), extended with the phases the grown system added
// (pass-1 skeleton streaming, shard merge, chunk-gate I/O wait, checkpoint replay).
//
//   {
//     obs::TraceSpan span(tracer, obs::Phase::kPrepare);
//     ctx.Prepare();
//   }  // records wall time + one chrome-trace event (when enabled) on destruction
//
// A PhaseTracer accumulates into cache-line-padded per-thread shards (same discipline as
// obs::Counter — hot paths never contend) and mirrors totals into the default
// MetricsRegistry as orochi_phase_<name>_micros_total / _spans_total counters. When
// OROCHI_TRACE_FILE is set, the default tracer additionally buffers one event per span
// and dumps Chrome-trace JSON (load it in chrome://tracing or https://ui.perfetto.dev)
// at process exit or on FlushChromeTrace().
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"

namespace orochi {
namespace obs {

// The audit pipeline's phases, in pipeline order. Keep PhaseName in sync. Spans of one
// phase sum across threads, so a phase run by N workers reports worker-seconds.
enum class Phase : int {
  kShardMerge = 0,       // Shard-id resolution + the merge-join fold (FeedShardedEpoch).
  kPass1Skeleton,        // Streaming trace/reports files into skeletons + offset indexes.
  kPrepare,              // Audit init: balanced-trace check + per-rid slot setup.
  kProcOpReports,        // ProcessOpReports: the consistent-ordering check (Figures 5/6).
  kStoreBuild,           // Versioned-store builds from the op logs ("DB redo").
  kPass2IoWait,          // Worker time blocked in the chunk gate paging bytes in (budget
                         // waits + the chunk's synchronous preads).
  kPass2Execute,         // One span per re-executed group chunk (grouped re-execution).
  kSqlQuery,             // One span per SELECT run against versioned storage; nested in
                         // kPass2Execute.
  kCheckpointReplay,     // Journaled chunks replayed instead of re-executed on resume.
  kPass3Compare,         // Produced-output vs. trace comparison.
};
inline constexpr int kNumPhases = 10;
const char* PhaseName(Phase phase);
// True for a phase whose spans lie inside another phase's spans (kSqlQuery).
bool PhaseIsNested(Phase phase);

// Per-phase seconds + span counts. For one epoch this is the phase-decomposition record;
// the tracer's totals() is the same shape accumulated over the process lifetime.
struct PhaseBreakdown {
  double seconds[kNumPhases] = {};
  uint64_t spans[kNumPhases] = {};

  double operator[](Phase phase) const { return seconds[static_cast<int>(phase)]; }
  // Every recorded second counted once: nested phases are already inside their parent.
  double total_seconds() const;
  // The per-epoch record: this snapshot minus an `earlier` snapshot of the same tracer.
  PhaseBreakdown DiffSince(const PhaseBreakdown& earlier) const;
  // Renders {"prepare": {"seconds": s, "spans": n}, ...} for the /epochs endpoint.
  std::string Json() const;
};

class PhaseTracer {
 public:
  // A private tracer (tests, concurrent sessions that want isolated attribution).
  // `registry` nullptr = do not mirror into any registry.
  explicit PhaseTracer(MetricsRegistry* registry = nullptr);

  // The process-wide tracer the pipeline uses when AuditOptions::tracer is null. Mirrors
  // into MetricsRegistry::Default() and — when OROCHI_TRACE_FILE was set at first use —
  // buffers chrome-trace events, flushed at process exit.
  static PhaseTracer* Default();

  // Buffers chrome-trace events for every span until `max_events`, after which events are
  // dropped (and counted); FlushChromeTrace writes them to `path` as Chrome-trace JSON.
  void EnableChromeTrace(std::string path, size_t max_events = 1 << 20);
  Status FlushChromeTrace();

  // Records one completed span. `start_seconds` is NowSeconds() at span entry.
  void Record(Phase phase, double start_seconds, double duration_seconds);

  PhaseBreakdown totals() const;
  // Monotonic seconds since this tracer was created (span timestamps' epoch).
  double NowSeconds() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> nanos[kNumPhases] = {};
    std::atomic<uint64_t> spans[kNumPhases] = {};
  };
  struct ChromeEvent {
    Phase phase;
    uint64_t start_micros;
    uint64_t dur_micros;
    uint32_t tid;
  };

  const std::chrono::steady_clock::time_point birth_;
  MetricsRegistry* const registry_;
  Counter* phase_micros_[kNumPhases] = {};
  Counter* phase_spans_[kNumPhases] = {};
  Shard shards_[internal::kShards];

  std::atomic<bool> chrome_enabled_{false};
  std::mutex chrome_mu_;  // Guards the event buffer + path (span completion only).
  std::string chrome_path_;
  size_t chrome_max_events_ = 0;
  std::vector<ChromeEvent> chrome_events_;
  uint64_t chrome_dropped_ = 0;
};

// nullptr resolves to the process-wide tracer, mirroring ResolveEnv / ResolveTransport.
inline PhaseTracer* ResolveTracer(PhaseTracer* tracer) {
  return tracer != nullptr ? tracer : PhaseTracer::Default();
}

// RAII span: times its scope and records into the tracer on destruction.
class TraceSpan {
 public:
  TraceSpan(PhaseTracer* tracer, Phase phase)
      : tracer_(ResolveTracer(tracer)), phase_(phase), start_(tracer_->NowSeconds()) {}
  ~TraceSpan() { tracer_->Record(phase_, start_, tracer_->NowSeconds() - start_); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  PhaseTracer* const tracer_;
  const Phase phase_;
  const double start_;
};

}  // namespace obs
}  // namespace orochi

#endif  // SRC_OBS_TRACE_H_
