// verifier_bench: one run of one benchmark workload.
//
//   verifier_bench --workload forum|live --seed N --seconds T --trace 0|1
//                  --work-dir DIR [--spans FILE]
//
// A run times set-up (workload generation, app build, audit-service start) a few times
// and again at the start of each round, repeats measured rounds until about T seconds
// have passed, and reports the median of every metric over the rounds the hypervisor
// disturbed least (see Samples). One round is the whole pipeline, driven only through the
// verifier's public calls:
//
//   serve    each epoch's requests through a ThreadServer (nproc workers, reports
//            recorded), all submitted up front, then drained;
//   live     the closed epoch streamed over one TCP CollectorClient into an AuditService
//            (nproc audit threads) and its verdict awaited before the next epoch is
//            served (closed loop);
//   audits   the sealed spool pairs audited again offline: streamed at nproc threads and
//            at 1 thread under a 256 KiB resident budget, and in memory at nproc threads.
//
// Every verdict is checked: honest epochs must accept, all audits of an epoch must end in
// the same final-state fingerprint, the live chain must match a direct chained
// FeedShardedEpoch, and one forged copy per run must be rejected. The last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones, which come from
// extra traced work in each round (see perfbench/README.md for each metric's definition).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/crc32c.h"
#include "src/common/strings.h"
#include "src/core/audit_plan.h"
#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/thread_server.h"
#include "src/service/audit_service.h"
#include "src/service/collector_client.h"
#include "src/stream/stream_audit.h"

namespace orochi {
namespace perfbench {
namespace {

// The resident budget of the streamed audits (bench_stream_audit's setting).
constexpr uint64_t kBudgetBytes = 256 * 1024;
constexpr int kSetupRepeats = 5;
constexpr int kSetupsPerRound = 2;
constexpr int kMinRounds = 3;
// Rounds in which the hypervisor stole at most this share of the vCPU time are calm.
constexpr double kCalmStealShare = 0.02;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      Result<uint64_t> seed = ParseSeed(value);
      if (!seed.ok()) {
        return false;
      }
      args->seed = seed.value();
      have_seed = true;
    } else if (flag == "--seconds") {
      Result<double> s = ParseScale(value);
      if (!s.ok()) {
        return false;
      }
      args->seconds = s.value();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed && have_trace &&
         args->seconds > 0 && !args->work_dir.empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// CPU seconds the hypervisor gave to other guests (the steal column of /proc/stat),
// printed per run so host contention can be told apart from a change in the program.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t ticks[8] = {};
  in >> cpu;
  for (uint64_t& t : ticks) {
    in >> t;
  }
  return static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Peak RSS of one phase: hand freed heap back to the kernel, reset VmHWM, run, read it.
bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB.
    }
  }
  return 0;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Verdict bookkeeping: every audit, epoch and parity check is one attempt.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    attempted++;
    if (!ok) {
      failed++;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

// Per-round samples of every metric. A run reports each metric's median over its calm
// rounds: those in which the hypervisor stole at most kCalmStealShare of the vCPU time,
// or the calmer half of the rounds when fewer were that calm. Steal only ever slows a
// round down, and on a shared VM it comes in bursts of many seconds that would otherwise
// move a whole run's medians.
struct Samples {
  struct Sample {
    int round;  // -1 for samples taken before the first round (set-up); always kept.
    double value;
  };
  std::map<std::string, std::vector<Sample>> values;
  int round = -1;       // The round now being measured.
  std::set<int> calm;   // Rounds whose samples count; chosen by SelectCalmRounds.

  void Add(const std::string& name, double v) { values[name].push_back({round, v}); }
  std::vector<double> Kept(const std::string& name) const {
    std::vector<double> out;
    auto it = values.find(name);
    if (it != values.end()) {
      for (const Sample& s : it->second) {
        if (s.round < 0 || calm.count(s.round) > 0) {
          out.push_back(s.value);
        }
      }
    }
    return out;
  }
  double Get(const std::string& name) const { return Median(Kept(name)); }

  // `steal_share[r]`: the share of round r's vCPU time the hypervisor stole.
  void SelectCalmRounds(const std::vector<double>& steal_share) {
    std::vector<int> order(steal_share.size());
    for (size_t r = 0; r < order.size(); r++) {
      order[r] = static_cast<int>(r);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return steal_share[a] < steal_share[b]; });
    const size_t half = (order.size() + 1) / 2;
    calm.clear();
    for (size_t i = 0; i < order.size(); i++) {
      if (i < half || steal_share[order[i]] <= kCalmStealShare) {
        calm.insert(order[i]);
      }
    }
  }
};

// Every audit of the benchmark: nproc threads, the 256 KiB budget and the default
// read-ahead, all set explicitly so no OROCHI_* environment variable changes a run.
AuditOptions BenchAuditOptions(unsigned nproc) {
  AuditOptions options;
  options.num_threads = nproc;
  options.max_resident_bytes = kBudgetBytes;
  options.prefetch_depth = kDefaultPrefetchDepth;
  return options;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return Ratio(sum, static_cast<double>(v.size()));
}

// Final-state fingerprints of one chain of epoch audits, and the chain's wall time.
struct Chain {
  double seconds = 0;
  std::vector<std::string> fingerprints;
};

class Runner {
 public:
  Runner(const Args& args, BenchWorkload bench, unsigned nproc)
      : args_(args),
        bench_(std::move(bench)),
        w_(bench_.workload),
        nproc_(nproc),
        audit_options_(BenchAuditOptions(nproc)),
        spans_(args.trace) {
  }

  // One measured round in `dir`; returns false on a setup-level error (already logged).
  bool Round(int round, const std::string& dir);

  Samples& samples() { return samples_; }
  Checks& checks() { return checks_; }
  SpanRecorder& spans() { return spans_; }
  size_t requests() const { return w_.items.size(); }

 private:
  // Serves items [begin, end) through a fresh ThreadServer over `core`; returns the wall
  // time from the first submit to the drain.
  double Serve(ServerCore* core, Collector* collector, size_t begin, size_t end);
  // What one round's serve -> stream -> seal -> verdict leg measured.
  struct LiveLeg {
    bool ok = false;
    bool complete = false;               // Every epoch streamed and sealed.
    std::vector<ShardEpochFiles> pairs;  // The sealed spool pair of every epoch.
    std::vector<double> seal_to_verdict_s;
    double serve_s = 0;
    double stream_s = 0;
    double live_s = 0;
    double flush_s = 0;  // Traced runs only, like flush_parity.
    bool flush_parity = true;
    double server_cpu_s = 0;
    ClientStats net;
  };
  LiveLeg RunLiveLeg(const std::string& dir);
  // How AuditChain feeds each epoch's spool pair.
  enum class Feed { kStreamed, kSharded, kInMemory };
  // Audits the spool pairs as one chain from the workload's initial state.
  // `per_epoch`, when set, receives each epoch's wall time.
  Chain AuditChain(const std::string& label, const AuditOptions& options,
                   const std::vector<ShardEpochFiles>& pairs, Feed feed,
                   std::vector<double>* per_epoch = nullptr);
  void CheckSameStates(const std::string& label, const Chain& chain);
  // Traced-only layer measurements over the round's sealed spools.
  void LayerMetrics(const std::vector<ShardEpochFiles>& pairs, double streamed_seconds,
                    double streamed_1t_seconds, double inmem_seconds);

  const Args& args_;
  BenchWorkload bench_;
  const Workload& w_;
  const unsigned nproc_;
  const AuditOptions audit_options_;
  SpanRecorder spans_;
  Samples samples_;
  Checks checks_;
  std::vector<std::string> live_fingerprints_;  // The live chain's, per epoch.
  uint64_t spool_bytes_ = 0;                    // Sealed spool bytes of the round.
};

double Runner::Serve(ServerCore* core, Collector* collector, size_t begin, size_t end) {
  const double start = NowSeconds();
  ThreadServer server(core, collector, static_cast<int>(nproc_));
  for (size_t i = begin; i < end; i++) {
    server.Submit(static_cast<RequestId>(i + 1), w_.items[i].script, w_.items[i].params);
  }
  server.Drain();
  return NowSeconds() - start;
}

Chain Runner::AuditChain(const std::string& label, const AuditOptions& options,
                         const std::vector<ShardEpochFiles>& pairs, Feed feed,
                         std::vector<double>* per_epoch) {
  Chain chain;
  ScopedSpan span(&spans_, label);
  AuditSession session = AuditSession::Open(&w_.app, options, w_.initial);
  for (size_t e = 0; e < pairs.size(); e++) {
    ScopedSpan epoch_span(&spans_, "epoch", e + 1);
    const ShardEpochFiles& p = pairs[e];
    Result<AuditResult> r =
        feed == Feed::kStreamed  ? session.FeedEpochFilesStreamed(p.trace_path, p.reports_path)
        : feed == Feed::kSharded ? session.FeedShardedEpoch({p})
                                 : session.FeedEpochFiles(p.trace_path, p.reports_path);
    if (per_epoch != nullptr) {
      per_epoch->push_back(epoch_span.Elapsed());
    }
    const bool accepted = r.ok() && r.value().accepted;
    checks_.Expect(accepted, label + " epoch " + std::to_string(e + 1) + ": " +
                                 (r.ok() ? r.value().reason : r.error()));
    chain.fingerprints.push_back(accepted ? InitialStateFingerprint(r.value().final_state)
                                          : std::string());
  }
  chain.seconds = span.Elapsed();
  return chain;
}

void Runner::CheckSameStates(const std::string& label, const Chain& chain) {
  checks_.Expect(chain.fingerprints == live_fingerprints_,
                 label + " final states differ from the live chain's");
}

Runner::LiveLeg Runner::RunLiveLeg(const std::string& dir) {
  LiveLeg leg;
  const std::string spool = dir + "/spool";
  if (Status st = ResetDir(spool); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.error().c_str());
    return leg;
  }
  ServiceOptions service_options;
  service_options.spool_dir = spool;
  AuditService service(&w_.app, audit_options_, w_.initial, service_options);
  if (Status st = service.Start(); !st.ok()) {
    std::fprintf(stderr, "service start: %s\n", st.error().c_str());
    return leg;
  }
  ServerCore core(&w_.app, w_.initial, ServerOptions{.record_reports = true});
  Collector collector(/*shard_id=*/1);
  CollectorClient client(service.address());
  live_fingerprints_.clear();
  ScopedSpan live_span(&spans_, "live");
  size_t begin = 0;
  for (size_t e = 0; e < bench_.epoch_ends.size(); e++) {
    const uint64_t epoch = e + 1;
    const size_t end = bench_.epoch_ends[e];
    {
      ScopedSpan s(&spans_, "serve", epoch);
      leg.serve_s += Serve(&core, &collector, begin, end);
    }
    begin = end;
    Reports reports = core.TakeReports();
    std::string direct_trace;
    std::string direct_reports;
    if (spans_.enabled()) {
      // The offline spill path for the same epoch (not part of any live metric): its
      // files must be byte-identical to what the service seals.
      direct_trace = dir + "/direct_" + std::to_string(epoch) + ".trace";
      direct_reports = dir + "/direct_" + std::to_string(epoch) + ".reports";
      Collector direct(/*shard_id=*/1);
      direct.Restore(collector.trace());
      ScopedSpan s(&spans_, "flush", epoch);
      leg.flush_parity &= direct.Flush(direct_trace).ok() &&
                          WriteReportsFile(direct_reports, reports).ok();
      leg.flush_s += s.Elapsed();
    }
    double sealed_at = 0;
    Status streamed = Status::Ok();
    {
      ScopedSpan s(&spans_, "stream", epoch);
      streamed = client.StreamEpoch(epoch, &collector, reports);
      sealed_at = NowSeconds();
      leg.stream_s += s.Elapsed();
    }
    checks_.Expect(streamed.ok(), "stream epoch " + std::to_string(epoch) + ": " +
                                      (streamed.ok() ? "" : streamed.error()));
    if (!streamed.ok()) {
      // The epoch never sealed, so no verdict will come; the chain ends here.
      service.Stop();
      leg.ok = true;
      return leg;
    }
    ScopedSpan v(&spans_, "verdict", epoch);
    Result<AuditResult> verdict = service.WaitEpochVerdict(epoch);
    leg.seal_to_verdict_s.push_back(NowSeconds() - sealed_at);
    const bool accepted = verdict.ok() && verdict.value().accepted;
    checks_.Expect(accepted, "live epoch " + std::to_string(epoch) + ": " +
                                 (verdict.ok() ? verdict.value().reason : verdict.error()));
    live_fingerprints_.push_back(
        accepted ? InitialStateFingerprint(verdict.value().final_state) : std::string());
    const std::string base = spool + "/epoch_" + std::to_string(epoch) + "_shard_1";
    leg.pairs.push_back({base + ".trace", base + ".reports"});
    if (spans_.enabled()) {
      leg.flush_parity &= ReadAll(direct_trace) == ReadAll(leg.pairs.back().trace_path) &&
                          ReadAll(direct_reports) == ReadAll(leg.pairs.back().reports_path);
      RemoveTree(direct_trace);
      RemoveTree(direct_reports);
    }
  }
  leg.live_s = live_span.Elapsed();
  service.Stop();
  leg.server_cpu_s = core.TotalCpuSeconds();
  leg.net = client.stats();
  leg.ok = true;
  leg.complete = true;
  return leg;
}

bool Runner::Round(int round, const std::string& dir) {
  ScopedSpan round_span(&spans_, "round", static_cast<uint64_t>(round));
  // The live leg's server, collector and service are gone before the offline audits, so
  // the audits' peak RSS is not the serving side's.
  const LiveLeg leg = RunLiveLeg(dir);
  if (!leg.ok) {
    return false;
  }
  if (!leg.complete) {
    return true;  // The failure is counted; the run stops after this round.
  }
  const std::vector<ShardEpochFiles>& pairs = leg.pairs;
  spool_bytes_ = 0;
  uint64_t reports_bytes = 0;
  for (const ShardEpochFiles& p : pairs) {
    spool_bytes_ += FileBytes(p.trace_path) + FileBytes(p.reports_path);
    reports_bytes += FileBytes(p.reports_path);
  }
  const double n = static_cast<double>(requests());
  samples_.Add("serve_rps", n / leg.serve_s);
  samples_.Add("report_bytes_per_req", static_cast<double>(reports_bytes) / n);
  samples_.Add("ingest_mbps", static_cast<double>(spool_bytes_) / 1e6 / leg.stream_s);
  samples_.Add("live_rps", n / leg.live_s);
  // One sample per round, the mean over its epochs: the first epoch's verdict takes about
  // twice as long as the later ones', so a median over the epochs pooled from all rounds
  // sits where two clusters meet and jumps from run to run.
  samples_.Add("seal_to_verdict_s", Mean(leg.seal_to_verdict_s));

  // --- offline audits of the sealed spools ---
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS via /proc/self/clear_refs\n");
    return false;
  }
  const Chain streamed = AuditChain("audit_streamed", audit_options_, pairs, Feed::kStreamed);
  samples_.Add("audit_peak_rss_mb", PeakRssMb());
  samples_.Add("audit_rps", n / streamed.seconds);
  CheckSameStates("streamed audit", streamed);

  AuditOptions one_thread = audit_options_;
  one_thread.num_threads = 1;
  const Chain streamed_1t = AuditChain("audit_streamed_1t", one_thread, pairs,
                                       Feed::kStreamed);
  samples_.Add("audit_rps_1t", n / streamed_1t.seconds);
  CheckSameStates("1-thread streamed audit", streamed_1t);

  const Chain inmem = AuditChain("audit_inmem", audit_options_, pairs, Feed::kInMemory);
  samples_.Add("inmem_audit_rps", n / inmem.seconds);
  CheckSameStates("in-memory audit", inmem);

  // The live chain must equal a direct chained FeedShardedEpoch over the same spools,
  // and a forged copy of the first epoch must be rejected (both untimed; once per run
  // untraced, every round traced, where the direct audit also times the service).
  if (round == 0 || spans_.enabled()) {
    std::vector<double> direct_epoch_s;
    const Chain direct = AuditChain("audit_direct_sharded", audit_options_, pairs,
                                    Feed::kSharded, &direct_epoch_s);
    CheckSameStates("direct FeedShardedEpoch", direct);
    samples_.Add("service.verdict_overhead_s",
                 Mean(leg.seal_to_verdict_s) - Mean(direct_epoch_s));
  }
  if (round == 0) {
    ScopedSpan s(&spans_, "tamper_gate", 1);
    TamperOutcome t = RunTamperGate(&w_.app, w_.initial, audit_options_,
                                    pairs[0].trace_path, pairs[0].reports_path, dir,
                                    args_.seed);
    checks_.Expect(t.tampered && t.rejected, "tamper gate: " + t.detail);
    std::printf("tamper gate: %s (%s)\n", t.rejected ? "REJECTED" : "NOT REJECTED",
                t.detail.c_str());
  }

  if (spans_.enabled()) {
    checks_.Expect(leg.flush_parity, "direct spill differs from the sealed spool");
    samples_.Add("server.serve_s", leg.serve_s);
    samples_.Add("server.cpu_s", leg.server_cpu_s);
    samples_.Add("server.flush_s", leg.flush_s);
    samples_.Add("net.stream_s", leg.stream_s);
    samples_.Add("net.bytes_sent", static_cast<double>(leg.net.bytes_sent));
    samples_.Add("net.acks", static_cast<double>(leg.net.acks_received));
    {
      // Recording cost: the same epochs served by a core that records nothing.
      ServerCore bare(&w_.app, w_.initial, ServerOptions{.record_reports = false});
      Collector bare_collector;
      ScopedSpan s(&spans_, "serve_unrecorded");
      size_t begin = 0;
      for (size_t end : bench_.epoch_ends) {
        Serve(&bare, &bare_collector, begin, end);
        bare_collector.TakeTrace();
        begin = end;
      }
      samples_.Add("server.record_overhead",
                   Ratio(leg.server_cpu_s, bare.TotalCpuSeconds()) - 1);
    }
    LayerMetrics(pairs, streamed.seconds, streamed_1t.seconds, inmem.seconds);
  }
  return true;
}

void Runner::LayerMetrics(const std::vector<ShardEpochFiles>& pairs,
                          double streamed_seconds, double streamed_1t_seconds,
                          double inmem_seconds) {
  const double n = static_cast<double>(requests());

  // stream: pass 1 on its own.
  double pass1_s = 0;
  {
    ScopedSpan span(&spans_, "stream.pass1");
    for (const ShardEpochFiles& p : pairs) {
      StreamTraceSet traces;
      StreamReportsSet reports;
      const bool ok = traces.AppendFile(p.trace_path).ok() &&
                      reports.AppendFile(p.reports_path).ok();
      checks_.Expect(ok, "pass-1 index of " + p.trace_path);
    }
    pass1_s = span.Elapsed();
  }
  samples_.Add("stream.pass1_s", pass1_s);

  // stream + common: the streamed nproc-thread audit again, with the counting Env and
  // the budget / read-ahead hooks installed. Its slowdown is the tracing overhead.
  {
    CountingEnv env(nullptr);
    AuditOptions options = audit_options_;
    options.io_env = &env;
    ChunkBudget budget(kBudgetBytes);
    PrefetchStats total;
    double seconds = 0;
    std::vector<std::string> fingerprints;
    {
      ScopedSpan span(&spans_, "audit_streamed_traced");
      AuditSession session = AuditSession::Open(&w_.app, options, w_.initial);
      for (size_t e = 0; e < pairs.size(); e++) {
        ScopedSpan epoch_span(&spans_, "epoch", e + 1);
        PrefetchStats ps;
        StreamAuditHooks hooks;
        hooks.budget = &budget;
        hooks.prefetch_stats = &ps;
        Result<AuditResult> r = session.FeedEpochFilesStreamed(
            pairs[e].trace_path, pairs[e].reports_path, &hooks);
        const bool accepted = r.ok() && r.value().accepted;
        checks_.Expect(accepted, "traced streamed audit epoch " + std::to_string(e + 1));
        fingerprints.push_back(
            accepted ? InitialStateFingerprint(r.value().final_state) : std::string());
        total.hits += ps.hits;
        total.misses += ps.misses;
        total.revoked += ps.revoked;
      }
      seconds = span.Elapsed();
    }
    checks_.Expect(fingerprints == live_fingerprints_,
                   "traced streamed audit final states differ from the live chain's");
    samples_.Add("trace.audit_rps_traced", n / seconds);
    samples_.Add("trace.overhead", seconds / streamed_seconds - 1);
    samples_.Add("stream.peak_resident_bytes", static_cast<double>(budget.peak_bytes()));
    samples_.Add("stream.largest_admission_bytes",
                 static_cast<double>(budget.largest_acquire_bytes()));
    samples_.Add("stream.prefetch_hit_rate",
                 Ratio(static_cast<double>(total.hits),
                       static_cast<double>(total.hits + total.misses)));
    samples_.Add("stream.prefetch_revoked", static_cast<double>(total.revoked));
    samples_.Add("stream.streamed_over_inmem", streamed_seconds / inmem_seconds);
    samples_.Add("io.reads", static_cast<double>(env.reads()));
    samples_.Add("io.read_bytes", static_cast<double>(env.read_bytes()));
    samples_.Add("io.read_s", env.read_seconds());
    samples_.Add("io.read_amplification", Ratio(static_cast<double>(env.read_bytes()),
                                                static_cast<double>(spool_bytes_)));
  }

  // objects + core + lang + sql: the in-memory nproc-thread audit composed of the calls
  // AuditSession::FeedEpoch makes, each timed, with a TimingGate around every chunk; and
  // the Figure 9 baseline, simple per-request re-execution of the same decoded epoch.
  double decode_trace_s = 0, decode_reports_s = 0;
  double prepare_s = 0, plan_s = 0, pass2_s = 0, compare_s = 0, audit_s = 0;
  double sequential_s = 0;
  std::vector<double> chunk_s;
  AuditStats stats;
  size_t chunks = 0;
  InitialState state = w_.initial;
  ScopedSpan core_span(&spans_, "audit_composed");
  for (size_t e = 0; e < pairs.size(); e++) {
    const uint64_t epoch = e + 1;
    double start = NowSeconds();
    Result<Trace> trace = ReadTraceFile(pairs[e].trace_path);
    decode_trace_s += NowSeconds() - start;
    start = NowSeconds();
    Result<Reports> reports = ReadReportsFile(pairs[e].reports_path);
    decode_reports_s += NowSeconds() - start;
    if (!trace.ok() || !reports.ok()) {
      checks_.Expect(false, "decode of epoch " + std::to_string(epoch));
      return;
    }
    InitialState next;
    {
      ScopedSpan epoch_span(&spans_, "epoch", epoch);
      AuditContext ctx(&trace.value(), &reports.value(), &w_.app, &state, audit_options_);
      bool ok = false;
      {
        ScopedSpan s(&spans_, "core.prepare", epoch);
        ok = ctx.Prepare().ok();
        prepare_s += s.Elapsed();
      }
      AuditPlan plan;
      if (ok) {
        ScopedSpan s(&spans_, "core.plan", epoch);
        plan = PlanAuditTasks(&ctx, reports.value(), &w_.app, audit_options_);
        plan_s += s.Elapsed();
        chunks += plan.tasks.size();
      }
      if (ok) {
        ScopedSpan s(&spans_, "core.pass2", epoch);
        TimingGate gate(&spans_, s.id(), epoch);
        AuditExecOutcome exec = ExecuteAuditPlan(&ctx, &w_.app, audit_options_, plan, &gate);
        pass2_s += s.Elapsed();
        ok = exec.fail_order == kNoAuditFailure;
        std::vector<double> c = gate.chunk_seconds();
        chunk_s.insert(chunk_s.end(), c.begin(), c.end());
      }
      if (ok) {
        ScopedSpan s(&spans_, "core.compare", epoch);
        ok = ctx.CompareOutputs().ok();
        compare_s += s.Elapsed();
      }
      audit_s += epoch_span.Elapsed();
      checks_.Expect(ok, "composed in-memory audit epoch " + std::to_string(epoch));
      if (ok) {
        next = ctx.ExtractFinalState();
        stats.MergeFrom(ctx.stats());
      }
    }
    checks_.Expect(InitialStateFingerprint(next) == live_fingerprints_[e],
                   "composed audit final state of epoch " + std::to_string(epoch));
    {
      ScopedSpan s(&spans_, "core.reexec", epoch);
      AuditOptions one_thread = audit_options_;
      one_thread.num_threads = 1;
      AuditResult r = Auditor(&w_.app, one_thread)
                          .AuditSequential(trace.value(), reports.value(), state);
      sequential_s += s.Elapsed();
      checks_.Expect(r.accepted && InitialStateFingerprint(r.final_state) ==
                                       live_fingerprints_[e],
                     "re-execution baseline epoch " + std::to_string(epoch));
    }
    state = std::move(next);
  }
  const double decode_s = decode_trace_s + decode_reports_s;
  samples_.Add("objects.decode_trace_s", decode_trace_s);
  samples_.Add("objects.decode_reports_s", decode_reports_s);
  samples_.Add("objects.decode_mbps", static_cast<double>(spool_bytes_) / 1e6 / decode_s);
  samples_.Add("core.prepare_s", prepare_s);
  samples_.Add("core.plan_s", plan_s);
  samples_.Add("core.pass2_s", pass2_s);
  samples_.Add("core.compare_s", compare_s);
  samples_.Add("core.serial_s", audit_s - pass2_s);
  double busy = 0;
  for (double c : chunk_s) {
    busy += c;
  }
  samples_.Add("core.chunks", static_cast<double>(chunks));
  samples_.Add("core.chunk_p50_ms", Median(chunk_s) * 1e3);
  samples_.Add("core.chunk_max_ms",
               chunk_s.empty() ? 0 : *std::max_element(chunk_s.begin(), chunk_s.end()) * 1e3);
  samples_.Add("core.pass2_busy_s", busy);
  samples_.Add("core.pass2_parallel_eff", Ratio(busy, nproc_ * pass2_s));
  samples_.Add("core.groups_multi", static_cast<double>(stats.groups_multi));
  // A simple re-executing verifier also decodes the spill pair, so the baseline includes
  // the decode, like the streamed 1-thread audit it is compared with.
  samples_.Add("core.reexec_baseline_s", decode_s + sequential_s);
  samples_.Add("core.speedup_vs_reexec", (decode_s + sequential_s) / streamed_1t_seconds);
  samples_.Add("lang.instructions", static_cast<double>(stats.total_instructions));
  samples_.Add("lang.multivalent_share",
               Ratio(static_cast<double>(stats.multivalent_instructions),
                     static_cast<double>(stats.total_instructions)));
  samples_.Add("sql.selects_issued", static_cast<double>(stats.db_selects_issued));
  samples_.Add("sql.dedup_hit_rate",
               Ratio(static_cast<double>(stats.db_selects_deduped),
                     static_cast<double>(stats.db_selects_issued + stats.db_selects_deduped)));
}

// --- Output ---

struct MetricDef {
  const char* name;
  const char* unit;
  const char* base;  // What the metric is measured against, for ratios and rates.
};

// The end-to-end metrics (--trace 0) and per-layer metrics (--trace 1), in
// BENCHMARK.json order.
const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"audit_rps", "1/s", "requests / streamed nproc-thread audit wall"},
      {"audit_rps_1t", "1/s", "requests / streamed 1-thread audit wall"},
      {"inmem_audit_rps", "1/s", "requests / in-memory nproc-thread audit wall"},
      {"audit_peak_rss_mb", "MiB", "VmHWM reset before the streamed nproc-thread audit"},
      {"serve_rps", "1/s", "requests / ThreadServer submit-to-drain wall"},
      {"report_bytes_per_req", "B", "sealed reports spool bytes / requests"},
      {"ingest_mbps", "MB/s", "sealed spool bytes (1e6) / StreamEpoch wall"},
      {"seal_to_verdict_s", "s", "seal ack -> WaitEpochVerdict, mean over a round's epochs"},
      {"live_rps", "1/s", "requests / first submit -> last verdict"},
      {"setup_s", "s",
       "workload generation + app build + service start, median of 5 + 2 per round"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"core.prepare_s", "s", "AuditContext::Prepare, summed over epochs"},
      {"core.plan_s", "s", "PlanAuditTasks"},
      {"core.pass2_s", "s", "ExecuteAuditPlan wall"},
      {"core.compare_s", "s", "AuditContext::CompareOutputs"},
      {"core.serial_s", "s", "composed in-memory audit wall - core.pass2_s"},
      {"core.chunks", "count", "plan tasks"},
      {"core.groups_multi", "count", "groups with more than one request"},
      {"core.chunk_p50_ms", "ms", "median chunk wall (TimingGate Acquire->Release)"},
      {"core.chunk_max_ms", "ms", "slowest chunk wall"},
      {"core.pass2_busy_s", "s", "sum of chunk walls"},
      {"core.pass2_parallel_eff", "ratio", "core.pass2_busy_s / (nproc * core.pass2_s)"},
      {"core.reexec_baseline_s", "s", "decode + Auditor::AuditSequential, 1 thread"},
      {"core.speedup_vs_reexec", "ratio",
       "core.reexec_baseline_s / streamed 1-thread audit wall"},
      {"lang.instructions", "count", "AuditStats::total_instructions"},
      {"lang.multivalent_share", "ratio", "multivalent / total instructions"},
      {"sql.selects_issued", "count", "SELECTs run against versioned storage"},
      {"sql.dedup_hit_rate", "ratio", "deduped / (issued + deduped) SELECTs"},
      {"objects.decode_trace_s", "s", "ReadTraceFile"},
      {"objects.decode_reports_s", "s", "ReadReportsFile"},
      {"objects.decode_mbps", "MB/s", "spool bytes (1e6) / decode seconds"},
      {"stream.pass1_s", "s", "StreamTraceSet + StreamReportsSet ::AppendFile"},
      {"stream.peak_resident_bytes", "B", "ChunkBudget::peak_bytes, 256 KiB budget"},
      {"stream.largest_admission_bytes", "B", "ChunkBudget::largest_acquire_bytes"},
      {"stream.prefetch_hit_rate", "ratio", "prefetch hits / (hits + misses)"},
      {"stream.prefetch_revoked", "count", "prefetched chunks revoked"},
      {"stream.streamed_over_inmem", "ratio",
       "streamed nproc-thread wall / in-memory nproc-thread wall"},
      {"io.reads", "count", "reads through the counting Env (streamed audit)"},
      {"io.read_bytes", "B", "bytes read through the counting Env"},
      {"io.read_s", "s", "time inside those reads, summed over threads"},
      {"io.read_amplification", "ratio", "io.read_bytes / sealed spool bytes"},
      {"server.serve_s", "s", "ThreadServer submit-to-drain wall, summed over epochs"},
      {"server.cpu_s", "s", "ServerCore::TotalCpuSeconds, recording on"},
      {"server.flush_s", "s", "Collector::Flush + WriteReportsFile"},
      {"server.record_overhead", "ratio", "server CPU recording on / recording off - 1"},
      {"net.stream_s", "s", "CollectorClient::StreamEpoch wall, summed"},
      {"net.bytes_sent", "B", "ClientStats::bytes_sent"},
      {"net.acks", "count", "ClientStats::acks_received"},
      {"service.verdict_overhead_s", "s",
       "seal_to_verdict_s - direct FeedShardedEpoch, means over a round's epochs"},
      {"trace.audit_rps_traced", "1/s", "audit_rps with the counting Env and hooks"},
      {"trace.overhead", "ratio", "traced / untraced streamed audit wall - 1"},
  };
  return defs;
}

// One set-up: workload generation, app build and audit-service start. Returns its
// seconds, or a negative value after logging an error.
double TimeSetUp(const Args& args, unsigned nproc, Result<BenchWorkload>* bench) {
  const double start = NowSeconds();
  *bench = MakeBenchWorkload(args.workload, args.seed);
  if (!bench->ok()) {
    std::fprintf(stderr, "%s\n", bench->error().c_str());
    return -1;
  }
  ServiceOptions service_options;
  service_options.spool_dir = args.work_dir;
  AuditService service(&bench->value().workload.app, BenchAuditOptions(nproc),
                       bench->value().workload.initial, service_options);
  Status started = service.Start();
  const double seconds = NowSeconds() - start;
  service.Stop();
  if (!started.ok()) {
    std::fprintf(stderr, "service start: %s\n", started.error().c_str());
    return -1;
  }
  return seconds;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: verifier_bench --workload NAME --seed N --seconds T --trace 0|1 "
                 "--work-dir DIR [--spans FILE]\n");
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "meta: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %u, "
      "\"cpu_model\": \"%s\", \"build_type\": \"%s\", \"crc32c_backend\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, nproc, CpuModel().c_str(), PERFBENCH_BUILD_TYPE,
      Crc32cBackendName());
  if (Status st = ResetDir(args.work_dir); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.error().c_str());
    return 1;
  }

  // Set-up, timed a few times before the rounds (the last repetition's workload is the one
  // measured) and again at the start of every round, so that the median set-up spans the
  // same host conditions as the rounds' metrics rather than one burst of host load.
  std::vector<double> setup_s;
  Result<BenchWorkload> bench = Result<BenchWorkload>::Error("not generated");
  for (int i = 0; i < kSetupRepeats; i++) {
    setup_s.push_back(TimeSetUp(args, nproc, &bench));
    if (setup_s.back() < 0) {
      return 1;
    }
  }

  const size_t bench_epochs = bench.value().epoch_ends.size();
  Runner runner(args, std::move(bench).value(), nproc);
  for (double v : setup_s) {
    runner.samples().Add("setup_s", v);
  }
  const double measure_start = NowSeconds();
  std::vector<double> steal_share;
  int rounds = 0;
  while (true) {
    const std::string dir = args.work_dir + "/round";
    runner.samples().round = rounds;
    const double round_start = NowSeconds();
    const double steal_before = StealSeconds();
    for (int i = 0; i < kSetupsPerRound; i++) {
      const double seconds = TimeSetUp(args, nproc, &bench);
      if (seconds < 0) {
        return 1;
      }
      runner.samples().Add("setup_s", seconds);
    }
    if (!runner.Round(rounds, dir)) {
      return 1;
    }
    steal_share.push_back((StealSeconds() - steal_before) /
                          ((NowSeconds() - round_start) * nproc));
    rounds++;
    if (runner.checks().failed > 0) {
      break;  // A failed check makes the run incorrect; more rounds add nothing.
    }
    const double elapsed = NowSeconds() - measure_start;
    if (rounds >= kMinRounds && elapsed * (rounds + 1) / rounds > args.seconds) {
      break;
    }
  }
  RemoveTree(args.work_dir);
  runner.samples().SelectCalmRounds(steal_share);
  std::vector<double> sorted_share = steal_share;
  std::sort(sorted_share.begin(), sorted_share.end());
  std::printf("rounds: %d in %.1f s (%zu calm), %zu requests, %zu epochs, host steal "
              "%.1f%%-%.1f%% of vCPU time per round\n",
              rounds, NowSeconds() - measure_start, runner.samples().calm.size(),
              runner.requests(), bench_epochs, 100 * sorted_share.front(),
              100 * sorted_share.back());

  const Checks& checks = runner.checks();
  const std::vector<MetricDef>& defs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("%-30s %12s %4s %12s %12s  %-5s %s\n", "metric", "median", "n", "min", "max",
              "unit", "base");
  for (const MetricDef& d : defs) {
    std::vector<double> v = runner.samples().Kept(d.name);
    std::sort(v.begin(), v.end());
    std::printf("%-30s %12.6g %4zu %12.6g %12.6g  %-5s %s\n", d.name,
                runner.samples().Get(d.name), v.size(), v.empty() ? 0 : v.front(),
                v.empty() ? 0 : v.back(), d.unit, d.base);
  }
  std::printf("audit_fail_ratio: %llu / %llu\n",
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  if (args.trace) {
    const double untraced = runner.samples().Get("audit_rps");
    const double traced = runner.samples().Get("trace.audit_rps_traced");
    std::printf("tracing overhead: audit_rps %.6g untraced vs %.6g traced (%+.2f%%)\n",
                untraced, traced, 100 * (traced / untraced - 1));
    if (!args.spans_path.empty()) {
      if (Status st = runner.spans().WriteJson(args.spans_path); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.error().c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", runner.spans().size(),
                  args.spans_path.c_str());
    }
  }

  const bool correct = checks.failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted) +
                     ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); i++) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, runner.samples().Get(defs[i].name),
                  defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace orochi

int main(int argc, char** argv) { return orochi::perfbench::Main(argc, argv); }
