// Live audit service end to end: the paper's periodic-audit deployment with the offline
// spill-file handoff replaced by networked streaming ingestion (src/service/).
//
//   front end 1 ─ CollectorClient ──┐ framed records, acked, bounded in flight
//   front end 2 ─ CollectorClient ──┼──► orochi-auditd: spool ► seal ► FeedShardedEpoch
//   front end 3 ─ CollectorClient ──┘        (continuous, epoch after epoch)
//
// The demo proves the service's two load-bearing claims on real sockets:
//   1. epoch 1: three concurrent shard clients stream; one of them is killed mid-epoch
//      (a scripted one-shot disconnect) and reconnects, resuming from the acked counts.
//      The sealed spool files must be BYTE-identical to the spill files the collectors
//      would have written locally.
//   2. epoch 2: all three clients run through a seeded probabilistic fault schedule
//      (reads and writes randomly disconnect, plus another scripted kill) and the epoch
//      must still seal and accept — network faults are retryable I/O, never tamper.
// Finally the service's verdicts + end states are checked bit-identical to a direct
// AuditSession::FeedShardedEpoch over the equivalent files, at two thread counts.
//
// Build & run:  cmake -B build && cmake --build build && ./build/live_shard_audit
// OROCHI_BENCH_SCALE scales the request count (CI smoke-runs with a small scale).
// OROCHI_FAULT_SEED reseeds epoch 2's network fault schedule.
// OROCHI_STATS_ADDRESS additionally stands up the observability endpoint; the demo then
// scrapes /metrics, /epochs, and /shards itself and fails unless the audit's footprint
// (ingest counters, pass-2 phase time, accepted epochs, sealed shards) is visible.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "examples/example_util.h"
#include "src/core/audit_session.h"
#include "src/net/fault_transport.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/service/audit_service.h"
#include "src/service/collector_client.h"
#include "src/workload/workloads.h"

using namespace orochi;
using demo::Fail;
using demo::Scale;

namespace {

constexpr uint32_t kShards = 3;

// One front end: a persistent executor + shard-stamped collector that live across
// epochs, so epoch 2's traffic continues from epoch 1's server state — exactly the
// chained-state contract the continuous audit verifies.
struct FrontEnd {
  std::unique_ptr<ServerCore> core;
  std::unique_ptr<Collector> collector;
  Reports reports;  // The epoch's executor reports, held between serve and stream.
};

// One HTTP/1.0 GET against the stats endpoint; returns the response body on a 200.
Result<std::string> HttpGet(const std::string& address, const std::string& path) {
  Result<std::unique_ptr<Connection>> conn = Transport::Default()->Connect(address);
  if (!conn.ok()) {
    return Result<std::string>::Error(conn.error());
  }
  if (Status st = conn.value()->WriteAll("GET " + path + " HTTP/1.0\r\n\r\n"); !st.ok()) {
    return Result<std::string>::Error(st.error());
  }
  std::string response;
  char buf[4096];
  while (true) {
    Result<size_t> n = conn.value()->ReadSome(buf, sizeof(buf));
    if (!n.ok()) {
      return Result<std::string>::Error(n.error());
    }
    if (n.value() == 0) {
      break;
    }
    response.append(buf, n.value());
  }
  const size_t body = response.find("\r\n\r\n");
  if (response.find(" 200 OK") == std::string::npos || body == std::string::npos) {
    return Result<std::string>::Error("GET " + path + " did not return 200: " +
                                      response.substr(0, response.find('\r')));
  }
  return response.substr(body + 4);
}

// Value of one `name value` series in a Prometheus text exposition; 0 when absent.
uint64_t SeriesValue(const std::string& text, const std::string& name) {
  const size_t pos = text.find("\n" + name + " ");
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(text.c_str() + pos + name.size() + 2, nullptr, 10);
}

Result<std::string> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Result<std::string>::Error("cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

// Serves epoch `epoch`'s slice on every front end and writes the reference spill pair
// each collector WOULD have flushed locally (the byte-parity + direct-audit baseline).
bool ServeAndSpillEpoch(std::vector<FrontEnd>* fes, uint64_t epoch, size_t per_shard,
                        const std::string& dir, std::vector<ShardEpochFiles>* direct) {
  for (uint32_t shard = 1; shard <= kShards; shard++) {
    FrontEnd& fe = (*fes)[shard - 1];
    demo::ServeCounterShardSlice(fe.core.get(), fe.collector.get(), shard, epoch,
                                 per_shard);
    fe.reports = fe.core->TakeReports();
    const std::string stem =
        dir + "/direct_e" + std::to_string(epoch) + "_s" + std::to_string(shard);
    ShardEpochFiles files{stem + ".trace", stem + ".reports"};
    if (Status st = WriteTraceFile(files.trace_path, fe.collector->trace(), shard);
        !st.ok()) {
      return Fail(st.error());
    }
    if (Status st = WriteReportsFile(files.reports_path, fe.reports); !st.ok()) {
      return Fail(st.error());
    }
    direct->push_back(std::move(files));
  }
  return true;
}

// Streams one epoch from every front end concurrently — the deployment's steady state.
// `transports[s-1]` lets individual shards dial through a fault-injecting path.
bool StreamEpoch(const std::string& address, std::vector<FrontEnd>* fes, uint64_t epoch,
                 const std::vector<Transport*>& transports, ClientStats* stats_out) {
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kShards, Status::Ok());
  std::vector<ClientStats> stats(kShards);
  for (uint32_t shard = 1; shard <= kShards; shard++) {
    threads.emplace_back([&, shard]() {
      CollectorClient client(address, transports[shard - 1], /*max_reconnects=*/32);
      statuses[shard - 1] =
          client.StreamEpoch(epoch, (*fes)[shard - 1].collector.get(),
                             (*fes)[shard - 1].reports);
      stats[shard - 1] = client.stats();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (uint32_t shard = 1; shard <= kShards; shard++) {
    if (!statuses[shard - 1].ok()) {
      return Fail("shard " + std::to_string(shard) + " epoch " + std::to_string(epoch) +
                  ": " + statuses[shard - 1].error());
    }
    stats_out->records_sent += stats[shard - 1].records_sent;
    stats_out->bytes_sent += stats[shard - 1].bytes_sent;
    stats_out->reconnects += stats[shard - 1].reconnects;
    stats_out->records_resumed += stats[shard - 1].records_resumed;
  }
  return true;
}

bool RunDemo() {
  const std::string dir = demo::ScratchDir("live_shard_audit");
  const std::string spool = demo::ScratchDir("live_shard_audit/spool");
  if (dir.empty() || spool.empty()) {
    return Fail("cannot create a scratch directory");
  }

  Result<Workload> workload = demo::MakeCounterWorkload();
  if (!workload.ok()) {
    return Fail(workload.error());
  }
  const Workload& w = workload.value();
  const size_t per_shard = static_cast<size_t>(400 * Scale()) + 8;

  // --- Verifier side: one long-running service, auditing epochs as they seal. ---
  AuditOptions audit_options;
  audit_options.max_group_size = 16;
  ServiceOptions base;
  base.shards_per_epoch = kShards;
  base.spool_dir = spool;
  Result<ServiceOptions> resolved = ResolveServiceOptions(base);
  if (!resolved.ok()) {
    return Fail(resolved.error());
  }
  AuditService service(&w.app, audit_options, w.initial, resolved.value());
  if (Status st = service.Start(); !st.ok()) {
    return Fail(st.error());
  }
  std::printf("audit service listening on %s (spool: %s)\n", service.address().c_str(),
              spool.c_str());

  std::vector<FrontEnd> fes;
  for (uint32_t shard = 1; shard <= kShards; shard++) {
    FrontEnd fe;
    fe.core = std::make_unique<ServerCore>(&w.app, w.initial,
                                           ServerOptions{.record_reports = true});
    fe.collector = std::make_unique<Collector>(shard);
    fes.push_back(std::move(fe));
  }

  // --- Epoch 1: three concurrent clients; shard 2's process is killed mid-epoch. ---
  std::vector<ShardEpochFiles> direct_e1;
  if (!ServeAndSpillEpoch(&fes, /*epoch=*/1, per_shard, dir, &direct_e1)) {
    return false;
  }
  NetFaultOptions kill;
  kill.disconnect_after_writes = 20;  // Hello + ~19 records land, then the wire dies.
  FaultInjectingTransport kill_transport(nullptr, kill);
  ClientStats e1_stats;
  if (!StreamEpoch(service.address(), &fes, 1,
                   {nullptr, &kill_transport, nullptr}, &e1_stats)) {
    return false;
  }
  if (kill_transport.disconnects() < 1) {
    return Fail("the scripted kill never fired");
  }
  if (e1_stats.reconnects < 1 || e1_stats.records_resumed == 0) {
    return Fail("shard 2 should have reconnected and resumed from the acked counts");
  }
  Result<AuditResult> v1 = service.WaitEpochVerdict(1);
  if (!v1.ok()) {
    return Fail("epoch 1 verdict: " + v1.error());
  }
  if (!v1.value().accepted) {
    return Fail("epoch 1 should accept: " + v1.value().reason);
  }
  std::printf("epoch 1: ACCEPT after a mid-epoch kill (%llu reconnects, %llu records "
              "resumed instead of re-sent)\n",
              static_cast<unsigned long long>(e1_stats.reconnects),
              static_cast<unsigned long long>(e1_stats.records_resumed));

  // The service's sealed spools must be byte-identical to the local spill files.
  for (uint32_t shard = 1; shard <= kShards; shard++) {
    const std::string stem = spool + "/epoch_1_shard_" + std::to_string(shard);
    Result<std::string> spool_trace = Slurp(stem + ".trace");
    Result<std::string> spool_reports = Slurp(stem + ".reports");
    Result<std::string> direct_trace = Slurp(direct_e1[shard - 1].trace_path);
    Result<std::string> direct_reports = Slurp(direct_e1[shard - 1].reports_path);
    if (!spool_trace.ok() || !spool_reports.ok() || !direct_trace.ok() ||
        !direct_reports.ok()) {
      return Fail("reading spool/direct files for shard " + std::to_string(shard));
    }
    if (spool_trace.value() != direct_trace.value() ||
        spool_reports.value() != direct_reports.value()) {
      return Fail("shard " + std::to_string(shard) +
                  " spool diverges from the local spill bytes");
    }
  }
  std::printf("spool parity: all %u sealed spool pairs byte-identical to local spills\n",
              kShards);

  // --- Epoch 2: every client dials through a seeded probabilistic fault schedule. ---
  std::vector<ShardEpochFiles> direct_e2;
  if (!ServeAndSpillEpoch(&fes, /*epoch=*/2, per_shard, dir, &direct_e2)) {
    return false;
  }
  NetFaultOptions fo;
  fo.seed = 0x5eedull;
  if (const char* seed = std::getenv("OROCHI_FAULT_SEED"); seed != nullptr && *seed != '\0') {
    // Strict parse (decimal or 0x-hex), same contract as DemoFaultEnv: a malformed seed
    // must not silently dial a different fault schedule.
    Result<uint64_t> parsed = ParseSeed(seed);
    if (!parsed.ok()) {
      std::fprintf(stderr, "config: OROCHI_FAULT_SEED='%s' is not a valid seed (%s)\n",
                   seed, parsed.error().c_str());
      std::exit(2);
    }
    fo.seed = parsed.value();
  }
  fo.p_disconnect_read = 0.01;
  fo.p_disconnect_write = 0.01;
  fo.disconnect_after_writes = 40;  // At least one fault fires even at tiny scales.
  FaultInjectingTransport faulty(nullptr, fo);
  ClientStats e2_stats;
  if (!StreamEpoch(service.address(), &fes, 2, {&faulty, &faulty, &faulty}, &e2_stats)) {
    return false;
  }
  Result<AuditResult> v2 = service.WaitEpochVerdict(2);
  if (!v2.ok()) {
    return Fail("epoch 2 verdict: " + v2.error());
  }
  if (!v2.value().accepted) {
    return Fail("epoch 2 should accept despite network faults: " + v2.value().reason);
  }
  if (faulty.faults_injected() < 1) {
    return Fail("the epoch 2 fault schedule never fired");
  }
  std::printf("epoch 2: ACCEPT under %llu injected network faults (%llu reconnects) — "
              "disconnects are retried, never tamper evidence\n",
              static_cast<unsigned long long>(faulty.faults_injected()),
              static_cast<unsigned long long>(e2_stats.reconnects));

  // --- Observability: with OROCHI_STATS_ADDRESS set, scrape the live endpoints and
  // demand the run's footprint is visible in them (the CI smoke runs this way). ---
  if (!service.stats_address().empty()) {
    Result<std::string> metrics = HttpGet(service.stats_address(), "/metrics");
    if (!metrics.ok()) {
      return Fail("scraping /metrics: " + metrics.error());
    }
    const uint64_t spooled =
        SeriesValue(metrics.value(), "orochi_service_records_spooled_total");
    const uint64_t pass2_micros =
        SeriesValue(metrics.value(), "orochi_phase_pass2_execute_micros_total");
    const uint64_t reattaches =
        SeriesValue(metrics.value(), "orochi_service_shard_reattaches_total");
    if (spooled == 0 || pass2_micros == 0) {
      return Fail("/metrics shows no ingest or audit activity (records_spooled=" +
                  std::to_string(spooled) + ", pass2_micros=" +
                  std::to_string(pass2_micros) + ")");
    }
    if (reattaches == 0) {
      return Fail("/metrics never counted the scripted kill's reattach");
    }
    // One service in this process, and every shard is sealed: its cells are the series.
    if (spooled != service.stats().records_spooled) {
      return Fail("/metrics records_spooled " + std::to_string(spooled) +
                  " != stats() " + std::to_string(service.stats().records_spooled));
    }
    Result<std::string> epochs = HttpGet(service.stats_address(), "/epochs");
    if (!epochs.ok()) {
      return Fail("scraping /epochs: " + epochs.error());
    }
    if (epochs.value().find("\"state\": \"accepted\"") == std::string::npos) {
      return Fail("/epochs lists no accepted epoch: " + epochs.value());
    }
    Result<std::string> shards = HttpGet(service.stats_address(), "/shards");
    if (!shards.ok()) {
      return Fail("scraping /shards: " + shards.error());
    }
    if (shards.value().find("\"sealed\": true") == std::string::npos) {
      return Fail("/shards lists no sealed shard: " + shards.value());
    }
    std::printf("stats scrape (%s): %llu records spooled, %llu reattaches, pass-2 "
                "executed for %llu us; /epochs + /shards agree\n",
                service.stats_address().c_str(),
                static_cast<unsigned long long>(spooled),
                static_cast<unsigned long long>(reattaches),
                static_cast<unsigned long long>(pass2_micros));
  }

  ServiceStats stats = service.stats();
  service.Stop();
  std::printf("service: %llu records spooled (%llu deduped on resume), %llu/%llu epochs "
              "accepted, %llu shards sealed, %llu quarantined\n",
              static_cast<unsigned long long>(stats.records_spooled),
              static_cast<unsigned long long>(stats.records_deduped),
              static_cast<unsigned long long>(stats.epochs_accepted),
              static_cast<unsigned long long>(stats.epochs_audited),
              static_cast<unsigned long long>(stats.shards_sealed),
              static_cast<unsigned long long>(stats.shards_quarantined));

  // --- Cross-check: the live verdicts equal a direct sharded audit of the same bytes,
  // at two verifier thread counts. ---
  for (size_t threads : {size_t{1}, size_t{4}}) {
    AuditOptions options;
    options.max_group_size = 16;
    options.num_threads = threads;
    AuditSession session = AuditSession::Open(&w.app, options, w.initial);
    Result<AuditResult> d1 = session.FeedShardedEpoch(direct_e1);
    if (!d1.ok() || !d1.value().accepted) {
      return Fail("direct epoch 1 should accept: " +
                  (d1.ok() ? d1.value().reason : d1.error()));
    }
    Result<AuditResult> d2 = session.FeedShardedEpoch(direct_e2);
    if (!d2.ok() || !d2.value().accepted) {
      return Fail("direct epoch 2 should accept: " +
                  (d2.ok() ? d2.value().reason : d2.error()));
    }
    if (InitialStateFingerprint(d1.value().final_state) !=
            InitialStateFingerprint(v1.value().final_state) ||
        InitialStateFingerprint(d2.value().final_state) !=
            InitialStateFingerprint(v2.value().final_state)) {
      return Fail("live end state diverges from the direct audit at num_threads=" +
                  std::to_string(threads));
    }
    std::printf("cross-check (num_threads=%zu): live verdicts + end states == direct "
                "FeedShardedEpoch\n",
                threads);
  }
  return true;
}

}  // namespace

int main() {
  bool ok = RunDemo();
  std::printf("live_shard_audit: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
