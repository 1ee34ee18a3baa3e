// The observability subsystem: sharded counters/gauges/histograms must stay exact under
// concurrent updates (run under TSan in CI), expositions must be deterministic and match
// the documented formats byte for byte, phase tracing must attribute spans to the right
// phase, and the StatsServer must answer well-formed GETs and survive malformed ones.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_server.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace orochi {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; i++) {
        c.Inc();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(CounterCellTest, CellsAreExactAndTheSeriesIsTheirSum) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  CounterCell a(&registry, "cells_total", "two cells, one series");
  {
    CounterCell b(&registry, "cells_total", "");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&a, &b] {
        for (int i = 0; i < kPerThread; i++) {
          a.Inc();
          b.Inc(2);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    const uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
    EXPECT_EQ(a.Value(), n);
    EXPECT_EQ(b.Value(), 2 * n);
    EXPECT_EQ(registry.GetCounter("cells_total", "")->Value(), 3 * n);
  }
  // The series outlives the cell that fed it.
  EXPECT_EQ(registry.GetCounter("cells_total", "")->Value(),
            3 * static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAddAndRatchet) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(5);
  EXPECT_EQ(g.Value(), 7);  // Ratchet never lowers.
  g.SetMax(42);
  EXPECT_EQ(g.Value(), 42);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; i++) {
        g.Add(2);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(g.Value(), int64_t{2} * kThreads * kPerThread);
}

TEST(HistogramTest, BucketsAreLeAndSumIsExact) {
  Histogram h({0.001, 0.01, 0.1});
  h.Observe(0.001);  // le="0.001" (bounds are inclusive upper bounds).
  h.Observe(0.005);
  h.Observe(0.05);
  h.Observe(5.0);  // +Inf.
  Histogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  // Sums accumulate in integer micro-units, so this is exact, not approximate.
  EXPECT_DOUBLE_EQ(snap.sum, 5.056);
}

TEST(HistogramTest, ConcurrentObservesAreExact) {
  Histogram h({1.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; i++) {
        h.Observe(0.5);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.buckets[0], static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 * kThreads * kPerThread);
}

TEST(RegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("a_total", "help");
  EXPECT_EQ(registry.GetCounter("a_total", "different help"), a);
  Gauge* g = registry.GetGauge("g", "help");
  EXPECT_EQ(registry.GetGauge("g", "help"), g);
  Histogram* h = registry.GetHistogram("h", "help", {1, 2});
  EXPECT_EQ(registry.GetHistogram("h", "help", {9, 9, 9}), h);  // Bounds fixed at birth.
}

TEST(RegistryTest, TypeMisuseReturnsDummyNotCrash) {
  MetricsRegistry registry;
  Counter* real = registry.GetCounter("series", "help");
  real->Inc();
  Gauge* dummy = registry.GetGauge("series", "help");  // Same name, wrong type.
  dummy->Set(99);                                      // Absorbed, never exposed.
  EXPECT_EQ(real->Value(), 1u);
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("series 1\n"), std::string::npos);
  EXPECT_EQ(text.find("99"), std::string::npos);
}

TEST(RegistryTest, TextExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("a_total", "a counter")->Inc(3);
  registry.GetGauge("g_bytes", "a gauge")->Set(-2);
  Histogram* h = registry.GetHistogram("h_seconds", "a histogram", {1, 2});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(5);
  const char* expected =
      "# HELP a_total a counter\n"
      "# TYPE a_total counter\n"
      "a_total 3\n"
      "# HELP g_bytes a gauge\n"
      "# TYPE g_bytes gauge\n"
      "g_bytes -2\n"
      "# HELP h_seconds a histogram\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"1\"} 1\n"
      "h_seconds_bucket{le=\"2\"} 2\n"
      "h_seconds_bucket{le=\"+Inf\"} 3\n"
      "h_seconds_sum 7\n"
      "h_seconds_count 3\n";
  EXPECT_EQ(registry.TextExposition(), expected);
  // Deterministic: a quiescent registry renders identically every time.
  EXPECT_EQ(registry.TextExposition(), expected);
}

TEST(RegistryTest, JsonExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("a_total", "a counter")->Inc(3);
  registry.GetGauge("g_bytes", "a gauge")->Set(-2);
  Histogram* h = registry.GetHistogram("h_seconds", "a histogram", {1, 2});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(5);
  EXPECT_EQ(registry.JsonExposition(),
            "{\"counters\": {\"a_total\": 3}, \"gauges\": {\"g_bytes\": -2}, "
            "\"histograms\": {\"h_seconds\": {\"bounds\": [1, 2], "
            "\"buckets\": [1, 1, 1], \"count\": 3, \"sum\": 7}}}");
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(PhaseTracerTest, RecordsAttributeToTheRightPhase) {
  PhaseTracer tracer;  // Private, unmirrored.
  tracer.Record(Phase::kPrepare, 0, 0.25);
  tracer.Record(Phase::kPass2Execute, 0, 0.5);
  tracer.Record(Phase::kPass2Execute, 0, 0.5);
  PhaseBreakdown totals = tracer.totals();
  EXPECT_NEAR(totals.seconds[static_cast<int>(Phase::kPrepare)], 0.25, 1e-9);
  EXPECT_EQ(totals.spans[static_cast<int>(Phase::kPrepare)], 1u);
  EXPECT_NEAR(totals.seconds[static_cast<int>(Phase::kPass2Execute)], 1.0, 1e-9);
  EXPECT_EQ(totals.spans[static_cast<int>(Phase::kPass2Execute)], 2u);
  EXPECT_NEAR(totals.total_seconds(), 1.25, 1e-9);

  // A nested phase's seconds already lie inside its parent's: the total counts them once.
  tracer.Record(Phase::kSqlQuery, 0, 0.25);
  EXPECT_TRUE(PhaseIsNested(Phase::kSqlQuery));
  EXPECT_FALSE(PhaseIsNested(Phase::kPass2Execute));
  EXPECT_NEAR(tracer.totals()[Phase::kSqlQuery], 0.25, 1e-9);
  EXPECT_NEAR(tracer.totals().total_seconds(), 1.25, 1e-9);

  // DiffSince isolates one epoch's contribution.
  PhaseBreakdown mark = tracer.totals();
  tracer.Record(Phase::kPass3Compare, 0, 0.125);
  PhaseBreakdown diff = tracer.totals().DiffSince(mark);
  EXPECT_NEAR(diff.seconds[static_cast<int>(Phase::kPass3Compare)], 0.125, 1e-9);
  EXPECT_EQ(diff.spans[static_cast<int>(Phase::kPass3Compare)], 1u);
  EXPECT_EQ(diff.spans[static_cast<int>(Phase::kPrepare)], 0u);
}

TEST(PhaseTracerTest, MirrorsIntoRegistryCounters) {
  MetricsRegistry registry;
  PhaseTracer tracer(&registry);
  tracer.Record(Phase::kShardMerge, 0, 0.002);
  EXPECT_EQ(registry.GetCounter("orochi_phase_shard_merge_spans_total", "")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("orochi_phase_shard_merge_micros_total", "")->Value(),
            2000u);
}

TEST(PhaseTracerTest, TraceSpanTimesItsScope) {
  PhaseTracer tracer;
  {
    TraceSpan span(&tracer, Phase::kPass1Skeleton);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  PhaseBreakdown totals = tracer.totals();
  EXPECT_EQ(totals.spans[static_cast<int>(Phase::kPass1Skeleton)], 1u);
  EXPECT_GT(totals.seconds[static_cast<int>(Phase::kPass1Skeleton)], 0.001);
}

TEST(PhaseTracerTest, ChromeTraceFlushWritesEvents) {
  const std::string path = TestTempDir() + "/orochi_obs_trace.json";
  PhaseTracer tracer;
  tracer.EnableChromeTrace(path);
  tracer.Record(Phase::kPrepare, 1.0, 0.5);
  tracer.Record(Phase::kPass3Compare, 2.0, 0.25);
  Status st = tracer.FlushChromeTrace();
  ASSERT_TRUE(st.ok()) << st.error();
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(std::fread(&contents[0], 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("\"name\": \"prepare\""), std::string::npos);
  EXPECT_NE(contents.find("\"name\": \"pass3_compare\""), std::string::npos);
  EXPECT_NE(contents.find("\"ts\": 1000000"), std::string::npos);
  EXPECT_NE(contents.find("\"dur\": 500000"), std::string::npos);
}

// --- StatsServer over a Unix socket ---

std::string HttpGet(const std::string& address, const std::string& request) {
  Result<std::unique_ptr<Connection>> conn = Transport::Default()->Connect(address);
  EXPECT_TRUE(conn.ok()) << (conn.ok() ? "" : conn.error());
  if (!conn.ok()) {
    return "";
  }
  EXPECT_TRUE(conn.value()->WriteAll(request).ok());
  std::string response;
  char buf[4096];
  while (true) {
    Result<size_t> n = conn.value()->ReadSome(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) {
      break;
    }
    response.append(buf, n.value());
  }
  return response;
}

TEST(StatsServerTest, RoundTripOverUnixSocket) {
  const std::string sock = TestTempDir() + "/orochi_obs_stats.sock";
  StatsServer server;
  server.Handle("/metrics", "text/plain", [] { return std::string("series 42\n"); });
  server.Handle("/epochs", "application/json", [] { return std::string("{\"epochs\": []}"); });
  Status st = server.Start("unix:" + sock);
  ASSERT_TRUE(st.ok()) << st.error();

  std::string response = HttpGet(server.address(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 10"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\nseries 42\n"), std::string::npos);

  // Query strings route to the same handler.
  response = HttpGet(server.address(), "GET /epochs?cachebust=1 HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("{\"epochs\": []}"), std::string::npos);

  server.Stop();
}

TEST(StatsServerTest, MalformedAndUnknownRequests) {
  const std::string sock = TestTempDir() + "/orochi_obs_stats2.sock";
  StatsServer server;
  server.Handle("/metrics", "text/plain", [] { return std::string("x\n"); });
  ASSERT_TRUE(server.Start("unix:" + sock).ok());

  EXPECT_NE(HttpGet(server.address(), "GET /nope HTTP/1.0\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.address(), "POST /metrics HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.address(), "complete garbage\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.address(), "\r\n\r\n").find("400"), std::string::npos);
  // A peer that connects and immediately hangs up must not wedge the server.
  {
    Result<std::unique_ptr<Connection>> conn =
        Transport::Default()->Connect(server.address());
    ASSERT_TRUE(conn.ok());
    conn.value()->Shutdown();
  }
  EXPECT_NE(HttpGet(server.address(), "GET /metrics HTTP/1.0\r\n\r\n").find("200"),
            std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, StartFailsOnBadAddress) {
  StatsServer server;
  EXPECT_FALSE(server.Start("not-an-address").ok());
}

}  // namespace
}  // namespace obs
}  // namespace orochi
