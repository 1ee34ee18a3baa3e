// The socket layer under the audit service: frame codecs must round-trip and reject
// forged bytes without crashing, the reader must implement the failure taxonomy exactly
// (clean close / mid-frame close = transient I/O, CRC mismatch = "wire:" corruption,
// never silently accepted), the fault-injecting transport must be deterministic per
// seed, and every OROCHI_* service knob must hard-error on malformed values.
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/io_env.h"
#include "src/net/fault_transport.h"
#include "src/net/frame.h"
#include "src/net/transport.h"
#include "src/objects/wire_format.h"
#include "src/service/audit_service.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

// A connected (client, server) socket pair over the production transport.
struct Loopback {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
};

Loopback Connect(Transport* client_transport = nullptr) {
  Loopback pair;
  Result<std::unique_ptr<Listener>> listener =
      Transport::Default()->Listen("tcp:127.0.0.1:0");
  EXPECT_TRUE(listener.ok()) << (listener.ok() ? "" : listener.error());
  std::thread accepter([&]() {
    Result<std::unique_ptr<Connection>> conn = listener.value()->Accept();
    if (conn.ok()) {
      pair.server = std::move(conn).value();
    }
  });
  Result<std::unique_ptr<Connection>> conn =
      ResolveTransport(client_transport)->Connect(listener.value()->address());
  EXPECT_TRUE(conn.ok()) << (conn.ok() ? "" : conn.error());
  pair.client = std::move(conn).value();
  accepter.join();
  EXPECT_NE(pair.server, nullptr);
  return pair;
}

// --- Frame codecs ---

TEST(FrameCodec, RoundTripsEveryFrameType) {
  net::HelloFrame hello{wire::kFormatVersion, 7, 42};
  Result<net::HelloFrame> h = net::DecodeHello(net::EncodeHello(hello));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value().format_version, wire::kFormatVersion);
  EXPECT_EQ(h.value().shard_id, 7u);
  EXPECT_EQ(h.value().epoch, 42u);

  net::HelloAckFrame ack_in{11, 3, 1, 1 << 20, 64};
  Result<net::HelloAckFrame> a = net::DecodeHelloAck(net::EncodeHelloAck(ack_in));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().trace_received, 11u);
  EXPECT_EQ(a.value().reports_received, 3u);
  EXPECT_EQ(a.value().sealed, 1);
  EXPECT_EQ(a.value().max_in_flight_bytes, 1u << 20);
  EXPECT_EQ(a.value().ack_interval_records, 64u);

  net::RecordFrame rec{5, wire::kTraceRecRequest, std::string("payload\0bytes", 13)};
  Result<net::RecordFrame> r = net::DecodeRecord(net::EncodeRecord(rec));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().index, 5u);
  EXPECT_EQ(r.value().record_type, wire::kTraceRecRequest);
  EXPECT_EQ(r.value().payload, rec.payload);

  Result<net::EndEpochFrame> e =
      net::DecodeEndEpoch(net::EncodeEndEpoch(net::EndEpochFrame{100, 9}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().trace_records, 100u);
  EXPECT_EQ(e.value().reports_records, 9u);

  Result<net::AckFrame> k = net::DecodeAck(net::EncodeAck(net::AckFrame{8, 2}));
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k.value().trace_received, 8u);

  Result<net::EpochSealedFrame> s =
      net::DecodeEpochSealed(net::EncodeEpochSealed(net::EpochSealedFrame{3}));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().epoch, 3u);

  net::ErrorFrame err{net::ErrorCode::kCorruption, "crc mismatch"};
  Result<net::ErrorFrame> d = net::DecodeError(net::EncodeError(err));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().code, net::ErrorCode::kCorruption);
  EXPECT_EQ(d.value().message, "crc mismatch");
}

TEST(FrameCodec, RejectsForgedBytesWithoutCrashing) {
  EXPECT_FALSE(net::DecodeHello("").ok());
  EXPECT_FALSE(net::DecodeHello(std::string(200, 'x')).ok());
  // Right length, wrong magic.
  net::HelloFrame hello{wire::kFormatVersion, 1, 1};
  std::string bytes = net::EncodeHello(hello);
  bytes[0] ^= 0xFF;
  Result<net::HelloFrame> h = net::DecodeHello(bytes);
  ASSERT_FALSE(h.ok());
  EXPECT_NE(h.error().find("bad magic"), std::string::npos);

  EXPECT_FALSE(net::DecodeHelloAck("short").ok());
  EXPECT_FALSE(net::DecodeRecord("12345678").ok());  // 8 bytes: index but no type.
  EXPECT_FALSE(net::DecodeEndEpoch(std::string(17, 0)).ok());
  // Error code outside the taxonomy.
  std::string bad_err = net::EncodeError({net::ErrorCode::kProtocol, "m"});
  bad_err[0] = 9;
  EXPECT_FALSE(net::DecodeError(bad_err).ok());
}

// --- The reader's failure taxonomy on real sockets ---

TEST(FrameTaxonomy, ReaderRoundTripsAndSeesCleanClose) {
  Loopback pair = Connect();
  net::FrameWriter writer(pair.client.get());
  ASSERT_TRUE(writer.Send(net::kFrameHello, net::EncodeHello({wire::kFormatVersion, 2, 1})).ok());
  ASSERT_TRUE(writer.Send(net::kFrameEndEpoch, net::EncodeEndEpoch({4, 4})).ok());
  pair.client.reset();  // Clean close at a frame boundary.

  net::FrameReader reader(pair.server.get());
  uint8_t type = 0;
  std::string payload;
  Result<bool> first = reader.Next(&type, &payload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value());
  EXPECT_EQ(type, net::kFrameHello);
  ASSERT_TRUE(net::DecodeHello(payload).ok());
  Result<bool> second = reader.Next(&type, &payload);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value());
  EXPECT_EQ(type, net::kFrameEndEpoch);
  Result<bool> eof = reader.Next(&type, &payload);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value());
}

TEST(FrameTaxonomy, CrcMismatchIsWireCorruptionNotTransient) {
  Loopback pair = Connect();
  std::string frame;
  wire::AppendRecordFrame(&frame, net::kFrameTraceRecord,
                          net::EncodeRecord({0, wire::kTraceRecRequest, "abcdef"}));
  frame.back() ^= 0x01;  // One payload byte flips in flight; the CRC no longer matches.
  ASSERT_TRUE(pair.client->WriteAll(frame).ok());

  net::FrameReader reader(pair.server.get());
  uint8_t type = 0;
  std::string payload;
  Result<bool> got = reader.Next(&type, &payload);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().rfind("wire:", 0), 0u) << got.error();
  EXPECT_FALSE(IsTransientIoError(got.error())) << got.error();
  EXPECT_NE(got.error().find("crc mismatch"), std::string::npos) << got.error();
}

TEST(FrameTaxonomy, MidFrameCloseIsTransientIo) {
  Loopback pair = Connect();
  std::string frame;
  wire::AppendRecordFrame(&frame, net::kFrameTraceRecord,
                          net::EncodeRecord({0, wire::kTraceRecRequest, "abcdef"}));
  // A strict prefix lands, then the peer dies.
  ASSERT_TRUE(pair.client->WriteAll(frame.data(), frame.size() / 2).ok());
  pair.client.reset();

  net::FrameReader reader(pair.server.get());
  uint8_t type = 0;
  std::string payload;
  Result<bool> got = reader.Next(&type, &payload);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(IsTransientIoError(got.error())) << got.error();
  EXPECT_NE(got.error().find("closed mid-frame"), std::string::npos) << got.error();
}

TEST(FrameTaxonomy, OversizedLengthIsRejectedBeforeAllocation) {
  Loopback pair = Connect();
  // A 13-byte frame whose forged length field would demand a 1 TiB allocation.
  std::string header;
  header.push_back(static_cast<char>(net::kFrameTraceRecord));
  uint64_t forged = 1ull << 40;
  for (int i = 0; i < 8; i++) {
    header.push_back(static_cast<char>((forged >> (8 * i)) & 0xFF));
  }
  header.append(4, '\0');  // CRC never gets checked.
  ASSERT_TRUE(pair.client->WriteAll(header).ok());

  net::FrameReader reader(pair.server.get());
  uint8_t type = 0;
  std::string payload;
  Result<bool> got = reader.Next(&type, &payload);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().rfind("wire:", 0), 0u) << got.error();
  EXPECT_NE(got.error().find("oversized"), std::string::npos) << got.error();
}

// --- The deterministic fault transport ---

TEST(FaultTransport, ScheduleIsDeterministicPerSeed) {
  NetFaultOptions options;
  options.seed = TestBaseSeed(0xD15C0);
  FaultInjectingTransport a(nullptr, options);
  FaultInjectingTransport b(nullptr, options);
  options.seed++;
  FaultInjectingTransport c(nullptr, options);
  bool any_difference = false;
  for (int i = 0; i < 256; i++) {
    double da = a.Draw();
    EXPECT_EQ(da, b.Draw());
    EXPECT_GE(da, 0.0);
    EXPECT_LT(da, 1.0);
    any_difference |= (da != c.Draw());
  }
  EXPECT_TRUE(any_difference) << "neighboring seeds produced identical schedules";
}

TEST(FaultTransport, ScriptedKillFiresOnceAndIsSticky) {
  NetFaultOptions options;
  options.disconnect_after_writes = 3;
  FaultInjectingTransport faulty(nullptr, options);
  Loopback pair = Connect(&faulty);

  const std::string chunk = "0123456789";
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(pair.client->WriteAll(chunk).ok()) << "write " << i;
  }
  Status killed = pair.client->WriteAll(chunk);
  ASSERT_FALSE(killed.ok());
  EXPECT_TRUE(IsTransientIoError(killed.error())) << killed.error();
  EXPECT_EQ(faulty.disconnects(), 1u);
  // The connection is dead for good; the schedule does not resurrect it.
  Status after = pair.client->WriteAll(chunk);
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(IsTransientIoError(after.error()));
  EXPECT_EQ(faulty.disconnects(), 1u) << "one scripted kill must count once";
  // The un-faulted peer observes a real disconnect, not a hang: read drains the three
  // delivered chunks, then sees close.
  char buf[64];
  size_t total = 0;
  for (;;) {
    Result<size_t> got = pair.server->ReadSome(buf, sizeof(buf));
    if (!got.ok() || got.value() == 0) {
      break;
    }
    total += got.value();
  }
  EXPECT_EQ(total, 30u);
}

TEST(FaultTransport, InjectedDisconnectsAreRetryableIo) {
  NetFaultOptions options;
  options.seed = TestBaseSeed(0xD15C0) + 17;
  options.p_disconnect_write = 1.0;
  FaultInjectingTransport faulty(nullptr, options);
  Loopback pair = Connect(&faulty);
  Status st = pair.client->WriteAll("x", 1);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsTransientIoError(st.error()))
      << "an injected disconnect must classify as retryable I/O: " << st.error();
  EXPECT_GE(faulty.faults_injected(), 1u);
}

// --- OROCHI_* knobs: malformed values are hard config errors ---

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    had_old_ = old != nullptr;
    old_ = had_old_ ? old : "";
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_;
  std::string old_;
};

TEST(ServiceConfig, MalformedKnobsAreHardConfigErrors) {
  const char* knobs[] = {"OROCHI_MAX_INFLIGHT_BYTES", "OROCHI_ACK_INTERVAL",
                         "OROCHI_SHARDS_PER_EPOCH"};
  for (const char* knob : knobs) {
    for (const char* bad : {"banana", "-3", "12moo", ""}) {
      ScopedEnv guard(knob, bad);
      Result<ServiceOptions> resolved = ResolveServiceOptions(ServiceOptions{});
      ASSERT_FALSE(resolved.ok()) << knob << "='" << bad << "' must not be accepted";
      EXPECT_EQ(resolved.error().rfind("config:", 0), 0u) << resolved.error();
      EXPECT_NE(resolved.error().find(knob), std::string::npos) << resolved.error();
    }
  }
}

TEST(ServiceConfig, ZeroesThatWouldWedgeTheProtocolAreRejected) {
  {
    ScopedEnv guard("OROCHI_ACK_INTERVAL", "0");
    Result<ServiceOptions> resolved = ResolveServiceOptions(ServiceOptions{});
    ASSERT_FALSE(resolved.ok());
    EXPECT_EQ(resolved.error().rfind("config:", 0), 0u) << resolved.error();
  }
  {
    ScopedEnv guard("OROCHI_SHARDS_PER_EPOCH", "0");
    Result<ServiceOptions> resolved = ResolveServiceOptions(ServiceOptions{});
    ASSERT_FALSE(resolved.ok());
    EXPECT_EQ(resolved.error().rfind("config:", 0), 0u) << resolved.error();
  }
  {
    ScopedEnv guard("OROCHI_LISTEN_ADDRESS", "");
    Result<ServiceOptions> resolved = ResolveServiceOptions(ServiceOptions{});
    ASSERT_FALSE(resolved.ok());
    EXPECT_EQ(resolved.error().rfind("config:", 0), 0u) << resolved.error();
  }
}

TEST(ServiceConfig, ValidKnobsOverrideAndDefaultsSurvive) {
  {
    ScopedEnv a("OROCHI_MAX_INFLIGHT_BYTES", "65536");
    ScopedEnv b("OROCHI_ACK_INTERVAL", "17");
    ScopedEnv c("OROCHI_SHARDS_PER_EPOCH", "5");
    ScopedEnv d("OROCHI_LISTEN_ADDRESS", "unix:/tmp/orochi_test.sock");
    Result<ServiceOptions> resolved = ResolveServiceOptions(ServiceOptions{});
    ASSERT_TRUE(resolved.ok()) << (resolved.ok() ? "" : resolved.error());
    EXPECT_EQ(resolved.value().max_in_flight_bytes, 65536u);
    EXPECT_EQ(resolved.value().ack_interval_records, 17u);
    EXPECT_EQ(resolved.value().shards_per_epoch, 5u);
    EXPECT_EQ(resolved.value().listen_address, "unix:/tmp/orochi_test.sock");
  }
  ServiceOptions base;
  base.max_in_flight_bytes = 123;
  Result<ServiceOptions> resolved = ResolveServiceOptions(base);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().max_in_flight_bytes, 123u)
      << "explicit fields must survive when the env is unset";
  EXPECT_EQ(resolved.value().listen_address, "tcp:127.0.0.1:0");
}

// --- The transport itself ---

TEST(Transport, UnixDomainRoundTrip) {
  const std::string path = TestTempDir() + "/orochi_transport_test.sock";
  Result<std::unique_ptr<Listener>> listener =
      Transport::Default()->Listen("unix:" + path);
  ASSERT_TRUE(listener.ok()) << (listener.ok() ? "" : listener.error());
  std::unique_ptr<Connection> server;
  std::thread accepter([&]() {
    Result<std::unique_ptr<Connection>> conn = listener.value()->Accept();
    if (conn.ok()) {
      server = std::move(conn).value();
    }
  });
  Result<std::unique_ptr<Connection>> client =
      Transport::Default()->Connect("unix:" + path);
  ASSERT_TRUE(client.ok()) << (client.ok() ? "" : client.error());
  accepter.join();
  ASSERT_NE(server, nullptr);

  ASSERT_TRUE(client.value()->WriteAll("ping").ok());
  char buf[8];
  Result<size_t> got = server->ReadSome(buf, sizeof(buf));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(buf, got.value()), "ping");
}

TEST(Transport, MalformedAddressesArePermanentErrors) {
  for (const char* bad : {"", "tcp:", "tcp:127.0.0.1", "carrier-pigeon:coop", "tcp:host:notaport"}) {
    Result<std::unique_ptr<Listener>> listener = Transport::Default()->Listen(bad);
    ASSERT_FALSE(listener.ok()) << bad;
    EXPECT_FALSE(IsTransientIoError(listener.error())) << listener.error();
  }
  Result<std::unique_ptr<Connection>> conn = Transport::Default()->Connect("tcp:127.0.0.1:1");
  // Nothing listens on port 1: connecting must fail with a retryable error, not crash.
  ASSERT_FALSE(conn.ok());
}

}  // namespace
}  // namespace orochi
