#include "src/service/collector_client.h"

#include <deque>

#include "src/common/io_env.h"
#include "src/objects/wire_format.h"

namespace orochi {

namespace {

// An Error frame from the service, mapped onto the audit taxonomy: retryable service
// states and corruption (the frame was dropped, a resume re-sends it) are transient;
// protocol errors are permanent — retrying the same bytes cannot succeed.
Status ServiceError(const net::ErrorFrame& e) {
  switch (e.code) {
    case net::ErrorCode::kRetryable:
    case net::ErrorCode::kCorruption:
      return Status::Error(IsTransientIoError(e.message) ? e.message
                                                         : MakeTransientIoError(e.message));
    case net::ErrorCode::kProtocol:
      break;
  }
  return Status::Error(e.message);
}

}  // namespace

ClientStats CollectorClient::stats() const {
  ClientStats s;
  s.records_sent = records_sent_.Value();
  s.bytes_sent = bytes_sent_.Value();
  s.reconnects = reconnects_.Value();
  s.records_resumed = records_resumed_.Value();
  s.acks_received = acks_received_.Value();
  s.backpressure_stalls = backpressure_stalls_.Value();
  return s;
}

Status CollectorClient::RunAttempt(
    uint64_t epoch, uint32_t shard_id,
    const std::vector<std::pair<uint8_t, std::string>>& trace_records,
    const std::vector<std::pair<uint8_t, std::string>>& reports_records, bool* sealed) {
  Result<std::unique_ptr<Connection>> dial = transport_->Connect(address_);
  if (!dial.ok()) {
    return Status::Error(dial.error());
  }
  std::unique_ptr<Connection> conn = std::move(dial.value());
  net::FrameReader reader(conn.get());
  net::FrameWriter writer(conn.get());

  net::HelloFrame hello;
  hello.format_version = wire::kFormatVersion;
  hello.shard_id = shard_id;
  hello.epoch = epoch;
  if (Status st = writer.Send(net::kFrameHello, net::EncodeHello(hello)); !st.ok()) {
    return st;
  }
  uint8_t type = 0;
  std::string payload;
  Result<bool> next = reader.Next(&type, &payload);
  if (!next.ok()) {
    return Status::Error(next.error());
  }
  if (!next.value()) {
    return Status::Error(
        MakeTransientIoError("net: service closed before answering the hello"));
  }
  if (type == net::kFrameError) {
    Result<net::ErrorFrame> e = net::DecodeError(payload);
    return e.ok() ? ServiceError(e.value()) : Status::Error(e.error());
  }
  if (type != net::kFrameHelloAck) {
    return Status::Error("net: expected a hello-ack, got frame type " +
                         std::to_string(type));
  }
  Result<net::HelloAckFrame> hello_ack = net::DecodeHelloAck(payload);
  if (!hello_ack.ok()) {
    return Status::Error(hello_ack.error());
  }
  const net::HelloAckFrame& resume = hello_ack.value();
  if (resume.sealed != 0) {
    // A previous attempt's EndEpoch landed; the epoch is already sealed server-side.
    *sealed = true;
    return Status::Ok();
  }
  if (resume.trace_received > trace_records.size() ||
      resume.reports_received > reports_records.size()) {
    return Status::Error("net: service claims more records than this epoch has (" +
                         std::to_string(resume.trace_received) + "/" +
                         std::to_string(resume.reports_received) + ")");
  }
  records_resumed_.Inc(resume.trace_received + resume.reports_received);

  // Flow control: sizes of wire frames not yet covered by an Ack, oldest first. The
  // client stalls on acks once the unacked bytes exceed the service's advertised bound.
  const uint64_t bound = resume.max_in_flight_bytes;
  std::deque<uint64_t> unacked_sizes;
  uint64_t unacked_bytes = 0;
  uint64_t acked_records = resume.trace_received + resume.reports_received;

  // Consumes one service frame while sending. *done set on EpochSealed.
  auto pump_one = [&](bool* done) -> Status {
    uint8_t t = 0;
    std::string p;
    Result<bool> got = reader.Next(&t, &p);
    if (!got.ok()) {
      return Status::Error(got.error());
    }
    if (!got.value()) {
      return Status::Error(
          MakeTransientIoError("net: service closed before sealing the epoch"));
    }
    switch (t) {
      case net::kFrameAck: {
        Result<net::AckFrame> a = net::DecodeAck(p);
        if (!a.ok()) {
          return Status::Error(a.error());
        }
        acks_received_.Inc();
        uint64_t total = a.value().trace_received + a.value().reports_received;
        while (acked_records < total && !unacked_sizes.empty()) {
          unacked_bytes -= unacked_sizes.front();
          unacked_sizes.pop_front();
          acked_records++;
        }
        acked_records = total;
        return Status::Ok();
      }
      case net::kFrameEpochSealed: {
        Result<net::EpochSealedFrame> s = net::DecodeEpochSealed(p);
        if (!s.ok()) {
          return Status::Error(s.error());
        }
        if (s.value().epoch != epoch) {
          return Status::Error("net: service sealed epoch " +
                               std::to_string(s.value().epoch) + ", expected " +
                               std::to_string(epoch));
        }
        *done = true;
        return Status::Ok();
      }
      case net::kFrameError: {
        Result<net::ErrorFrame> e = net::DecodeError(p);
        return e.ok() ? ServiceError(e.value()) : Status::Error(e.error());
      }
      default:
        return Status::Error("net: unexpected frame type " + std::to_string(t) +
                             " from the service");
    }
  };

  auto send_section = [&](uint8_t frame_type,
                          const std::vector<std::pair<uint8_t, std::string>>& records,
                          uint64_t from) -> Status {
    for (uint64_t i = from; i < records.size(); i++) {
      if (bound > 0 && unacked_bytes > bound) {
        backpressure_stalls_.Inc();
      }
      while (bound > 0 && unacked_bytes > bound) {
        bool done = false;
        if (Status st = pump_one(&done); !st.ok()) {
          return st;
        }
        if (done) {
          return Status::Error("net: service sealed the epoch before end-epoch");
        }
      }
      net::RecordFrame rf;
      rf.index = i;
      rf.record_type = records[i].first;
      rf.payload = records[i].second;
      std::string encoded = net::EncodeRecord(rf);
      if (Status st = writer.Send(frame_type, encoded); !st.ok()) {
        return st;
      }
      uint64_t frame_bytes = wire::kRecordFrameBytesV2 + encoded.size();
      records_sent_.Inc();
      bytes_sent_.Inc(frame_bytes);
      unacked_sizes.push_back(frame_bytes);
      unacked_bytes += frame_bytes;
    }
    return Status::Ok();
  };

  if (Status st = send_section(net::kFrameTraceRecord, trace_records,
                               resume.trace_received);
      !st.ok()) {
    return st;
  }
  if (Status st = send_section(net::kFrameReportsRecord, reports_records,
                               resume.reports_received);
      !st.ok()) {
    return st;
  }
  net::EndEpochFrame end;
  end.trace_records = trace_records.size();
  end.reports_records = reports_records.size();
  if (Status st = writer.Send(net::kFrameEndEpoch, net::EncodeEndEpoch(end)); !st.ok()) {
    return st;
  }
  while (!*sealed) {
    if (Status st = pump_one(sealed); !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

Status CollectorClient::StreamEpoch(uint64_t epoch, Collector* collector,
                                    const Reports& reports) {
  if (collector->shard_id() == 0) {
    return Status::Error("net: a streaming collector needs a nonzero shard id");
  }
  Trace trace = collector->TakeTrace();
  std::vector<std::pair<uint8_t, std::string>> trace_records;
  trace_records.reserve(trace.events.size());
  for (const TraceEvent& event : trace.events) {
    uint8_t type = 0;
    std::string payload;
    EncodeTraceEventRecord(event, &type, &payload);
    trace_records.emplace_back(type, std::move(payload));
  }
  std::vector<std::pair<uint8_t, std::string>> reports_records;
  ForEachReportsRecord(reports, [&](uint8_t type, const std::string& payload) {
    reports_records.emplace_back(type, payload);
  });

  Status last = Status::Ok();
  bool sealed = false;
  for (int attempt = 0; attempt <= max_reconnects_; attempt++) {
    if (attempt > 0) {
      reconnects_.Inc();
    }
    last = RunAttempt(epoch, collector->shard_id(), trace_records, reports_records,
                      &sealed);
    if (last.ok() && sealed) {
      return Status::Ok();
    }
    if (!last.ok() && !IsTransientIoError(last.error())) {
      break;  // Protocol-level: re-dialing the same bytes cannot succeed.
    }
  }
  // Out of attempts (or refused): give the epoch's traffic back to the collector so
  // nothing recorded is lost — a later StreamEpoch or Flush carries it.
  collector->Restore(std::move(trace));
  return last.ok() ? Status::Error(MakeTransientIoError(
                         "net: ran out of reconnect attempts before the epoch sealed"))
                   : last;
}

}  // namespace orochi
