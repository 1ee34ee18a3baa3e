#include "perfbench/harness.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "src/core/audit_session.h"
#include "src/objects/wire_format.h"
#include "src/server/tamper.h"

namespace orochi {
namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads ---
//
// Sizes are fixed per workload (no scale knob) so every run of a workload does the same
// work; they are chosen so that one measured round (serve, ingest, four audits) takes
// 2-3 seconds on a 4-core machine and a run collects 20+ rounds.

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"forum", "live"};
  return names;
}

namespace {

// Cuts `n` requests into `epochs` contiguous, near-equal slices.
std::vector<size_t> EvenEpochs(size_t n, size_t epochs) {
  std::vector<size_t> ends;
  for (size_t e = 1; e <= epochs; e++) {
    ends.push_back(n * e / epochs);
  }
  return ends;
}

}  // namespace

Result<BenchWorkload> MakeBenchWorkload(const std::string& name, uint64_t seed) {
  BenchWorkload out;
  size_t epochs = 1;
  if (name == "forum") {
    ForumConfig config;
    config.num_topics = 8;
    config.num_users = 83;
    config.num_requests = 2500;
    config.seed = seed;
    out.workload = MakeForumWorkload(config);
  } else if (name == "live") {
    // Wiki traffic closed epoch by epoch on one server, each epoch streamed to the audit
    // service and verified before the next is served.
    WikiConfig config;
    config.num_pages = 200;
    config.num_users = 100;
    config.num_requests = 4000;
    config.seed = seed;
    out.workload = MakeWikiWorkload(config);
    epochs = 4;
  } else {
    return Result<BenchWorkload>::Error("unknown workload '" + name + "'");
  }
  out.epoch_ends = EvenEpochs(out.workload.items.size(), epochs);
  return out;
}

// --- Spans ---

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t key) {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start = NowSeconds();
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.key = key;
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (!enabled_ || id == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = NowSeconds();
  auto it = std::find(open_.begin(), open_.end(), id - 1);
  if (it != open_.end()) {
    open_.erase(it);
  }
}

void SpanRecorder::Add(const std::string& name, uint64_t parent, uint64_t key,
                       double start, double end) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.key = key;
  spans_.push_back(std::move(s));
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Error("cannot write " + path);
  }
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"time_unit\": \"us\", \"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", \"key\": %llu, "
                 "\"start\": %.1f, \"end\": %.1f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 static_cast<unsigned long long>(s.key), (s.start - origin) * 1e6,
                 (s.end - origin) * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::Ok() : Status::Error("cannot write " + path);
}

// --- Counting Env ---

namespace {

class CountingFile : public ReadableFile {
 public:
  CountingFile(std::unique_ptr<ReadableFile> inner, CountingEnv* env)
      : inner_(std::move(inner)), env_(env) {}
  Result<size_t> PReadSome(uint64_t offset, size_t n, char* buf) override {
    const double start = NowSeconds();
    Result<size_t> r = inner_->PReadSome(offset, n, buf);
    env_->CountRead(r.ok() ? r.value() : 0, NowSeconds() - start);
    return r;
  }
  ReadableFile* inner() { return inner_.get(); }

 private:
  std::unique_ptr<ReadableFile> inner_;
  CountingEnv* env_;
};

class CountingPendingRead : public PendingRead {
 public:
  CountingPendingRead(std::unique_ptr<PendingRead> inner, CountingEnv* env, uint64_t bytes,
                      double start_seconds)
      : inner_(std::move(inner)), env_(env), bytes_(bytes), seconds_(start_seconds) {}
  Status Wait() override {
    const double start = NowSeconds();
    Status st = inner_->Wait();
    env_->CountRead(st.ok() ? bytes_ : 0, seconds_ + NowSeconds() - start);
    return st;
  }

 private:
  std::unique_ptr<PendingRead> inner_;
  CountingEnv* env_;
  uint64_t bytes_;
  double seconds_;  // Time StartReadAt itself took.
};

}  // namespace

void CountingEnv::CountRead(uint64_t bytes, double seconds) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  read_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9), std::memory_order_relaxed);
}

Result<std::unique_ptr<ReadableFile>> CountingEnv::OpenRead(const std::string& path) {
  Result<std::unique_ptr<ReadableFile>> inner = base_->OpenRead(path);
  if (!inner.ok()) {
    return inner;
  }
  return std::unique_ptr<ReadableFile>(
      new CountingFile(std::move(inner).value(), this));
}

// The base env sees its own file handle, so an env whose StartReadAt overlaps reads
// keeps doing so; the read counts once, at Wait, with the time spent in both calls.
std::unique_ptr<PendingRead> CountingEnv::StartReadAt(ReadableFile* file,
                                                      const std::string& path,
                                                      uint64_t offset, size_t n,
                                                      char* buf) {
  const double start = NowSeconds();
  std::unique_ptr<PendingRead> inner = base_->StartReadAt(
      static_cast<CountingFile*>(file)->inner(), path, offset, n, buf);
  return std::make_unique<CountingPendingRead>(std::move(inner), this, n,
                                               NowSeconds() - start);
}

Result<std::unique_ptr<WritableFile>> CountingEnv::OpenWrite(const std::string& path) {
  return base_->OpenWrite(path);
}

Result<std::unique_ptr<WritableFile>> CountingEnv::OpenAppend(const std::string& path) {
  return base_->OpenAppend(path);
}

Status CountingEnv::Rename(const std::string& from, const std::string& to) {
  return base_->Rename(from, to);
}

Status CountingEnv::Remove(const std::string& path) { return base_->Remove(path); }

Result<bool> CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

// --- Timing gate ---

Status TimingGate::Acquire(const AuditTask& task) {
  std::lock_guard<std::mutex> lock(mu_);
  started_.emplace_back(task.order, NowSeconds());
  return Status::Ok();
}

void TimingGate::Release(const AuditTask& task) {
  const double end = NowSeconds();
  double start = end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(started_.begin(), started_.end(),
                           [&](const auto& s) { return s.first == task.order; });
    if (it != started_.end()) {
      start = it->second;
      started_.erase(it);
    }
    done_.push_back(end - start);
  }
  rec_->Add("chunk", parent_, key_, start, end);
}

std::vector<double> TimingGate::chunk_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

// --- Tamper gate ---

TamperOutcome RunTamperGate(const Application* app, const InitialState& initial,
                            const AuditOptions& options, const std::string& trace_path,
                            const std::string& reports_path, const std::string& dir,
                            uint64_t seed) {
  TamperOutcome out;
  Result<Trace> trace = ReadTraceFile(trace_path);
  if (!trace.ok()) {
    out.detail = trace.error();
    return out;
  }
  Result<Reports> reports = ReadReportsFile(reports_path);
  if (!reports.ok()) {
    out.detail = reports.error();
    return out;
  }
  std::vector<const TraceEvent*> responses;
  for (const TraceEvent& e : trace.value().events) {
    if (e.kind == TraceEvent::Kind::kResponse) {
      responses.push_back(&e);
    }
  }
  if (responses.empty()) {
    out.detail = "epoch has no responses to tamper with";
    return out;
  }
  // splitmix64 of the seed picks the victim, so each seed forges a different request.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const TraceEvent* victim = responses[z % responses.size()];
  const RequestId rid = victim->rid;
  const std::string forged = victim->body + "<!-- forged -->";
  Trace forged_trace = std::move(trace).value();
  out.tampered = TamperResponseBody(&forged_trace, rid, forged);
  if (!out.tampered) {
    out.detail = "TamperResponseBody found no response for rid " + std::to_string(rid);
    return out;
  }
  const std::string forged_trace_path = dir + "/tampered.trace";
  const std::string forged_reports_path = dir + "/tampered.reports";
  if (Status st = WriteTraceFile(forged_trace_path, forged_trace); !st.ok()) {
    out.detail = st.error();
    return out;
  }
  if (Status st = WriteReportsFile(forged_reports_path, reports.value()); !st.ok()) {
    out.detail = st.error();
    return out;
  }
  AuditSession session = AuditSession::Open(app, options, initial);
  Result<AuditResult> r = session.FeedEpochFilesStreamed(forged_trace_path,
                                                         forged_reports_path);
  if (!r.ok()) {
    out.detail = "audit error: " + r.error();
  } else if (r.value().accepted) {
    out.detail = "tampered response of rid " + std::to_string(rid) + " was ACCEPTED";
  } else {
    out.rejected = true;
    out.detail = r.value().reason;
  }
  RemoveTree(forged_trace_path);
  RemoveTree(forged_reports_path);
  return out;
}

// --- Small helpers ---

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

Status RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return ec ? Status::Error("cannot remove " + path + ": " + ec.message()) : Status::Ok();
}

Status ResetDir(const std::string& path) {
  if (Status st = RemoveTree(path); !st.ok()) {
    return st;
  }
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return ec ? Status::Error("cannot create " + path + ": " + ec.message()) : Status::Ok();
}

}  // namespace perfbench
}  // namespace orochi
