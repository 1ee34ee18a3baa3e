#include "src/stream/checkpoint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/hash.h"
#include "src/objects/stores.h"
#include "src/objects/wire_format.h"
#include "src/objects/wire_primitives.h"
#include "src/stream/reports_index.h"
#include "src/stream/trace_index.h"

namespace orochi {

namespace {

using wire_primitives::Cursor;
using wire_primitives::MakeCursor;
using wire_primitives::PutF64;
using wire_primitives::PutStr;
using wire_primitives::PutU32;
using wire_primitives::PutU64;

// Checkpoint-section record types. Retired types parse as unknown, and parsing stops at
// the first one, so an old journal keeps only the records before it and the rest of its
// work re-executes:
//   - type 2 was the chunk record of the layout that also carried five wall-time fields;
//   - type 3 was a per-object Prepare scan watermark, which skipped no work: the
//     in-memory store builds rerun on resume.
constexpr uint8_t kMetaRecord = 1;     // u64 fingerprint.
constexpr uint8_t kCompareRecord = 4;  // u64 watermark: responses fully compared (pass 3).
constexpr uint8_t kChunkRecord = 5;    // One completed task (order + stat counts + outputs).

void EncodeChunkRecord(size_t order, const AuditTaskRecord& rec, std::string* out) {
  out->clear();
  PutU64(out, order);
  const AuditStats& s = rec.stats;
  PutU64(out, s.total_instructions);
  PutU64(out, s.multivalent_instructions);
  PutU64(out, s.num_groups);
  PutU64(out, s.groups_multi);
  PutU64(out, s.fallback_groups);
  PutU64(out, s.ops_checked);
  PutU64(out, s.db_selects_issued);
  PutU64(out, s.db_selects_deduped);
  PutU64(out, s.checkpoint_chunks_reused);
  PutU64(out, s.group_stats.size());
  for (const AuditStats::GroupStat& g : s.group_stats) {
    PutStr(out, g.script);
    PutU32(out, g.n);
    PutU64(out, g.length);
    PutF64(out, g.alpha);
  }
  PutU64(out, rec.outputs.size());
  for (const auto& [rid, body] : rec.outputs) {
    PutU64(out, rid);
    PutStr(out, body);
  }
}

bool DecodeChunkRecord(const std::string& payload, size_t* order, AuditTaskRecord* rec) {
  Cursor cur = MakeCursor(payload);
  uint64_t order64;
  if (!cur.TakeU64(&order64)) {
    return false;
  }
  *order = static_cast<size_t>(order64);
  AuditStats& s = rec->stats;
  if (!cur.TakeU64(&s.total_instructions) || !cur.TakeU64(&s.multivalent_instructions) ||
      !cur.TakeU64(&s.num_groups) || !cur.TakeU64(&s.groups_multi) ||
      !cur.TakeU64(&s.fallback_groups) || !cur.TakeU64(&s.ops_checked) ||
      !cur.TakeU64(&s.db_selects_issued) || !cur.TakeU64(&s.db_selects_deduped) ||
      !cur.TakeU64(&s.checkpoint_chunks_reused)) {
    return false;
  }
  uint64_t num_groups;
  if (!cur.TakeU64(&num_groups) || !cur.CountFits(num_groups, 4 + 4 + 8 + 8)) {
    return false;
  }
  s.group_stats.resize(static_cast<size_t>(num_groups));
  for (AuditStats::GroupStat& g : s.group_stats) {
    if (!cur.TakeStr(&g.script) || !cur.TakeU32(&g.n) || !cur.TakeU64(&g.length) ||
        !cur.TakeF64(&g.alpha)) {
      return false;
    }
  }
  uint64_t num_outputs;
  if (!cur.TakeU64(&num_outputs) || !cur.CountFits(num_outputs, 8 + 4)) {
    return false;
  }
  rec->outputs.resize(static_cast<size_t>(num_outputs));
  for (auto& [rid, body] : rec->outputs) {
    uint64_t rid64;
    if (!cur.TakeU64(&rid64) || !cur.TakeStr(&body)) {
      return false;
    }
    rid = static_cast<RequestId>(rid64);
  }
  return cur.AtEnd();
}

// Best-effort full read of `path` into `out`. Any failure (absent file, read error)
// clears `out` — a checkpoint that cannot be read contributes nothing to the resume.
void ReadWholeFileBestEffort(Env* env, const std::string& path, std::string* out) {
  out->clear();
  Result<std::unique_ptr<ReadableFile>> file = env->OpenRead(path);
  if (!file.ok()) {
    return;
  }
  constexpr size_t kChunk = 1 << 18;
  std::vector<char> buf(kChunk);
  uint64_t offset = 0;
  for (;;) {
    Result<size_t> n = ReadUpToAt(file.value().get(), path, offset, kChunk, buf.data());
    if (!n.ok()) {
      out->clear();
      return;
    }
    if (n.value() == 0) {
      return;
    }
    out->append(buf.data(), n.value());
    offset += n.value();
  }
}

// Parses a prior journal's bytes: envelope + meta(fingerprint) + progress records,
// stopping silently at the first torn or corrupt byte. Returns false (nothing kept) when
// the envelope or fingerprint does not match — the file belongs to a different audit.
bool ParsePriorJournal(const std::string& data, uint64_t fingerprint,
                       std::unordered_map<size_t, AuditTaskRecord>* records,
                       uint64_t* compare_watermark) {
  if (data.size() < wire::kEnvelopeHeaderBytes ||
      data.compare(0, sizeof(wire::kMagic), wire::kMagic, sizeof(wire::kMagic)) != 0) {
    return false;
  }
  uint32_t version = 0;
  for (int i = 0; i < 4; i++) {
    version |= static_cast<uint32_t>(static_cast<unsigned char>(data[8 + i])) << (8 * i);
  }
  if (version < 2 || version > wire::kFormatVersion ||
      static_cast<unsigned char>(data[12]) !=
          static_cast<unsigned char>(wire::Section::kCheckpoint)) {
    return false;
  }
  size_t pos = wire::kEnvelopeHeaderBytes;
  bool saw_meta = false;
  std::string payload;
  while (pos < data.size()) {
    uint8_t type;
    uint64_t len;
    uint32_t crc;
    if (!wire::ParseRecordFrameV2(data.data() + pos, data.size() - pos, &type, &len, &crc) ||
        len > data.size() - pos - wire::kRecordFrameBytesV2) {
      break;  // Torn tail: keep everything decoded so far.
    }
    payload.assign(data, pos + wire::kRecordFrameBytesV2, static_cast<size_t>(len));
    if (Crc32c(payload) != crc) {
      break;
    }
    pos += wire::kRecordFrameBytesV2 + static_cast<size_t>(len);
    if (!saw_meta) {
      Cursor cur = MakeCursor(payload);
      uint64_t fp;
      if (type != kMetaRecord || !cur.TakeU64(&fp) || !cur.AtEnd() || fp != fingerprint) {
        return false;  // Another audit's checkpoint: discard wholesale.
      }
      saw_meta = true;
      continue;
    }
    if (type == kChunkRecord) {
      size_t order;
      AuditTaskRecord rec;
      if (!DecodeChunkRecord(payload, &order, &rec)) {
        break;
      }
      records->emplace(order, std::move(rec));
    } else if (type == kCompareRecord) {
      Cursor cur = MakeCursor(payload);
      uint64_t watermark;
      if (!cur.TakeU64(&watermark) || !cur.AtEnd()) {
        break;
      }
      *compare_watermark = std::max(*compare_watermark, watermark);
    } else {
      break;  // Unknown record kind: treat like a torn tail.
    }
  }
  return saw_meta;
}

}  // namespace

uint64_t StreamEpochFingerprint(const InitialState& initial, const StreamTraceSet& traces,
                                const StreamReportsSet& reports,
                                const AuditOptions& options) {
  uint64_t h = FnvHash(InitialStateFingerprint(initial));
  h = HashCombine(h, options.max_group_size);
  h = HashCombine(h, options.enable_query_dedup ? 1 : 0);
  // Trace side: event structure plus each payload's pass-1 CRC and length, so two epochs
  // with identical skeletons but different request params or response bodies cannot
  // collide (the skeleton sheds those bytes; the CRC still binds them).
  h = HashCombine(h, traces.num_events());
  const Trace& trace = traces.skeleton();
  for (size_t i = 0; i < traces.num_events(); i++) {
    const TraceEvent& e = trace.events[i];
    h = HashCombine(h, static_cast<uint64_t>(e.kind));
    h = HashCombine(h, e.rid);
    h = HashCombine(h, FnvHash(e.script));
    h = HashCombine(h, traces.loc(i).crc);
    h = HashCombine(h, traces.loc(i).bytes);
  }
  // Reports side: the full skeleton plus each op-log entry frame's pass-1 CRC (binding
  // the shed contents bytes exactly as the trace CRCs bind payloads).
  const Reports& skel = reports.skeleton();
  h = HashCombine(h, skel.objects.size());
  for (const ObjectDesc& d : skel.objects) {
    h = HashCombine(h, static_cast<uint64_t>(d.kind));
    h = HashCombine(h, FnvHash(d.name));
  }
  for (size_t obj = 0; obj < skel.op_logs.size(); obj++) {
    const std::vector<OpRecord>& log = skel.op_logs[obj];
    h = HashCombine(h, log.size());
    for (size_t j = 0; j < log.size(); j++) {
      const OpRecord& op = log[j];
      h = HashCombine(h, op.rid);
      h = HashCombine(h, op.opnum);
      h = HashCombine(h, static_cast<uint64_t>(op.type));
      h = HashCombine(h, reports.loc(obj, j + 1).crc);
    }
  }
  h = HashCombine(h, skel.groups.size());
  for (const auto& [tag, rids] : skel.groups) {
    h = HashCombine(h, tag);
    h = HashCombine(h, rids.size());
    for (RequestId rid : rids) {
      h = HashCombine(h, rid);
    }
  }
  std::vector<std::pair<RequestId, uint32_t>> counts(skel.op_counts.begin(),
                                                     skel.op_counts.end());
  std::sort(counts.begin(), counts.end());
  h = HashCombine(h, counts.size());
  for (const auto& [rid, count] : counts) {
    h = HashCombine(h, rid);
    h = HashCombine(h, count);
  }
  std::vector<RequestId> nondet_rids;
  nondet_rids.reserve(skel.nondet.size());
  for (const auto& [rid, recs] : skel.nondet) {
    (void)recs;
    nondet_rids.push_back(rid);
  }
  std::sort(nondet_rids.begin(), nondet_rids.end());
  h = HashCombine(h, nondet_rids.size());
  for (RequestId rid : nondet_rids) {
    const std::vector<NondetRecord>& recs = skel.nondet.at(rid);
    h = HashCombine(h, rid);
    h = HashCombine(h, recs.size());
    for (const NondetRecord& r : recs) {
      h = HashCombine(h, FnvHash(r.name));
      h = HashCombine(h, FnvHash(r.value));
    }
  }
  return h;
}

Result<std::unique_ptr<CheckpointJournal>> CheckpointJournal::Open(Env* env,
                                                                   const std::string& path,
                                                                   uint64_t fingerprint) {
  using R = Result<std::unique_ptr<CheckpointJournal>>;
  env = ResolveEnv(env);
  std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal(env, path));

  std::string prior;
  ReadWholeFileBestEffort(env, path, &prior);
  if (!prior.empty() &&
      !ParsePriorJournal(prior, fingerprint, &journal->records_, &journal->compare_loaded_)) {
    journal->records_.clear();
    journal->compare_loaded_ = 0;
  }
  journal->loaded_ = journal->records_.size();
  journal->compare_appended_ = journal->compare_loaded_;

  // Rewrite the journal fresh: envelope + meta + every surviving record. This truncates
  // any torn tail in place, so appends always extend a well-formed prefix.
  Result<std::unique_ptr<WritableFile>> out = env->OpenWrite(path);
  if (!out.ok()) {
    return R::Error("checkpoint: cannot open " + path + ": " + out.error());
  }
  journal->out_ = std::move(out).value();
  std::string buf = wire::EnvelopeHeader(wire::Section::kCheckpoint);
  std::string payload;
  PutU64(&payload, fingerprint);
  wire::AppendRecordFrame(&buf, kMetaRecord, payload);
  for (const auto& [order, rec] : journal->records_) {
    EncodeChunkRecord(order, rec, &payload);
    wire::AppendRecordFrame(&buf, kChunkRecord, payload);
  }
  if (journal->compare_loaded_ > 0) {
    payload.clear();
    PutU64(&payload, journal->compare_loaded_);
    wire::AppendRecordFrame(&buf, kCompareRecord, payload);
  }
  if (Status st = journal->out_->Append(buf); !st.ok()) {
    return R::Error("checkpoint: cannot write " + path + ": " + st.error());
  }
  if (Status st = journal->out_->Sync(); !st.ok()) {
    return R::Error("checkpoint: cannot sync " + path + ": " + st.error());
  }
  return R(std::move(journal));
}

const AuditTaskRecord* CheckpointJournal::Lookup(size_t order) {
  auto it = records_.find(order);
  return it == records_.end() ? nullptr : &it->second;
}

void CheckpointJournal::AppendFrame(uint8_t type, const std::string& payload) {
  std::string framed;
  wire::AppendRecordFrame(&framed, type, payload);
  if (write_failed_ || out_ == nullptr) {
    return;
  }
  // Append + fsync so retired work survives a kill. A failure only stops the journal
  // from growing — the audit's verdict never depends on journal writes.
  if (!out_->Append(framed).ok() || !out_->Sync().ok()) {
    write_failed_ = true;
  }
}

void CheckpointJournal::Record(const AuditTask& task, const AuditTaskRecord& record) {
  std::string payload;
  EncodeChunkRecord(task.order, record, &payload);
  std::lock_guard<std::mutex> lock(mu_);
  AppendFrame(kChunkRecord, payload);
}

void CheckpointJournal::RecordCompareWatermark(uint64_t responses_compared) {
  std::lock_guard<std::mutex> lock(mu_);
  if (responses_compared <= compare_appended_) {
    return;  // The watermark on disk already covers this prefix.
  }
  std::string payload;
  PutU64(&payload, responses_compared);
  AppendFrame(kCompareRecord, payload);
  if (!write_failed_) {
    compare_appended_ = responses_compared;
  }
}

Status CheckpointJournal::RemoveFile() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) {
    out_->Close();
    out_.reset();
  }
  return env_->Remove(path_);
}

}  // namespace orochi
