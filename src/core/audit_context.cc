#include "src/core/audit_context.h"

#include <algorithm>
#include <string_view>

#include "src/objects/db_adapter.h"
#include "src/sql/sql_parser.h"

namespace orochi {

const std::vector<NondetRecord> AuditContext::kNoNondet;

void AuditStats::MergeFrom(const AuditStats& o) {
  total_instructions += o.total_instructions;
  multivalent_instructions += o.multivalent_instructions;
  num_groups += o.num_groups;
  groups_multi += o.groups_multi;
  fallback_groups += o.fallback_groups;
  ops_checked += o.ops_checked;
  db_selects_issued += o.db_selects_issued;
  db_selects_deduped += o.db_selects_deduped;
  checkpoint_chunks_reused += o.checkpoint_chunks_reused;
  compare_records_resumed += o.compare_records_resumed;
  pass1_transient_peak_bytes = std::max(pass1_transient_peak_bytes,
                                        o.pass1_transient_peak_bytes);
  group_stats.insert(group_stats.end(), o.group_stats.begin(), o.group_stats.end());
}

AuditContext::AuditContext(const Trace* trace, const Reports* reports, const Application* app,
                           const InitialState* initial, AuditOptions options)
    : trace_(trace), reports_(reports), app_(app), initial_(initial),
      options_(std::move(options)), inline_ws_(&stats_) {}

Status AuditContext::Prepare() {
  {
    obs::TraceSpan span(options_.tracer, obs::Phase::kPrepare);
    if (Status st = CheckTraceBalanced(*trace_); !st.ok()) {
      return st;
    }
    for (const TraceEvent& e : trace_->events) {
      if (e.kind == TraceEvent::Kind::kRequest) {
        request_events_[e.rid] = &e;
      }
    }
    // Per-rid mutable slots are pre-built here so the re-execution phase never inserts
    // into these maps (concurrent access to distinct entries is then race-free).
    nondet_cursors_.reserve(request_events_.size());
    outputs_.reserve(request_events_.size());
    for (const auto& [rid, ev] : request_events_) {
      (void)ev;
      nondet_cursors_.emplace(rid, NondetCursor{});
      outputs_.emplace(rid, OutputSlot{});
    }
  }
  {
    obs::TraceSpan span(options_.tracer, obs::Phase::kProcOpReports);
    Result<ProcessedReports> processed = ProcessOpReports(*trace_, *reports_);
    if (!processed.ok()) {
      return Status::Error(processed.error());
    }
    processed_ = std::move(processed).value();
  }
  {
    obs::TraceSpan span(options_.tracer, obs::Phase::kStoreBuild);
    kv_object_ = reports_->FindObject(ObjectKind::kKv, "");
    db_object_ = reports_->FindObject(ObjectKind::kDb, "");
    if (Status st = BuildRegisterIndexes(); !st.ok()) {
      return st;
    }
    if (Status st = BuildVersionedKv(); !st.ok()) {
      return st;
    }
    if (Status st = BuildVersionedDb(); !st.ok()) {
      return st;
    }
    // Redo is done: from here on every read of versioned storage is against an immutable
    // snapshot, so audit workers query it without locks.
    versioned_db_.Freeze();
  }
  return Status::Ok();
}

Status AuditContext::ScanOpLog(size_t object,
                               const std::function<Status(const OpRecord&, uint64_t)>& fn) {
  if (oplog_scanner_ != nullptr) {
    return oplog_scanner_->Scan(object, fn);
  }
  const std::vector<OpRecord>& log = reports_->op_logs[object];
  for (size_t j = 0; j < log.size(); j++) {
    if (Status st = fn(log[j], j + 1); !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

Status AuditContext::BuildRegisterIndexes() {
  register_writes_.resize(reports_->objects.size());
  for (size_t i = 0; i < reports_->objects.size(); i++) {
    if (reports_->objects[i].kind != ObjectKind::kRegister) {
      continue;
    }
    Status st = ScanOpLog(i, [&](const OpRecord& op, uint64_t seqnum) {
      if (op.type != StateOpType::kRegisterWrite) {
        return Status::Ok();
      }
      Result<Value> v = ParseRegisterWriteContents(op.contents);
      if (!v.ok()) {
        return Status::Error("register log " + std::to_string(i) + " entry " +
                             std::to_string(seqnum) + ": " + v.error());
      }
      register_writes_[i].emplace_back(seqnum, std::move(v).value());
      return Status::Ok();
    });
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

Status AuditContext::BuildVersionedKv() {
  versioned_kv_.LoadInitial(initial_->kv);
  if (kv_object_ < 0) {
    return Status::Ok();
  }
  return ScanOpLog(static_cast<size_t>(kv_object_), [&](const OpRecord& op, uint64_t seqnum) {
    if (op.type != StateOpType::kKvSet) {
      return Status::Ok();
    }
    Result<KvSetContents> kv = ParseKvSetContents(op.contents);
    if (!kv.ok()) {
      return Status::Error("kv log entry " + std::to_string(seqnum) + ": " + kv.error());
    }
    versioned_kv_.AddSet(kv.value().key, seqnum, std::move(kv).value().value);
    return Status::Ok();
  });
}

Status AuditContext::BuildVersionedDb() {
  // Initial snapshot loads at ts 0.
  for (const std::string& table : initial_->db.TableNames()) {
    SqlStatement create;
    create.kind = SqlStmtKind::kCreateTable;
    create.table = table;
    create.columns = *initial_->db.Schema(table);
    Result<StmtResult> rc = versioned_db_.ApplyWrite(create, 0);
    if (!rc.ok()) {
      return Status::Error("initial db load: " + rc.error());
    }
    const std::vector<SqlRow>* rows = initial_->db.Rows(table);
    if (rows == nullptr || rows->empty()) {
      continue;
    }
    SqlStatement insert;
    insert.kind = SqlStmtKind::kInsert;
    insert.table = table;
    for (const ColumnDef& c : create.columns) {
      insert.insert_columns.push_back(c.name);
    }
    for (const SqlRow& row : *rows) {
      std::vector<SqlExprPtr> exprs;
      for (const SqlValue& v : row) {
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kLiteral;
        e->literal = v;
        exprs.push_back(std::move(e));
      }
      insert.insert_rows.push_back(std::move(exprs));
    }
    Result<StmtResult> ri = versioned_db_.ApplyWrite(insert, 0);
    if (!ri.ok()) {
      return Status::Error("initial db load: " + ri.error());
    }
  }

  if (db_object_ < 0) {
    return Status::Ok();
  }
  // Redo pass (§4.5): replay every logged transaction, stamping query q of log entry s
  // with ts = s * MAXQ + q. Claimed failures are validated where the engine permits. The
  // log is consumed as one forward scan, so the out-of-core path can page its contents in
  // segment by segment instead of keeping the (typically dominant) SQL text resident.
  // Parsing is memoized by exact bytes (see InternedDbOp); everything that depends on the
  // timestamp (replay, affected counts, rejection) still happens per entry.
  std::unordered_map<std::string, const InternedDbOp*> ops_by_contents;
  std::unordered_map<std::string_view, const InternedSql*> sql_by_text;
  auto intern = [&](const std::string& bytes) {
    const InternedDbOp*& slot = ops_by_contents[bytes];
    if (slot == nullptr) {
      InternedDbOp& op = db_op_table_.emplace_back(InternedDbOp{ParseDbContents(bytes), {}});
      if (op.contents.ok()) {
        // Views into op.contents stay valid: deque elements never move.
        for (const std::string& text : op.contents.value().sql) {
          const InternedSql*& sql = sql_by_text[text];
          if (sql == nullptr) {
            sql = &sql_table_.emplace_back(InternedSql{sql_table_.size(), ParseSql(text)});
          }
          op.stmts.push_back(sql);
        }
      }
      slot = &op;
    }
    return slot;
  };
  db_log_parsed_.reserve(reports_->op_logs[static_cast<size_t>(db_object_)].size());
  Status st = ScanOpLog(static_cast<size_t>(db_object_), [&](const OpRecord& op, uint64_t s) {
    if (op.type != StateOpType::kDbOp) {
      db_log_parsed_.push_back(nullptr);  // Type mismatch is caught by CheckOp if referenced.
      return Status::Ok();
    }
    const InternedDbOp* entry = intern(op.contents);
    if (!entry->contents.ok()) {
      return Status::Error("db log entry " + std::to_string(s) + ": " +
                           entry->contents.error());
    }
    const DbContents& contents = entry->contents.value();
    if (contents.sql.size() > VersionedDatabase::kMaxQueriesPerTxn - 1) {
      return Status::Error("db log entry " + std::to_string(s) + ": too many statements");
    }
    if (!contents.success) {
      // The executor claims this op failed/aborted. For single statements the claim is
      // checkable exactly; multi-statement aborts are accepted as reported (§4.6 leeway:
      // transaction aborts are a form of non-determinism).
      if (contents.sql.size() == 1) {
        uint64_t ts = VersionedDatabase::MakeTimestamp(s, 1);
        const Result<SqlStatement>& stmt = entry->stmts[0]->stmt;
        if (stmt.ok()) {
          Result<StmtResult> r =
              stmt.value().kind == SqlStmtKind::kSelect
                  ? versioned_db_.Select(stmt.value(), ts)
                  : versioned_db_.ApplyWrite(stmt.value(), ts, /*commit=*/false);
          if (r.ok()) {
            return Status::Error("db log entry " + std::to_string(s) +
                                 " claims failure but the statement succeeds on replay");
          }
        }
      }
      db_log_parsed_.push_back(entry);
      return Status::Ok();
    }
    for (size_t q = 1; q <= contents.sql.size(); q++) {
      uint64_t ts = VersionedDatabase::MakeTimestamp(s, q);
      const Result<SqlStatement>& stmt = entry->stmts[q - 1]->stmt;
      if (!stmt.ok()) {
        return Status::Error("db log entry " + std::to_string(s) +
                             " claims success but statement " + std::to_string(q) +
                             " does not parse: " + stmt.error());
      }
      if (stmt.value().kind == SqlStmtKind::kSelect) {
        continue;  // Reads re-execute during SimOp at their timestamp.
      }
      Result<StmtResult> r = versioned_db_.ApplyWrite(stmt.value(), ts);
      if (!r.ok()) {
        return Status::Error("db log entry " + std::to_string(s) +
                             " claims success but replay fails: " + r.error());
      }
      redo_affected_[ts] = r.value().affected;
    }
    db_log_parsed_.push_back(entry);
    return Status::Ok();
  });
  // Writes are applied; pass 2 reads their outcomes from redo_affected_, so free their ASTs.
  for (InternedSql& sql : sql_table_) {
    if (sql.stmt.ok() && sql.stmt.value().kind != SqlStmtKind::kSelect) {
      sql.stmt = Result<SqlStatement>::Error("write statement: applied by the redo");
    }
  }
  return st;
}

uint32_t AuditContext::OpCount(RequestId rid) const {
  auto it = processed_.op_counts.find(rid);
  return it == processed_.op_counts.end() ? 0 : it->second;
}

const TraceEvent* AuditContext::RequestEvent(RequestId rid) const {
  auto it = request_events_.find(rid);
  return it == request_events_.end() ? nullptr : it->second;
}

Result<OpLocation> AuditContext::CheckOp(RequestId rid, uint32_t opnum,
                                         const StateOpRequest& op, AuditWorkerState* ws) {
  using R = Result<OpLocation>;
  ws->stats->ops_checked++;
  OpLocation loc = processed_.op_map.Find(rid, opnum);
  if (!loc.valid()) {
    return R::Error("CheckOp: (rid " + std::to_string(rid) + ", opnum " +
                    std::to_string(opnum) + ") not in OpMap");
  }
  // The object the program targeted must be the object whose log claims this op.
  ObjectKind kind = op.type == StateOpType::kRegisterRead ||
                            op.type == StateOpType::kRegisterWrite
                        ? ObjectKind::kRegister
                        : (op.type == StateOpType::kDbOp ? ObjectKind::kDb : ObjectKind::kKv);
  const std::string& name = kind == ObjectKind::kRegister ? op.target : std::string();
  int expected_object = reports_->FindObject(kind, name);
  if (expected_object < 0 || static_cast<uint32_t>(expected_object) != loc.object) {
    return R::Error("CheckOp: object mismatch for (rid " + std::to_string(rid) + ", opnum " +
                    std::to_string(opnum) + ")");
  }
  const OpRecord& entry = reports_->op_logs[loc.object][loc.seqnum - 1];
  if (entry.type != op.type) {
    return R::Error("CheckOp: optype mismatch");
  }
  switch (op.type) {
    case StateOpType::kRegisterRead:
      if (!entry.contents.empty()) {
        return R::Error("CheckOp: register read has non-empty contents");
      }
      break;
    case StateOpType::kRegisterWrite:
      ws->scratch.clear();
      AppendRegisterWriteContents(&ws->scratch, op.value);
      if (entry.contents != ws->scratch) {
        return R::Error("CheckOp: register write contents mismatch");
      }
      break;
    case StateOpType::kKvGet:
      if (entry.contents != op.key) {
        return R::Error("CheckOp: kv get key mismatch");
      }
      break;
    case StateOpType::kKvSet:
      ws->scratch.clear();
      AppendKvSetContents(&ws->scratch, op.key, op.value);
      if (entry.contents != ws->scratch) {
        return R::Error("CheckOp: kv set contents mismatch");
      }
      break;
    case StateOpType::kDbOp: {
      if (db_object_ < 0 || loc.object != static_cast<uint32_t>(db_object_) ||
          loc.seqnum > db_log_parsed_.size() || db_log_parsed_[loc.seqnum - 1] == nullptr) {
        return R::Error("CheckOp: db op points outside the db log");
      }
      const DbContents& dc = db_log_parsed_[loc.seqnum - 1]->contents.value();
      if (dc.sql != op.sql || dc.is_txn != op.db_is_txn) {
        return R::Error("CheckOp: db statements mismatch");
      }
      break;
    }
  }
  return loc;
}

Result<Value> AuditContext::RunSelect(const InternedSql& sql, uint64_t ts,
                                      AuditWorkerState* ws) {
  using R = Result<Value>;
  if (!sql.stmt.ok()) {
    return R::Error(sql.stmt.error());
  }
  const SqlStatement* stmt = &sql.stmt.value();
  if (stmt->kind != SqlStmtKind::kSelect) {
    return R::Error("RunSelect: not a SELECT");
  }
  std::mutex& mu = dedup_mu_[sql.id % kDedupStripes];
  std::vector<DedupEntry>& entries = sql.dedup;

  // A cached result at ts' serves ts when the touched table was not modified in
  // (min, max] — test both neighbours of the insertion position for ts.
  auto reusable = [&](const DedupEntry& e) {
    uint64_t lo = std::min(e.ts, ts);
    uint64_t hi = std::max(e.ts, ts);
    return lo == hi || !versioned_db_.TableModifiedBetween(stmt->table, lo, hi);
  };
  if (options_.enable_query_dedup) {
    std::lock_guard<std::mutex> lock(mu);
    auto pos = std::lower_bound(entries.begin(), entries.end(), ts,
                                [](const DedupEntry& e, uint64_t t) { return e.ts < t; });
    if (pos != entries.end() && reusable(*pos)) {
      ws->stats->db_selects_deduped++;
      return R(pos->result);
    }
    if (pos != entries.begin() && reusable(*(pos - 1))) {
      ws->stats->db_selects_deduped++;
      return R((pos - 1)->result);
    }
  }

  // Miss: run the SELECT against the frozen versioned store with no lock held. Two
  // workers may both miss the same (sql, window) concurrently; both charge an issued
  // SELECT, so issued + deduped always equals the number of logical SELECTs simulated.
  ws->stats->db_selects_issued++;
  Result<StmtResult> r = [&] {
    obs::TraceSpan span(options_.tracer, obs::Phase::kSqlQuery);
    return versioned_db_.Select(*stmt, ts);
  }();
  if (!r.ok()) {
    return R::Error(r.error());
  }
  Value shared = StmtResultToValue(r.value());
  if (options_.enable_query_dedup) {
    std::lock_guard<std::mutex> lock(mu);
    auto pos = std::lower_bound(entries.begin(), entries.end(), ts,
                                [](const DedupEntry& e, uint64_t t) { return e.ts < t; });
    if (pos == entries.end() || pos->ts != ts) {
      entries.insert(pos, {ts, shared});
    }
  }
  return R(shared);
}

Result<Value> AuditContext::SimDbOp(const StateOpRequest& op, OpLocation loc,
                                    AuditWorkerState* ws) {
  using R = Result<Value>;
  const InternedDbOp& entry = *db_log_parsed_[loc.seqnum - 1];
  const DbContents& dc = entry.contents.value();
  if (!dc.success) {
    return op.db_is_txn ? DbTxnResultToValue(false, std::vector<Value>{})
                        : DbQueryFailureValue();
  }
  std::vector<Value> results;
  results.reserve(dc.sql.size());
  for (size_t q = 1; q <= dc.sql.size(); q++) {
    uint64_t ts = VersionedDatabase::MakeTimestamp(loc.seqnum, q);
    auto affected = redo_affected_.find(ts);
    if (affected != redo_affected_.end()) {
      StmtResult sr;
      sr.is_rows = false;
      sr.affected = affected->second;
      results.push_back(StmtResultToValue(sr));
      continue;
    }
    // A read (or a CREATE, which records affected = 0 and is handled above).
    Result<Value> r = RunSelect(*entry.stmts[q - 1], ts, ws);
    if (!r.ok()) {
      return R::Error("db op " + std::to_string(loc.seqnum) +
                      " claims success but read fails on replay: " + r.error());
    }
    results.push_back(std::move(r).value());
  }
  if (op.db_is_txn) {
    return DbTxnResultToValue(true, std::move(results));
  }
  return std::move(results[0]);
}

Result<Value> AuditContext::SimOp(const StateOpRequest& op, OpLocation loc,
                                  AuditWorkerState* ws) {
  switch (op.type) {
    case StateOpType::kRegisterRead: {
      // "Walk backward from s for the latest RegisterWrite" (Figure 12), over the
      // pre-parsed per-object write index; absent writes fall back to the initial state.
      const auto& writes = register_writes_[loc.object];
      auto pos = std::lower_bound(
          writes.begin(), writes.end(), static_cast<uint64_t>(loc.seqnum),
          [](const std::pair<uint64_t, Value>& w, uint64_t s) { return w.first < s; });
      if (pos != writes.begin()) {
        return (pos - 1)->second;
      }
      auto init = initial_->registers.find(op.target);
      return init == initial_->registers.end() ? Value::Null() : init->second;
    }
    case StateOpType::kKvGet:
      return versioned_kv_.Get(op.key, loc.seqnum);
    case StateOpType::kRegisterWrite:
    case StateOpType::kKvSet:
      return Value::Null();
    case StateOpType::kDbOp:
      return SimDbOp(op, loc, ws);
  }
  return Value::Null();
}

void AuditContext::ResetNondet(RequestId rid) {
  // Slots were pre-built for every traced rid; callers validate RequestEvent(rid) first,
  // so a miss means the rid is untraced and the replay will fail on that check instead.
  auto it = nondet_cursors_.find(rid);
  if (it != nondet_cursors_.end()) {
    it->second = NondetCursor{};
  }
}

Result<Value> AuditContext::NextNondet(RequestId rid, const NondetRequest& req) {
  using R = Result<Value>;
  auto rit = reports_->nondet.find(rid);
  const std::vector<NondetRecord>& records = rit == reports_->nondet.end() ? kNoNondet
                                                                           : rit->second;
  auto cit = nondet_cursors_.find(rid);
  if (cit == nondet_cursors_.end()) {
    return R::Error("nondet: rid " + std::to_string(rid) + " is not in the trace");
  }
  NondetCursor& cursor = cit->second;
  if (cursor.pos >= records.size()) {
    return R::Error("nondet: rid " + std::to_string(rid) + " has no recorded value for call #" +
                    std::to_string(cursor.pos + 1));
  }
  const NondetRecord& record = records[cursor.pos];
  cursor.pos++;
  if (record.name != req.name) {
    return R::Error("nondet: recorded builtin '" + record.name + "' but program called '" +
                    req.name + "'");
  }
  Result<Value> parsed = DeserializeValue(record.value);
  if (!parsed.ok()) {
    return R::Error("nondet: " + parsed.error());
  }
  Value v = std::move(parsed).value();
  // Plausibility checks (§4.6): time and microtime must be monotone within the request;
  // rand must respect its range.
  if (req.name == "time") {
    if (!v.is_int() || (cursor.has_last_time && v.as_int() < cursor.last_time)) {
      return R::Error("nondet: time() value implausible for rid " + std::to_string(rid));
    }
    cursor.has_last_time = true;
    cursor.last_time = v.as_int();
  } else if (req.name == "microtime") {
    if (!v.is_float() || (cursor.has_last_micro && v.as_float() < cursor.last_micro)) {
      return R::Error("nondet: microtime() value implausible for rid " + std::to_string(rid));
    }
    cursor.has_last_micro = true;
    cursor.last_micro = v.as_float();
  } else if (req.name == "rand") {
    int64_t lo = req.args.size() > 0 ? req.args[0].ToInt() : 0;
    int64_t hi = req.args.size() > 1 ? req.args[1].ToInt() : 0;
    if (!v.is_int() || (hi >= lo && (v.as_int() < lo || v.as_int() > hi))) {
      return R::Error("nondet: rand() value out of range for rid " + std::to_string(rid));
    }
  }
  return v;
}

Status AuditContext::CheckNondetConsumed(RequestId rid) {
  auto rit = reports_->nondet.find(rid);
  size_t total = rit == reports_->nondet.end() ? 0 : rit->second.size();
  auto cit = nondet_cursors_.find(rid);
  size_t used = cit == nondet_cursors_.end() ? 0 : cit->second.pos;
  if (used != total) {
    return Status::Error("nondet: rid " + std::to_string(rid) + " consumed " +
                         std::to_string(used) + " of " + std::to_string(total) +
                         " recorded values");
  }
  return Status::Ok();
}

void AuditContext::SetOutput(RequestId rid, std::string body) {
  auto it = outputs_.find(rid);
  if (it == outputs_.end()) {
    return;  // Callers only pass traced rids (slots pre-built in Prepare).
  }
  it->second.produced = true;
  it->second.body = std::move(body);
}

const std::string* AuditContext::ProducedOutput(RequestId rid) const {
  auto it = outputs_.find(rid);
  if (it == outputs_.end() || !it->second.produced) {
    return nullptr;
  }
  return &it->second.body;
}

std::string AuditContext::CheckResponseOutput(RequestId rid, const std::string& body) const {
  auto it = outputs_.find(rid);
  if (it == outputs_.end() || !it->second.produced) {
    return "output: rid " + std::to_string(rid) + " was never re-executed";
  }
  if (it->second.body != body) {
    return "output: rid " + std::to_string(rid) + " response does not match re-execution";
  }
  return std::string();
}

Status AuditContext::CompareOutputs() {
  obs::TraceSpan span(options_.tracer, obs::Phase::kPass3Compare);
  for (const TraceEvent& e : trace_->events) {
    if (e.kind != TraceEvent::Kind::kResponse) {
      continue;
    }
    if (std::string reason = CheckResponseOutput(e.rid, e.body); !reason.empty()) {
      return Status::Error(reason);
    }
  }
  return Status::Ok();
}

InitialState AuditContext::ExtractFinalState() const {
  InitialState out;
  // Registers: the last logged write per register object, else the initial value.
  out.registers = initial_->registers;
  for (size_t i = 0; i < reports_->objects.size(); i++) {
    if (reports_->objects[i].kind != ObjectKind::kRegister || register_writes_[i].empty()) {
      continue;
    }
    out.registers[reports_->objects[i].name] = register_writes_[i].back().second;
  }
  out.kv = versioned_kv_.LatestSnapshot();
  out.db = versioned_db_.LatestState();
  return out;
}

}  // namespace orochi
