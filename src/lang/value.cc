#include "src/lang/value.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "src/common/crc32c.h"
#include "src/common/hash.h"

namespace orochi {

namespace {

// True if s is a canonical decimal integer ("0", "42", "-7"; no leading zeros or plus).
bool IsCanonicalInt(std::string_view s, int64_t* out) {
  if (s.empty() || s.size() > 19) {
    return false;
  }
  size_t i = 0;
  if (s[0] == '-') {
    if (s.size() == 1) {
      return false;
    }
    i = 1;
  }
  if (s[i] == '0' && s.size() > i + 1) {
    return false;  // Leading zero: not canonical.
  }
  for (size_t k = i; k < s.size(); k++) {
    if (!std::isdigit(static_cast<unsigned char>(s[k]))) {
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  std::string tmp(s);
  long long v = std::strtoll(tmp.c_str(), &end, 10);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) {
    return false;
  }
  *out = v;
  return true;
}

std::string FloatToString(double d) {
  if (std::isnan(d)) {
    return "NAN";
  }
  if (std::isinf(d)) {
    return d > 0 ? "INF" : "-INF";
  }
  // PHP prints integral floats without a decimal point.
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.14g", d);
  return buf;
}

}  // namespace

ArrayKey::ArrayKey(std::string k) {
  int64_t v = 0;
  if (IsCanonicalInt(k, &v)) {
    is_int_ = true;
    int_key_ = v;
  } else {
    is_int_ = false;
    int_key_ = 0;
    str_key_ = std::move(k);
  }
}

size_t ArrayKey::Hash() const {
  if (is_int_) {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(int_key_)));
  }
  return static_cast<size_t>(FnvHash(str_key_));
}

std::string ArrayKey::ToString() const {
  if (is_int_) {
    return std::to_string(int_key_);
  }
  return str_key_;
}

const Value* ArrayObject::Find(const ArrayKey& k) const {
  auto it = index_.find(k);
  if (it == index_.end()) {
    return nullptr;
  }
  return &entries_[it->second].second;
}

void ArrayObject::Set(const ArrayKey& k, Value v) {
  auto it = index_.find(k);
  if (it != index_.end()) {
    entries_[it->second].second = std::move(v);
    return;
  }
  index_.emplace(k, entries_.size());
  entries_.emplace_back(k, std::move(v));
  if (k.is_int() && k.int_key() >= next_index_) {
    next_index_ = k.int_key() + 1;
  }
}

void ArrayObject::Append(Value v) { Set(ArrayKey(next_index_), std::move(v)); }

void ArrayObject::Erase(const ArrayKey& k) {
  auto it = index_.find(k);
  if (it == index_.end()) {
    return;
  }
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(it->second));
  Reindex();
}

void ArrayObject::Reindex() {
  index_.clear();
  for (size_t i = 0; i < entries_.size(); i++) {
    index_.emplace(entries_[i].first, i);
  }
}

ArrayObject& Value::MutableArray() {
  auto& ptr = std::get<ArrayPtr>(rep_);
  if (ptr.use_count() > 1) {
    ptr = std::make_shared<ArrayObject>(*ptr);
  }
  return *ptr;
}

bool Value::Truthy() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return as_bool();
    case ValueType::kInt:
      return as_int() != 0;
    case ValueType::kFloat:
      return as_float() != 0.0;
    case ValueType::kString: {
      const std::string& s = as_string();
      return !s.empty() && s != "0";
    }
    case ValueType::kArray:
      return array().size() > 0;
    case ValueType::kMulti:
      // Callers must project multivalues before asking for a single truthiness.
      return false;
  }
  return false;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kBool:
      return as_bool() ? "1" : "";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kFloat:
      return FloatToString(as_float());
    case ValueType::kString:
      return as_string();
    case ValueType::kArray: {
      std::string out = "Array(";
      bool first = true;
      for (const auto& [k, v] : array().entries()) {
        if (!first) {
          out += ",";
        }
        first = false;
        out += k.ToString();
        out += "=>";
        out += v.ToString();
      }
      out += ")";
      return out;
    }
    case ValueType::kMulti:
      return "<multi>";
  }
  return "";
}

int64_t Value::ToInt() const {
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return as_bool() ? 1 : 0;
    case ValueType::kInt:
      return as_int();
    case ValueType::kFloat:
      return static_cast<int64_t>(as_float());
    case ValueType::kString: {
      errno = 0;
      const char* p = as_string().c_str();
      char* end = nullptr;
      long long v = std::strtoll(p, &end, 10);
      if (end == p || errno != 0) {
        return 0;
      }
      return v;
    }
    case ValueType::kArray:
      return array().size() > 0 ? 1 : 0;
    case ValueType::kMulti:
      return 0;
  }
  return 0;
}

double Value::ToFloat() const {
  switch (type()) {
    case ValueType::kNull:
      return 0.0;
    case ValueType::kBool:
      return as_bool() ? 1.0 : 0.0;
    case ValueType::kInt:
      return static_cast<double>(as_int());
    case ValueType::kFloat:
      return as_float();
    case ValueType::kString: {
      const char* p = as_string().c_str();
      char* end = nullptr;
      double v = std::strtod(p, &end);
      if (end == p) {
        return 0.0;
      }
      return v;
    }
    case ValueType::kArray:
      return array().size() > 0 ? 1.0 : 0.0;
    case ValueType::kMulti:
      return 0.0;
  }
  return 0.0;
}

bool Value::DeepEquals(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    // int/float cross-type numeric equality (PHP ==) is intentionally NOT applied here:
    // collapse must be representation-exact so re-execution stays deterministic.
    return false;
  }
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.as_bool() == b.as_bool();
    case ValueType::kInt:
      return a.as_int() == b.as_int();
    case ValueType::kFloat:
      return a.as_float() == b.as_float();
    case ValueType::kString:
      return a.string_ptr() == b.string_ptr() || a.as_string() == b.as_string();
    case ValueType::kArray: {
      if (a.array_ptr() == b.array_ptr()) {
        return true;
      }
      const ArrayObject& x = a.array();
      const ArrayObject& y = b.array();
      if (x.size() != y.size()) {
        return false;
      }
      for (size_t i = 0; i < x.size(); i++) {
        const auto& [kx, vx] = x.entries()[i];
        const auto& [ky, vy] = y.entries()[i];
        if (!(kx == ky) || !DeepEquals(vx, vy)) {
          return false;
        }
      }
      return true;
    }
    case ValueType::kMulti: {
      // Per request: two multis with different class layouts can still be equal.
      const MultiValue& x = a.multi();
      const MultiValue& y = b.multi();
      if (x.index.size() != y.index.size()) {
        return false;
      }
      for (size_t j = 0; j < x.index.size(); j++) {
        if (!DeepEquals(x.component(j), y.component(j))) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

void Value::SerializeTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      out->append("N;");
      return;
    case ValueType::kBool:
      out->append(as_bool() ? "B:1;" : "B:0;");
      return;
    case ValueType::kInt:
      out->append("I:");
      out->append(std::to_string(as_int()));
      out->append(";");
      return;
    case ValueType::kFloat: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "F:%.17g;", as_float());
      out->append(buf);
      return;
    }
    case ValueType::kString: {
      const std::string& s = as_string();
      out->append("S:");
      out->append(std::to_string(s.size()));
      out->append(":");
      out->append(s);
      out->append(";");
      return;
    }
    case ValueType::kArray: {
      const ArrayObject& a = array();
      out->append("A:");
      out->append(std::to_string(a.size()));
      out->append(":{");
      for (const auto& [k, v] : a.entries()) {
        if (k.is_int()) {
          out->append("I:");
          out->append(std::to_string(k.int_key()));
          out->append(";");
        } else {
          out->append("S:");
          out->append(std::to_string(k.str_key().size()));
          out->append(":");
          out->append(k.str_key());
          out->append(";");
        }
        v.SerializeTo(out);
      }
      out->append("}");
      return;
    }
    case ValueType::kMulti:
      // Multivalues are per-group artifacts of the verifier; operands in reports are
      // always per-request projections.
      out->append("M!;");
      return;
  }
}

std::string Value::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

namespace {

// Recursive-descent parser over the canonical serialization. `pos` advances past the
// consumed bytes. Depth-limited: reports are untrusted.
constexpr int kMaxDeserializeDepth = 64;

bool ParseValue(std::string_view s, size_t* pos, int depth, Value* out, std::string* err);

bool ParseIntUntil(std::string_view s, size_t* pos, char stop, int64_t* out) {
  size_t p = *pos;
  size_t start = p;
  while (p < s.size() && s[p] != stop) {
    p++;
  }
  if (p >= s.size() || p == start || p - start > 20) {
    return false;
  }
  std::string digits(s.substr(start, p - start));
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(digits.c_str(), &end, 10);
  if (errno != 0 || end != digits.c_str() + digits.size()) {
    return false;
  }
  *out = v;
  *pos = p + 1;  // Consume the stop character.
  return true;
}

bool ParseValue(std::string_view s, size_t* pos, int depth, Value* out, std::string* err) {
  if (depth > kMaxDeserializeDepth) {
    *err = "nesting too deep";
    return false;
  }
  if (*pos >= s.size()) {
    *err = "truncated";
    return false;
  }
  char tag = s[*pos];
  (*pos)++;
  switch (tag) {
    case 'N':
      if (*pos >= s.size() || s[*pos] != ';') {
        *err = "bad null";
        return false;
      }
      (*pos)++;
      *out = Value::Null();
      return true;
    case 'B': {
      if (*pos + 2 >= s.size() + 1 || s[*pos] != ':') {
        *err = "bad bool";
        return false;
      }
      (*pos)++;
      if (*pos + 1 >= s.size() || (s[*pos] != '0' && s[*pos] != '1') || s[*pos + 1] != ';') {
        *err = "bad bool";
        return false;
      }
      *out = Value::Bool(s[*pos] == '1');
      *pos += 2;
      return true;
    }
    case 'I': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad int";
        return false;
      }
      (*pos)++;
      int64_t v = 0;
      if (!ParseIntUntil(s, pos, ';', &v)) {
        *err = "bad int";
        return false;
      }
      *out = Value::Int(v);
      return true;
    }
    case 'F': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad float";
        return false;
      }
      (*pos)++;
      size_t start = *pos;
      while (*pos < s.size() && s[*pos] != ';') {
        (*pos)++;
      }
      if (*pos >= s.size() || *pos == start) {
        *err = "bad float";
        return false;
      }
      std::string digits(s.substr(start, *pos - start));
      char* end = nullptr;
      double v = std::strtod(digits.c_str(), &end);
      if (end != digits.c_str() + digits.size()) {
        *err = "bad float";
        return false;
      }
      (*pos)++;
      *out = Value::Float(v);
      return true;
    }
    case 'S': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad string";
        return false;
      }
      (*pos)++;
      int64_t len = 0;
      if (!ParseIntUntil(s, pos, ':', &len) || len < 0 ||
          static_cast<size_t>(len) > s.size() - *pos) {
        *err = "bad string length";
        return false;
      }
      std::string body(s.substr(*pos, static_cast<size_t>(len)));
      *pos += static_cast<size_t>(len);
      if (*pos >= s.size() || s[*pos] != ';') {
        *err = "bad string terminator";
        return false;
      }
      (*pos)++;
      *out = Value::Str(std::move(body));
      return true;
    }
    case 'A': {
      if (*pos >= s.size() || s[*pos] != ':') {
        *err = "bad array";
        return false;
      }
      (*pos)++;
      int64_t count = 0;
      if (!ParseIntUntil(s, pos, ':', &count) || count < 0) {
        *err = "bad array count";
        return false;
      }
      if (*pos >= s.size() || s[*pos] != '{') {
        *err = "bad array open";
        return false;
      }
      (*pos)++;
      Value arr = Value::Array();
      ArrayObject& obj = arr.MutableArray();
      for (int64_t i = 0; i < count; i++) {
        Value key;
        if (!ParseValue(s, pos, depth + 1, &key, err)) {
          return false;
        }
        ArrayKey ak;
        if (key.is_int()) {
          ak = ArrayKey(key.as_int());
        } else if (key.is_string()) {
          ak = ArrayKey(key.as_string());
        } else {
          *err = "bad array key type";
          return false;
        }
        Value val;
        if (!ParseValue(s, pos, depth + 1, &val, err)) {
          return false;
        }
        obj.Set(ak, std::move(val));
      }
      if (*pos >= s.size() || s[*pos] != '}') {
        *err = "bad array close";
        return false;
      }
      (*pos)++;
      *out = std::move(arr);
      return true;
    }
    default:
      *err = "unknown tag";
      return false;
  }
}

}  // namespace

Result<Value> DeserializeValue(std::string_view bytes) {
  size_t pos = 0;
  Value v;
  std::string err;
  if (!ParseValue(bytes, &pos, 0, &v, &err)) {
    return Result<Value>::Error("deserialize: " + err);
  }
  if (pos != bytes.size()) {
    return Result<Value>::Error("deserialize: trailing bytes");
  }
  return v;
}

bool ContainsMulti(const Value& v) {
  if (v.is_multi()) {
    return true;
  }
  if (v.is_array()) {
    for (const auto& [k, cell] : v.array().entries()) {
      (void)k;
      if (ContainsMulti(cell)) {
        return true;
      }
    }
  }
  return false;
}

Value ProjectComponent(const Value& v, size_t j) {
  if (v.is_multi()) {
    const MultiValue& m = v.multi();
    return j < m.index.size() ? m.component(j) : Value::Null();
  }
  if (v.is_array()) {
    if (!ContainsMulti(v)) {
      return v;  // Sharing preserved: no multivalue inside.
    }
    Value out = Value::Array();
    ArrayObject& obj = out.MutableArray();
    for (const auto& [k, cell] : v.array().entries()) {
      obj.Set(k, ProjectComponent(cell, j));
    }
    return out;
  }
  return v;
}

bool RequestClasses::RefineSlow(const Value& v) {
  if (v.is_multi()) {
    RefineBy(v.multi());
    return true;
  }
  bool found = false;
  for (const auto& [k, cell] : v.array().entries()) {
    (void)k;
    found = Refine(cell) || found;
  }
  return found;
}

void RequestClasses::RefineBy(const MultiValue& m) {
  assert(m.index.size() == n_);
  if (reps_.empty()) {
    // One class so far: the multivalue's own classes are the refinement.
    index_ = m.index;
    reps_.reserve(m.values.size());
    for (size_t j = 0; j < n_; j++) {
      if (index_[j] == reps_.size()) {
        reps_.push_back(static_cast<uint32_t>(j));
      }
    }
    return;
  }
  if (reps_.size() == n_ || index_ == m.index) {
    return;  // Already as fine as possible, or refined by this very partition.
  }
  // New class = distinct (old class, m's class) pair, numbered in order of first request.
  // Pairs are looked up in a flat table while it stays within a few entries per request,
  // else in a hash map (two fine partitions would need a table quadratic in n).
  const size_t k = m.values.size();
  const size_t pairs = reps_.size() * k;
  const uint32_t kUnset = UINT32_MAX;
  std::vector<uint32_t> pair_table(pairs <= 4 * n_ ? pairs : 0, kUnset);
  std::unordered_map<size_t, uint32_t> pair_map;
  reps_.clear();
  for (size_t j = 0; j < n_; j++) {
    size_t pair = static_cast<size_t>(index_[j]) * k + m.index[j];
    uint32_t& c = pair_table.empty() ? pair_map.try_emplace(pair, kUnset).first->second
                                     : pair_table[pair];
    if (c == kUnset) {
      c = static_cast<uint32_t>(reps_.size());
      reps_.push_back(static_cast<uint32_t>(j));
    }
    index_[j] = c;
  }
}

std::vector<uint32_t> RequestClasses::TakeIndex() {
  reps_.clear();
  if (index_.empty()) {
    return std::vector<uint32_t>(n_, 0);
  }
  return std::move(index_);
}

namespace {

// Bucketing hash for merging classes: equal values hash equal. Strings hash in full
// (CRC32C, hardware-accelerated), so unequal strings practically never share a bucket;
// arrays hash by shape only (size and first/last entries), so hashing never walks a deep
// array.
uint64_t MergeHash(const Value& v, int depth = 1) {
  uint64_t h = static_cast<uint64_t>(v.type());
  switch (v.type()) {
    case ValueType::kNull:
    case ValueType::kMulti:
      return h;
    case ValueType::kBool:
      return HashCombine(h, v.as_bool() ? 1 : 0);
    case ValueType::kInt:
      return HashCombine(h, static_cast<uint64_t>(v.as_int()));
    case ValueType::kFloat:
      return HashCombine(h, std::hash<double>{}(v.as_float()));
    case ValueType::kString: {
      const std::string& s = v.as_string();
      return HashCombine(HashCombine(h, s.size()), Crc32c(s));
    }
    case ValueType::kArray: {
      const auto& entries = v.array().entries();
      h = HashCombine(h, entries.size());
      if (depth == 0 || entries.empty()) {
        return h;
      }
      h = HashCombine(h, entries.front().first.Hash());
      h = HashCombine(h, MergeHash(entries.front().second, depth - 1));
      return HashCombine(h, MergeHash(entries.back().second, depth - 1));
    }
  }
  return h;
}

// MakeMultiCollapsed; `per_request` says the components were computed once per request.
Value Collapse(std::vector<Value> values, std::vector<uint32_t> index, bool per_request) {
  const size_t k = values.size();
  if (k == 0) {
    return Value::Null();
  }
  // Collapse check first, as cheap as a plain all-equal scan: it stops at the first class
  // that differs from class 0.
  size_t first_diff = 1;
  while (first_diff < k && Value::DeepEquals(values[0], values[first_diff])) {
    first_diff++;
  }
  if (first_diff == k) {
    return std::move(values[0]);
  }
  if (k == index.size() && !per_request) {
    // Fast path: the operands put every request in its own class, so the components almost
    // always differ as well, and merging would cost a hash per request for nothing. This
    // keeps such groups as cheap as per-request execution. Per-request components (inputs,
    // state-op and nondet results) always merge: that is where classes come from.
    return Value::Multi(std::move(values), std::move(index));
  }
  // Merge the remaining classes into the first earlier one with an equal component, found
  // through an open-addressing table keyed by MergeHash. A class is deep-compared only
  // against kept classes with the same hash (DeepEquals checks identity before contents),
  // and against at most kMaxProbes of those, so a group whose components all differ costs
  // about one hash per class. Merging is best effort beyond that bound (it can only bind
  // on arrays of one shape); the collapse rule above is exact.
  constexpr size_t kMaxProbes = 4;
  size_t table_size = 4;
  while (table_size < 2 * k) {
    table_size *= 2;
  }
  const size_t mask = table_size - 1;
  std::vector<uint32_t> slots(table_size, 0);        // Kept class + 1; 0 = empty.
  std::vector<uint32_t> merged(k, 0);                // Old class -> new class.
  std::vector<std::pair<uint64_t, uint32_t>> kept;   // New class -> (hash, old class).
  kept.reserve(k);
  for (size_t c = 0; c < k; c++) {
    if (c > 0 && c < first_diff) {
      continue;  // Equal to class 0.
    }
    uint64_t h = MergeHash(values[c]);
    size_t s = h & mask;
    size_t probes = 0;
    for (; slots[s] != 0; s = (s + 1) & mask) {
      const auto& [kept_hash, kept_class] = kept[slots[s] - 1];
      if (kept_hash == h && probes++ < kMaxProbes &&
          Value::DeepEquals(values[kept_class], values[c])) {
        break;
      }
    }
    if (slots[s] == 0) {
      kept.emplace_back(h, static_cast<uint32_t>(c));
      slots[s] = static_cast<uint32_t>(kept.size());
    }
    merged[c] = slots[s] - 1;
  }
  if (kept.size() < k) {
    std::vector<Value> distinct;
    distinct.reserve(kept.size());
    for (const auto& [hash, c] : kept) {
      distinct.push_back(std::move(values[c]));
    }
    values = std::move(distinct);
    for (uint32_t& c : index) {
      c = merged[c];
    }
  }
  return Value::Multi(std::move(values), std::move(index));
}

}  // namespace

Value MakeMultiCollapsed(std::vector<Value> values, std::vector<uint32_t> index) {
  return Collapse(std::move(values), std::move(index), /*per_request=*/false);
}

Value MakeMultiCollapsed(std::vector<Value> items) {
  std::vector<uint32_t> index(items.size());
  for (size_t j = 0; j < index.size(); j++) {
    index[j] = static_cast<uint32_t>(j);
  }
  return Collapse(std::move(items), std::move(index), /*per_request=*/true);
}

}  // namespace orochi
