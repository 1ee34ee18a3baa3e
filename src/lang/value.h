// Dynamically-typed values for the wscript language (the PHP analog in this reproduction).
//
// Values are: null, bool, int64, float64, string, array (PHP-like ordered hash with value
// semantics via copy-on-write), and multivalue. A multivalue holds one component per request
// in a control-flow group and is the representation behind SIMD-on-demand re-execution
// (paper §3.1, §4.3): instructions over identical components collapse back to scalars.
// Components are stored once per distinct value, so work over a multivalue is done once
// per class of requests that agree, not once per request.
//
// Values serialize to a canonical byte string (Serialize/DeserializeValue). Operation-log
// report entries store operands in this form, so reports are plain untrusted data that the
// verifier parses defensively.
#ifndef SRC_LANG_VALUE_H_
#define SRC_LANG_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/result.h"

namespace orochi {

class Value;

// Array keys are either canonical integers or strings, mirroring PHP semantics where
// "5" and 5 address the same slot (we canonicalize integer-like strings at insertion).
class ArrayKey {
 public:
  ArrayKey() : int_key_(0), is_int_(true) {}
  explicit ArrayKey(int64_t k) : int_key_(k), is_int_(true) {}
  explicit ArrayKey(std::string k);

  bool is_int() const { return is_int_; }
  int64_t int_key() const { return int_key_; }
  const std::string& str_key() const { return str_key_; }

  bool operator==(const ArrayKey& o) const {
    if (is_int_ != o.is_int_) {
      return false;
    }
    return is_int_ ? int_key_ == o.int_key_ : str_key_ == o.str_key_;
  }

  size_t Hash() const;
  // Rendering used by ToString of keys and by canonical serialization.
  std::string ToString() const;

 private:
  int64_t int_key_;
  std::string str_key_;
  bool is_int_;
};

struct ArrayKeyHash {
  size_t operator()(const ArrayKey& k) const { return k.Hash(); }
};

// Ordered hash: preserves insertion order for iteration (like PHP arrays) and supports
// O(1) lookup. Deletion preserves order of the remaining entries.
class ArrayObject {
 public:
  ArrayObject() = default;

  size_t size() const { return entries_.size(); }
  bool Has(const ArrayKey& k) const { return index_.count(k) > 0; }
  const Value* Find(const ArrayKey& k) const;
  void Set(const ArrayKey& k, Value v);
  void Append(Value v);
  void Erase(const ArrayKey& k);

  const std::vector<std::pair<ArrayKey, Value>>& entries() const { return entries_; }
  std::vector<std::pair<ArrayKey, Value>>& mutable_entries() { return entries_; }

  int64_t next_index() const { return next_index_; }

 private:
  void Reindex();

  std::vector<std::pair<ArrayKey, Value>> entries_;
  std::unordered_map<ArrayKey, size_t, ArrayKeyHash> index_;
  int64_t next_index_ = 0;
};

// One component per request in a control-flow group, stored once per class of requests:
// `values` holds the classes' components in order of each class's first request, and
// `index[j]` is the class of request j. Components are never themselves multivalues; arrays
// inside components may not contain multivalues either (projection flattens them). Arrays
// *outside* (a univalue array whose cells are multivalues) are legal.
struct MultiValue {
  std::vector<Value> values;
  std::vector<uint32_t> index;

  const Value& component(size_t j) const { return values[index[j]]; }
};

enum class ValueType : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kFloat,
  kString,
  kArray,
  kMulti,
};

class Value {
 public:
  using StringPtr = std::shared_ptr<const std::string>;
  using ArrayPtr = std::shared_ptr<ArrayObject>;
  using MultiPtr = std::shared_ptr<MultiValue>;

  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int(int64_t i) { return Value(Rep(i)); }
  static Value Float(double d) { return Value(Rep(d)); }
  static Value Str(std::string s) {
    return Value(Rep(std::make_shared<const std::string>(std::move(s))));
  }
  static Value Str(StringPtr s) { return Value(Rep(std::move(s))); }
  static Value Array() { return Value(Rep(std::make_shared<ArrayObject>())); }
  static Value Array(ArrayPtr a) { return Value(Rep(std::move(a))); }
  // A multivalue as is, without merging or collapsing (see MakeMultiCollapsed).
  static Value Multi(std::vector<Value> values, std::vector<uint32_t> index) {
    auto m = std::make_shared<MultiValue>();
    m->values = std::move(values);
    m->index = std::move(index);
    return Value(Rep(std::move(m)));
  }

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_float() const { return type() == ValueType::kFloat; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_array() const { return type() == ValueType::kArray; }
  bool is_multi() const { return type() == ValueType::kMulti; }
  bool is_numeric() const { return is_int() || is_float(); }

  bool as_bool() const { return std::get<bool>(rep_); }
  int64_t as_int() const { return std::get<int64_t>(rep_); }
  double as_float() const { return std::get<double>(rep_); }
  const std::string& as_string() const { return *std::get<StringPtr>(rep_); }
  StringPtr string_ptr() const { return std::get<StringPtr>(rep_); }

  const ArrayObject& array() const { return *std::get<ArrayPtr>(rep_); }
  ArrayPtr array_ptr() const { return std::get<ArrayPtr>(rep_); }
  // Copy-on-write: returns a uniquely-owned ArrayObject for in-place mutation.
  ArrayObject& MutableArray();

  const MultiValue& multi() const { return *std::get<MultiPtr>(rep_); }
  MultiPtr multi_ptr() const { return std::get<MultiPtr>(rep_); }

  // PHP-style truthiness: null/false/0/0.0/""/"0"/empty-array are false.
  bool Truthy() const;

  // Rendering for echo / string concatenation. Arrays render as "Array" plus a canonical
  // dump of entries so that responses depend on array contents (unlike PHP's bare "Array",
  // which would hide differences that matter for auditing tests).
  std::string ToString() const;

  // Numeric coercions; non-coercible inputs yield 0 like PHP's (int)/(float) casts on
  // non-numeric strings.
  int64_t ToInt() const;
  double ToFloat() const;

  // Deep structural equality (used for multivalue collapse and the == operator).
  static bool DeepEquals(const Value& a, const Value& b);

  // Canonical byte-string form used in operation-log reports.
  std::string Serialize() const;
  void SerializeTo(std::string* out) const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, StringPtr, ArrayPtr, MultiPtr>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

// Parses a canonical serialization. Reports are untrusted, so this never aborts on
// malformed input; it returns an error Result instead.
Result<Value> DeserializeValue(std::string_view bytes);

// True if the value is a multivalue or an array (transitively) containing one.
bool ContainsMulti(const Value& v);

// Projects request j's component out of a (possibly multi) value: multivalues pick
// component(j); arrays are walked recursively (sharing is preserved when nothing changes).
// Scalars pass through.
Value ProjectComponent(const Value& v, size_t j);

// A partition of a group's n requests into classes whose members see identical projections
// of every value the partition was refined by. Class ids are dense and numbered in order
// of each class's first request, so rep(c) ascends with c. Starts as one class.
class RequestClasses {
 public:
  explicit RequestClasses(size_t n) : n_(n) {}

  // Refines the classes by every multivalue inside v, including multivalue cells of
  // univalue arrays. Returns true when v contains a multivalue.
  bool Refine(const Value& v) {
    return (v.is_multi() || v.is_array()) && RefineSlow(v);
  }

  size_t size() const { return reps_.empty() ? 1 : reps_.size(); }
  // First request of class c.
  size_t rep(size_t c) const { return reps_.empty() ? 0 : reps_[c]; }
  // Class of request j.
  uint32_t class_of(size_t j) const { return index_.empty() ? 0 : index_[j]; }
  // Class per request (all zero while there is one class); leaves the partition empty.
  std::vector<uint32_t> TakeIndex();

 private:
  bool RefineSlow(const Value& v);
  void RefineBy(const MultiValue& m);

  size_t n_;
  std::vector<uint32_t> index_;  // Empty while there is one class.
  std::vector<uint32_t> reps_;   // Empty while there is one class.
};

// Builds a multivalue from one component per class (`values[c]` for the requests j with
// index[j] == c; classes numbered in order of first request) and merges classes whose
// components are deeply equal. Collapses to a scalar exactly when every component is equal
// (the "on-demand" part of SIMD-on-demand, §4.3).
Value MakeMultiCollapsed(std::vector<Value> values, std::vector<uint32_t> index);
// Same, from one component per request.
Value MakeMultiCollapsed(std::vector<Value> items);

}  // namespace orochi

#endif  // SRC_LANG_VALUE_H_
