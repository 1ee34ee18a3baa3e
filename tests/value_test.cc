// Unit tests for the Value model: PHP-like semantics, copy-on-write arrays, canonical
// serialization (the untrusted report wire format), and multivalue projection/collapse.
#include <gtest/gtest.h>

#include "src/lang/value.h"

namespace orochi {
namespace {

TEST(ArrayKey, CanonicalIntStrings) {
  EXPECT_TRUE(ArrayKey(std::string("5")).is_int());
  EXPECT_EQ(ArrayKey(std::string("5")).int_key(), 5);
  EXPECT_TRUE(ArrayKey(std::string("-3")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("05")).is_int());   // Leading zero: string key.
  EXPECT_FALSE(ArrayKey(std::string("+5")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("5x")).is_int());
  EXPECT_FALSE(ArrayKey(std::string("")).is_int());
  EXPECT_TRUE(ArrayKey(std::string("0")).is_int());
}

TEST(ArrayKey, IntAndCanonicalStringCollide) {
  EXPECT_TRUE(ArrayKey(int64_t{7}) == ArrayKey(std::string("7")));
  EXPECT_EQ(ArrayKey(int64_t{7}).Hash(), ArrayKey(std::string("7")).Hash());
  EXPECT_FALSE(ArrayKey(int64_t{7}) == ArrayKey(std::string("seven")));
}

TEST(ArrayObject, AppendAssignsSequentialIndexes) {
  ArrayObject a;
  a.Append(Value::Int(10));
  a.Append(Value::Int(20));
  a.Set(ArrayKey(int64_t{5}), Value::Int(50));
  a.Append(Value::Int(60));  // Next index after 5.
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.entries()[3].first.int_key(), 6);
}

TEST(ArrayObject, EraseKeepsOrder) {
  ArrayObject a;
  a.Set(ArrayKey(std::string("x")), Value::Int(1));
  a.Set(ArrayKey(std::string("y")), Value::Int(2));
  a.Set(ArrayKey(std::string("z")), Value::Int(3));
  a.Erase(ArrayKey(std::string("y")));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.entries()[0].first.str_key(), "x");
  EXPECT_EQ(a.entries()[1].first.str_key(), "z");
  EXPECT_EQ(a.Find(ArrayKey(std::string("z")))->as_int(), 3);
}

TEST(Value, CopyOnWriteIsolation) {
  Value a = Value::Array();
  a.MutableArray().Append(Value::Int(1));
  Value b = a;  // Shares the array.
  b.MutableArray().Append(Value::Int(2));
  EXPECT_EQ(a.array().size(), 1u);
  EXPECT_EQ(b.array().size(), 2u);
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_TRUE(Value::Bool(true).Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Int(-1).Truthy());
  EXPECT_FALSE(Value::Float(0.0).Truthy());
  EXPECT_FALSE(Value::Str("").Truthy());
  EXPECT_FALSE(Value::Str("0").Truthy());  // PHP's famous falsy "0".
  EXPECT_TRUE(Value::Str("00").Truthy());
  EXPECT_FALSE(Value::Array().Truthy());
}

TEST(Value, ToStringMatchesPhpConventions) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value::Bool(true).ToString(), "1");
  EXPECT_EQ(Value::Bool(false).ToString(), "");
  EXPECT_EQ(Value::Int(-42).ToString(), "-42");
  EXPECT_EQ(Value::Float(1.0).ToString(), "1");   // Integral floats print bare.
  EXPECT_EQ(Value::Float(1.5).ToString(), "1.5");
}

TEST(Value, DeepEqualsIsRepresentationExact) {
  EXPECT_TRUE(Value::DeepEquals(Value::Int(1), Value::Int(1)));
  // Collapse must be representation-exact: int 1 != float 1.0 for dedup purposes.
  EXPECT_FALSE(Value::DeepEquals(Value::Int(1), Value::Float(1.0)));
  Value a = Value::Array();
  a.MutableArray().Set(ArrayKey(std::string("k")), Value::Str("v"));
  Value b = Value::Array();
  b.MutableArray().Set(ArrayKey(std::string("k")), Value::Str("v"));
  EXPECT_TRUE(Value::DeepEquals(a, b));
  b.MutableArray().Set(ArrayKey(std::string("k")), Value::Str("w"));
  EXPECT_FALSE(Value::DeepEquals(a, b));
}

TEST(Value, DeepEqualsIsOrderSensitive) {
  Value a = Value::Array();
  a.MutableArray().Set(ArrayKey(std::string("x")), Value::Int(1));
  a.MutableArray().Set(ArrayKey(std::string("y")), Value::Int(2));
  Value b = Value::Array();
  b.MutableArray().Set(ArrayKey(std::string("y")), Value::Int(2));
  b.MutableArray().Set(ArrayKey(std::string("x")), Value::Int(1));
  EXPECT_FALSE(Value::DeepEquals(a, b));
}

// Serialization roundtrip over a representative set of values.
class SerializeRoundtrip : public ::testing::TestWithParam<int> {};

Value MakeSample(int which) {
  switch (which) {
    case 0: return Value::Null();
    case 1: return Value::Bool(true);
    case 2: return Value::Bool(false);
    case 3: return Value::Int(0);
    case 4: return Value::Int(-123456789);
    case 5: return Value::Int(INT64_MAX);
    case 6: return Value::Float(3.14159);
    case 7: return Value::Float(-0.0);
    case 8: return Value::Str("");
    case 9: return Value::Str("hello; A:2:{ I:0; }");  // Metacharacters in content.
    case 10: return Value::Str(std::string("\0binary\xff", 8));
    case 11: {
      Value v = Value::Array();
      return v;
    }
    case 12: {
      Value v = Value::Array();
      v.MutableArray().Append(Value::Int(1));
      v.MutableArray().Set(ArrayKey(std::string("key")), Value::Str("val"));
      return v;
    }
    default: {
      Value inner = Value::Array();
      inner.MutableArray().Append(Value::Float(2.5));
      Value v = Value::Array();
      v.MutableArray().Set(ArrayKey(std::string("nested")), inner);
      v.MutableArray().Append(Value::Null());
      return v;
    }
  }
}

TEST_P(SerializeRoundtrip, RoundTrips) {
  Value original = MakeSample(GetParam());
  std::string bytes = original.Serialize();
  Result<Value> back = DeserializeValue(bytes);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_TRUE(Value::DeepEquals(original, back.value()));
  // Canonical: re-serialization is byte-identical.
  EXPECT_EQ(back.value().Serialize(), bytes);
}

INSTANTIATE_TEST_SUITE_P(AllSamples, SerializeRoundtrip, ::testing::Range(0, 14));

// Malformed report bytes must be rejected, never crash (reports are untrusted).
class DeserializeRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(DeserializeRejects, Rejects) {
  Result<Value> r = DeserializeValue(GetParam());
  EXPECT_FALSE(r.ok());
}

INSTANTIATE_TEST_SUITE_P(BadInputs, DeserializeRejects,
                         ::testing::Values("", "X;", "I:", "I:12", "I:12x;", "S:5:ab;",
                                           "S:-1:;", "S:9999999999999999999:x;",
                                           "A:2:{I:0;N;}", "A:1:{N;N;}", "B:2;", "F:;",
                                           "N;N;", "A:1:{I:0;N;", "I:99999999999999999999;"));

TEST(Deserialize, DepthLimited) {
  // 100 nested arrays exceeds the depth cap.
  std::string deep;
  for (int i = 0; i < 100; i++) {
    deep += "A:1:{I:0;";
  }
  deep += "N;";
  for (int i = 0; i < 100; i++) {
    deep += "}";
  }
  EXPECT_FALSE(DeserializeValue(deep).ok());
}

TEST(Multi, ContainsMultiFindsNested) {
  Value m = Value::Multi({Value::Int(1), Value::Int(2)}, {0, 1});
  EXPECT_TRUE(ContainsMulti(m));
  Value arr = Value::Array();
  arr.MutableArray().Append(Value::Int(1));
  EXPECT_FALSE(ContainsMulti(arr));
  arr.MutableArray().Append(m);
  EXPECT_TRUE(ContainsMulti(arr));
}

TEST(Multi, ProjectComponentSharesUntouchedArrays) {
  Value arr = Value::Array();
  arr.MutableArray().Append(Value::Int(1));
  Value projected = ProjectComponent(arr, 0);
  EXPECT_EQ(projected.array_ptr(), arr.array_ptr());  // No copy when no multi inside.
}

TEST(Multi, ProjectComponentExtractsPerRequest) {
  Value arr = Value::Array();
  arr.MutableArray().Set(ArrayKey(std::string("x")),
                         Value::Multi({Value::Int(10), Value::Int(20)}, {0, 1}));
  Value p0 = ProjectComponent(arr, 0);
  Value p1 = ProjectComponent(arr, 1);
  EXPECT_EQ(p0.array().Find(ArrayKey(std::string("x")))->as_int(), 10);
  EXPECT_EQ(p1.array().Find(ArrayKey(std::string("x")))->as_int(), 20);
}

TEST(Multi, CollapseWhenAllEqual) {
  Value v = MakeMultiCollapsed({Value::Str("same"), Value::Str("same"), Value::Str("same")});
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "same");
}

TEST(Multi, NoCollapseWhenAnyDiffers) {
  Value v = MakeMultiCollapsed({Value::Int(1), Value::Int(1), Value::Int(2)});
  ASSERT_TRUE(v.is_multi());
  EXPECT_EQ(v.multi().index, (std::vector<uint32_t>{0, 0, 1}));
  ASSERT_EQ(v.multi().values.size(), 2u);
  EXPECT_EQ(v.multi().values[0].as_int(), 1);
  EXPECT_EQ(v.multi().values[1].as_int(), 2);
}

TEST(Multi, EmptyCollapsesToNull) {
  EXPECT_TRUE(MakeMultiCollapsed({}).is_null());
}

TEST(Multi, EqualComponentsMergeIntoOneClass) {
  Value v = MakeMultiCollapsed({Value::Str("a"), Value::Str("b"), Value::Str("a"),
                                Value::Str("c"), Value::Str("b")});
  ASSERT_TRUE(v.is_multi());
  const MultiValue& m = v.multi();
  ASSERT_EQ(m.values.size(), 3u);  // Distinct components, in order of first request.
  EXPECT_EQ(m.values[0].as_string(), "a");
  EXPECT_EQ(m.values[1].as_string(), "b");
  EXPECT_EQ(m.values[2].as_string(), "c");
  EXPECT_EQ(m.index, (std::vector<uint32_t>{0, 1, 0, 2, 1}));
}

TEST(Multi, EqualClassesMergeAndKeepFirstRequestOrder) {
  // Classes 0 and 2 hold equal components: class 2 folds into 0 and ids stay dense.
  Value v = MakeMultiCollapsed({Value::Int(7), Value::Int(8), Value::Int(7)}, {0, 1, 2, 1, 0});
  ASSERT_TRUE(v.is_multi());
  ASSERT_EQ(v.multi().values.size(), 2u);
  EXPECT_EQ(v.multi().values[0].as_int(), 7);
  EXPECT_EQ(v.multi().values[1].as_int(), 8);
  EXPECT_EQ(v.multi().index, (std::vector<uint32_t>{0, 1, 0, 1, 0}));
}

TEST(Multi, ManyClassesMergeThroughHashBuckets) {
  // More distinct components than the linear scan covers, plus long strings that share
  // their first and last bytes: equal ones must still merge, unequal ones must not.
  std::string pad(100, '=');
  std::vector<Value> items;
  for (int j = 0; j < 60; j++) {
    items.push_back(Value::Str(pad + std::to_string(j % 30) + pad));
  }
  Value v = MakeMultiCollapsed(std::move(items));
  ASSERT_TRUE(v.is_multi());
  const MultiValue& m = v.multi();
  ASSERT_EQ(m.values.size(), 30u);
  for (size_t j = 0; j < 60; j++) {
    EXPECT_EQ(m.index[j], j % 30);
    EXPECT_EQ(m.component(j).as_string(), pad + std::to_string(j % 30) + pad);
  }
}

TEST(Multi, CollapsesToUnivalueWhenEveryClassIsEqual) {
  Value v = MakeMultiCollapsed({Value::Str("s"), Value::Str("s")}, {0, 1, 1, 0});
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "s");
  // Components sharing one array (as per-request SELECT results do) collapse by identity.
  Value rows = Value::Array();
  rows.MutableArray().Append(Value::Int(1));
  Value shared = MakeMultiCollapsed({rows, rows, rows});
  ASSERT_TRUE(shared.is_array());
  EXPECT_EQ(shared.array_ptr(), rows.array_ptr());
}

TEST(Multi, ProjectComponentReadsMultiCellsOfUnivalueArrays) {
  Value arr = Value::Array();
  arr.MutableArray().Set(ArrayKey(std::string("x")),
                         Value::Multi({Value::Int(10), Value::Int(20)}, {0, 1, 1, 0}));
  arr.MutableArray().Set(ArrayKey(std::string("y")), Value::Str("const"));
  const int64_t expected[] = {10, 20, 20, 10};
  for (size_t j = 0; j < 4; j++) {
    Value p = ProjectComponent(arr, j);
    ASSERT_TRUE(p.is_array());
    EXPECT_FALSE(ContainsMulti(p));
    EXPECT_EQ(p.array().Find(ArrayKey(std::string("x")))->as_int(), expected[j]);
    EXPECT_EQ(p.array().Find(ArrayKey(std::string("y")))->as_string(), "const");
  }
}

TEST(Multi, DeepEqualsComparesPerRequestAcrossClassLayouts) {
  Value a = Value::Multi({Value::Int(1), Value::Int(2)}, {0, 1, 0});
  Value b = Value::Multi({Value::Int(1), Value::Int(2), Value::Int(1)}, {0, 1, 2});
  EXPECT_TRUE(Value::DeepEquals(a, b));
  Value c = Value::Multi({Value::Int(1), Value::Int(2)}, {0, 1, 1});
  EXPECT_FALSE(Value::DeepEquals(a, c));
}

TEST(RequestClasses, RefinesByEveryMultiInsideOperands) {
  RequestClasses classes(6);
  EXPECT_FALSE(classes.Refine(Value::Int(3)));
  EXPECT_EQ(classes.size(), 1u);
  Value x = Value::Multi({Value::Int(1), Value::Int(2)}, {0, 0, 1, 1, 0, 1});
  Value y = Value::Multi({Value::Str("p"), Value::Str("q")}, {0, 1, 0, 1, 0, 0});
  Value arr = Value::Array();
  arr.MutableArray().Append(Value::Str("plain"));
  arr.MutableArray().Append(y);  // A multi cell of a univalue array refines too.
  EXPECT_TRUE(classes.Refine(x));
  EXPECT_TRUE(classes.Refine(arr));
  // Classes are the distinct (x, y) pairs, numbered by first request.
  ASSERT_EQ(classes.size(), 4u);
  EXPECT_EQ(classes.rep(0), 0u);
  EXPECT_EQ(classes.rep(1), 1u);
  EXPECT_EQ(classes.rep(2), 2u);
  EXPECT_EQ(classes.rep(3), 3u);
  EXPECT_EQ(classes.TakeIndex(), (std::vector<uint32_t>{0, 1, 2, 3, 0, 2}));
}

TEST(RequestClasses, FinePartitionsRefineWithoutAQuadraticTable) {
  // 20 x 10 class pairs over 40 requests: more pairs than the flat table takes.
  const size_t n = 40;
  std::vector<Value> x_values;
  std::vector<Value> y_values;
  std::vector<uint32_t> x_index;
  std::vector<uint32_t> y_index;
  for (size_t j = 0; j < n; j++) {
    x_index.push_back(static_cast<uint32_t>(j % 20));
    y_index.push_back(static_cast<uint32_t>((j / 2) % 10));
  }
  for (int c = 0; c < 20; c++) {
    x_values.push_back(Value::Int(c));
  }
  for (int c = 0; c < 10; c++) {
    y_values.push_back(Value::Int(100 + c));
  }
  RequestClasses classes(n);
  classes.Refine(Value::Multi(x_values, x_index));
  classes.Refine(Value::Multi(y_values, y_index));
  // Request j and j + 20 agree on both; the first 20 requests are pairwise distinct.
  ASSERT_EQ(classes.size(), 20u);
  for (size_t c = 0; c < 20; c++) {
    EXPECT_EQ(classes.rep(c), c);
  }
  EXPECT_EQ(classes.TakeIndex(), x_index);
}

}  // namespace
}  // namespace orochi
