#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "datagen/dataset.h"
#include "doc/ast.h"
#include "doc/convert.h"
#include "doc/functions.h"
#include "doc/item.h"
#include "doc/runner.h"

namespace hepq::doc {
namespace {

class DocTest : public ::testing::Test {
 protected:
  void SetUp() override { EnsureDocFunctionsRegistered(); }

  Sequence Eval(const DocExprPtr& expr) {
    DocContext ctx;
    return expr->Eval(&ctx).ValueOrDie();
  }

  Sequence EvalWith(const DocExprPtr& expr, const std::string& var,
                    Sequence value) {
    DocContext ctx;
    ctx.Push(var, std::move(value));
    return expr->Eval(&ctx).ValueOrDie();
  }
};

TEST_F(DocTest, ItemBasics) {
  EXPECT_EQ(Item::Number(2.5)->AsDouble(), 2.5);
  EXPECT_TRUE(Item::Bool(true)->AsBool());
  EXPECT_FALSE(Item::Null()->AsBool());
  EXPECT_FALSE(Item::Number(0.0)->AsBool());
  EXPECT_TRUE(Item::Number(1.0)->AsBool());
  EXPECT_TRUE(Item::String("x")->AsBool());
  EXPECT_FALSE(Item::String("")->AsBool());
}

TEST_F(DocTest, ObjectMemberLookup) {
  auto obj = Item::Object({{"a", Item::Number(1)}, {"b", Item::Number(2)}});
  ASSERT_NE(obj->Member("b"), nullptr);
  EXPECT_EQ(obj->Member("b")->AsDouble(), 2.0);
  EXPECT_EQ(obj->Member("c"), nullptr);
}

TEST_F(DocTest, ToJson) {
  auto obj = Item::Object(
      {{"x", Item::Number(1.5)},
       {"a", Item::Array({Item::Bool(true), Item::Null()})}});
  EXPECT_EQ(obj->ToJson(), "{\"x\":1.5,\"a\":[true,null]}");
  // Strings and keys are escaped; non-finite numbers are null.
  auto escaped = Item::Object(
      {{"k\"", Item::String("a\\b\n")},
       {"inf", Item::Number(std::numeric_limits<double>::infinity())}});
  EXPECT_EQ(escaped->ToJson(), "{\"k\\\"\":\"a\\\\b\\n\",\"inf\":null}");
}

TEST_F(DocTest, EffectiveBooleanValue) {
  EXPECT_FALSE(EffectiveBooleanValue({}));
  EXPECT_FALSE(EffectiveBooleanValue({Item::Bool(false)}));
  EXPECT_TRUE(EffectiveBooleanValue({Item::Number(3)}));
  EXPECT_TRUE(
      EffectiveBooleanValue({Item::Number(0), Item::Number(0)}));
}

TEST_F(DocTest, ArithmeticAndComparison) {
  EXPECT_EQ(Eval(DBin(DocBinOp::kAdd, DNum(2), DNum(3)))[0]->AsDouble(),
            5.0);
  EXPECT_TRUE(Eval(DBin(DocBinOp::kLt, DNum(2), DNum(3)))[0]->AsBool());
  EXPECT_FALSE(Eval(DBin(DocBinOp::kEq, DNum(2), DNum(3)))[0]->AsBool());
  // Empty operand propagates to empty result.
  EXPECT_TRUE(Eval(DBin(DocBinOp::kAdd, DConcat({}), DNum(1))).empty());
}

TEST_F(DocTest, VariableLookupAndError) {
  EXPECT_EQ(EvalWith(DVar("x"), "x", {Item::Number(7)})[0]->AsDouble(),
            7.0);
  DocContext ctx;
  EXPECT_EQ(DVar("missing")->Eval(&ctx).status().code(),
            StatusCode::kKeyError);
}

TEST_F(DocTest, MemberAccessMapsOverSequence) {
  Sequence objs = {Item::Object({{"pt", Item::Number(1)}}),
                   Item::Object({{"pt", Item::Number(2)}}),
                   Item::Number(99)};  // non-object skipped
  auto result = EvalWith(DMember(DVar("v"), "pt"), "v", objs);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[1]->AsDouble(), 2.0);
}

TEST_F(DocTest, UnboxFlattensArrays) {
  Sequence arrays = {Item::Array({Item::Number(1), Item::Number(2)}),
                     Item::Array({Item::Number(3)})};
  auto result = EvalWith(DUnbox(DVar("v")), "v", arrays);
  EXPECT_EQ(result.size(), 3u);
}

TEST_F(DocTest, PredicateFiltersByContextItem) {
  Sequence nums = {Item::Number(1), Item::Number(5), Item::Number(9)};
  auto result = EvalWith(
      DPredicate(DVar("v"), DBin(DocBinOp::kGt, DContextItem(), DNum(3))),
      "v", nums);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0]->AsDouble(), 5.0);
}

TEST_F(DocTest, PositionalPredicateSelectsByIndex) {
  Sequence nums = {Item::Number(10), Item::Number(20), Item::Number(30)};
  auto result = EvalWith(DPredicate(DVar("v"), DNum(2)), "v", nums);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0]->AsDouble(), 20.0);
}

TEST_F(DocTest, FlworForWhereReturn) {
  Sequence nums = {Item::Number(1), Item::Number(2), Item::Number(3),
                   Item::Number(4)};
  // for $x in $v where $x gt 2 return $x * 10
  auto flwor = DFlwor({For("x", DVar("v")),
                       Where(DBin(DocBinOp::kGt, DVar("x"), DNum(2)))},
                      DBin(DocBinOp::kMul, DVar("x"), DNum(10)));
  auto result = EvalWith(flwor, "v", nums);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0]->AsDouble(), 30.0);
  EXPECT_EQ(result[1]->AsDouble(), 40.0);
}

TEST_F(DocTest, FlworLetBindsOnce) {
  auto flwor = DFlwor({For("x", DVar("v")),
                       Let("y", DBin(DocBinOp::kAdd, DVar("x"), DNum(1)))},
                      DVar("y"));
  auto result = EvalWith(flwor, "v", {Item::Number(1), Item::Number(2)});
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[1]->AsDouble(), 3.0);
}

TEST_F(DocTest, FlworPositionVariables) {
  // Cartesian product with at-counters: pairs (i, j) with i < j.
  Sequence nums = {Item::Number(5), Item::Number(6), Item::Number(7)};
  auto flwor = DFlwor(
      {For("a", DVar("v"), "i"), For("b", DVar("v"), "j"),
       Where(DBin(DocBinOp::kLt, DVar("i"), DVar("j")))},
      DNum(1));
  EXPECT_EQ(EvalWith(flwor, "v", nums).size(), 3u);  // C(3,2)
}

TEST_F(DocTest, FlworOrderByAscendingAndDescending) {
  Sequence nums = {Item::Number(3), Item::Number(1), Item::Number(2)};
  auto asc = DFlwor({For("x", DVar("v"))}, DVar("x"), DVar("x"), false);
  auto result = EvalWith(asc, "v", nums);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0]->AsDouble(), 1.0);
  EXPECT_EQ(result[2]->AsDouble(), 3.0);
  auto desc = DFlwor({For("x", DVar("v"))}, DVar("x"), DVar("x"), true);
  EXPECT_EQ(EvalWith(desc, "v", nums)[0]->AsDouble(), 3.0);
}

TEST_F(DocTest, IfAndObjectAndArray) {
  auto obj = Eval(DObject({{"a", DNum(1)}, {"b", DNum(2)}}));
  ASSERT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj[0]->Member("b")->AsDouble(), 2.0);
  auto arr = Eval(DArray(DConcat({DNum(1), DNum(2)})));
  EXPECT_EQ(arr[0]->Elements().size(), 2u);
  EXPECT_TRUE(Eval(DIf(DBool(false), DNum(1), nullptr)).empty());
  EXPECT_EQ(Eval(DIf(DBool(true), DNum(1), DNum(2)))[0]->AsDouble(), 1.0);
}

TEST_F(DocTest, CoreFunctions) {
  Sequence nums = {Item::Number(4), Item::Number(2), Item::Number(6)};
  EXPECT_EQ(EvalWith(DCall("count", {DVar("v")}), "v", nums)[0]->AsDouble(),
            3.0);
  EXPECT_EQ(EvalWith(DCall("sum", {DVar("v")}), "v", nums)[0]->AsDouble(),
            12.0);
  EXPECT_EQ(EvalWith(DCall("min", {DVar("v")}), "v", nums)[0]->AsDouble(),
            2.0);
  EXPECT_EQ(EvalWith(DCall("max", {DVar("v")}), "v", nums)[0]->AsDouble(),
            6.0);
  EXPECT_TRUE(
      EvalWith(DCall("exists", {DVar("v")}), "v", nums)[0]->AsBool());
  EXPECT_TRUE(Eval(DCall("empty", {DConcat({})}))[0]->AsBool());
  EXPECT_EQ(Eval(DCall("abs", {DNum(-2.5)}))[0]->AsDouble(), 2.5);
  EXPECT_EQ(Eval(DCall("sqrt", {DNum(9)}))[0]->AsDouble(), 3.0);
  DocContext ctx;
  EXPECT_EQ(DCall("nope", {})->Eval(&ctx).status().code(),
            StatusCode::kKeyError);
}

TEST_F(DocTest, PhysicsFunctions) {
  auto particle = [](double pt, double eta, double phi, double mass) {
    return DObject({{"pt", DNum(pt)},
                    {"eta", DNum(eta)},
                    {"phi", DNum(phi)},
                    {"mass", DNum(mass)}});
  };
  auto mass = Eval(DCall("hep:invariant-mass2",
                         {particle(40, 0, 0, 0), particle(40, 0, M_PI, 0)}));
  EXPECT_NEAR(mass[0]->AsDouble(), 80.0, 1e-9);
  auto combined = Eval(DCall(
      "hep:add-pt-eta-phi-m2",
      {particle(40, 0, 0, 0), particle(40, 0, 0, 0)}));
  EXPECT_NEAR(combined[0]->Member("pt")->AsDouble(), 80.0, 1e-9);
  auto dr = Eval(DCall("hep:delta-r",
                       {particle(1, 0, 0.3, 0), particle(1, 3, 0.7, 0)}));
  EXPECT_NEAR(dr[0]->AsDouble(), std::sqrt(9.0 + 0.16), 1e-9);
}

TEST_F(DocTest, PhysicsFunctionArgErrors) {
  DocContext ctx;
  EXPECT_FALSE(DCall("hep:invariant-mass2", {DNum(1), DNum(2)})
                   ->Eval(&ctx)
                   .ok());
  EXPECT_FALSE(DCall("count", {})->Eval(&ctx).ok());
}

TEST_F(DocTest, EventToItemConversion) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"event", DataType::Int64()},
      {"flag", DataType::Bool()},
      {"MET", DataType::Struct({{"pt", DataType::Float32()}})},
      {"Jet", DataType::List(DataType::Struct(
                  {{"pt", DataType::Float32()}}))},
  });
  auto met = StructArray::Make({{"pt", DataType::Float32()}},
                               {MakeFloat32Array({25.0f, 60.0f})})
                 .ValueOrDie();
  auto jets = MakeListOfStructArray({{"pt", DataType::Float32()}},
                                    {0, 2, 3},
                                    {MakeFloat32Array({1, 2, 3})})
                  .ValueOrDie();
  auto batch = RecordBatch::Make(schema, {MakeInt64Array({7, 8}),
                                          MakeBoolArray({1, 0}), met, jets})
                   .ValueOrDie();

  auto item = EventToItem(*batch, 0);
  EXPECT_EQ(item->Member("event")->AsDouble(), 7.0);
  EXPECT_TRUE(item->Member("flag")->AsBool());
  EXPECT_FLOAT_EQ(
      static_cast<float>(item->Member("MET")->Member("pt")->AsDouble()),
      25.0f);
  ASSERT_TRUE(item->Member("Jet")->IsArray());
  EXPECT_EQ(item->Member("Jet")->Elements().size(), 2u);
  auto item1 = EventToItem(*batch, 1);
  EXPECT_EQ(item1->Member("Jet")->Elements().size(), 1u);
  EXPECT_FALSE(item1->Member("flag")->AsBool());
}

TEST_F(DocTest, GroupByGroupsTuplesByKey) {
  // for $x in $v let $parity := $x mod 2... emulated with multiplication:
  // group values {1, 2, 3, 4, 5} by floor($x / 2): keys 0,1,1,2,2.
  Sequence nums = {Item::Number(1), Item::Number(2), Item::Number(3),
                   Item::Number(4), Item::Number(5)};
  auto flwor = DFlwor(
      {For("x", DVar("v")),
       Let("bin", DCall("floor_half", {DVar("x")})), GroupBy("bin")},
      DObject({{"bin", DVar("bin")},
               {"count", DCall("count", {DVar("x")})},
               {"sum", DCall("sum", {DVar("x")})}}));
  RegisterDocFunction(
      "floor_half",
      [](const std::vector<Sequence>& args) -> Result<Sequence> {
        return Sequence{Item::Number(
            std::floor(args[0].front()->AsDouble() / 2.0))};
      });
  auto groups = EvalWith(flwor, "v", nums);
  ASSERT_EQ(groups.size(), 3u);  // bins 0, 1, 2 in first-seen order
  EXPECT_EQ(groups[0]->Member("bin")->AsDouble(), 0.0);
  EXPECT_EQ(groups[0]->Member("count")->AsDouble(), 1.0);
  EXPECT_EQ(groups[1]->Member("count")->AsDouble(), 2.0);  // 2, 3
  EXPECT_EQ(groups[1]->Member("sum")->AsDouble(), 5.0);
  EXPECT_EQ(groups[2]->Member("sum")->AsDouble(), 9.0);  // 4, 5
}

TEST_F(DocTest, GroupByHistogramIdiom) {
  // The corpus's hep:histogram pattern: bin values, count per bin.
  Sequence values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(Item::Number(i % 10));
  }
  RegisterDocFunction(
      "identity_bin",
      [](const std::vector<Sequence>& args) -> Result<Sequence> {
        return Sequence{args[0].front()};
      });
  auto flwor = DFlwor({For("value", DVar("v")),
                       Let("b", DCall("identity_bin", {DVar("value")})),
                       GroupBy("b")},
                      DCall("count", {DVar("value")}));
  auto counts = EvalWith(flwor, "v", values);
  ASSERT_EQ(counts.size(), 10u);
  for (const ItemPtr& count : counts) {
    EXPECT_EQ(count->AsDouble(), 10.0);
  }
}

TEST_F(DocTest, GroupByKeysOnExactAtomicValue) {
  auto flwor = DFlwor(
      {For("x", DVar("v")), Let("k", DVar("x")), GroupBy("k")},
      DCall("count", {DVar("x")}));
  auto group_sizes = [&](Sequence values) {
    std::vector<double> sizes;
    for (const ItemPtr& count : EvalWith(flwor, "v", std::move(values))) {
      sizes.push_back(count->AsDouble());
    }
    return sizes;
  };
  // Keys equal to 6 significant digits stay apart; -0 groups with +0 and
  // every NaN with every other NaN (JSONiq/XQuery deep-equal).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(group_sizes({Item::Number(1234567), Item::Number(1234568),
                         Item::Number(0.0), Item::Number(-0.0),
                         Item::Number(nan), Item::Number(-nan)}),
            (std::vector<double>{1, 1, 2, 2}));
  // Atomic values of different kinds never share a group.
  EXPECT_EQ(group_sizes({Item::Number(1), Item::String("1"), Item::Bool(true),
                         Item::String("true"), Item::Null(), Item::Null()}),
            (std::vector<double>{1, 1, 1, 1, 2}));
}

TEST_F(DocTest, GroupByErrors) {
  DocContext ctx;
  ctx.Push("v", {Item::Number(1)});
  // Grouping by a variable that is not bound before the clause.
  auto bad = DFlwor({For("x", DVar("v")), GroupBy("nope")}, DVar("x"));
  EXPECT_EQ(bad->Eval(&ctx).status().code(), StatusCode::kKeyError);
  // Two group-by clauses.
  auto twice = DFlwor({For("x", DVar("v")), GroupBy("x"), GroupBy("x")},
                      DVar("x"));
  EXPECT_FALSE(twice->Eval(&ctx).ok());
  // A key that is not atomic.
  ctx.Push("a", {Item::Array({Item::Number(1)})});
  auto array_key = DFlwor({For("x", DVar("a")), GroupBy("x")}, DVar("x"));
  EXPECT_EQ(array_key->Eval(&ctx).status().code(), StatusCode::kTypeError);
}

TEST_F(DocTest, SomeQuantifier) {
  Sequence nums = {Item::Number(1), Item::Number(5), Item::Number(9)};
  EXPECT_TRUE(EvalWith(DSome("x", DVar("v"),
                             DBin(DocBinOp::kGt, DVar("x"), DNum(8))),
                       "v", nums)[0]
                  ->AsBool());
  EXPECT_FALSE(EvalWith(DSome("x", DVar("v"),
                              DBin(DocBinOp::kGt, DVar("x"), DNum(10))),
                        "v", nums)[0]
                   ->AsBool());
  // Vacuously false on the empty sequence.
  EXPECT_FALSE(Eval(DSome("x", DConcat({}), DBool(true)))[0]->AsBool());
}

TEST_F(DocTest, EveryQuantifier) {
  Sequence nums = {Item::Number(1), Item::Number(5), Item::Number(9)};
  EXPECT_TRUE(EvalWith(DEvery("x", DVar("v"),
                              DBin(DocBinOp::kGt, DVar("x"), DNum(0))),
                       "v", nums)[0]
                  ->AsBool());
  EXPECT_FALSE(EvalWith(DEvery("x", DVar("v"),
                               DBin(DocBinOp::kGt, DVar("x"), DNum(2))),
                        "v", nums)[0]
                   ->AsBool());
  // Vacuously true on the empty sequence.
  EXPECT_TRUE(Eval(DEvery("x", DConcat({}), DBool(false)))[0]->AsBool());
}

TEST_F(DocTest, InterpreterStepsAccumulate) {
  DocContext ctx;
  ctx.Push("v", {Item::Number(1), Item::Number(2)});
  auto flwor = DFlwor({For("x", DVar("v"))},
                      DBin(DocBinOp::kMul, DVar("x"), DNum(2)));
  ASSERT_TRUE(flwor->Eval(&ctx).ok());
  EXPECT_GT(ctx.steps, 5u);
}

// ---------------------------------------------------------------------------
// Guard pushdown: guard shapes the ADL doc queries do not use. Each guard
// runs with scan pushdown on and off over a file whose event-id zone maps
// can prune; the histograms and selection must be identical, and pushdown
// must actually prune.
// ---------------------------------------------------------------------------

class DocPushdownTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec;
    spec.num_events = 4000;
    spec.row_group_size = 1000;
    path_ = new std::string(
        EnsureDataset(::testing::TempDir() + "/hepq_doc_pushdown", spec)
            .ValueOrDie());
  }

  static DocQueryResult Run(DocExprPtr (*guard)(), bool pushdown) {
    DocQuery query;
    query.name = "guarded_met";
    query.guard = guard();
    query.fills.emplace_back(HistogramSpec{"met", "MET", 50, 0.0, 200.0},
                             DMember(DMember(DVar("event"), "MET"), "pt"));
    ReaderOptions options;
    options.scan_pushdown = pushdown;
    return RunDocQuery(*path_, options, 1, query).ValueOrDie();
  }

  /// Runs `guard` with pushdown on and off; returns the pushdown run.
  static DocQueryResult ExpectPushdownInvisible(DocExprPtr (*guard)()) {
    const DocQueryResult on = Run(guard, true);
    const DocQueryResult off = Run(guard, false);
    EXPECT_GT(on.scan.groups_pruned + on.scan.pages_pruned, 0u);
    EXPECT_EQ(off.scan.groups_pruned + off.scan.pages_pruned, 0u);
    EXPECT_EQ(on.events_processed, off.events_processed);
    EXPECT_EQ(on.events_selected, off.events_selected);
    const HistogramParts a = on.histograms.at(0).ToParts();
    const HistogramParts b = off.histograms.at(0).ToParts();
    EXPECT_EQ(a.bins, b.bins);
    EXPECT_EQ(a.num_entries, b.num_entries);
    EXPECT_EQ(a.underflow, b.underflow);
    EXPECT_EQ(a.overflow, b.overflow);
    EXPECT_EQ(a.sum_wx, b.sum_wx);
    return on;
  }

  static std::string* path_;
};

std::string* DocPushdownTest::path_ = nullptr;

DocExprPtr EventId() { return DMember(DVar("event"), "event"); }

TEST_F(DocPushdownTest, MirroredLiteralsOnNestedLeaves) {
  // `25 < $event.MET.pt` mirrors to MET.pt > 25 (a nested scalar leaf);
  // `2500 > $event.event` mirrors to event < 2500, which rules out the
  // last group (events 3000..3999). Unmirrored, it would prune the first
  // two groups instead and change the selection.
  const DocQueryResult on = ExpectPushdownInvisible([] {
    return DBin(DocBinOp::kAnd,
                DBin(DocBinOp::kLt, DNum(25),
                     DMember(DMember(DVar("event"), "MET"), "pt")),
                DBin(DocBinOp::kGt, DNum(2500), EventId()));
  });
  EXPECT_EQ(on.scan.groups_pruned, 1u);
  EXPECT_GT(on.events_selected, 0);
}

TEST_F(DocPushdownTest, EqualityKeepsOneGroup) {
  const DocQueryResult on = ExpectPushdownInvisible(
      [] { return DBin(DocBinOp::kEq, EventId(), DNum(1234)); });
  EXPECT_EQ(on.scan.groups_pruned, 3u);
  EXPECT_EQ(on.events_selected, 1);
}

}  // namespace
}  // namespace hepq::doc
