#include <gtest/gtest.h>

#include "columnar/array.h"
#include "columnar/builder.h"
#include "columnar/types.h"

namespace hepq {
namespace {

TEST(TypesTest, PrimitiveSingletons) {
  EXPECT_EQ(DataType::Float32().get(), DataType::Float32().get());
  EXPECT_TRUE(DataType::Float32()->is_primitive());
  EXPECT_EQ(DataType::Float32()->id(), TypeId::kFloat32);
}

TEST(TypesTest, PrimitiveWidths) {
  EXPECT_EQ(PrimitiveWidth(TypeId::kFloat32), 4);
  EXPECT_EQ(PrimitiveWidth(TypeId::kFloat64), 8);
  EXPECT_EQ(PrimitiveWidth(TypeId::kInt32), 4);
  EXPECT_EQ(PrimitiveWidth(TypeId::kInt64), 8);
  EXPECT_EQ(PrimitiveWidth(TypeId::kBool), 1);
  EXPECT_EQ(PrimitiveWidth(TypeId::kList), 0);
  EXPECT_EQ(PrimitiveWidth(TypeId::kStruct), 0);
}

TEST(TypesTest, StructFieldLookup) {
  auto st = DataType::Struct({{"pt", DataType::Float32()},
                              {"eta", DataType::Float32()}});
  EXPECT_EQ(st->FieldIndex("pt"), 0);
  EXPECT_EQ(st->FieldIndex("eta"), 1);
  EXPECT_EQ(st->FieldIndex("phi"), -1);
}

TEST(TypesTest, EqualityIsStructural) {
  auto a = DataType::List(DataType::Struct({{"x", DataType::Float32()}}));
  auto b = DataType::List(DataType::Struct({{"x", DataType::Float32()}}));
  auto c = DataType::List(DataType::Struct({{"y", DataType::Float32()}}));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_FALSE(a->Equals(*DataType::Float32()));
}

TEST(TypesTest, ToStringRendersNesting) {
  auto t = DataType::List(DataType::Struct(
      {{"pt", DataType::Float32()}, {"charge", DataType::Int32()}}));
  EXPECT_EQ(t->ToString(), "list<struct<pt: float32, charge: int32>>");
}

TEST(TypesTest, NumLeavesCountsRecursively) {
  auto st = DataType::Struct({{"a", DataType::Float32()},
                              {"b", DataType::Float64()}});
  EXPECT_EQ(st->NumLeaves(), 2);
  EXPECT_EQ(DataType::List(st)->NumLeaves(), 2);
  Schema schema({{"x", DataType::Int64()}, {"s", st}});
  EXPECT_EQ(schema.NumLeaves(), 3);
}

TEST(SchemaTest, FieldLookup) {
  Schema schema({{"a", DataType::Int32()}, {"b", DataType::Float32()}});
  EXPECT_EQ(schema.FieldIndex("b"), 1);
  EXPECT_EQ(schema.FieldIndex("z"), -1);
  EXPECT_TRUE(schema.FindField("a").ok());
  EXPECT_EQ(schema.FindField("zz").status().code(), StatusCode::kKeyError);
}

TEST(ArrayTest, PrimitiveBasics) {
  auto arr = MakeFloat32Array({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(arr->length(), 3);
  const auto& typed = static_cast<const Float32Array&>(*arr);
  EXPECT_FLOAT_EQ(typed.Value(1), 2.0f);
}

TEST(ArrayTest, PrimitiveEquality) {
  auto a = MakeInt32Array({1, 2, 3});
  auto b = MakeInt32Array({1, 2, 3});
  auto c = MakeInt32Array({1, 2, 4});
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_FALSE(a->Equals(*MakeInt64Array({1, 2, 3})));
}

TEST(ListArrayTest, OffsetsDefineRows) {
  auto child = MakeFloat32Array({1, 2, 3, 4, 5});
  auto list = ListArray::Make({0, 2, 2, 5}, child);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ((*list)->length(), 3);
  EXPECT_EQ((*list)->list_length(0), 2);
  EXPECT_EQ((*list)->list_length(1), 0);
  EXPECT_EQ((*list)->list_length(2), 3);
  EXPECT_EQ((*list)->list_offset(2), 2u);
}

TEST(ListArrayTest, RejectsBadOffsets) {
  auto child = MakeFloat32Array({1, 2, 3});
  EXPECT_FALSE(ListArray::Make({}, child).ok());
  EXPECT_FALSE(ListArray::Make({1, 3}, child).ok());          // not 0-based
  EXPECT_FALSE(ListArray::Make({0, 2, 1, 3}, child).ok());    // decreasing
  EXPECT_FALSE(ListArray::Make({0, 2}, child).ok());  // child too long
}

TEST(StructArrayTest, ChildrenByName) {
  auto st = StructArray::Make(
      {{"pt", DataType::Float32()}, {"q", DataType::Int32()}},
      {MakeFloat32Array({1, 2}), MakeInt32Array({-1, 1})});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*st)->length(), 2);
  EXPECT_NE((*st)->ChildByName("pt"), nullptr);
  EXPECT_EQ((*st)->ChildByName("nope"), nullptr);
}

TEST(StructArrayTest, RejectsLengthMismatch) {
  auto r = StructArray::Make(
      {{"a", DataType::Float32()}, {"b", DataType::Float32()}},
      {MakeFloat32Array({1, 2}), MakeFloat32Array({1})});
  EXPECT_FALSE(r.ok());
}

TEST(StructArrayTest, RejectsTypeMismatch) {
  auto r = StructArray::Make({{"a", DataType::Int32()}},
                             {MakeFloat32Array({1})});
  EXPECT_FALSE(r.ok());
}

TEST(BuilderTest, PrimitiveBuilder) {
  PrimitiveBuilder<float> builder(DataType::Float32());
  builder.Reserve(3);
  builder.Append(1.0f);
  const float more[] = {2.0f, 3.0f};
  builder.AppendSpan(more);
  EXPECT_EQ(builder.length(), 3);
  auto arr = builder.Finish();
  EXPECT_EQ(arr->length(), 3);
  EXPECT_FLOAT_EQ(arr->Value(2), 3.0f);
}

TEST(BuilderTest, ListOfStruct) {
  auto arr = MakeListOfStructArray(
      {{"pt", DataType::Float32()}, {"charge", DataType::Int32()}},
      {0, 1, 3}, {MakeFloat32Array({10, 20, 30}),
                  MakeInt32Array({1, -1, 1})});
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ((*arr)->length(), 2);
  const auto& list = static_cast<const ListArray&>(**arr);
  EXPECT_EQ(list.child()->type()->id(), TypeId::kStruct);
}

TEST(RecordBatchTest, MakeValidatesShape) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"a", DataType::Int32()}});
  EXPECT_FALSE(RecordBatch::Make(schema, {}).ok());  // missing column
  EXPECT_FALSE(
      RecordBatch::Make(schema, {MakeFloat32Array({1})}).ok());  // type
  auto ok = RecordBatch::Make(schema, {MakeInt32Array({1, 2})});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->num_rows(), 2);
  EXPECT_NE((*ok)->ColumnByName("a"), nullptr);
  EXPECT_EQ((*ok)->ColumnByName("zz"), nullptr);
}

TEST(RecordBatchTest, Equality) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"a", DataType::Int32()}});
  auto b1 = RecordBatch::Make(schema, {MakeInt32Array({1, 2})}).ValueOrDie();
  auto b2 = RecordBatch::Make(schema, {MakeInt32Array({1, 2})}).ValueOrDie();
  auto b3 = RecordBatch::Make(schema, {MakeInt32Array({1, 3})}).ValueOrDie();
  EXPECT_TRUE(b1->Equals(*b2));
  EXPECT_FALSE(b1->Equals(*b3));
}

}  // namespace
}  // namespace hepq
