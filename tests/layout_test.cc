#include <gtest/gtest.h>

#include "cloud/simulator.h"
#include "columnar/builder.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "datagen/root_layout.h"
#include "fileio/predicate.h"
#include "fileio/reader.h"
#include "fileio/writer.h"

namespace hepq {
namespace {

// ---------------------------------------------------------------------------
// ROOT-style flat layout conversion (paper §3.1 "Data Format")
// ---------------------------------------------------------------------------

TEST(RootLayoutTest, SchemaFlattening) {
  const SchemaPtr nested = EventGenerator::CmsSchema();
  auto flat = RootLayoutSchema(*nested);
  ASSERT_TRUE(flat.ok());
  // Scalars survive as-is; structs become underscore branches; every
  // particle column gets an nX counter.
  EXPECT_GE((*flat)->FieldIndex("event"), 0);
  EXPECT_GE((*flat)->FieldIndex("MET_pt"), 0);
  EXPECT_GE((*flat)->FieldIndex("nJet"), 0);
  EXPECT_GE((*flat)->FieldIndex("Jet_pt"), 0);
  EXPECT_GE((*flat)->FieldIndex("Muon_charge"), 0);
  EXPECT_EQ((*flat)->FieldIndex("Jet"), -1);
  // The flat layout carries strictly more columns (the redundant counts).
  EXPECT_GT((*flat)->num_fields(), nested->num_fields());
}

TEST(RootLayoutTest, RoundTripPreservesData) {
  EventGenerator generator;
  const RecordBatchPtr nested = generator.GenerateBatch(2000);
  auto flat = ToRootLayout(*nested);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ((*flat)->num_rows(), nested->num_rows());
  auto back = FromRootLayout(**flat, nested->schema());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE((*back)->Equals(*nested));
}

TEST(RootLayoutTest, BranchValuesMatchNestedView) {
  EventGenerator generator;
  const RecordBatchPtr nested = generator.GenerateBatch(100);
  auto flat = ToRootLayout(*nested).ValueOrDie();
  const auto& njet =
      static_cast<const Int32Array&>(*flat->ColumnByName("nJet"));
  const auto& jets =
      static_cast<const ListArray&>(*nested->ColumnByName("Jet"));
  for (int64_t i = 0; i < nested->num_rows(); ++i) {
    EXPECT_EQ(njet.Value(i), jets.list_length(i));
  }
}

TEST(RootLayoutTest, DetectsInconsistentBranches) {
  // Build a flat batch where nJet disagrees with the Jet_pt branch — the
  // consistency violation a nested layout makes impossible.
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"nJet", DataType::Int32()},
      {"Jet_pt", DataType::List(DataType::Float32())},
  });
  auto pt_branch =
      ListArray::Make({0, 2}, MakeFloat32Array({1, 2})).ValueOrDie();
  auto flat = RecordBatch::Make(
                  schema, {MakeInt32Array({3}), ArrayPtr(pt_branch)})
                  .ValueOrDie();
  auto nested_schema = std::make_shared<Schema>(std::vector<Field>{
      {"Jet", DataType::List(DataType::Struct(
                  {{"pt", DataType::Float32()}}))}});
  auto result = FromRootLayout(*flat, nested_schema);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(RootLayoutTest, MissingBranchIsKeyError) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"nJet", DataType::Int32()}});
  auto flat =
      RecordBatch::Make(schema, {MakeInt32Array({0})}).ValueOrDie();
  auto nested_schema = std::make_shared<Schema>(std::vector<Field>{
      {"Jet", DataType::List(DataType::Struct(
                  {{"pt", DataType::Float32()}}))}});
  EXPECT_EQ(FromRootLayout(*flat, nested_schema).status().code(),
            StatusCode::kKeyError);
}

TEST(RootLayoutTest, FlatLayoutWritesToLaq) {
  // The ROOT-style logical layout is storable in the same file format:
  // same physical shredding, different logical schema (paper §3.1).
  EventGenerator generator;
  const RecordBatchPtr nested = generator.GenerateBatch(500);
  auto flat = ToRootLayout(*nested).ValueOrDie();
  const std::string path = ::testing::TempDir() + "/root_layout.laq";
  ASSERT_TRUE(WriteLaqFile(path, flat->schema(), {flat}).ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->ReadRowGroup(0, {"nJet", "Jet_pt", "MET_pt"});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->num_rows(), 500);
}

// ---------------------------------------------------------------------------
// Row-group pruning on statistics
// ---------------------------------------------------------------------------

class PruningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec;
    spec.num_events = 4000;
    spec.row_group_size = 1000;
    path_ = new std::string(
        EnsureDataset(::testing::TempDir() + "/hepq_prune", spec)
            .ValueOrDie());
  }

  /// Reads every row group through ReadRowGroupFiltered and returns the
  /// ones that came back as a batch; a null batch is a pruned group, and
  /// the reader's groups_pruned must count exactly those.
  static std::vector<int> SurvivingGroups(const ScanPredicateSet& predicates) {
    auto reader = LaqReader::Open(*path_).ValueOrDie();
    std::vector<int> survivors;
    for (int g = 0; g < reader->num_row_groups(); ++g) {
      auto batch = reader->ReadRowGroupFiltered(g, {"event"}, predicates,
                                                nullptr);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (batch.ok() && *batch != nullptr) survivors.push_back(g);
    }
    EXPECT_EQ(reader->scan_stats().groups_pruned,
              static_cast<uint64_t>(reader->num_row_groups()) -
                  survivors.size());
    return survivors;
  }

  static ScanPredicateSet Range(const std::string& leaf, double lo,
                                double hi) {
    ScanPredicateSet set;
    set.AddRange(leaf, lo, hi);
    return set;
  }

  static std::string* path_;
};

std::string* PruningTest::path_ = nullptr;

TEST_F(PruningTest, EventIdRangeSelectsMatchingGroups) {
  // Event ids are monotonically increasing: 0..999 in group 0, etc.
  EXPECT_EQ(SurvivingGroups(Range("event", 1500.0, 1700.0)),
            std::vector<int>{1});
  EXPECT_EQ(SurvivingGroups(Range("event", 900.0, 1100.0)),
            (std::vector<int>{0, 1}));
}

TEST_F(PruningTest, FullRangeKeepsAllGroups) {
  EXPECT_EQ(SurvivingGroups(Range("event", -1e18, 1e18)).size(), 4u);
}

TEST_F(PruningTest, DisjointRangeSelectsNothing) {
  EXPECT_TRUE(SurvivingGroups(Range("event", 1e9, 2e9)).empty());
}

TEST_F(PruningTest, WorksOnNestedLeaves) {
  // Jet pt starts at jet_pt_min = 15: no jet of any group lies below 10.
  ScanPredicateSet below;
  below.AddItemRange("Jet.pt", 0.0, 10.0);
  EXPECT_TRUE(SurvivingGroups(below).empty());
  ScanPredicateSet inside;
  inside.AddItemRange("Jet.pt", 20.0, 30.0);
  EXPECT_EQ(SurvivingGroups(inside).size(), 4u);
}

// ---------------------------------------------------------------------------
// Spot pricing
// ---------------------------------------------------------------------------

TEST(SpotPricingTest, DiscountsSelfManagedCost) {
  cloud::MeasuredQuery measured;
  measured.cpu_seconds = 100.0;
  measured.row_groups = 64;
  const cloud::InstanceType instance =
      cloud::FindInstance("m5d.8xlarge").ValueOrDie();
  cloud::SystemModel on_demand =
      cloud::DefaultModel(cloud::CloudSystem::kPresto);
  cloud::SystemModel spot = on_demand;
  spot.price_factor = 0.2;  // "up to 5x" cheaper (paper §4.1)
  auto a = cloud::Simulate(on_demand, measured, &instance);
  auto b = cloud::Simulate(spot, measured, &instance);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->wall_seconds, b->wall_seconds);
  EXPECT_NEAR(b->cost_usd, a->cost_usd * 0.2, 1e-12);
}

// ---------------------------------------------------------------------------
// Property test: file round-trip over randomized batches
// ---------------------------------------------------------------------------

class FileRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FileRoundTripProperty, GeneratedDataSurvivesWriteRead) {
  GeneratorConfig config;
  config.seed = GetParam();
  EventGenerator generator(config);
  std::vector<RecordBatchPtr> batches;
  Rng rng(GetParam() * 7919);
  int64_t total = 0;
  const int num_batches = 1 + static_cast<int>(rng.NextBelow(4));
  for (int b = 0; b < num_batches; ++b) {
    const int64_t n = 1 + static_cast<int64_t>(rng.NextBelow(700));
    batches.push_back(generator.GenerateBatch(n));
    total += n;
  }
  WriterOptions options;
  options.row_group_size = 1 + static_cast<int64_t>(rng.NextBelow(500));
  options.codec = rng.NextBool(0.5) ? Codec::kLz : Codec::kNone;

  const std::string path = ::testing::TempDir() + "/roundtrip_" +
                           std::to_string(GetParam()) + ".laq";
  ASSERT_TRUE(
      WriteLaqFile(path, EventGenerator::CmsSchema(), batches, options)
          .ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_rows(), total);

  // Reassemble all rows and compare column-by-column via the doc-item
  // dump of a few sampled events (cheap deep equality across group
  // boundaries would require concatenation; instead verify per-group
  // equality against a freshly generated reference stream).
  EventGenerator reference(config);
  std::vector<RecordBatchPtr> reference_batches;
  for (int b = 0; b < num_batches; ++b) {
    reference_batches.push_back(
        reference.GenerateBatch(batches[static_cast<size_t>(b)]->num_rows()));
  }
  // Flatten reference to one event cursor.
  int64_t checked = 0;
  int ref_index = 0;
  int64_t ref_offset = 0;
  for (int g = 0; g < (*reader)->num_row_groups(); ++g) {
    auto batch = (*reader)->ReadRowGroup(g);
    ASSERT_TRUE(batch.ok());
    const auto& met = static_cast<const StructArray&>(
        *(*batch)->ColumnByName("MET"));
    const auto& met_pt =
        static_cast<const Float32Array&>(*met.ChildByName("pt"));
    const auto& jets = static_cast<const ListArray&>(
        *(*batch)->ColumnByName("Jet"));
    for (int64_t row = 0; row < (*batch)->num_rows(); ++row) {
      while (ref_offset >=
             reference_batches[static_cast<size_t>(ref_index)]->num_rows()) {
        ++ref_index;
        ref_offset = 0;
      }
      const auto& ref_batch =
          *reference_batches[static_cast<size_t>(ref_index)];
      const auto& ref_met = static_cast<const StructArray&>(
          *ref_batch.ColumnByName("MET"));
      const auto& ref_met_pt =
          static_cast<const Float32Array&>(*ref_met.ChildByName("pt"));
      const auto& ref_jets = static_cast<const ListArray&>(
          *ref_batch.ColumnByName("Jet"));
      ASSERT_FLOAT_EQ(met_pt.Value(row), ref_met_pt.Value(ref_offset));
      ASSERT_EQ(jets.list_length(row), ref_jets.list_length(ref_offset));
      ++ref_offset;
      ++checked;
    }
  }
  EXPECT_EQ(checked, total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Failure injection: arbitrary truncation must error, never crash.
// ---------------------------------------------------------------------------

class TruncationProperty : public ::testing::TestWithParam<int> {};

TEST_P(TruncationProperty, TruncatedFilesFailCleanly) {
  EventGenerator generator;
  const std::string path = ::testing::TempDir() + "/trunc_base.laq";
  ASSERT_TRUE(WriteLaqFile(path, EventGenerator::CmsSchema(),
                           {generator.GenerateBatch(300)})
                  .ok());
  // Read the original file bytes.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);

  const long keep = size * GetParam() / 100;
  const std::string truncated_path =
      ::testing::TempDir() + "/trunc_" + std::to_string(GetParam()) + ".laq";
  std::FILE* in = std::fopen(path.c_str(), "rb");
  std::FILE* out = std::fopen(truncated_path.c_str(), "wb");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  std::vector<char> buf(static_cast<size_t>(keep));
  ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
  std::fclose(in);
  std::fclose(out);

  auto reader = LaqReader::Open(truncated_path);
  if (reader.ok()) {
    // Footer happened to survive (only possible for keep=100)...
    for (int g = 0; g < (*reader)->num_row_groups(); ++g) {
      auto batch = (*reader)->ReadRowGroup(g);
      if (GetParam() < 100) {
        // ... data reads may still fail but must never crash.
        (void)batch;
      } else {
        EXPECT_TRUE(batch.ok());
      }
    }
  } else {
    EXPECT_FALSE(reader.status().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(KeepPercent, TruncationProperty,
                         ::testing::Values(1, 10, 25, 50, 75, 90, 99, 100));

}  // namespace
}  // namespace hepq
