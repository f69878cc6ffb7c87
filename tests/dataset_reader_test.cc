#include <sys/stat.h>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "datagen/generator.h"
#include "exec/exec.h"
#include "fileio/dataset_reader.h"
#include "fileio/writer.h"

namespace hepq {
namespace {

class DatasetReaderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/hepq_multifile");
    ::mkdir(dir_->c_str(), 0755);
    // Three files with 2, 1, and 3 row groups (300 rows each).
    EventGenerator generator;
    WriterOptions options;
    options.row_group_size = 300;
    const int groups_per_file[] = {2, 1, 3};
    for (int f = 0; f < 3; ++f) {
      std::vector<RecordBatchPtr> batches;
      for (int g = 0; g < groups_per_file[f]; ++g) {
        batches.push_back(generator.GenerateBatch(300));
      }
      const std::string path =
          *dir_ + "/part-" + std::to_string(f) + ".laq";
      WriteLaqFile(path, EventGenerator::CmsSchema(), batches, options)
          .Check();
    }
  }

  static std::string* dir_;
};

std::string* DatasetReaderTest::dir_ = nullptr;

TEST_F(DatasetReaderTest, ShardFilesListsPartsInNameOrder) {
  const auto shards = ShardFiles(*dir_);
  ASSERT_TRUE(shards.ok()) << shards.status().message();
  EXPECT_EQ(*shards, (std::vector<std::string>{*dir_ + "/part-0.laq",
                                               *dir_ + "/part-1.laq",
                                               *dir_ + "/part-2.laq"}));
  EXPECT_EQ(*ShardFiles((*shards)[1]),
            std::vector<std::string>{(*shards)[1]});
}

TEST_F(DatasetReaderTest, LayoutNumbersRowGroupsAcrossFiles) {
  auto layout = exec::ResolveDatasetLayout(*dir_, ReaderOptions{});
  ASSERT_TRUE(layout.ok()) << layout.status().message();
  EXPECT_EQ(layout->num_files(), 3);
  EXPECT_EQ(layout->total_rows, 1800);
  EXPECT_TRUE(layout->schema.Equals(*EventGenerator::CmsSchema()));
  // Events were generated sequentially, so the first event id of global
  // group g is 300 * g regardless of file boundaries.
  ASSERT_EQ(layout->num_groups(), 6);
  for (int g = 0; g < layout->num_groups(); ++g) {
    const exec::DatasetLayout::Group& loc = layout->groups[g];
    auto reader = LaqReader::Open(layout->files[loc.file]).ValueOrDie();
    auto batch = reader->ReadRowGroup(loc.local_group, {"event"});
    ASSERT_TRUE(batch.ok()) << "group " << g;
    EXPECT_EQ((*batch)->num_rows(), 300);
    const auto& ids =
        static_cast<const Int64Array&>(*(*batch)->ColumnByName("event"));
    EXPECT_EQ(ids.Value(0), 300 * g) << "group " << g;
  }
}

TEST_F(DatasetReaderTest, ErrorsOnEmptyInputs) {
  // A nonexistent directory and a directory with no .laq files both fail
  // with Invalid, and the message names the offending path.
  const std::string missing = ::testing::TempDir() + "/no_such";
  const auto no_such = ListLaqFiles(missing);
  EXPECT_EQ(no_such.status().code(), StatusCode::kInvalid);
  EXPECT_NE(no_such.status().message().find(missing), std::string::npos)
      << no_such.status().message();
  const std::string empty_dir = ::testing::TempDir() + "/hepq_empty_dir";
  ::mkdir(empty_dir.c_str(), 0755);
  const auto empty = ListLaqFiles(empty_dir);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalid);
  EXPECT_NE(empty.status().message().find(empty_dir), std::string::npos)
      << empty.status().message();
  EXPECT_NE(empty.status().message().find("no .laq files"),
            std::string::npos)
      << empty.status().message();
}

TEST_F(DatasetReaderTest, LayoutRejectsSchemaMismatch) {
  const std::string mixed_dir = ::testing::TempDir() + "/hepq_mixed_schema";
  ::mkdir(mixed_dir.c_str(), 0755);
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::Int32()}});
  auto batch =
      RecordBatch::Make(schema, {MakeInt32Array({1})}).ValueOrDie();
  WriteLaqFile(mixed_dir + "/a.laq", schema, {RecordBatchPtr(batch)})
      .Check();
  EventGenerator generator;
  WriteLaqFile(mixed_dir + "/b.laq", EventGenerator::CmsSchema(),
               {generator.GenerateBatch(10)})
      .Check();
  const auto layout = exec::ResolveDatasetLayout(mixed_dir, ReaderOptions{});
  EXPECT_EQ(layout.status().code(), StatusCode::kInvalid);
  EXPECT_NE(layout.status().message().find("schema"), std::string::npos)
      << layout.status().message();
}

}  // namespace
}  // namespace hepq
