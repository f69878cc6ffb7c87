#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "fileio/reader.h"
#include "fileio/writer.h"

namespace hepq {
namespace {

/// Builds a small two-row-capable schema exercising every column shape:
/// primitive, struct, list<struct>, list<primitive>.
SchemaPtr TestSchema() {
  return std::make_shared<Schema>(std::vector<Field>{
      {"event", DataType::Int64()},
      {"trigger", DataType::Bool()},
      {"MET", DataType::Struct({{"pt", DataType::Float32()},
                                {"phi", DataType::Float32()}})},
      {"Jet", DataType::List(DataType::Struct(
                  {{"pt", DataType::Float32()},
                   {"charge", DataType::Int32()}}))},
      {"weights", DataType::List(DataType::Float64())},
  });
}

RecordBatchPtr TestBatch(int64_t base) {
  auto schema = TestSchema();
  auto met = StructArray::Make(
                 {{"pt", DataType::Float32()}, {"phi", DataType::Float32()}},
                 {MakeFloat32Array({10.5f + base, 20.5f + base, 30.5f + base}),
                  MakeFloat32Array({0.1f, 0.2f, 0.3f})})
                 .ValueOrDie();
  auto jets =
      MakeListOfStructArray({{"pt", DataType::Float32()},
                             {"charge", DataType::Int32()}},
                            {0, 2, 2, 5},
                            {MakeFloat32Array({1, 2, 3, 4, 5}),
                             MakeInt32Array({1, -1, 1, -1, 1})})
          .ValueOrDie();
  auto weights =
      ListArray::Make({0, 1, 3, 3}, MakeFloat64Array({0.5, 1.5, 2.5}))
          .ValueOrDie();
  return RecordBatch::Make(
             schema,
             {MakeInt64Array({base, base + 1, base + 2}),
              MakeBoolArray({1, 0, 1}), met, ArrayPtr(jets),
              ArrayPtr(weights)})
      .ValueOrDie();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(LeafLayoutTest, ShredsAllShapes) {
  auto layout = ComputeLeafLayout(*TestSchema());
  ASSERT_TRUE(layout.ok());
  std::vector<std::string> paths;
  for (const LeafDesc& leaf : *layout) paths.push_back(leaf.path);
  EXPECT_EQ(paths,
            (std::vector<std::string>{"event", "trigger", "MET.pt",
                                      "MET.phi", "Jet#lengths", "Jet.pt",
                                      "Jet.charge", "weights#lengths",
                                      "weights.item"}));
}

TEST(LeafLayoutTest, RejectsDeepNesting) {
  Schema bad({{"x", DataType::List(DataType::List(DataType::Float32()))}});
  EXPECT_EQ(ComputeLeafLayout(bad).status().code(),
            StatusCode::kNotImplemented);
}

TEST(MetadataTest, SerializationRoundTrip) {
  FileMetadata meta;
  meta.schema = *TestSchema();
  meta.layout = ComputeLeafLayout(meta.schema).ValueOrDie();
  meta.total_rows = 6;
  RowGroupMeta rg;
  rg.num_rows = 3;
  for (size_t i = 0; i < meta.layout.size(); ++i) {
    ChunkMeta c;
    c.file_offset = 4 + i * 100;
    c.compressed_size = 90;
    c.encoded_size = 100;
    c.num_values = 3;
    c.encoding = Encoding::kPlain;
    c.codec = Codec::kLz;
    c.crc32 = 0x1234;
    c.has_stats = true;
    c.min_value = -1.0;
    c.max_value = static_cast<double>(i);
    rg.chunks.push_back(c);
  }
  meta.row_groups = {rg, rg};

  std::vector<uint8_t> buf;
  SerializeFileMetadata(meta, &buf);
  FileMetadata parsed;
  ASSERT_TRUE(ParseFileMetadata(buf.data(), buf.size(), &parsed).ok());
  EXPECT_TRUE(parsed.schema.Equals(meta.schema));
  EXPECT_EQ(parsed.total_rows, 6);
  ASSERT_EQ(parsed.row_groups.size(), 2u);
  EXPECT_EQ(parsed.row_groups[0].chunks[2].max_value, 2.0);
  EXPECT_EQ(parsed.row_groups[1].chunks[0].codec, Codec::kLz);
}

TEST(MetadataTest, ParseRejectsTruncation) {
  FileMetadata meta;
  meta.schema = *TestSchema();
  meta.layout = ComputeLeafLayout(meta.schema).ValueOrDie();
  std::vector<uint8_t> buf;
  SerializeFileMetadata(meta, &buf);
  FileMetadata parsed;
  EXPECT_FALSE(
      ParseFileMetadata(buf.data(), buf.size() / 2, &parsed).ok());
}

TEST(WriterReaderTest, RoundTripAllColumnShapes) {
  const std::string path = TempPath("roundtrip.laq");
  WriterOptions options;
  options.row_group_size = 3;
  ASSERT_TRUE(
      WriteLaqFile(path, TestSchema(), {TestBatch(0), TestBatch(100)},
                   options)
          .ok());

  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_rows(), 6);
  EXPECT_EQ((*reader)->num_row_groups(), 2);
  EXPECT_TRUE((*reader)->schema().Equals(*TestSchema()));

  auto batch = (*reader)->ReadRowGroup(1);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE((*batch)->Equals(*TestBatch(100)));
}

TEST(WriterReaderTest, ProjectionReturnsOnlyRequested) {
  const std::string path = TempPath("projection.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->ReadRowGroup(0, {"MET.pt", "Jet.pt"});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->num_columns(), 2);
  // MET keeps only the pt member.
  const auto& met = static_cast<const StructArray&>(
      *(*batch)->ColumnByName("MET"));
  EXPECT_EQ(met.type()->num_fields(), 1);
  EXPECT_NE(met.ChildByName("pt"), nullptr);
  // Jet keeps only pt (plus the offsets needed for list structure).
  const auto& jets = static_cast<const ListArray&>(
      *(*batch)->ColumnByName("Jet"));
  EXPECT_EQ(jets.child()->type()->num_fields(), 1);
}

TEST(WriterReaderTest, ProjectionErrors) {
  const std::string path = TempPath("projection_err.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->ReadRowGroup(0, {"nope"}).status().code(),
            StatusCode::kKeyError);
  EXPECT_EQ((*reader)->ReadRowGroup(0, {"MET.nope"}).status().code(),
            StatusCode::kKeyError);
  EXPECT_EQ((*reader)->ReadRowGroup(0, {"event.pt"}).status().code(),
            StatusCode::kInvalid);
  EXPECT_EQ((*reader)->ReadRowGroup(0, {}).status().code(),
            StatusCode::kInvalid);
  EXPECT_EQ((*reader)->ReadRowGroup(7, {"event"}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(WriterReaderTest, StructPushdownAccounting) {
  const std::string path = TempPath("pushdown.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());

  ReaderOptions with;
  with.struct_projection_pushdown = true;
  auto reader1 = LaqReader::Open(path, with);
  ASSERT_TRUE(reader1.ok());
  ASSERT_TRUE((*reader1)->ReadRowGroup(0, {"MET.pt"}).ok());
  const uint64_t pushdown_bytes = (*reader1)->scan_stats().storage_bytes;
  const uint64_t pushdown_chunks = (*reader1)->scan_stats().chunks_read;

  ReaderOptions without;
  without.struct_projection_pushdown = false;
  auto reader2 = LaqReader::Open(path, without);
  ASSERT_TRUE(reader2.ok());
  auto batch = (*reader2)->ReadRowGroup(0, {"MET.pt"});
  ASSERT_TRUE(batch.ok());
  // Returned data identical...
  EXPECT_EQ((*batch)->num_columns(), 1);
  EXPECT_EQ(static_cast<const StructArray&>(*(*batch)->column(0))
                .type()
                ->num_fields(),
            1);
  // ... but more was read from storage (both MET members).
  EXPECT_GT((*reader2)->scan_stats().storage_bytes, pushdown_bytes);
  EXPECT_EQ((*reader2)->scan_stats().chunks_read, pushdown_chunks + 1);
  // Billed/logical bytes unchanged: the query only wanted MET.pt.
  EXPECT_EQ((*reader2)->scan_stats().logical_bytes_bq,
            (*reader1)->scan_stats().logical_bytes_bq);
}

TEST(WriterReaderTest, BigQueryAccountingIs8BytesPerEntry) {
  const std::string path = TempPath("bq_bytes.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->ReadRowGroup(0, {"MET.pt"}).ok());
  // 3 rows x 8 B, although the file stores float32.
  EXPECT_EQ((*reader)->scan_stats().logical_bytes_bq, 24u);
  // Ideal (type-width) bytes, MET.pt: 3 * 4.
  EXPECT_EQ((*reader)->scan_stats().ideal_bytes, 12u);
  // Jet.pt: lengths 3 * 4 + values 5 * 4.
  (*reader)->ResetScanStats();
  ASSERT_TRUE((*reader)->ReadRowGroup(0, {"Jet.pt"}).ok());
  EXPECT_EQ((*reader)->scan_stats().ideal_bytes, 32u);
}

TEST(WriterReaderTest, StatisticsAreRecorded) {
  const std::string path = TempPath("stats.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const FileMetadata& meta = (*reader)->metadata();
  const int met_pt = meta.LeafIndex("MET.pt");
  ASSERT_GE(met_pt, 0);
  const ChunkMeta& chunk =
      meta.row_groups[0].chunks[static_cast<size_t>(met_pt)];
  EXPECT_TRUE(chunk.has_stats);
  EXPECT_FLOAT_EQ(static_cast<float>(chunk.min_value), 10.5f);
  EXPECT_FLOAT_EQ(static_cast<float>(chunk.max_value), 30.5f);
}

TEST(WriterOptionsTest, RejectsNonPositiveSizes) {
  // Regression: these used to be accepted and silently degraded —
  // row_group_size <= 0 flushed every batch as its own degenerate group,
  // page_values <= 0 collapsed each chunk into one unprunable page.
  for (const int64_t bad : {int64_t{0}, int64_t{-1}, int64_t{-4096}}) {
    WriterOptions rg;
    rg.row_group_size = bad;
    EXPECT_EQ(ValidateWriterOptions(rg).code(), StatusCode::kInvalid);
    EXPECT_EQ(
        WriteLaqFile(TempPath("bad_rg.laq"), TestSchema(), {TestBatch(0)}, rg)
            .code(),
        StatusCode::kInvalid);
    WriterOptions pv;
    pv.page_values = bad;
    EXPECT_EQ(ValidateWriterOptions(pv).code(), StatusCode::kInvalid);
    EXPECT_EQ(
        WriteLaqFile(TempPath("bad_pv.laq"), TestSchema(), {TestBatch(0)}, pv)
            .code(),
        StatusCode::kInvalid);
  }
  EXPECT_TRUE(ValidateWriterOptions(WriterOptions{}).ok());
}

TEST(WriterReaderTest, AdvancedEncodingsRoundTripThroughFile) {
  // Integer leaves shaped for the advanced set: low-cardinality scattered
  // charges (dictionary) and a narrow-span id on a large base (FOR).
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"charge", DataType::Int32()},
      {"lumi", DataType::Int64()},
  });
  std::vector<int32_t> charges(1024);
  std::vector<int64_t> lumis(1024);
  const int32_t alphabet[] = {-2000000, 13, 999999, 77};
  for (size_t i = 0; i < charges.size(); ++i) {
    charges[i] = alphabet[(i * 3) % 4];
    lumis[i] = 5000000000ll +
               static_cast<int64_t>((static_cast<uint32_t>(i) * 2654435761u) %
                                    8192u);
  }
  auto batch =
      RecordBatch::Make(schema, {MakeInt32Array(charges),
                                 MakeInt64Array(lumis)})
          .ValueOrDie();

  const std::string path = TempPath("advanced.laq");
  WriterOptions options;
  options.advanced_encodings = true;
  ASSERT_TRUE(WriteLaqFile(path, schema, {batch}, options).ok());

  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const FileMetadata& meta = (*reader)->metadata();
  const int charge_idx = meta.LeafIndex("charge");
  const int lumi_idx = meta.LeafIndex("lumi");
  ASSERT_GE(charge_idx, 0);
  ASSERT_GE(lumi_idx, 0);
  EXPECT_EQ(meta.row_groups[0].chunks[static_cast<size_t>(charge_idx)].encoding,
            Encoding::kDict);
  EXPECT_EQ(meta.row_groups[0].chunks[static_cast<size_t>(lumi_idx)].encoding,
            Encoding::kFor);

  auto read = (*reader)->ReadRowGroup(0);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE((*read)->Equals(*batch));

  // The same data written without the flag must not use the new
  // encodings: default writes stay byte-compatible with old readers.
  const std::string classic_path = TempPath("classic.laq");
  ASSERT_TRUE(WriteLaqFile(classic_path, schema, {batch}).ok());
  auto classic = LaqReader::Open(classic_path);
  ASSERT_TRUE(classic.ok());
  for (const ChunkMeta& chunk : (*classic)->metadata().row_groups[0].chunks) {
    EXPECT_LE(static_cast<uint8_t>(chunk.encoding),
              static_cast<uint8_t>(Encoding::kDeltaVarint));
  }
}

TEST(WriterReaderTest, RowGroupSplitting) {
  const std::string path = TempPath("groups.laq");
  WriterOptions options;
  options.row_group_size = 3;
  std::vector<RecordBatchPtr> batches = {TestBatch(0), TestBatch(10),
                                         TestBatch(20)};
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), batches, options).ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_row_groups(), 3);
  EXPECT_EQ((*reader)->total_rows(), 9);
}

TEST(WriterReaderTest, BatchesCoalesceIntoOneGroup) {
  const std::string path = TempPath("coalesce.laq");
  WriterOptions options;
  options.row_group_size = 100;  // larger than both batches together
  ASSERT_TRUE(
      WriteLaqFile(path, TestSchema(), {TestBatch(0), TestBatch(10)},
                   options)
          .ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_row_groups(), 1);
  EXPECT_EQ((*reader)->metadata().row_groups[0].num_rows, 6);
}

TEST(WriterTest, RejectsSchemaMismatch) {
  const std::string path = TempPath("mismatch.laq");
  auto writer = LaqWriter::Open(path, TestSchema());
  ASSERT_TRUE(writer.ok());
  auto other_schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::Int32()}});
  auto batch =
      RecordBatch::Make(other_schema, {MakeInt32Array({1})}).ValueOrDie();
  EXPECT_FALSE((*writer)->WriteBatch(*batch).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_FALSE((*writer)->Close().ok());  // double close
}

TEST(ReaderTest, DetectsCorruptChunk) {
  const std::string path = TempPath("corrupt.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  // Flip one byte inside the first chunk (offset 4 = just past the magic).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 5, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 5, SEEK_SET);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());  // footer is intact
  bool saw_corruption = false;
  for (int g = 0; g < (*reader)->num_row_groups(); ++g) {
    auto batch = (*reader)->ReadRowGroup(g);
    if (!batch.ok() && batch.status().code() == StatusCode::kCorruption) {
      saw_corruption = true;
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST(ReaderTest, DetectsCorruptFooter) {
  const std::string path = TempPath("corrupt_footer.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -20, SEEK_END);
  std::fputc(0x5a, f);
  std::fclose(f);
  auto reader = LaqReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(ReaderTest, ChecksumToggleReadsIdentically) {
  // The checksum pass must be a pure verification step: toggling it off
  // cannot change the decoded data on a pristine file.
  const std::string path = TempPath("checksum_toggle.laq");
  WriterOptions options;
  options.row_group_size = 3;
  ASSERT_TRUE(
      WriteLaqFile(path, TestSchema(), {TestBatch(0), TestBatch(100)},
                   options)
          .ok());
  ReaderOptions with, without;
  with.validate_checksums = true;
  without.validate_checksums = false;
  auto checked = LaqReader::Open(path, with).ValueOrDie();
  auto unchecked = LaqReader::Open(path, without).ValueOrDie();
  for (int g = 0; g < checked->num_row_groups(); ++g) {
    auto a = checked->ReadRowGroup(g);
    auto b = unchecked->ReadRowGroup(g);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE((*a)->Equals(**b)) << "row group " << g;
  }
}

TEST(ReaderTest, DetectsCorruptLeadingMagic) {
  // The leading magic is outside both the footer CRC and the chunk CRCs;
  // it gets its own check so bit rot in bytes [0, 4) is still caught.
  const std::string path = TempPath("bad_magic.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fputc('l', f);  // "lAQ1"
  std::fclose(f);
  auto reader = LaqReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(ReaderTest, AllocationCapIsConfigurable) {
  // A file whose (honest) chunks exceed a tiny max_chunk_decoded_bytes is
  // refused up front: the cap bounds every footer-driven allocation.
  const std::string path = TempPath("small_cap.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  ReaderOptions tiny;
  tiny.max_chunk_decoded_bytes = 4;
  auto reader = LaqReader::Open(path, tiny);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(ReaderTest, RejectsNonLaqFile) {
  const std::string path = TempPath("not_laq.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 100; ++i) std::fputc(i, f);
  std::fclose(f);
  EXPECT_FALSE(LaqReader::Open(path).ok());
}

TEST(ReaderTest, MissingFile) {
  EXPECT_EQ(LaqReader::Open(TempPath("does_not_exist.laq")).status().code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Scratch-buffer reuse: pooled and transient decode paths must be
// indistinguishable except for the allocations they perform.
// ---------------------------------------------------------------------------

TEST(ScratchTest, PooledReadsMatchTransientReadsExactly) {
  const std::string path = TempPath("scratch.laq");
  WriterOptions options;
  options.row_group_size = 3;
  ASSERT_TRUE(
      WriteLaqFile(path, TestSchema(), {TestBatch(0), TestBatch(100)},
                   options)
          .ok());

  auto pooled = LaqReader::Open(path).ValueOrDie();
  auto transient = LaqReader::Open(path).ValueOrDie();
  ScratchBuffers scratch;
  const std::vector<std::string> projection = {"MET.pt", "Jet.pt",
                                               "weights"};
  for (int g = 0; g < pooled->num_row_groups(); ++g) {
    auto with = pooled->ReadRowGroup(g, projection, &scratch);
    ASSERT_TRUE(with.ok());
    // nullptr scratch == transient buffers == the two-arg overload.
    auto without = transient->ReadRowGroup(g, projection, nullptr);
    ASSERT_TRUE(without.ok());
    EXPECT_TRUE((*with)->Equals(**without)) << "row group " << g;
  }
  // The pooled path bills IO identically to the transient path.
  EXPECT_EQ(pooled->scan_stats().storage_bytes,
            transient->scan_stats().storage_bytes);
  EXPECT_EQ(pooled->scan_stats().encoded_bytes,
            transient->scan_stats().encoded_bytes);
  EXPECT_EQ(pooled->scan_stats().logical_bytes_bq,
            transient->scan_stats().logical_bytes_bq);
  EXPECT_EQ(pooled->scan_stats().chunks_read,
            transient->scan_stats().chunks_read);
  EXPECT_EQ(pooled->scan_stats().values_read,
            transient->scan_stats().values_read);
}

TEST(ScratchTest, WarmScratchRereadsWithoutGrowingCapacity) {
  const std::string path = TempPath("scratch_warm.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  auto reader = LaqReader::Open(path).ValueOrDie();
  ScratchBuffers scratch;
  auto first = reader->ReadRowGroup(0, {"Jet.pt"}, &scratch);
  ASSERT_TRUE(first.ok());
  const size_t compressed_cap = scratch.compressed.capacity();
  const size_t encoded_cap = scratch.encoded.capacity();
  const size_t values_cap = scratch.values.capacity();
  EXPECT_GT(values_cap, 0u);
  auto second = reader->ReadRowGroup(0, {"Jet.pt"}, &scratch);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*first)->Equals(**second));
  EXPECT_EQ(scratch.compressed.capacity(), compressed_cap);
  EXPECT_EQ(scratch.encoded.capacity(), encoded_cap);
  EXPECT_EQ(scratch.values.capacity(), values_cap);
  // Release really frees (the cold path of the micro benchmark).
  scratch.Release();
  EXPECT_EQ(scratch.values.capacity(), 0u);
  EXPECT_EQ(scratch.compressed.capacity(), 0u);
  EXPECT_EQ(scratch.encoded.capacity(), 0u);
}

TEST(ScratchTest, ReadLeafValuesDecodesWithoutMaterializing) {
  const std::string path = TempPath("scratch_leaf.laq");
  ASSERT_TRUE(WriteLaqFile(path, TestSchema(), {TestBatch(0)}).ok());
  auto reader = LaqReader::Open(path).ValueOrDie();
  ScratchBuffers scratch;
  ASSERT_TRUE(reader->ReadLeafValues(0, "MET.pt", &scratch).ok());
  ASSERT_EQ(scratch.values.size(), 3 * sizeof(float));
  const float* pt = reinterpret_cast<const float*>(scratch.values.data());
  EXPECT_FLOAT_EQ(pt[0], 10.5f);
  EXPECT_FLOAT_EQ(pt[1], 20.5f);
  EXPECT_FLOAT_EQ(pt[2], 30.5f);
  // Billed like any other single-leaf read.
  EXPECT_EQ(reader->scan_stats().chunks_read, 1u);
  EXPECT_EQ(reader->scan_stats().values_read, 3u);
  EXPECT_GT(reader->scan_stats().storage_bytes, 0u);
  // Errors: unknown leaf, group out of range.
  EXPECT_EQ(reader->ReadLeafValues(0, "MET.nope", &scratch).code(),
            StatusCode::kKeyError);
  EXPECT_FALSE(reader->ReadLeafValues(7, "MET.pt", &scratch).ok());
}

// ---------------------------------------------------------------------------
// Page partitioning and page-level zone maps (the statistics behind page
// skipping in ReadRowGroupFiltered).
// ---------------------------------------------------------------------------

TEST(PageStatsTest, PagesPartitionChunksAndCarryZoneMaps) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::Float64()}});
  std::vector<double> values(64);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  auto batch =
      RecordBatch::Make(schema, {MakeFloat64Array(values)}).ValueOrDie();
  const std::string path = TempPath("page_stats.laq");
  WriterOptions options;
  options.page_values = 8;  // 64 sorted values -> 8 pages of 8
  ASSERT_TRUE(WriteLaqFile(path, schema, {batch}, options).ok());

  auto reader = LaqReader::Open(path).ValueOrDie();
  const ChunkMeta& chunk = reader->metadata().row_groups[0].chunks[0];
  ASSERT_EQ(chunk.pages.size(), 8u);
  uint64_t sum_values = 0, sum_compressed = 0, sum_encoded = 0;
  for (size_t p = 0; p < chunk.pages.size(); ++p) {
    const PageMeta& page = chunk.pages[p];
    EXPECT_EQ(page.num_values, 8u);
    ASSERT_TRUE(page.has_stats);
    EXPECT_EQ(page.min_value, static_cast<double>(p * 8));
    EXPECT_EQ(page.max_value, static_cast<double>(p * 8 + 7));
    sum_values += page.num_values;
    sum_compressed += page.compressed_size;
    sum_encoded += page.encoded_size;
  }
  // Pages partition the chunk exactly: sizes and counts add up.
  EXPECT_EQ(sum_values, chunk.num_values);
  EXPECT_EQ(sum_compressed, chunk.compressed_size);
  EXPECT_EQ(sum_encoded, chunk.encoded_size);
  // Chunk-level stats agree with the page envelope.
  ASSERT_TRUE(chunk.has_stats);
  EXPECT_EQ(chunk.min_value, 0.0);
  EXPECT_EQ(chunk.max_value, 63.0);

  // And the data itself round-trips.
  auto read = reader->ReadRowGroup(0).ValueOrDie();
  const auto& col = static_cast<const Float64Array&>(*read->column(0));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col.Value(static_cast<int64_t>(i)), values[i]) << i;
  }
}

TEST(PageStatsTest, AllNaNPagesCarryNoStats) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", DataType::Float64()}});
  const double nan = std::nan("");
  std::vector<double> values(16, nan);
  // Second page has one real value among the NaNs.
  values[12] = 5.0;
  auto batch =
      RecordBatch::Make(schema, {MakeFloat64Array(values)}).ValueOrDie();
  const std::string path = TempPath("page_stats_nan.laq");
  WriterOptions options;
  options.page_values = 8;
  ASSERT_TRUE(WriteLaqFile(path, schema, {batch}, options).ok());

  auto reader = LaqReader::Open(path).ValueOrDie();
  const ChunkMeta& chunk = reader->metadata().row_groups[0].chunks[0];
  ASSERT_EQ(chunk.pages.size(), 2u);
  EXPECT_FALSE(chunk.pages[0].has_stats);  // all-NaN: no usable zone map
  ASSERT_TRUE(chunk.pages[1].has_stats);   // NaNs skipped, not poisoned
  EXPECT_EQ(chunk.pages[1].min_value, 5.0);
  EXPECT_EQ(chunk.pages[1].max_value, 5.0);

  auto read = reader->ReadRowGroup(0).ValueOrDie();
  const auto& col = static_cast<const Float64Array&>(*read->column(0));
  EXPECT_TRUE(std::isnan(col.Value(0)));
  EXPECT_EQ(col.Value(12), 5.0);
}

TEST(PageStatsTest, EmptyListColumnRoundTrips) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"v", DataType::List(DataType::Float64())}});
  // Every list empty: the values leaf has zero values.
  auto list = ListArray::Make({0, 0, 0, 0},
                              MakeFloat64Array(std::vector<double>{}))
                  .ValueOrDie();
  auto batch = RecordBatch::Make(schema, {ArrayPtr(list)}).ValueOrDie();
  const std::string path = TempPath("page_stats_empty.laq");
  WriterOptions options;
  options.page_values = 8;
  ASSERT_TRUE(WriteLaqFile(path, schema, {batch}, options).ok());

  auto reader = LaqReader::Open(path).ValueOrDie();
  const RowGroupMeta& rg = reader->metadata().row_groups[0];
  for (const ChunkMeta& chunk : rg.chunks) {
    uint64_t sum_values = 0, sum_compressed = 0;
    for (const PageMeta& page : chunk.pages) {
      sum_values += page.num_values;
      sum_compressed += page.compressed_size;
    }
    EXPECT_EQ(sum_values, chunk.num_values);
    EXPECT_EQ(sum_compressed, chunk.compressed_size);
  }
  auto read = reader->ReadRowGroup(0).ValueOrDie();
  const auto& col = static_cast<const ListArray&>(*read->column(0));
  ASSERT_EQ(read->num_rows(), 3);
  for (int64_t row = 0; row < 3; ++row) {
    EXPECT_EQ(col.list_length(row), 0u) << row;
  }
}

}  // namespace
}  // namespace hepq
