// Tests for the multi-process scatter/gather layer: shard-range
// partitioning, sharded-generation determinism, the IPC frame protocol
// (bit-exact doubles, malformed-frame detection, mutated payloads that
// must decode or fail cleanly), deterministic fault attribution in the
// gather, and the core contracts — a scattered merge is bit-identical to
// the in-process dataset run, and a worker's RunReport built from its
// kReport capture equals the one built in-process.

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/dataset.h"
#include "fileio/dataset_reader.h"
#include "obs/report.h"
#include "queries/adl.h"
#include "scatter/ipc.h"
#include "scatter/scatter.h"

namespace hepq {
namespace {

using scatter::CombineWorkerStreams;
using scatter::DecodeFragmentPayload;
using scatter::DecodeReportPayload;
using scatter::EncodeFragmentPayload;
using scatter::EncodeReportPayload;
using scatter::EncodeFrame;
using scatter::Frame;
using scatter::FrameType;
using scatter::MergeShardOutputs;
using scatter::ParseWorkerStream;
using scatter::RunWorker;
using scatter::ShardFragment;
using scatter::ShardRange;
using scatter::ShardRangeFor;
using scatter::TryParseFrame;
using scatter::WorkerStream;

TEST(ShardRangeTest, PartitionsExactlyForAnyWorkerCount) {
  for (int files : {1, 3, 4, 7, 16}) {
    for (int workers : {1, 2, 3, 5, 16, 20}) {
      int covered = 0;
      int prev_end = 0;
      int max_size = 0;
      int min_size = files;  // over nonempty ranges
      for (int w = 0; w < workers; ++w) {
        const ShardRange range = ShardRangeFor(files, workers, w);
        EXPECT_EQ(range.begin, prev_end)
            << "files=" << files << " workers=" << workers << " w=" << w;
        EXPECT_GE(range.size(), 0);
        prev_end = range.end;
        covered += range.size();
        max_size = std::max(max_size, range.size());
        if (range.size() > 0) min_size = std::min(min_size, range.size());
      }
      EXPECT_EQ(prev_end, files);
      EXPECT_EQ(covered, files);
      // Balanced: nonempty ranges differ by at most one shard.
      if (workers <= files) EXPECT_LE(max_size - min_size, 1);
    }
  }
}

TEST(ShardSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(ShardSeed(20120601, 3), ShardSeed(20120601, 3));
  EXPECT_NE(ShardSeed(20120601, 0), ShardSeed(20120601, 1));
  EXPECT_NE(ShardSeed(20120601, 0), ShardSeed(20120602, 0));
  // The mix must not collapse to the identity: consecutive shard seeds
  // should not be consecutive integers.
  EXPECT_NE(ShardSeed(1, 1), ShardSeed(1, 0) + 1);
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << path;
  return bytes;
}

TEST(ShardedDatasetTest, ShardBytesIndependentOfShardCount) {
  ShardedDatasetSpec small;
  small.num_shards = 2;
  small.events_per_shard = 400;
  small.row_group_size = 200;
  ShardedDatasetSpec large = small;
  large.num_shards = 3;
  const std::string dir = ::testing::TempDir() + "/hepq_shard_stable";
  auto small_path = EnsureShardedDataset(dir, small);
  ASSERT_TRUE(small_path.ok()) << small_path.status().message();
  auto large_path = EnsureShardedDataset(dir, large);
  ASSERT_TRUE(large_path.ok()) << large_path.status().message();
  ASSERT_NE(*small_path, *large_path);
  for (int shard = 0; shard < small.num_shards; ++shard) {
    const std::string name = small.ShardFileName(shard);
    EXPECT_EQ(SlurpFile(*small_path + "/" + name),
              SlurpFile(*large_path + "/" + name))
        << name << " changed when the shard count grew";
  }
}

/// A fragment with adversarial doubles: NaN, infinities, a denormal,
/// negative zero. The wire format must reproduce every bit pattern.
ShardFragment MakeFragment(int shard) {
  ShardFragment fragment;
  fragment.file_index = shard;
  fragment.output.events_processed = 100 + shard;
  fragment.output.cpu_seconds = 0.25 * shard;
  fragment.output.wall_seconds = 0.5 + shard;
  fragment.output.ops = 7u * static_cast<uint64_t>(shard + 1);
  fragment.output.scan.storage_bytes = 1000u + static_cast<uint64_t>(shard);
  fragment.output.scan.values_read = 10u;
  Histogram1D histogram(HistogramSpec{"h", "title", 4, 0.0, 4.0});
  histogram.Fill(0.5 + shard, 1.0);
  histogram.Fill(std::numeric_limits<double>::quiet_NaN());
  histogram.Fill(std::numeric_limits<double>::infinity());
  histogram.Fill(-std::numeric_limits<double>::infinity());
  histogram.Fill(std::numeric_limits<double>::denorm_min(), -0.0);
  fragment.output.histograms.push_back(std::move(histogram));
  return fragment;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectBitEqual(const Histogram1D& a, const Histogram1D& b) {
  ASSERT_EQ(a.spec(), b.spec());
  EXPECT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(Bits(a.underflow()), Bits(b.underflow()));
  EXPECT_EQ(Bits(a.overflow()), Bits(b.overflow()));
  EXPECT_EQ(Bits(a.sum_weights()), Bits(b.sum_weights()));
  EXPECT_EQ(Bits(a.mean()), Bits(b.mean()));
  for (int i = 0; i < a.spec().num_bins; ++i) {
    EXPECT_EQ(Bits(a.BinContent(i)), Bits(b.BinContent(i))) << "bin " << i;
  }
}

TEST(ScatterIpcTest, FragmentFrameRoundTripsBitExactly) {
  const ShardFragment original = MakeFragment(3);
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kFragment, EncodeFragmentPayload(original));
  Frame frame;
  size_t consumed = 0;
  auto complete = TryParseFrame(wire.data(), wire.size(), &frame, &consumed);
  ASSERT_TRUE(complete.ok()) << complete.status().message();
  ASSERT_TRUE(*complete);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.type, FrameType::kFragment);
  auto decoded = DecodeFragmentPayload(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->file_index, 3);
  EXPECT_EQ(decoded->output.events_processed, 103);
  EXPECT_EQ(decoded->output.ops, original.output.ops);
  EXPECT_EQ(Bits(decoded->output.cpu_seconds),
            Bits(original.output.cpu_seconds));
  EXPECT_EQ(decoded->output.scan.storage_bytes,
            original.output.scan.storage_bytes);
  ASSERT_EQ(decoded->output.histograms.size(), 1u);
  ExpectBitEqual(decoded->output.histograms[0],
                 original.output.histograms[0]);
}

TEST(ScatterIpcTest, PartialFrameAsksForMoreBytes) {
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kFragment,
                  EncodeFragmentPayload(MakeFragment(0)));
  Frame frame;
  for (size_t size : {size_t{0}, size_t{3}, size_t{19}, wire.size() - 1}) {
    size_t consumed = 99;
    auto complete = TryParseFrame(wire.data(), size, &frame, &consumed);
    ASSERT_TRUE(complete.ok()) << "size=" << size;
    EXPECT_FALSE(*complete) << "size=" << size;
    EXPECT_EQ(consumed, 0u) << "size=" << size;
  }
}

TEST(ScatterIpcTest, MalformedFramesAreErrors) {
  const std::vector<uint8_t> good =
      EncodeFrame(FrameType::kFragment,
                  EncodeFragmentPayload(MakeFragment(0)));
  Frame frame;
  size_t consumed = 0;

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  auto magic_result =
      TryParseFrame(bad_magic.data(), bad_magic.size(), &frame, &consumed);
  ASSERT_FALSE(magic_result.ok());
  EXPECT_NE(magic_result.status().message().find("magic"),
            std::string::npos);

  std::vector<uint8_t> bad_version = good;
  bad_version[4] = 42;  // version field, little-endian low byte
  auto version_result = TryParseFrame(bad_version.data(),
                                      bad_version.size(), &frame, &consumed);
  ASSERT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version 42, expected 4"),
            std::string::npos);

  std::vector<uint8_t> bad_crc = good;
  bad_crc[bad_crc.size() - 1] ^= 0x01;
  auto crc_result =
      TryParseFrame(bad_crc.data(), bad_crc.size(), &frame, &consumed);
  ASSERT_FALSE(crc_result.ok());
  EXPECT_NE(crc_result.status().message().find("CRC"), std::string::npos);
}

/// Serializes `fragments` as one worker's stream.
std::vector<uint8_t> StreamOf(const std::vector<ShardFragment>& fragments) {
  std::vector<uint8_t> bytes;
  for (const ShardFragment& fragment : fragments) {
    const std::vector<uint8_t> frame =
        EncodeFrame(FrameType::kFragment, EncodeFragmentPayload(fragment));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

TEST(ScatterGatherTest, TruncatedStreamKeepsWholeFragments) {
  std::vector<uint8_t> bytes = StreamOf({MakeFragment(0), MakeFragment(1)});
  bytes.resize(bytes.size() - 7);  // break the second fragment's frame
  const WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  ASSERT_EQ(stream.fragments.size(), 1u);
  EXPECT_EQ(stream.fragments[0].file_index, 0);
  ASSERT_FALSE(stream.parse_error.ok());
  EXPECT_NE(stream.parse_error.message().find("ends mid-frame"),
            std::string::npos);
}

/// The gather's determinism contract: the same missing shard produces the
/// same error for any grouping of shards into workers.
TEST(ScatterGatherTest, MissingShardErrorIndependentOfWorkerCount) {
  const std::vector<std::string> files = {"fa", "fb", "fc", "fd"};
  // Shard 2's worker died before emitting it; shard 3 was never reached.
  auto broken = [&](int num_workers) {
    std::vector<WorkerStream> streams;
    for (int w = 0; w < num_workers; ++w) {
      const ShardRange range = ShardRangeFor(4, num_workers, w);
      std::vector<ShardFragment> fragments;
      for (int s = range.begin; s < range.end && s < 2; ++s) {
        fragments.push_back(MakeFragment(s));
      }
      const std::vector<uint8_t> bytes = StreamOf(fragments);
      WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
      stream.range = range;
      streams.push_back(std::move(stream));
    }
    return CombineWorkerStreams(streams, files).status();
  };
  const Status one = broken(1);
  const Status two = broken(2);
  const Status four = broken(4);
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(one.ToString(), two.ToString());
  EXPECT_EQ(one.ToString(), four.ToString());
  EXPECT_NE(one.message().find("before completing shard 2 ('fc')"),
            std::string::npos)
      << one.message();
}

TEST(ScatterGatherTest, ParseErrorAttributedToWorkersOwnRange) {
  const std::vector<std::string> files = {"fa", "fb", "fc", "fd"};
  // Worker 0 owns shards [0,2) and completes; worker 1 owns [2,4) and its
  // stream breaks before any fragment. The error must name shard 2, not
  // shard 0.
  std::vector<uint8_t> ok_bytes = StreamOf({MakeFragment(0), MakeFragment(1)});
  WorkerStream ok_stream =
      ParseWorkerStream(ok_bytes.data(), ok_bytes.size());
  ok_stream.range = {0, 2};
  std::vector<uint8_t> broken_bytes = StreamOf({MakeFragment(2)});
  broken_bytes.resize(broken_bytes.size() / 2);
  WorkerStream broken_stream =
      ParseWorkerStream(broken_bytes.data(), broken_bytes.size());
  broken_stream.range = {2, 4};
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(ok_stream));
  streams.push_back(std::move(broken_stream));
  const Status status = CombineWorkerStreams(streams, files).status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard 2 ('fc')"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("ends mid-frame"), std::string::npos);
}

TEST(ScatterGatherTest, DuplicateFragmentIsCorruption) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> bytes =
      StreamOf({MakeFragment(0), MakeFragment(0), MakeFragment(1)});
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  const Status status = CombineWorkerStreams(streams, files).status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(ScatterWorkerTest, EmitsFragmentPerShard) {
  const std::vector<std::string> files = {"fa", "fb", "fc"};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Status status = RunWorker(
      files, ShardRange{1, 3},
      [&](const std::string& file) -> Result<queries::QueryRunOutput> {
        const int shard = file == "fb" ? 1 : 2;
        return MakeFragment(shard).output;
      },
      fds[1]);
  ::close(fds[1]);
  ASSERT_TRUE(status.ok()) << status.message();
  std::vector<uint8_t> bytes(1 << 16);
  size_t total = 0;
  for (;;) {
    const ssize_t n =
        ::read(fds[0], bytes.data() + total, bytes.size() - total);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  const WorkerStream stream = ParseWorkerStream(bytes.data(), total);
  ASSERT_TRUE(stream.parse_error.ok()) << stream.parse_error.message();
  ASSERT_EQ(stream.fragments.size(), 2u);
  EXPECT_EQ(stream.fragments[0].file_index, 1);
  EXPECT_EQ(stream.fragments[1].file_index, 2);
}

TEST(ScatterWorkerTest, ShardFailureEmitsErrorFrame) {
  const std::vector<std::string> files = {"fa", "fb"};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Status status = RunWorker(
      files, ShardRange{0, 2},
      [&](const std::string& file) -> Result<queries::QueryRunOutput> {
        if (file == "fb") return Status::Invalid("boom");
        return MakeFragment(0).output;
      },
      fds[1]);
  ::close(fds[1]);
  EXPECT_FALSE(status.ok());
  std::vector<uint8_t> bytes(1 << 16);
  size_t total = 0;
  for (;;) {
    const ssize_t n =
        ::read(fds[0], bytes.data() + total, bytes.size() - total);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  WorkerStream stream = ParseWorkerStream(bytes.data(), total);
  stream.range = {0, 2};
  ASSERT_EQ(stream.fragments.size(), 1u);
  ASSERT_EQ(stream.errors.size(), 1u);
  EXPECT_EQ(stream.errors[0].first, 1);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  const Status combined = CombineWorkerStreams(streams, files).status();
  ASSERT_FALSE(combined.ok());
  EXPECT_NE(combined.message().find("shard 1 ('fb') failed: boom"),
            std::string::npos)
      << combined.message();
}

// ---------------------------------------------------------------------------
// The end-to-end contract: merging per-shard results reproduces the
// in-process dataset run bit for bit.
// ---------------------------------------------------------------------------

class ScatterMergeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ShardedDatasetSpec spec;
    spec.num_shards = 3;
    spec.events_per_shard = 600;
    spec.row_group_size = 250;
    dataset_ = new std::string(
        EnsureShardedDataset(::testing::TempDir() + "/hepq_scatter", spec)
            .ValueOrDie());
  }

  static std::string* dataset_;
};

std::string* ScatterMergeTest::dataset_ = nullptr;

TEST_F(ScatterMergeTest, MergedShardFragmentsMatchDatasetRun) {
  using queries::EngineKind;
  const auto files = ListLaqFiles(*dataset_).ValueOrDie();
  ASSERT_EQ(files.size(), 3u);
  const EngineKind engines[] = {EngineKind::kRdf, EngineKind::kBigQueryShape,
                                EngineKind::kPrestoShape, EngineKind::kDoc};
  for (int q : {1, 5}) {
    for (EngineKind engine : engines) {
      SCOPED_TRACE("q" + std::to_string(q) + " engine " +
                   std::string(queries::EngineKindName(engine)));
      auto whole = queries::RunAdlQuery(engine, q, *dataset_);
      ASSERT_TRUE(whole.ok()) << whole.status().message();
      std::vector<ShardFragment> fragments;
      for (size_t shard = 0; shard < files.size(); ++shard) {
        auto part = queries::RunAdlQuery(engine, q, files[shard]);
        ASSERT_TRUE(part.ok()) << part.status().message();
        ShardFragment fragment;
        fragment.file_index = static_cast<int>(shard);
        fragment.output = std::move(*part);
        fragments.push_back(std::move(fragment));
      }
      auto merged = MergeShardOutputs(fragments);
      ASSERT_TRUE(merged.ok()) << merged.status().message();
      EXPECT_EQ(merged->events_processed, whole->events_processed);
      EXPECT_EQ(merged->ops, whole->ops);
      EXPECT_EQ(merged->scan.storage_bytes, whole->scan.storage_bytes);
      ASSERT_EQ(merged->histograms.size(), whole->histograms.size());
      for (size_t h = 0; h < merged->histograms.size(); ++h) {
        ExpectBitEqual(merged->histograms[h], whole->histograms[h]);
      }
    }
  }
}

/// Writes `value` little-endian at `offset` of `bytes`.
void PokeU32(std::vector<uint8_t>* bytes, size_t offset, uint32_t value) {
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

uint32_t PeekU32(const std::vector<uint8_t>& bytes, size_t offset) {
  uint32_t value = 0;
  for (size_t i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return value;
}

/// Frames `payload`, parses the frame back (the CRC is valid, so only the
/// payload decoder stands between forged bytes and the coordinator), and
/// returns the parsed payload.
std::vector<uint8_t> Reframed(FrameType type,
                              const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> wire = EncodeFrame(type, payload);
  Frame frame;
  size_t consumed = 0;
  auto complete = TryParseFrame(wire.data(), wire.size(), &frame, &consumed);
  EXPECT_TRUE(complete.ok() && *complete);
  return frame.payload;
}

// A count the rest of the payload cannot hold used to size an allocation
// directly (std::bad_alloc escaped and terminated the coordinator). Each
// forged count must now be a Corruption error.
TEST(ScatterIpcTest, ForgedFragmentCountsAreCorruption) {
  const std::vector<uint8_t> payload = EncodeFragmentPayload(MakeFragment(0));
  // file_index(4) events/wall/cpu/ops(4x8) 18 ScanStats counters(18x8),
  // num_leaves (no leaves), num_histos, then histogram "h"/"title":
  // name(4+1) title(4+5) num_bins(4) lo(8) hi(8), then its bin count.
  // A forged num_bins must not size the histogram either.
  const size_t num_leaves = 4 + 4 * 8 + 18 * 8;
  const size_t num_histos = num_leaves + 4;
  const size_t bin_count = num_histos + 4 + (4 + 1) + (4 + 5) + 4 + 8 + 8;
  ASSERT_EQ(PeekU32(payload, num_leaves), 0u);
  ASSERT_EQ(PeekU32(payload, num_histos), 1u);
  ASSERT_EQ(PeekU32(payload, bin_count), 4u);
  for (size_t offset : {num_leaves, num_histos, bin_count, bin_count - 20}) {
    SCOPED_TRACE("count at offset " + std::to_string(offset));
    std::vector<uint8_t> forged = payload;
    PokeU32(&forged, offset, 0xffffffffu);
    auto decoded =
        DecodeFragmentPayload(Reframed(FrameType::kFragment, forged));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << decoded.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// kReport frames: the observability side-channel. A worker ships only its
// captured session (window, spans, counters); the coordinator
// builds the worker's RunReport from it. The contract is twofold — that
// report equals the in-process one field for field, and a lost, corrupt
// or truncated report degrades the merged RunReport without ever dooming
// the query result.
// ---------------------------------------------------------------------------

/// A small capture with every section populated: a nested span pair and
/// a counter sharing the span-name table.
obs::SessionCapture MakeCapture() {
  obs::SessionCapture capture;
  capture.start_ns = 1000000;
  capture.stop_ns = 9999999;
  obs::SpanRecord run_span;
  run_span.name = "run";
  run_span.stage = obs::Stage::kRun;
  run_span.start_ns = 1000000;
  run_span.end_ns = 9999999;
  run_span.cpu_ns = 800;
  run_span.seq = 1;
  capture.spans.push_back(run_span);
  obs::SpanRecord span;
  span.name = "row_group";
  span.stage = obs::Stage::kRowGroup;
  span.start_ns = 1000100;
  span.end_ns = 1000200;
  span.cpu_ns = 90;
  span.bytes = 64;
  span.queue_ns = 2;
  span.worker = 1;
  span.group = 3;
  span.slot = 0;
  span.depth = 1;
  capture.spans.push_back(span);
  capture.counters.push_back(
      obs::CounterRecord{"flwor_rows", obs::Stage::kEventLoop, 5, 6, 7});
  return capture;
}

TEST(ScatterIpcTest, ForgedReportCountsAreCorruption) {
  const std::vector<uint8_t> payload = EncodeReportPayload(MakeCapture());
  // start/stop(2x8), num_names, names "run" "row_group" "flwor_rows",
  // num_spans, 2 spans (76 bytes each), num_counters, 1 counter (32).
  const size_t num_names = 2 * 8;
  const size_t num_spans = num_names + 4 + (4 + 3) + (4 + 9) + (4 + 10);
  const size_t num_counters = num_spans + 4 + 2 * 76;
  ASSERT_EQ(PeekU32(payload, num_names), 3u);
  ASSERT_EQ(PeekU32(payload, num_spans), 2u);
  ASSERT_EQ(PeekU32(payload, num_counters), 1u);
  ASSERT_EQ(payload.size(), num_counters + 4 + 32);
  for (size_t offset : {num_names, num_spans, num_counters}) {
    SCOPED_TRACE("count at offset " + std::to_string(offset));
    std::vector<uint8_t> forged = payload;
    PokeU32(&forged, offset, 0xffffffffu);
    auto decoded = DecodeReportPayload(Reframed(FrameType::kReport, forged));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << decoded.status().ToString();
  }
}

/// Field-by-field report equality, doubles compared bitwise, then the
/// whole JSON rendering as a catch-all.
void ExpectSameReport(const obs::RunReport& a, const obs::RunReport& b) {
  EXPECT_EQ(a.info.query, b.info.query);
  EXPECT_EQ(a.info.engine, b.info.engine);
  EXPECT_EQ(a.info.threads, b.info.threads);
  EXPECT_EQ(a.info.events_processed, b.info.events_processed);
  EXPECT_EQ(Bits(a.info.wall_seconds), Bits(b.info.wall_seconds));
  EXPECT_EQ(Bits(a.info.cpu_seconds), Bits(b.info.cpu_seconds));
  EXPECT_EQ(a.run_span_ns, b.run_span_ns);
  EXPECT_EQ(a.total_span_ns, b.total_span_ns);
  EXPECT_EQ(a.window_ns, b.window_ns);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].stage, b.stages[i].stage);
    EXPECT_EQ(a.stages[i].wall_ns, b.stages[i].wall_ns);
    EXPECT_EQ(a.stages[i].cpu_ns, b.stages[i].cpu_ns);
    EXPECT_EQ(a.stages[i].bytes, b.stages[i].bytes);
    EXPECT_EQ(a.stages[i].count, b.stages[i].count);
  }
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (size_t i = 0; i < a.workers.size(); ++i) {
    const obs::WorkerSummary& x = a.workers[i];
    const obs::WorkerSummary& y = b.workers[i];
    EXPECT_EQ(x.worker, y.worker);
    EXPECT_EQ(x.proc, y.proc);
    EXPECT_EQ(x.busy_ns, y.busy_ns);
    EXPECT_EQ(x.idle_ns, y.idle_ns);
    EXPECT_EQ(Bits(x.busy_fraction), Bits(y.busy_fraction));
    EXPECT_EQ(x.row_groups, y.row_groups);
    EXPECT_EQ(x.max_queue_ns, y.max_queue_ns);
    EXPECT_EQ(x.max_queue_group, y.max_queue_group);
    EXPECT_EQ(x.timeline_truncated, y.timeline_truncated);
    ASSERT_EQ(x.timeline.size(), y.timeline.size());
    for (size_t e = 0; e < x.timeline.size(); ++e) {
      EXPECT_EQ(x.timeline[e].group, y.timeline[e].group);
      EXPECT_EQ(x.timeline[e].slot, y.timeline[e].slot);
      EXPECT_EQ(x.timeline[e].start_ns, y.timeline[e].start_ns);
      EXPECT_EQ(x.timeline[e].dur_ns, y.timeline[e].dur_ns);
      EXPECT_EQ(x.timeline[e].queue_ns, y.timeline[e].queue_ns);
      EXPECT_EQ(x.timeline[e].bytes, y.timeline[e].bytes);
    }
  }
  ASSERT_EQ(a.stragglers.size(), b.stragglers.size());
  for (size_t i = 0; i < a.stragglers.size(); ++i) {
    EXPECT_EQ(a.stragglers[i].group, b.stragglers[i].group);
    EXPECT_EQ(a.stragglers[i].worker, b.stragglers[i].worker);
    EXPECT_EQ(a.stragglers[i].proc, b.stragglers[i].proc);
    EXPECT_EQ(a.stragglers[i].slot, b.stragglers[i].slot);
    EXPECT_EQ(a.stragglers[i].wall_ns, b.stragglers[i].wall_ns);
    EXPECT_EQ(a.stragglers[i].bytes, b.stragglers[i].bytes);
  }
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].name, b.counters[i].name);
    EXPECT_EQ(a.counters[i].stage, b.counters[i].stage);
    EXPECT_EQ(a.counters[i].ns, b.counters[i].ns);
    EXPECT_EQ(a.counters[i].count, b.counters[i].count);
    EXPECT_EQ(a.counters[i].bytes, b.counters[i].bytes);
  }
  EXPECT_EQ(Bits(a.cost_inputs.cpu_seconds), Bits(b.cost_inputs.cpu_seconds));
  EXPECT_EQ(a.cost_inputs.row_groups, b.cost_inputs.row_groups);
  EXPECT_EQ(obs::ReportToJson(a), obs::ReportToJson(b));
}

/// One real traced query over `shard`: the in-process session plus the
/// run's totals.
struct TracedRun {
  obs::TraceSession session;
  obs::RunInfo info;
  ScanStats scan;
};

void TraceRealQuery(const std::string& shard, int threads, TracedRun* run) {
  queries::RunOptions options;
  options.num_threads = threads;
  run->session.Start();
  auto result = queries::RunAdlQuery(queries::EngineKind::kBigQueryShape, 5,
                                     shard, options);
  run->session.Stop();
  ASSERT_TRUE(result.ok()) << result.status().message();
  run->info.query = "Q5";
  run->info.engine = "bigquery-shape";
  run->info.threads = threads;
  run->info.events_processed = result->events_processed;
  run->info.wall_seconds = result->wall_seconds;
  run->info.cpu_seconds = result->cpu_seconds;
  run->scan = result->scan;
}

// The field-exact gate of the kReport path: a worker's capture, encoded,
// framed, parsed and decoded, builds the same RunReport on the coordinator
// as BuildRunReport over the live session, and stitches the same trace.
TEST_F(ScatterMergeTest, WorkerReportSurvivesTheWireUnchanged) {
  const auto files = ListLaqFiles(*dataset_).ValueOrDie();
  TracedRun run;
  TraceRealQuery(files[0], /*threads=*/2, &run);
  const obs::RunReport in_process =
      obs::BuildRunReport(run.session, run.info, run.scan);
  obs::ProcessReport local;
  local.capture = obs::CaptureSession(run.session);
  ASSERT_FALSE(local.capture.spans.empty());
  ASSERT_FALSE(in_process.workers.empty());
  ASSERT_FALSE(in_process.stragglers.empty());

  const std::vector<uint8_t> payload =
      Reframed(FrameType::kReport, EncodeReportPayload(local.capture));
  auto decoded = DecodeReportPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  obs::ProcessReport remote;
  remote.capture = std::move(*decoded);
  ExpectSameReport(in_process,
                   obs::BuildRunReport(remote.capture, run.info, run.scan));

  std::vector<obs::ProcessReport> local_procs;
  local_procs.push_back(std::move(local));
  std::vector<obs::ProcessReport> remote_procs;
  remote_procs.push_back(std::move(remote));
  EXPECT_EQ(obs::MultiProcessChromeTraceJson(local_procs),
            obs::MultiProcessChromeTraceJson(remote_procs));
}

/// Runs `decode` on `payload` and requires a clean outcome — a Status or
/// a decoded value, never an exception. Returns whether it decoded.
template <typename Decode>
bool DecodesCleanly(const Decode& decode, const std::vector<uint8_t>& payload) {
  try {
    return decode(payload).ok();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "decoder threw: " << e.what();
    return false;
  }
}

/// The parser-side mutation suite for one real payload: truncation at
/// every byte, every single-bit flip re-framed with a valid CRC, and an
/// all-ones u32 written at every offset (which covers every count field).
template <typename Decode>
void ExpectMutationsDecodeCleanly(FrameType type,
                                  const std::vector<uint8_t>& payload,
                                  const Decode& decode) {
  ASSERT_TRUE(DecodesCleanly(decode, payload));
  for (size_t n = 0; n < payload.size(); ++n) {
    const std::vector<uint8_t> prefix(payload.begin(), payload.begin() + n);
    // Every field is required, so every proper prefix is an error.
    EXPECT_FALSE(DecodesCleanly(decode, prefix)) << "prefix of " << n;
  }
  size_t flips_decoded = 0;
  for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::vector<uint8_t> flipped = payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    if (DecodesCleanly(decode, Reframed(type, flipped))) ++flips_decoded;
  }
  for (size_t offset = 0; offset + 4 <= payload.size(); ++offset) {
    std::vector<uint8_t> forged = payload;
    PokeU32(&forged, offset, 0xffffffffu);
    DecodesCleanly(decode, forged);
  }
  // Flips inside payload values (timestamps, byte counts) still decode.
  EXPECT_GT(flips_decoded, 0u);
}

TEST_F(ScatterMergeTest, MutatedPayloadsDecodeOrFailCleanly) {
  const auto files = ListLaqFiles(*dataset_).ValueOrDie();
  TracedRun run;
  TraceRealQuery(files[0], /*threads=*/1, &run);
  auto output = queries::RunAdlQuery(queries::EngineKind::kRdf, 1, files[0]);
  ASSERT_TRUE(output.ok()) << output.status().message();
  ShardFragment fragment;
  fragment.output = std::move(*output);
  ASSERT_FALSE(fragment.output.scan.leaves.empty());
  ExpectMutationsDecodeCleanly(
      FrameType::kFragment, EncodeFragmentPayload(fragment),
      [](const std::vector<uint8_t>& p) { return DecodeFragmentPayload(p); });
  // A mutated report that still decodes goes on through every consumer
  // the coordinator runs on it, merged beside an intact worker's report:
  // they difference and sum its timestamps in int64, which UBSan checks.
  const std::vector<uint8_t> intact =
      EncodeReportPayload(obs::CaptureSession(run.session));
  ExpectMutationsDecodeCleanly(
      FrameType::kReport, intact, [&](const std::vector<uint8_t>& p) {
        auto capture = DecodeReportPayload(p);
        if (!capture.ok()) return capture.status();
        std::vector<obs::ProcessReport> reports(2);
        reports[0].capture = std::move(*capture);
        reports[1].capture = DecodeReportPayload(intact).ValueOrDie();
        const obs::RunReport merged =
            obs::MergeProcessReports(run.info, run.scan, reports);
        EXPECT_FALSE(obs::ReportToJson(merged).empty());
        EXPECT_FALSE(obs::ReportToTable(merged).empty());
        EXPECT_FALSE(obs::MultiProcessChromeTraceJson(reports).empty());
        return Status::OK();
      });
}

TEST(ScatterWorkerTest, EmitsReportAfterFragments) {
  const std::vector<std::string> files = {"fa", "fb", "fc"};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Status status = RunWorker(
      files, ShardRange{1, 3},
      [&](const std::string& file) -> Result<queries::QueryRunOutput> {
        return MakeFragment(file == "fb" ? 1 : 2).output;
      },
      fds[1], [] { return EncodeReportPayload(MakeCapture()); });
  ::close(fds[1]);
  ASSERT_TRUE(status.ok()) << status.message();
  std::vector<uint8_t> bytes(1 << 16);
  size_t total = 0;
  for (;;) {
    const ssize_t n =
        ::read(fds[0], bytes.data() + total, bytes.size() - total);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    total += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  // Raw frame order: every fragment, then the one report, then nothing.
  std::vector<FrameType> order;
  size_t pos = 0;
  while (pos < total) {
    Frame frame;
    size_t consumed = 0;
    auto complete =
        TryParseFrame(bytes.data() + pos, total - pos, &frame, &consumed);
    ASSERT_TRUE(complete.ok()) << complete.status().message();
    ASSERT_TRUE(*complete);
    order.push_back(frame.type);
    pos += consumed;
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], FrameType::kFragment);
  EXPECT_EQ(order[1], FrameType::kFragment);
  EXPECT_EQ(order[2], FrameType::kReport);
  const WorkerStream stream = ParseWorkerStream(bytes.data(), total);
  ASSERT_TRUE(stream.parse_error.ok()) << stream.parse_error.message();
  ASSERT_EQ(stream.fragments.size(), 2u);
  ASSERT_EQ(stream.reports.size(), 1u);
  const obs::SessionCapture& report = stream.reports[0];
  EXPECT_EQ(report.start_ns, 1000000);
  EXPECT_EQ(report.stop_ns, 9999999);
  ASSERT_EQ(report.spans.size(), 2u);
  EXPECT_STREQ(report.spans[0].name, "run");
  EXPECT_STREQ(report.spans[1].name, "row_group");
  EXPECT_EQ(report.spans[1].worker, 1);
  EXPECT_EQ(report.spans[1].depth, 1);
  ASSERT_EQ(report.counters.size(), 1u);
  EXPECT_STREQ(report.counters[0].name, "flwor_rows");
  EXPECT_EQ(report.counters[0].bytes, 7u);
}

/// Appends one kReport frame (optionally mangled) to a fragment stream.
std::vector<uint8_t> StreamWithReport(
    const std::vector<ShardFragment>& fragments,
    std::vector<uint8_t> report_frame) {
  std::vector<uint8_t> bytes = StreamOf(fragments);
  bytes.insert(bytes.end(), report_frame.begin(), report_frame.end());
  return bytes;
}

// A kReport frame whose CRC fails (the badreport fault shape: a payload
// byte flipped after encoding) stops parsing — but every fragment
// precedes the report, so the gather still merges and only the report is
// lost. The observability channel must never doom the result.
TEST(ScatterGatherTest, CorruptReportFrameKeepsFragmentsMerging) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> report_frame =
      EncodeFrame(FrameType::kReport, EncodeReportPayload(MakeCapture()));
  ASSERT_GT(report_frame.size(), 24u);
  report_frame[24] ^= 0xff;  // first payload byte: CRC now fails
  const std::vector<uint8_t> bytes =
      StreamWithReport({MakeFragment(0), MakeFragment(1)}, report_frame);
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  EXPECT_FALSE(stream.parse_error.ok());
  EXPECT_TRUE(stream.reports.empty());
  ASSERT_EQ(stream.fragments.size(), 2u);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  auto combined = CombineWorkerStreams(streams, files);
  ASSERT_TRUE(combined.ok()) << combined.status().message();
  EXPECT_EQ(combined->size(), 2u);
}

// A kReport frame that passes the CRC but whose payload no longer decodes
// (schema drift / truncated body re-framed intact) is dropped silently:
// the stream stays healthy.
TEST(ScatterGatherTest, UndecodableReportPayloadIsDroppedNotFatal) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> payload = EncodeReportPayload(MakeCapture());
  payload.resize(payload.size() / 2);  // valid frame, malformed body
  const std::vector<uint8_t> bytes =
      StreamWithReport({MakeFragment(0), MakeFragment(1)},
                       EncodeFrame(FrameType::kReport, payload));
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  EXPECT_TRUE(stream.parse_error.ok()) << stream.parse_error.message();
  EXPECT_TRUE(stream.reports.empty());
  ASSERT_EQ(stream.fragments.size(), 2u);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  auto combined = CombineWorkerStreams(streams, files);
  ASSERT_TRUE(combined.ok()) << combined.status().message();
  EXPECT_EQ(combined->size(), 2u);
}

// A worker that dies mid-kReport (truncated write) has already emitted
// all its fragments, so the merge still succeeds.
TEST(ScatterGatherTest, TruncatedReportFrameKeepsFragmentsMerging) {
  const std::vector<std::string> files = {"fa", "fb"};
  std::vector<uint8_t> report_frame =
      EncodeFrame(FrameType::kReport, EncodeReportPayload(MakeCapture()));
  report_frame.resize(report_frame.size() / 2);
  const std::vector<uint8_t> bytes =
      StreamWithReport({MakeFragment(0), MakeFragment(1)}, report_frame);
  WorkerStream stream = ParseWorkerStream(bytes.data(), bytes.size());
  stream.range = {0, 2};
  ASSERT_FALSE(stream.parse_error.ok());
  EXPECT_NE(stream.parse_error.message().find("ends mid-frame"),
            std::string::npos);
  EXPECT_TRUE(stream.reports.empty());
  ASSERT_EQ(stream.fragments.size(), 2u);
  std::vector<WorkerStream> streams;
  streams.push_back(std::move(stream));
  auto combined = CombineWorkerStreams(streams, files);
  ASSERT_TRUE(combined.ok()) << combined.status().message();
  EXPECT_EQ(combined->size(), 2u);
}

// The coordinator derives each worker's totals from that worker's own
// fragments, summed in shard order as the worker would sum them: wall
// time too is a sum there, while the merged result takes the max. Each
// "worker" here is `cat` replaying a canned stream.
TEST(ScatterCoordinatorTest, ProcessTotalsSumTheWorkersFragments) {
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> files = {"fa", "fb", "fc", "fd"};
  auto write_stream = [&](const std::string& name,
                          const std::vector<uint8_t>& bytes) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  // Worker [0,2) sends its report; worker [2,4) sends none.
  write_stream("hepq_scatter_w0.bin",
               StreamWithReport({MakeFragment(0), MakeFragment(1)},
                                EncodeFrame(FrameType::kReport,
                                            EncodeReportPayload(
                                                MakeCapture()))));
  write_stream("hepq_scatter_w2.bin",
               StreamOf({MakeFragment(2), MakeFragment(3)}));
  std::vector<obs::ProcessReport> reports;
  auto result = scatter::RunScattered(
      files, 2,
      [&](ShardRange range) {
        return std::vector<std::string>{
            "cat", dir + "/hepq_scatter_w" + std::to_string(range.begin) +
                       ".bin"};
      },
      &reports);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Bits(result->wall_seconds), Bits(3.5));  // max over shards
  ASSERT_EQ(reports.size(), 2u);
  const obs::ProcessReport& first = reports[0];
  EXPECT_TRUE(first.received);
  EXPECT_EQ(first.shard_begin, 0);
  EXPECT_EQ(first.shard_end, 2);
  EXPECT_EQ(first.events, 100 + 101);
  EXPECT_EQ(Bits(first.wall_seconds), Bits(0.5 + 1.5));
  EXPECT_EQ(Bits(first.cpu_seconds), Bits(0.0 + 0.25));
  EXPECT_EQ(first.scan.storage_bytes, 1000u + 1001u);
  ASSERT_EQ(first.capture.spans.size(), 2u);
  EXPECT_STREQ(first.capture.spans[1].name, "row_group");
  const obs::ProcessReport& second = reports[1];
  EXPECT_FALSE(second.received);
  EXPECT_EQ(second.shard_begin, 2);
  EXPECT_EQ(second.events, 102 + 103);

  obs::RunInfo info;
  info.threads = 3;
  const obs::RunReport merged =
      obs::MergeProcessReports(info, result->scan, reports);
  ASSERT_EQ(merged.processes.size(), 2u);
  EXPECT_EQ(merged.processes[0].threads, 3);
  EXPECT_EQ(merged.processes[0].events, 201);
  EXPECT_EQ(Bits(merged.processes[0].wall_seconds), Bits(2.0));
  EXPECT_EQ(merged.processes[0].storage_bytes, 2001u);
  EXPECT_TRUE(merged.partial);
  EXPECT_EQ(merged.processes[1].events, 0);  // no report, no attribution
  ASSERT_EQ(merged.workers.size(), 1u);
  EXPECT_EQ(merged.workers[0].worker, 1);
}

// ---------------------------------------------------------------------------
// Merged-report determinism: the same per-shard observability content
// grouped into 2 workers or 4 workers must yield the same cross-process
// RunReport (modulo the processes[] table, which names the grouping).
// ---------------------------------------------------------------------------

/// One worker's report covering shards [begin, end): each shard adds the
/// same content scaled by its index — a `run` root span (a worker runs one
/// query per shard) over a row-group span over a decode span, counter
/// increments, and fragment totals — so any regrouping that changes
/// totals is caught.
obs::ProcessReport MakeGroupedReport(int begin, int end) {
  obs::ProcessReport report;
  report.shard_begin = begin;
  report.shard_end = end;
  obs::SessionCapture& capture = report.capture;
  capture.start_ns = 1000000;
  int64_t next_start = capture.start_ns + 1;
  obs::CounterRecord counter{"flwor_rows", obs::Stage::kEventLoop, 0, 0, 0};
  uint32_t seq = 0;
  for (int shard = begin; shard < end; ++shard) {
    report.events += 1000 + shard;
    report.scan.storage_bytes += 10000u + static_cast<uint64_t>(shard);
    report.scan.decoded_bytes += 500u * static_cast<uint64_t>(shard + 1);
    obs::SpanRecord run;
    run.name = "run";
    run.stage = obs::Stage::kRun;
    run.start_ns = next_start;
    run.end_ns = next_start + 1000 + shard;
    run.cpu_ns = 900 + shard;
    obs::SpanRecord group;
    group.name = "row_group";
    group.stage = obs::Stage::kRowGroup;
    group.depth = 1;
    group.start_ns = run.start_ns + 1;
    group.end_ns = group.start_ns + 100 + shard;
    group.cpu_ns = 90 + shard;
    group.bytes = 64;
    group.worker = 0;
    group.group = shard;
    group.slot = shard - begin;
    obs::SpanRecord decode;
    decode.name = "decode";
    decode.stage = obs::Stage::kDecode;
    decode.depth = 2;
    decode.start_ns = group.start_ns + 10;
    decode.end_ns = decode.start_ns + 30 + shard;
    decode.cpu_ns = 20 + shard;
    decode.bytes = 32;
    decode.seq = seq++;  // ends first
    group.seq = seq++;
    run.seq = seq++;
    capture.spans.push_back(run);
    capture.spans.push_back(group);
    capture.spans.push_back(decode);
    next_start = run.end_ns;
    counter.ns += 5 + shard;
    counter.count += 1;
    counter.bytes += 8u;
  }
  capture.stop_ns = next_start;
  capture.counters.push_back(counter);
  return report;
}

TEST(ScatterReportMergeTest, MergedReportInvariantToWorkerGrouping) {
  obs::RunInfo info;
  info.query = "Q5";
  info.engine = "rdf";
  info.threads = 2;
  info.events_processed = 4 * 1000 + 0 + 1 + 2 + 3;
  ScanStats merged_scan;
  for (int shard = 0; shard < 4; ++shard) {
    merged_scan.storage_bytes += 10000u + static_cast<uint64_t>(shard);
    merged_scan.decoded_bytes += 500u * static_cast<uint64_t>(shard + 1);
  }

  std::vector<obs::ProcessReport> two;
  two.push_back(MakeGroupedReport(0, 2));
  two.push_back(MakeGroupedReport(2, 4));
  std::vector<obs::ProcessReport> four;
  for (int shard = 0; shard < 4; ++shard) {
    four.push_back(MakeGroupedReport(shard, shard + 1));
  }
  const obs::RunReport a = obs::MergeProcessReports(info, merged_scan, two);
  const obs::RunReport b = obs::MergeProcessReports(info, merged_scan, four);

  EXPECT_FALSE(a.partial);
  EXPECT_FALSE(b.partial);
  EXPECT_EQ(a.info.events_processed, b.info.events_processed);
  EXPECT_EQ(a.scan.decoded_bytes, b.scan.decoded_bytes);
  // Every shard's root span counts, however shards group into workers.
  EXPECT_EQ(a.run_span_ns, 4 * 1000 + 0 + 1 + 2 + 3);
  EXPECT_EQ(a.run_span_ns, b.run_span_ns);
  EXPECT_EQ(a.total_span_ns, 4 * 100 + 0 + 1 + 2 + 3);  // row groups
  EXPECT_EQ(a.total_span_ns, b.total_span_ns);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  ASSERT_EQ(a.stages.size(), 3u);  // run, row_group and decode
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].stage, b.stages[s].stage);
    EXPECT_EQ(a.stages[s].wall_ns, b.stages[s].wall_ns);
    EXPECT_EQ(a.stages[s].cpu_ns, b.stages[s].cpu_ns);
    EXPECT_EQ(a.stages[s].bytes, b.stages[s].bytes);
    EXPECT_EQ(a.stages[s].count, b.stages[s].count);
  }
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (size_t c = 0; c < a.counters.size(); ++c) {
    EXPECT_EQ(a.counters[c].name, b.counters[c].name);
    EXPECT_EQ(a.counters[c].ns, b.counters[c].ns);
    EXPECT_EQ(a.counters[c].count, b.counters[c].count);
    EXPECT_EQ(a.counters[c].bytes, b.counters[c].bytes);
  }
  // Per-process scan totals reconcile against the merged scan — the
  // processes[] contract — for both groupings.
  for (const obs::RunReport* r : {&a, &b}) {
    uint64_t decoded = 0;
    uint64_t storage = 0;
    for (const auto& process : r->processes) {
      EXPECT_TRUE(process.report_received);
      decoded += process.decoded_bytes;
      storage += process.storage_bytes;
    }
    EXPECT_EQ(decoded, r->scan.decoded_bytes);
    EXPECT_EQ(storage, r->scan.storage_bytes);
  }
  EXPECT_EQ(a.processes.size(), 2u);
  EXPECT_EQ(b.processes.size(), 4u);
  EXPECT_EQ(b.processes[2].proc, 2);
  EXPECT_EQ(b.processes[2].shard_begin, 2);
  EXPECT_EQ(b.processes[2].shard_end, 3);
}

// A placeholder (worker whose kReport never arrived) degrades the merged
// report deterministically: partial, one warning keyed by shard range.
TEST(ScatterReportMergeTest, MissingReportYieldsDeterministicWarning) {
  obs::RunInfo info;
  info.query = "Q1";
  info.engine = "doc";
  ScanStats merged_scan;
  std::vector<obs::ProcessReport> reports;
  reports.push_back(MakeGroupedReport(0, 2));
  obs::ProcessReport placeholder;
  placeholder.shard_begin = 2;
  placeholder.shard_end = 4;
  placeholder.received = false;
  reports.push_back(std::move(placeholder));
  const obs::RunReport merged =
      obs::MergeProcessReports(info, merged_scan, reports);
  EXPECT_TRUE(merged.partial);
  ASSERT_EQ(merged.warnings.size(), 1u);
  EXPECT_EQ(merged.warnings[0],
            "worker for shards [2,4) sent no run report; per-process "
            "attribution is incomplete");
  ASSERT_EQ(merged.processes.size(), 2u);
  EXPECT_TRUE(merged.processes[0].report_received);
  EXPECT_FALSE(merged.processes[1].report_received);
  EXPECT_EQ(merged.processes[1].shard_begin, 2);
  EXPECT_EQ(merged.processes[1].shard_end, 4);
}

}  // namespace
}  // namespace hepq
