// Cache-hierarchy tests: unit coverage of the three levels (footer,
// decoded-chunk, result), the dataset content-version that keys result
// invalidation, thread-safety hammering (the TSan job runs this binary),
// and the end-to-end gates the PR promises — bit-identical histograms
// across {cache off, cold, warm} x {1, 4} threads for all 8 queries on
// all 4 frontends, and a warm repeat that decodes zero bytes from disk.

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "datagen/dataset.h"
#include "fileio/dataset_reader.h"
#include "fileio/reader.h"
#include "queries/adl.h"

namespace hepq::cache {
namespace {

using queries::EngineKind;
using queries::EngineKindName;
using queries::QueryRunOutput;
using queries::RunAdlQuery;
using queries::RunOptions;

constexpr EngineKind kEngines[] = {
    EngineKind::kRdf, EngineKind::kBigQueryShape, EngineKind::kPrestoShape,
    EngineKind::kDoc};

/// Shared small dataset (3 row groups, same geometry as queries_test).
const std::string& TestDataset() {
  static const auto& path = *new std::string([] {
    DatasetSpec spec;
    spec.num_events = 6000;
    spec.row_group_size = 2000;
    return EnsureDataset(::testing::TempDir() + "/hepq_cache", spec)
        .ValueOrDie();
  }());
  return path;
}

// ---------------------------------------------------------------------------
// ChunkCache units

ChunkKey Key(uint64_t file_id, int leaf, int group) {
  ChunkKey key;
  key.file_id = file_id;
  key.leaf = leaf;
  key.group = group;
  return key;
}

std::vector<uint8_t> Payload(size_t size, uint8_t fill) {
  return std::vector<uint8_t>(size, fill);
}

TEST(ChunkCacheTest, HitReturnsInsertedBytes) {
  ChunkCache cache;
  const auto data = Payload(100, 0xAB);
  cache.Insert(Key(1, 2, 3), data.data(), data.size());
  std::vector<uint8_t> out;
  ASSERT_TRUE(cache.Get(Key(1, 2, 3), &out));
  EXPECT_EQ(out, data);
  EXPECT_FALSE(cache.Get(Key(1, 2, 4), &out));  // different group
  EXPECT_FALSE(cache.Get(Key(2, 2, 3), &out));  // different file generation
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.inserts, 1u);
  EXPECT_EQ(c.bytes_served, 100u);
  EXPECT_EQ(c.bytes_held, 100u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(ChunkCacheTest, ByteBudgetBoundsResidencyAndEvictsLru) {
  // 16 KiB budget over 16 stripes = 1 KiB per stripe: 600-byte chunks fit
  // one per stripe, so mass insertion must evict and hold <= the budget.
  CacheOptions options;
  options.decoded_budget_bytes = 16 * 1024;
  ChunkCache cache(options);
  const auto data = Payload(600, 0x5A);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    cache.Insert(Key(7, i, 0), data.data(), data.size());
  }
  const CacheCounters c = cache.counters();
  EXPECT_LE(c.bytes_held, options.decoded_budget_bytes);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_EQ(c.inserts + 0u, static_cast<uint64_t>(n));
  // The most recent insert is by definition the MRU of its stripe and
  // must still be resident.
  std::vector<uint8_t> out;
  EXPECT_TRUE(cache.Get(Key(7, n - 1, 0), &out));
}

TEST(ChunkCacheTest, EvictionIsOldestFirstWithinAStripe) {
  // One 600-byte entry fits a 1 KiB stripe, two do not: the second
  // same-stripe insert must evict the first (LRU = insertion order here).
  CacheOptions options;
  options.decoded_budget_bytes = 16 * 1024;
  ChunkCache cache(options);
  const auto data = Payload(600, 0x11);
  const ChunkKey first = Key(3, 0, 0);
  cache.Insert(first, data.data(), data.size());
  // Find a key that lands in the same stripe: the first insert that
  // knocks `first` out collided with it — and because `first` was the
  // older of the two residents, its eviction IS the LRU order.
  ChunkKey collider{};
  bool evicted = false;
  std::vector<uint8_t> out;
  for (int g = 1; g < 10000 && !evicted; ++g) {
    collider = Key(3, 0, g);
    cache.Insert(collider, data.data(), data.size());
    evicted = !cache.Get(first, &out);
  }
  ASSERT_TRUE(evicted) << "no stripe collision with `first` in 10000 keys";
  EXPECT_TRUE(cache.Get(collider, &out)) << "newer entry evicted instead";
}

TEST(ChunkCacheTest, OversizedChunkIsNeverAdmitted) {
  CacheOptions options;
  options.decoded_budget_bytes = 16 * 1024;  // stripe share: 1 KiB
  ChunkCache cache(options);
  const auto big = Payload(4096, 0xEE);
  cache.Insert(Key(1, 1, 1), big.data(), big.size());
  std::vector<uint8_t> out;
  EXPECT_FALSE(cache.Get(Key(1, 1, 1), &out));
  EXPECT_EQ(cache.counters().bytes_held, 0u);
  EXPECT_EQ(cache.counters().entries, 0u);
}

TEST(ChunkCacheTest, ReinsertRefreshesWithoutGrowth) {
  ChunkCache cache;
  const auto data = Payload(100, 0x42);
  cache.Insert(Key(1, 0, 0), data.data(), data.size());
  cache.Insert(Key(1, 0, 0), data.data(), data.size());
  EXPECT_EQ(cache.counters().entries, 1u);
  EXPECT_EQ(cache.counters().bytes_held, 100u);
}

TEST(ChunkCacheTest, ConcurrentHammerIsSafeAndValueCorrect) {
  // 8 threads mixing Get/Insert on a deliberately tiny cache so eviction,
  // refresh, and lookup interleave constantly. Every hit must return the
  // exact bytes its key was inserted with (keys determine payloads).
  CacheOptions options;
  options.decoded_budget_bytes = 64 * 1024;
  ChunkCache cache(options);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr int kKeys = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::vector<uint8_t> out;
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * 31 + t * 7) % kKeys;
        const auto data =
            Payload(128 + static_cast<size_t>(k) * 8,
                    static_cast<uint8_t>(k));
        if ((i + t) % 3 == 0) {
          cache.Insert(Key(9, k, 0), data.data(), data.size());
        } else if (cache.Get(Key(9, k, 0), &out)) {
          ASSERT_EQ(out, data) << "hit returned bytes of a different key";
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.counters().bytes_held, options.decoded_budget_bytes);
}

// ---------------------------------------------------------------------------
// FooterCache units

FileIdentity Identity(uint64_t size, int64_t mtime_ns, uint32_t crc) {
  FileIdentity id;
  id.size = size;
  id.mtime_ns = mtime_ns;
  id.footer_crc = crc;
  return id;
}

TEST(FooterCacheTest, IdentityMismatchMisses) {
  FooterCache cache;
  const FileIdentity id = Identity(1000, 42, 0xDEAD);
  auto meta = std::make_shared<const FileMetadata>();
  auto entry = cache.Insert("a.laq", id, /*validated_chunk_limit=*/1 << 20,
                            meta);
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(cache.Find("a.laq", id, 1 << 20), nullptr);
  // Any leg of the identity failing means a miss.
  EXPECT_EQ(cache.Find("a.laq", Identity(1001, 42, 0xDEAD), 1 << 20),
            nullptr);
  EXPECT_EQ(cache.Find("a.laq", Identity(1000, 43, 0xDEAD), 1 << 20),
            nullptr);
  EXPECT_EQ(cache.Find("a.laq", Identity(1000, 42, 0xBEEF), 1 << 20),
            nullptr);
  EXPECT_EQ(cache.Find("b.laq", id, 1 << 20), nullptr);
}

TEST(FooterCacheTest, StricterChunkLimitForcesRevalidation) {
  FooterCache cache;
  const FileIdentity id = Identity(1000, 42, 0xDEAD);
  cache.Insert("a.laq", id, /*validated_chunk_limit=*/1 << 20,
               std::make_shared<const FileMetadata>());
  // Validated under 1 MiB: a stricter caller limit cannot reuse it, a
  // looser one can (validation only rejects chunks ABOVE the limit).
  EXPECT_EQ(cache.Find("a.laq", id, (1 << 20) - 1), nullptr);
  EXPECT_NE(cache.Find("a.laq", id, 1 << 20), nullptr);
  EXPECT_NE(cache.Find("a.laq", id, 1 << 21), nullptr);
}

TEST(FooterCacheTest, NewIdentityGetsFreshFileGenerationId) {
  FooterCache cache;
  auto meta = std::make_shared<const FileMetadata>();
  auto first = cache.Insert("a.laq", Identity(1000, 42, 0xDEAD), 1024, meta);
  auto second = cache.Insert("a.laq", Identity(1000, 43, 0xDEAD), 1024, meta);
  EXPECT_NE(first->file_id, second->file_id)
      << "a rewritten file must invalidate old chunk-cache keys";
  // Re-inserting the resident identity returns the banked entry: the
  // generation id is stable while the bytes are (first writer wins).
  auto again = cache.Insert("a.laq", Identity(1000, 43, 0xDEAD), 1024, meta);
  EXPECT_EQ(again->file_id, second->file_id);
}

// ---------------------------------------------------------------------------
// ResultCache units

TEST(ResultCacheTest, LruEvictsBeyondMaxEntries) {
  ResultCache cache(/*max_entries=*/2);
  CachedResult value;
  value.events_processed = 1;
  cache.Insert("k1", value);
  cache.Insert("k2", value);
  CachedResult out;
  ASSERT_TRUE(cache.Get("k1", &out));  // refreshes k1; k2 is now LRU
  cache.Insert("k3", value);
  EXPECT_TRUE(cache.Get("k1", &out));
  EXPECT_FALSE(cache.Get("k2", &out));
  EXPECT_TRUE(cache.Get("k3", &out));
}

// ---------------------------------------------------------------------------
// Dataset content version

/// Overwrites `dst` with the bytes of `src` (same path, new content).
void CopyFileBytes(const std::string& src, const std::string& dst) {
  std::FILE* in = std::fopen(src.c_str(), "rb");
  std::FILE* out = std::fopen(dst.c_str(), "wb");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    ASSERT_EQ(std::fwrite(buffer, 1, n, out), n);
  }
  std::fclose(in);
  ASSERT_EQ(std::fclose(out), 0);
}

/// EnsureDataset, but immune to a previous run of these tests having
/// overwritten the file in place: regenerates from scratch.
std::string FreshDataset(const std::string& dir, const DatasetSpec& spec) {
  const std::string path = EnsureDataset(dir, spec).ValueOrDie();
  std::remove(path.c_str());
  return EnsureDataset(dir, spec).ValueOrDie();
}

TEST(DatasetVersionTest, StableUntilContentChanges) {
  DatasetSpec spec;
  spec.num_events = 500;
  spec.row_group_size = 250;
  const std::string dir = ::testing::TempDir() + "/hepq_cache_version";
  const std::string a = FreshDataset(dir, spec);
  spec.seed = 7;
  const std::string b = FreshDataset(dir, spec);
  ASSERT_NE(a, b);

  const uint64_t va = DatasetVersion(a).ValueOrDie();
  const uint64_t vb = DatasetVersion(b).ValueOrDie();
  EXPECT_NE(va, vb) << "different content, same version";
  EXPECT_EQ(DatasetVersion(a).ValueOrDie(), va) << "version is not stable";

  // A byte-identical rewrite keeps the version (mtime-free identity)...
  CopyFileBytes(a, dir + "/copy.laq");
  CopyFileBytes(dir + "/copy.laq", a);
  EXPECT_EQ(DatasetVersion(a).ValueOrDie(), va);
  // ...but regenerating different bytes at the SAME path changes it.
  CopyFileBytes(b, a);
  EXPECT_NE(DatasetVersion(a).ValueOrDie(), va);
}

TEST(DatasetVersionTest, DirectoryVersionCoversEveryShard) {
  ShardedDatasetSpec spec;
  spec.num_shards = 2;
  spec.events_per_shard = 300;
  spec.row_group_size = 150;
  const std::string root = ::testing::TempDir() + "/hepq_cache_version_dir";
  const std::string dir = EnsureShardedDataset(root, spec).ValueOrDie();
  const uint64_t v = DatasetVersion(dir).ValueOrDie();

  // The same shards under another directory name: same content, same
  // version.
  const std::string moved = root + "/moved";
  ::mkdir(moved.c_str(), 0755);
  for (int shard = 0; shard < spec.num_shards; ++shard) {
    CopyFileBytes(dir + "/" + spec.ShardFileName(shard),
                  moved + "/" + spec.ShardFileName(shard));
  }
  EXPECT_EQ(DatasetVersion(moved).ValueOrDie(), v);
  // One shard alone is a different dataset, and so is a directory whose
  // second shard holds the first one's bytes.
  EXPECT_NE(DatasetVersion(dir + "/" + spec.ShardFileName(0)).ValueOrDie(),
            v);
  CopyFileBytes(dir + "/" + spec.ShardFileName(0),
                moved + "/" + spec.ShardFileName(1));
  EXPECT_NE(DatasetVersion(moved).ValueOrDie(), v);
  // A directory without shards has no version.
  const std::string empty = root + "/empty";
  ::mkdir(empty.c_str(), 0755);
  EXPECT_FALSE(DatasetVersion(empty).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: result-cache invalidation on dataset regeneration

TEST(ResultCacheEndToEndTest, RegeneratedDatasetMissesStaleResults) {
  DatasetSpec spec;
  spec.num_events = 500;
  spec.row_group_size = 250;
  const std::string dir = ::testing::TempDir() + "/hepq_cache_regen";
  const std::string path = FreshDataset(dir, spec);
  spec.seed = 7;
  const std::string other = FreshDataset(dir, spec);

  RunOptions options;
  options.result_cache = std::make_shared<ResultCache>();
  auto cold = RunAdlQuery(EngineKind::kBigQueryShape, 1, path, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->from_result_cache);

  auto warm = RunAdlQuery(EngineKind::kBigQueryShape, 1, path, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->from_result_cache);
  ASSERT_EQ(warm->histograms.size(), cold->histograms.size());
  EXPECT_EQ(warm->histograms[0].ToParts().bins,
            cold->histograms[0].ToParts().bins);

  // Regenerate the dataset in place: same path, different bytes. The
  // stale cached result must not be served.
  CopyFileBytes(other, path);
  auto regen = RunAdlQuery(EngineKind::kBigQueryShape, 1, path, options);
  ASSERT_TRUE(regen.ok()) << regen.status().ToString();
  EXPECT_FALSE(regen->from_result_cache)
      << "served a result cached for the old dataset bytes";
  EXPECT_NE(regen->histograms[0].ToParts().bins,
            cold->histograms[0].ToParts().bins)
      << "seed-7 data produced the seed-default histogram";
}

// ---------------------------------------------------------------------------
// End-to-end: bit identity across cache states, engines, and threads

void ExpectSameParts(const Histogram1D& got, const Histogram1D& want) {
  const HistogramParts g = got.ToParts();
  const HistogramParts w = want.ToParts();
  EXPECT_EQ(g.spec, w.spec);
  EXPECT_EQ(g.bins, w.bins);  // element-wise exact double compare
  EXPECT_EQ(g.underflow, w.underflow);
  EXPECT_EQ(g.overflow, w.overflow);
  EXPECT_EQ(g.num_entries, w.num_entries);
  EXPECT_EQ(g.sum_w, w.sum_w);
  EXPECT_EQ(g.sum_wx, w.sum_wx);
  EXPECT_EQ(g.sum_wx2, w.sum_wx2);
}

void ExpectSameOutput(const QueryRunOutput& got, const QueryRunOutput& want) {
  EXPECT_EQ(got.events_processed, want.events_processed);
  ASSERT_EQ(got.histograms.size(), want.histograms.size());
  for (size_t h = 0; h < got.histograms.size(); ++h) {
    ExpectSameParts(got.histograms[h], want.histograms[h]);
  }
}

/// The PR's headline gate: every query on every frontend produces
/// bit-identical histograms with the cache hierarchy off, cold, and warm,
/// at 1 and 4 threads. Cache state must be observationally invisible.
class CacheBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(CacheBitIdentity, HistogramsIdenticalOffColdWarmAcrossThreads) {
  const int q = GetParam();
  for (EngineKind engine : kEngines) {
    SCOPED_TRACE(std::string("Q") + std::to_string(q) + " on " +
                 EngineKindName(engine));
    RunOptions off;
    off.footer_cache = false;  // fully cache-free baseline
    auto baseline = RunAdlQuery(engine, q, TestDataset(), off);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    RunOptions off4 = off;
    off4.num_threads = 4;
    auto off_t4 = RunAdlQuery(engine, q, TestDataset(), off4);
    ASSERT_TRUE(off_t4.ok());
    ExpectSameOutput(*off_t4, *baseline);

    // Cold then warm over one shared chunk cache (no result cache here:
    // the warm pass must flow through the chunk-hit read path).
    RunOptions cached;
    cached.chunk_cache = std::make_shared<ChunkCache>();
    auto cold = RunAdlQuery(engine, q, TestDataset(), cached);
    ASSERT_TRUE(cold.ok());
    ExpectSameOutput(*cold, *baseline);

    auto warm = RunAdlQuery(engine, q, TestDataset(), cached);
    ASSERT_TRUE(warm.ok());
    ExpectSameOutput(*warm, *baseline);

    RunOptions cached4 = cached;
    cached4.num_threads = 4;
    auto warm_t4 = RunAdlQuery(engine, q, TestDataset(), cached4);
    ASSERT_TRUE(warm_t4.ok());
    ExpectSameOutput(*warm_t4, *baseline);

    // Result-cache hit: the third level reproduces the same bits too.
    RunOptions full = cached;
    full.result_cache = std::make_shared<ResultCache>();
    auto prime = RunAdlQuery(engine, q, TestDataset(), full);
    ASSERT_TRUE(prime.ok());
    EXPECT_FALSE(prime->from_result_cache);
    auto hit = RunAdlQuery(engine, q, TestDataset(), full);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->from_result_cache);
    ExpectSameOutput(*hit, *baseline);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CacheBitIdentity,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// End-to-end: byte reconciliation of a warm repeat

TEST(CacheReconciliationTest, WarmRepeatDecodesZeroBytesFromDisk) {
  // Pushdown and late materialization off so cold and warm touch the
  // identical chunk set; every chunk then decodes fully and cleanly and
  // is admitted, so the warm repeat must be served entirely from cache.
  RunOptions options;
  options.scan_pushdown = false;
  options.late_materialization = false;
  options.chunk_cache = std::make_shared<ChunkCache>();
  auto cold = RunAdlQuery(EngineKind::kBigQueryShape, 5, TestDataset(),
                          options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT(cold->scan.decoded_bytes, 0u);
  EXPECT_EQ(cold->scan.chunk_cache_hits, 0u);
  EXPECT_EQ(cold->scan.cache_bytes_served, 0u);

  auto warm = RunAdlQuery(EngineKind::kBigQueryShape, 5, TestDataset(),
                          options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->scan.decoded_bytes, 0u)
      << "warm repeat touched the decode path";
  EXPECT_GT(warm->scan.chunk_cache_hits, 0u);
  EXPECT_GT(warm->scan.footer_cache_hits, 0u);
  // The reconciliation identity: bytes consumed by a run = decoded from
  // storage + served from cache; warm consumption equals cold decoding.
  EXPECT_EQ(warm->scan.decoded_bytes + warm->scan.cache_bytes_served,
            cold->scan.decoded_bytes + cold->scan.cache_bytes_served);
  ExpectSameOutput(*warm, *cold);
}

}  // namespace
}  // namespace hepq::cache
