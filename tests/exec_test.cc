// Tests for the shared parallel execution runtime (src/exec) and for the
// determinism contract it gives every frontend: results are bit-identical
// for any thread count because each row group accumulates into its own
// slot and slots merge in ascending group order.

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "datagen/dataset.h"
#include "exec/exec.h"
#include "fileio/dataset_reader.h"
#include "fileio/writer.h"
#include "queries/adl.h"

namespace hepq {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryTaskExactlyOnce) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(100);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(4, 100, [&](int worker, int task) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    counts[static_cast<size_t>(task)].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  exec::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(2, 10, [&](int, int task) { sum.fetch_add(task); });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineInTaskOrder) {
  exec::ThreadPool pool(4);
  std::vector<int> order;  // no lock needed: max_workers == 1 is inline
  pool.ParallelFor(1, 5, [&](int worker, int task) {
    EXPECT_EQ(worker, 0);
    order.push_back(task);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EnsureThreadsGrowsButNeverShrinks) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  pool.EnsureThreads(3);
  EXPECT_EQ(pool.num_threads(), 3);
  pool.EnsureThreads(2);
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(SchedulingTest, SortLptOrdersByBytesThenGroup) {
  std::vector<exec::RowGroupTask> tasks = {
      {0, 10}, {1, 30}, {2, 30}, {3, 5}, {4, 30}};
  exec::SortLpt(&tasks);
  std::vector<int> groups;
  for (const auto& t : tasks) groups.push_back(t.group);
  EXPECT_EQ(groups, (std::vector<int>{1, 2, 4, 0, 3}));
}

TEST(SchedulingTest, EffectiveWorkersClampsToTasksAndOne) {
  EXPECT_EQ(exec::EffectiveWorkers(4, 8), 4);
  EXPECT_EQ(exec::EffectiveWorkers(4, 2), 2);
  EXPECT_EQ(exec::EffectiveWorkers(0, 5), 1);
  EXPECT_EQ(exec::EffectiveWorkers(-3, 5), 1);
  EXPECT_EQ(exec::EffectiveWorkers(4, 0), 1);
}

TEST(RunRowGroupsTest, ProcessesEveryGroupOnce) {
  for (int threads : {1, 3}) {
    std::vector<exec::RowGroupTask> tasks;
    for (int g = 0; g < 16; ++g) {
      tasks.push_back({g, static_cast<uint64_t>(100 - g)});
    }
    std::vector<std::atomic<int>> seen(16);
    for (auto& s : seen) s.store(0);
    ASSERT_TRUE(exec::RunRowGroups(threads, tasks,
                                   [&](int, int group) {
                                     seen[static_cast<size_t>(group)]
                                         .fetch_add(1);
                                     return Status::OK();
                                   })
                    .ok());
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  }
}

TEST(RunRowGroupsTest, ReportsSmallestFailingGroupDeterministically) {
  for (int threads : {1, 4}) {
    std::vector<exec::RowGroupTask> tasks;
    for (int g = 0; g < 8; ++g) {
      // Descending sizes so LPT order == ascending group index.
      tasks.push_back({g, static_cast<uint64_t>(100 - g)});
    }
    const Status status = exec::RunRowGroups(
        threads, tasks, [&](int, int group) -> Status {
          if (group >= 5) {
            return Status::Invalid("boom " + std::to_string(group));
          }
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    // Groups 5..7 all fail, but only the smallest failing group's error is
    // ever reported: larger groups are skipped once it is known, smaller
    // ones always run. Deterministic for any thread count.
    EXPECT_NE(status.message().find("boom 5"), std::string::npos)
        << "threads=" << threads << ": " << status.message();
  }
}

TEST(RunRowGroupsTest, GroupsBelowAFailureAlwaysRun) {
  for (int threads : {1, 4}) {
    std::vector<exec::RowGroupTask> tasks;
    for (int g = 0; g < 8; ++g) {
      // Ascending sizes so LPT order == descending group index: the
      // failing group 7 is dispatched first, yet every smaller group must
      // still be attempted (any of them could fail with a smaller index).
      tasks.push_back({g, static_cast<uint64_t>(g)});
    }
    std::vector<std::atomic<int>> seen(8);
    for (auto& s : seen) s.store(0);
    const Status status = exec::RunRowGroups(
        threads, tasks, [&](int, int group) -> Status {
          seen[static_cast<size_t>(group)].fetch_add(1);
          if (group == 7) return Status::Invalid("boom 7");
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("boom 7"), std::string::npos);
    for (int g = 0; g < 7; ++g) {
      EXPECT_EQ(seen[static_cast<size_t>(g)].load(), 1) << "group " << g;
    }
  }
}

TEST(RunRowGroupsTest, EmptyTaskListIsOk) {
  EXPECT_TRUE(exec::RunRowGroups(4, {}, [&](int, int) {
                return Status::Invalid("never called");
              }).ok());
}

// ---------------------------------------------------------------------------
// WorkerReaders + frontend determinism on a real data set.
// ---------------------------------------------------------------------------

class ExecDatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec;
    spec.num_events = 2000;
    spec.row_group_size = 500;
    path_ = new std::string(
        EnsureDataset(::testing::TempDir() + "/hepq_exec", spec)
            .ValueOrDie());
  }

  static std::string* path_;
};

std::string* ExecDatasetTest::path_ = nullptr;

TEST_F(ExecDatasetTest, WorkerReadersShareFileDisjointHandles) {
  exec::WorkerReaders readers(*path_, ReaderOptions{}, 3);
  const FileMetadata* metadata = readers.metadata().ValueOrDie();
  EXPECT_EQ(metadata->row_groups.size(), 4u);
  LaqReader* r0 = readers.reader(0).ValueOrDie();
  LaqReader* r2 = readers.reader(2).ValueOrDie();
  EXPECT_NE(r0, r2);
  EXPECT_NE(readers.scratch(0), readers.scratch(2));
  // Stats from all opened readers sum into the total.
  ASSERT_TRUE(r0->ReadRowGroup(0, {"MET.pt"}, readers.scratch(0)).ok());
  ASSERT_TRUE(r2->ReadRowGroup(1, {"MET.pt"}, readers.scratch(2)).ok());
  const ScanStats total = readers.TotalScanStats();
  EXPECT_EQ(total.chunks_read,
            r0->scan_stats().chunks_read + r2->scan_stats().chunks_read);
  EXPECT_GT(total.storage_bytes, 0u);
}

// ---------------------------------------------------------------------------
// SlotPool: per-worker scratch that outlives a run.
// ---------------------------------------------------------------------------

/// Engine state riding in a slot: counts the row groups it has seen.
struct GroupCounter {
  int groups = 0;
  size_t CapacityBytes() const { return 0; }
};

size_t DecodeCapacity(const ScratchBuffers& scratch) {
  return scratch.compressed.capacity() + scratch.encoded.capacity() +
         scratch.values.capacity();
}

/// What a scan's process callback saw of its worker slots.
struct SlotTrace {
  std::set<exec::WorkerSlot*> slots;
  size_t first_capacity = 0;  // decode capacity at the first group
  size_t last_capacity = 0;   // ... and at the last
  int groups = 0;
  GroupCounter* counter = nullptr;
};

/// A scan over "MET.pt" that records its slots into `trace`; `on_group`
/// (optional) runs first on every group.
exec::DatasetScan<int> TracingScan(SlotTrace* trace,
                                   std::function<void()> on_group = {}) {
  exec::DatasetScan<int> scan;
  scan.projection = {"MET.pt"};
  scan.make_partial = [] { return 0; };
  scan.process = [trace, on_group](const exec::ScanGroup& group,
                                   const RecordBatch&, int*) {
    if (on_group) on_group();
    const size_t capacity = DecodeCapacity(group.slot->scratch);
    if (trace->groups++ == 0) trace->first_capacity = capacity;
    trace->last_capacity = capacity;
    trace->slots.insert(group.slot);
    trace->counter = group.WorkerState<GroupCounter>();
    ++trace->counter->groups;
    return Status::OK();
  };
  scan.pruned = [](const exec::DatasetLayout::Group&, int*) {};
  scan.merge = [](int*, int*) { return Status::OK(); };
  return scan;
}

TEST_F(ExecDatasetTest, SecondScanReusesTheLeasedSlot) {
  SlotTrace first, second;
  int unused = 0;
  ASSERT_TRUE(exec::ScanDataset(*path_, ReaderOptions{}, 1,
                                TracingScan(&first), &unused)
                  .ok());
  ASSERT_TRUE(exec::ScanDataset(*path_, ReaderOptions{}, 1,
                                TracingScan(&second), &unused)
                  .ok());
  ASSERT_EQ(first.slots.size(), 1u);
  EXPECT_EQ(second.slots, first.slots);
  // The decode buffers come back at the capacity the first run grew them
  // to and the second run, reading the same groups, grows nothing.
  EXPECT_GT(first.last_capacity, 0u);
  EXPECT_EQ(second.first_capacity, first.last_capacity);
  EXPECT_EQ(second.last_capacity, first.last_capacity);
  // The engine state survived the run too.
  EXPECT_EQ(second.counter, first.counter);
  EXPECT_GE(second.counter->groups, first.groups + second.groups);
}

TEST_F(ExecDatasetTest, ConcurrentScansHoldDisjointSlots) {
  // Each client's scan waits in its first group until the other one has
  // reached its own, so both leases are live at the same time.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool met = true;
  const auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (++arrived == 2) cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return arrived >= 2; })) {
      met = false;
    }
  };
  SlotTrace traces[2];
  Status status[2];
  std::thread clients[2];
  for (int c = 0; c < 2; ++c) {
    clients[c] = std::thread([&, c] {
      SlotTrace* trace = &traces[c];
      const auto first_group_waits = [&] {
        if (trace->groups == 0) rendezvous();
      };
      int unused = 0;
      status[c] = exec::ScanDataset(*path_, ReaderOptions{}, 1,
                                    TracingScan(trace, first_group_waits),
                                    &unused)
                      .status();
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_TRUE(met);
  ASSERT_TRUE(status[0].ok()) << status[0].ToString();
  ASSERT_TRUE(status[1].ok()) << status[1].ToString();
  ASSERT_EQ(traces[0].slots.size(), 1u);
  ASSERT_EQ(traces[1].slots.size(), 1u);
  EXPECT_NE(*traces[0].slots.begin(), *traces[1].slots.begin());
}

TEST(SlotPoolTest, SlotOverTheCapIsTrimmedOnReturn) {
  exec::WorkerSlot* grown = nullptr;
  {
    exec::SlotLease lease(1);
    grown = lease.slot(0);
    grown->scratch.values.resize(exec::SlotPool::kSlotCapBytes + 1);
    grown->State<GroupCounter>()->groups = 7;
    EXPECT_GT(grown->Bytes(), exec::SlotPool::kSlotCapBytes);
  }
  exec::SlotLease again(1);
  ASSERT_EQ(again.slot(0), grown);  // the most recently returned slot
  EXPECT_EQ(grown->Bytes(), 0u);
  EXPECT_EQ(grown->scratch.values.capacity(), 0u);
  EXPECT_EQ(grown->State<GroupCounter>()->groups, 0);  // state dropped too
}

TEST(SlotPoolTest, SlotUnderTheCapKeepsItsBuffersAndState) {
  exec::WorkerSlot* kept = nullptr;
  {
    exec::SlotLease lease(1);
    kept = lease.slot(0);
    kept->Trim();
    kept->scratch.values.resize(size_t{1} << 20);
    kept->State<GroupCounter>()->groups = 7;
  }
  EXPECT_GE(exec::SlotPool::Process().IdleBytes(), size_t{1} << 20);
  exec::SlotLease again(1);
  ASSERT_EQ(again.slot(0), kept);
  EXPECT_GE(kept->scratch.values.capacity(), size_t{1} << 20);
  EXPECT_EQ(kept->State<GroupCounter>()->groups, 7);
}

TEST(SlotPoolTest, LeasesAreDisjoint) {
  exec::SlotLease a(3);
  exec::SlotLease b(2);
  std::set<exec::WorkerSlot*> all;
  for (int i = 0; i < 3; ++i) all.insert(a.slot(i));
  for (int i = 0; i < 2; ++i) all.insert(b.slot(i));
  EXPECT_EQ(all.size(), 5u);
}

TEST_F(ExecDatasetTest, MakeRowGroupTasksSizesByCompressedBytes) {
  exec::WorkerReaders readers(*path_, ReaderOptions{}, 1);
  const FileMetadata* metadata = readers.metadata().ValueOrDie();
  const auto tasks = exec::MakeRowGroupTasks(*metadata);
  ASSERT_EQ(tasks.size(), metadata->row_groups.size());
  for (size_t g = 0; g < tasks.size(); ++g) {
    uint64_t bytes = 0;
    for (const ChunkMeta& chunk : metadata->row_groups[g].chunks) {
      bytes += chunk.compressed_size;
    }
    EXPECT_EQ(tasks[g].group, static_cast<int>(g));
    EXPECT_EQ(tasks[g].bytes, bytes);
  }
}

void ExpectBitIdentical(const Histogram1D& a, const Histogram1D& b) {
  ASSERT_EQ(a.spec().num_bins, b.spec().num_bins);
  EXPECT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.sum_weights(), b.sum_weights());
  EXPECT_EQ(a.mean(), b.mean());
  for (int i = 0; i < a.spec().num_bins; ++i) {
    EXPECT_EQ(a.BinContent(i), b.BinContent(i)) << "bin " << i;
  }
}

/// Every frontend, byte-identical histograms and identical Table 2 op
/// counts for num_threads in {1, 2, 4} — the runtime's core contract.
TEST_F(ExecDatasetTest, EveryFrontendBitIdenticalAcrossThreadCounts) {
  using queries::EngineKind;
  const EngineKind engines[] = {EngineKind::kRdf, EngineKind::kBigQueryShape,
                                EngineKind::kPrestoShape, EngineKind::kDoc};
  // Q1 scalar-only, Q4 grouped aggregation, Q5 pair combinatorics: cover
  // the per-event, grouped, and combinatorial merge paths of each engine.
  for (int q : {1, 4, 5}) {
    for (EngineKind engine : engines) {
      queries::RunOptions options;
      options.num_threads = 1;
      auto baseline = queries::RunAdlQuery(engine, q, *path_, options);
      ASSERT_TRUE(baseline.ok()) << baseline.status().message();
      for (int threads : {2, 4}) {
        options.num_threads = threads;
        auto run = queries::RunAdlQuery(engine, q, *path_, options);
        ASSERT_TRUE(run.ok()) << run.status().message();
        SCOPED_TRACE("q" + std::to_string(q) + " engine " +
                     std::string(queries::EngineKindName(engine)) +
                     " threads " + std::to_string(threads));
        EXPECT_EQ(run->events_processed, baseline->events_processed);
        EXPECT_EQ(run->ops, baseline->ops);
        EXPECT_EQ(run->scan.storage_bytes, baseline->scan.storage_bytes);
        ASSERT_EQ(run->histograms.size(), baseline->histograms.size());
        for (size_t h = 0; h < run->histograms.size(); ++h) {
          ExpectBitIdentical(run->histograms[h], baseline->histograms[h]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dataset layouts: globally numbered row groups over a shard directory.
// ---------------------------------------------------------------------------

class ExecShardedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ShardedDatasetSpec spec;
    spec.num_shards = 3;
    spec.events_per_shard = 500;
    spec.row_group_size = 200;  // groups of 200/200/100 per shard
    dataset_ = new std::string(
        EnsureShardedDataset(::testing::TempDir() + "/hepq_exec_sharded",
                             spec)
            .ValueOrDie());
  }

  static std::string* dataset_;
};

std::string* ExecShardedTest::dataset_ = nullptr;

TEST_F(ExecShardedTest, ResolveDatasetLayoutNumbersGroupsGlobally) {
  auto layout = exec::ResolveDatasetLayout(*dataset_, ReaderOptions{});
  ASSERT_TRUE(layout.ok()) << layout.status().message();
  EXPECT_EQ(layout->num_files(), 3);
  EXPECT_EQ(layout->num_groups(), 9);
  EXPECT_EQ(layout->total_rows, 1500);
  // Groups are ordered file-major with local indices restarting per file,
  // and carry real row counts and nonzero byte sizes for LPT scheduling.
  int expected_file = 0;
  int expected_local = 0;
  for (const exec::DatasetLayout::Group& group : layout->groups) {
    if (expected_local == 3) {
      ++expected_file;
      expected_local = 0;
    }
    EXPECT_EQ(group.file, expected_file);
    EXPECT_EQ(group.local_group, expected_local);
    EXPECT_EQ(group.num_rows, expected_local == 2 ? 100 : 200);
    EXPECT_GT(group.bytes, 0u);
    ++expected_local;
  }
}

TEST_F(ExecShardedTest, ResolveDatasetLayoutOnSingleFile) {
  auto files = ListLaqFiles(*dataset_);
  ASSERT_TRUE(files.ok());
  auto layout =
      exec::ResolveDatasetLayout((*files)[0], ReaderOptions{});
  ASSERT_TRUE(layout.ok()) << layout.status().message();
  EXPECT_EQ(layout->num_files(), 1);
  EXPECT_EQ(layout->num_groups(), 3);
  EXPECT_EQ(layout->total_rows, 500);
}

TEST_F(ExecShardedTest, WorkerReadersSwitchFilesAndBankStats) {
  auto layout =
      exec::ResolveDatasetLayout(*dataset_, ReaderOptions{}).ValueOrDie();
  exec::WorkerReaders readers(&layout, ReaderOptions{}, 2);
  // One worker visits every file in turn (out-of-core: one open shard per
  // worker slot); stats from closed readers must not be lost.
  for (int file = 0; file < layout.num_files(); ++file) {
    LaqReader* reader = readers.reader(0, file).ValueOrDie();
    ASSERT_TRUE(
        reader->ReadRowGroup(0, {"MET.pt"}, readers.scratch(0)).ok());
  }
  const ScanStats total = readers.TotalScanStats();
  EXPECT_EQ(total.values_read, 600u);  // 3 files x 200 rows
}

/// The tentpole contract at the runtime level: a shard-directory run is
/// bit-identical across thread counts for every frontend.
TEST_F(ExecShardedTest, DirectoryRunsBitIdenticalAcrossThreadCounts) {
  using queries::EngineKind;
  const EngineKind engines[] = {EngineKind::kRdf, EngineKind::kBigQueryShape,
                                EngineKind::kPrestoShape, EngineKind::kDoc};
  for (int q : {1, 4, 5}) {
    for (EngineKind engine : engines) {
      queries::RunOptions options;
      options.num_threads = 1;
      auto baseline = queries::RunAdlQuery(engine, q, *dataset_, options);
      ASSERT_TRUE(baseline.ok()) << baseline.status().message();
      EXPECT_EQ(baseline->events_processed, 1500);
      for (int threads : {3, 8}) {
        options.num_threads = threads;
        auto run = queries::RunAdlQuery(engine, q, *dataset_, options);
        ASSERT_TRUE(run.ok()) << run.status().message();
        SCOPED_TRACE("q" + std::to_string(q) + " engine " +
                     std::string(queries::EngineKindName(engine)) +
                     " threads " + std::to_string(threads));
        EXPECT_EQ(run->events_processed, baseline->events_processed);
        EXPECT_EQ(run->ops, baseline->ops);
        EXPECT_EQ(run->scan.storage_bytes, baseline->scan.storage_bytes);
        ASSERT_EQ(run->histograms.size(), baseline->histograms.size());
        for (size_t h = 0; h < run->histograms.size(); ++h) {
          ExpectBitIdentical(run->histograms[h], baseline->histograms[h]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ScanDataset: the one scan driver every frontend runs on.
// ---------------------------------------------------------------------------

/// Three shards of one-row groups over a single double column "x":
/// {1e16, 1}, no row groups at all, {-1e16, 1}. The two-level file-major
/// sum and a flat fold over the groups round these differently.
class ScanDatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/hepq_exec_driver");
    ::mkdir(dir_->c_str(), 0755);
    auto schema = std::make_shared<Schema>(
        std::vector<Field>{{"x", DataType::Float64()}});
    const std::vector<std::vector<double>> shards = {
        {1e16, 1.0}, {}, {-1e16, 1.0}};
    WriterOptions options;
    options.row_group_size = 1;
    for (size_t f = 0; f < shards.size(); ++f) {
      std::vector<RecordBatchPtr> batches;
      for (double x : shards[f]) {
        batches.push_back(
            RecordBatch::Make(schema, {MakeFloat64Array({x})}).ValueOrDie());
      }
      WriteLaqFile(*dir_ + "/shard_" + std::to_string(f) + ".laq", schema,
                   batches, options)
          .Check();
    }
  }

  /// A scan summing "x" per row group; `merged` records every value
  /// folded by the merge, in order.
  static exec::DatasetScan<double> SumScan(std::vector<double>* merged) {
    exec::DatasetScan<double> scan;
    scan.projection = {"x"};
    scan.make_partial = [] { return 0.0; };
    scan.process = [](const exec::ScanGroup&, const RecordBatch& batch,
                      double* partial) {
      *partial += static_cast<const Float64Array&>(*batch.column(0)).Value(0);
      return Status::OK();
    };
    scan.pruned = [](const exec::DatasetLayout::Group&, double*) {};
    scan.merge = [merged](double* from, double* into) {
      merged->push_back(*from);
      *into += *from;
      return Status::OK();
    };
    return scan;
  }

  static std::string* dir_;
};

std::string* ScanDatasetTest::dir_ = nullptr;

TEST_F(ScanDatasetTest, MergesGroupsIntoFilesThenFilesInOrder) {
  const double file0 = (0.0 + 1e16) + 1.0;
  const double file2 = (0.0 + -1e16) + 1.0;
  const double two_level = ((0.0 + file0) + 0.0) + file2;
  const double flat = (((0.0 + 1e16) + 1.0) + -1e16) + 1.0;
  ASSERT_NE(two_level, flat);  // the data tells the two folds apart
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    double total = 0.0;
    std::vector<double> merged;
    auto totals = exec::ScanDataset(*dir_, ReaderOptions{}, threads,
                                    SumScan(&merged), &total);
    ASSERT_TRUE(totals.ok()) << totals.status().ToString();
    EXPECT_EQ(total, two_level);
    // Each file's groups, then its subtotal; the empty shard still merges
    // its (empty) subtotal.
    EXPECT_EQ(merged, (std::vector<double>{1e16, 1.0, file0, 0.0, -1e16,
                                           1.0, file2}));
    EXPECT_EQ(totals->scan.values_read, 4u);
  }
}

TEST_F(ScanDatasetTest, PrunedGroupsAreCreditedAsProcessed) {
  exec::DatasetScan<int64_t> scan;  // partial: events processed
  scan.projection = {"x"};
  scan.predicates.AddRange("x", 0.0, 2.0);  // rules out +-1e16
  scan.make_partial = [] { return int64_t{0}; };
  scan.process = [](const exec::ScanGroup&, const RecordBatch& batch,
                    int64_t* events) {
    *events += batch.num_rows();
    return Status::OK();
  };
  int pruned = 0;
  scan.pruned = [&](const exec::DatasetLayout::Group& loc, int64_t* events) {
    *events += loc.num_rows;
    ++pruned;
  };
  scan.merge = [](int64_t* from, int64_t* into) {
    *into += *from;
    return Status::OK();
  };
  int64_t events = 0;
  ASSERT_TRUE(exec::ScanDataset(*dir_, ReaderOptions{}, 1, scan, &events).ok());
  EXPECT_EQ(events, 4);
  EXPECT_EQ(pruned, 2);
}

TEST_F(ScanDatasetTest, FirstErrorIdenticalAcrossThreadCounts) {
  std::vector<double> merged;
  exec::DatasetScan<double> scan = SumScan(&merged);
  scan.process = [](const exec::ScanGroup& group, const RecordBatch&,
                    double*) {
    if (group.group % 2 == 0) return Status::OK();
    return Status::Corruption("group " + std::to_string(group.group));
  };
  double total = 0.0;
  const Status one =
      exec::ScanDataset(*dir_, ReaderOptions{}, 1, scan, &total).status();
  const Status four =
      exec::ScanDataset(*dir_, ReaderOptions{}, 4, scan, &total).status();
  EXPECT_EQ(one.ToString(), four.ToString());
  EXPECT_NE(one.ToString().find("group 1"), std::string::npos);
  EXPECT_TRUE(merged.empty());  // a failed scan merges nothing
}

}  // namespace
}  // namespace hepq
