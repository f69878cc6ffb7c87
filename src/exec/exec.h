#ifndef HEPQUERY_EXEC_EXEC_H_
#define HEPQUERY_EXEC_EXEC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/stopwatch.h"
#include "fileio/reader.h"
#include "obs/trace.h"

namespace hepq::exec {

// Shared parallel execution runtime used by every frontend (rdf, the two
// SQL plan shapes, doc). Row groups are the scheduling unit, as in ROOT's
// implicit MT and every system of the paper; the work queue is LPT-ordered
// by row-group byte size so the largest groups start first and stragglers
// are minimized. ScanDataset (bottom of this header) is the one scan
// driver: it owns the run window, the layout, the scheduling and the
// two-level merge that makes results bit-identical for any thread or
// process count.

/// A reusable fixed-size pool of worker threads. Workers are started once
/// and parked between jobs, replacing the per-Execute thread spawning the
/// frontends used to do. One job runs at a time; jobs are task index
/// ranges drained through a shared atomic cursor.
class ThreadPool {
 public:
  /// Starts `num_threads` (>= 1) parked workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(worker, task) for every task in [0, num_tasks), using at most
  /// `max_workers` of the pool's threads (worker ids are < max_workers).
  /// Blocks until every task completed. `fn` must not throw and must be
  /// safe to call concurrently for distinct tasks.
  void ParallelFor(int max_workers, int num_tasks,
                   const std::function<void(int worker, int task)>& fn);

  /// Grows the pool to at least `num_threads` workers (never shrinks).
  void EnsureThreads(int num_threads);

  /// Process-wide pool shared by all frontends, lazily created and grown
  /// to the largest thread count ever requested.
  static ThreadPool& Shared(int min_threads);

 private:
  struct Job {
    const std::function<void(int, int)>* fn = nullptr;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    int num_tasks = 0;
    int max_workers = 0;
  };

  void WorkerLoop(int worker);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::mutex run_mu_;  // serializes ParallelFor calls
  uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;  // non-null while a job is live
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// One schedulable unit of scan work: a row group and its on-storage size.
struct RowGroupTask {
  int group = 0;
  uint64_t bytes = 0;
};

/// Tasks for every row group of `metadata`, sized by the sum of the
/// group's compressed chunk sizes (what a worker actually reads).
std::vector<RowGroupTask> MakeRowGroupTasks(const FileMetadata& metadata);

/// Resolved physical layout of a dataset: one .laq file, or every shard of
/// a dataset directory, with row groups numbered globally in file-major
/// order (file order is the sorted shard list — the same order the
/// scatter/gather coordinator and the tools use). It is ScanDataset's
/// source of truth for scheduling and for the merge.
struct DatasetLayout {
  struct Group {
    int file = 0;         // index into `files`
    int local_group = 0;  // row group index within that file
    int64_t num_rows = 0;
    uint64_t bytes = 0;   // compressed chunk bytes (the LPT weight)
  };
  std::vector<std::string> files;
  std::vector<Group> groups;  // global group order: file-major
  int64_t total_rows = 0;
  Schema schema;  // shared by every file

  int num_files() const { return static_cast<int>(files.size()); }
  int num_groups() const { return static_cast<int>(groups.size()); }
};

/// Resolves `path` — a .laq file or a dataset directory of "*.laq" shards
/// — by opening each member file once for its footer. All shards must
/// share the first file's schema.
Result<DatasetLayout> ResolveDatasetLayout(const std::string& path,
                                           const ReaderOptions& options);

/// LPT (longest processing time first) order: descending byte size, ties
/// broken by ascending group index so the order is deterministic.
void SortLpt(std::vector<RowGroupTask>* tasks);

/// Number of workers a run will actually use: `num_threads` clamped to
/// [1, num_tasks]. Callers size per-worker state with this.
int EffectiveWorkers(int num_threads, size_t num_tasks);

/// Runs process(worker, group) for every task. Tasks are LPT-ordered and
/// drained by EffectiveWorkers(num_threads, tasks.size()) workers of the
/// shared pool; a single effective worker runs inline on the calling
/// thread with worker id 0. After a failure, tasks with group index >= the
/// smallest failing group so far are skipped while smaller groups still
/// run, so the reported error is exactly that of the smallest failing
/// group — deterministic for any thread count (corruption_test relies on
/// this to assert identical errors for 1 vs N workers).
Status RunRowGroups(int num_threads, std::vector<RowGroupTask> tasks,
                    const std::function<Status(int worker, int group)>& process);

/// One worker's scratch: the decode buffers and the engine state, one
/// object per type, all under one lifetime. Slots belong to the process
/// (SlotPool) and outlive runs, so a worker's first row group of a run
/// finds the buffers its slot grew in earlier runs instead of allocating
/// and faulting them in again.
class WorkerSlot {
 public:
  ScratchBuffers scratch;

  /// The slot's state of type T (e.g. engine::VexprScratch), created on
  /// first use and kept until the slot is trimmed. T provides
  /// `size_t CapacityBytes() const`, the heap bytes it holds.
  template <typename T>
  T* State() {
    for (const Entry& s : states_) {
      if (s.type == TypeKey<T>()) return static_cast<T*>(s.object.get());
    }
    std::shared_ptr<T> object = std::make_shared<T>();
    T* raw = object.get();
    states_.push_back(Entry{TypeKey<T>(), std::move(object), &BytesOf<T>});
    return raw;
  }

  /// Heap bytes held: decode buffer capacities plus every state's.
  size_t Bytes() const;

  /// Releases the decode buffers and every state.
  void Trim();

 private:
  struct Entry {
    const void* type;
    std::shared_ptr<void> object;
    size_t (*bytes)(const void*);
  };
  template <typename T>
  static const void* TypeKey() {
    static const char key = 0;
    return &key;
  }
  template <typename T>
  static size_t BytesOf(const void* object) {
    return static_cast<const T*>(object)->CapacityBytes();
  }
  std::vector<Entry> states_;
};

/// The process-lifetime pool of worker slots. A run leases the slots it
/// needs (SlotLease) and returns them when it ends, so concurrent runs
/// hold disjoint slots and a later run reuses the warm ones. A returned
/// slot holding more than kSlotCapBytes is trimmed first: one huge event
/// (a 100-jet event is one 161 700-lane trijet chunk in BigQuery-shape Q6)
/// must not pin its buffers for every run after it.
class SlotPool {
 public:
  /// Per-slot byte cap applied on return. After a perfbench `compute`
  /// pass (Q6 on every shape and doc Q3-Q5, 4 threads) each of the four
  /// slots holds about 3.5 MiB, 14 MiB together (DESIGN.md, "Worker
  /// scratch").
  static constexpr size_t kSlotCapBytes = size_t{16} << 20;

  static SlotPool& Process();

  /// Takes an idle slot (the most recently returned first), or a new one.
  WorkerSlot* Acquire();
  /// Gives `slot` back, trimmed when it holds more than kSlotCapBytes.
  void Release(WorkerSlot* slot);

  /// Bytes held by the idle slots.
  size_t IdleBytes();

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<WorkerSlot>> idle_;
};

/// `n` slots leased from SlotPool::Process() for one run and returned on
/// destruction. Slot i belongs to worker i only.
class SlotLease {
 public:
  explicit SlotLease(int n);
  ~SlotLease();
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;

  WorkerSlot* slot(int worker) const {
    return slots_[static_cast<size_t>(worker)];
  }

 private:
  std::vector<WorkerSlot*> slots_;
};

/// Per-worker readers over a dataset: each worker lazily opens its own
/// LaqReader (file handles are not shareable across threads) and decodes
/// into the ScratchBuffers of the WorkerSlot it leased for this run. A
/// worker keeps at most ONE file of the dataset open at a time —
/// switching files closes the previous reader after banking its scan
/// stats — so per-worker memory and descriptor usage stay bounded by a
/// single shard's working set no matter how many shards the dataset has
/// (the out-of-core contract of the scale-out runtime). Readers live for
/// the run; the slots go back to the pool with their buffers.
class WorkerReaders {
 public:
  /// Single-file dataset (the pre-dataset constructor, kept for callers
  /// that schedule over one file's metadata).
  WorkerReaders(std::string path, ReaderOptions options, int num_workers);

  /// Dataset-aware: `layout` must outlive the WorkerReaders.
  WorkerReaders(const DatasetLayout* layout, ReaderOptions options,
                int num_workers);

  /// The worker's reader over dataset file `file`, opened on first use.
  /// Only worker `worker` may call this with its own id during a parallel
  /// run. Opening a different file than the slot currently holds closes
  /// the held reader (its ScanStats are retained).
  Result<LaqReader*> reader(int worker, int file);

  /// The worker's reader over file 0 (single-file datasets).
  Result<LaqReader*> reader(int worker) { return reader(worker, 0); }

  /// The worker's decode buffers (its leased slot's).
  ScratchBuffers* scratch(int worker) { return &lease_.slot(worker)->scratch; }

  /// The worker's leased slot, which also carries the engine state
  /// (ScanGroup::WorkerState).
  WorkerSlot* slot(int worker) const { return lease_.slot(worker); }

  /// Metadata of file 0, via worker 0's reader (opens it if needed).
  Result<const FileMetadata*> metadata();

  /// Sum of the scan stats of every reader this run opened, including
  /// readers already closed by a file switch. Integer counters, so the
  /// total is independent of scheduling. Call only after a run.
  ScanStats TotalScanStats() const;

 private:
  struct Open {
    std::unique_ptr<LaqReader> reader;
    int file = -1;
    /// Stats banked from readers this worker closed on a file switch.
    ScanStats closed_stats;
  };

  std::vector<std::string> files_;
  ReaderOptions options_;
  SlotLease lease_;
  std::vector<Open> open_;
};

/// One row group handed to a frontend's process callback.
struct ScanGroup {
  int worker = 0;
  int group = 0;  // global index into DatasetLayout::groups
  WorkerSlot* slot = nullptr;  // the worker's leased slot

  /// The worker's engine state of type T, found by type in its leased
  /// slot: created the first time any run on that slot asks for it and
  /// reused by every later row group and run.
  template <typename T>
  T* WorkerState() const {
    return slot->State<T>();
  }
};

/// Totals of one run window (see ScanDataset).
struct RunTotals {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // process CPU: every worker thread's time
  ScanStats scan;
};

/// A frontend's part of a dataset scan: only what is its own. `Partial`
/// is the per-row-group accumulator; fresh ones also serve as the
/// per-file subtotals.
template <typename Partial>
struct DatasetScan {
  /// Columns to read (empty reads every column) and the sargable
  /// predicates the reader prunes row groups and pages with.
  std::vector<std::string> projection;
  ScanPredicateSet predicates;
  /// Optional planning step, run once the layout is known and before any
  /// row group is read.
  std::function<Status(const DatasetLayout&)> plan;
  std::function<Partial()> make_partial;
  /// Processes one decoded row group into its partial.
  std::function<Status(const ScanGroup&, const RecordBatch&, Partial*)>
      process;
  /// Credits a row group the zone maps pruned (every row provably fails
  /// the predicates, so no process call sees it).
  std::function<void(const DatasetLayout::Group&, Partial*)> pruned;
  /// Folds `from` into `into`: a group into its file's subtotal, and a
  /// file subtotal into the result.
  std::function<Status(Partial* from, Partial* into)> merge;
};

/// The one dataset scan driver every frontend runs on. In order, inside a
/// single run window (the `run` span, wall clock and process CPU start
/// before the first footer read and stop after the merge):
///   1. resolve `path`'s layout (an `open` span), then scan.plan;
///   2. read every row group with up to `num_threads` workers of the shared
///      pool — per-worker readers, per-worker slots leased from SlotPool
///      for the run, LPT order, the smallest failing group's error
///      (RunRowGroups) — into its own partial;
///   3. merge (a `merge` span): group partials fold into a fresh per-file
///      subtotal in local group order, and each subtotal (empty shards
///      included) folds into `*result` in file order.
/// Step 3 is the one merge rule of the repository. Partials never depend
/// on scheduling, so the association alone fixes every floating-point bit:
/// a run is bit-identical for any thread count, and a P-process scatter
/// run, which gathers the same per-file subtotals in the same file order,
/// is bit-identical to a single-process one.
template <typename Partial>
Result<RunTotals> ScanDataset(const std::string& path,
                              const ReaderOptions& options, int num_threads,
                              const DatasetScan<Partial>& scan,
                              Partial* result) {
  obs::ScopedSpan run_span("run", obs::Stage::kRun);
  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();
  DatasetLayout layout;
  {
    obs::ScopedSpan open_span("open_dataset", obs::Stage::kOpen);
    HEPQ_ASSIGN_OR_RETURN(layout, ResolveDatasetLayout(path, options));
  }
  if (scan.plan) HEPQ_RETURN_NOT_OK(scan.plan(layout));
  std::vector<std::string> columns = scan.projection;
  if (columns.empty()) {
    for (const Field& field : layout.schema.fields()) {
      columns.push_back(field.name);
    }
  }
  std::vector<Partial> partials;
  std::vector<RowGroupTask> tasks;
  for (size_t g = 0; g < layout.groups.size(); ++g) {
    partials.push_back(scan.make_partial());
    tasks.push_back(RowGroupTask{static_cast<int>(g), layout.groups[g].bytes});
  }
  const int workers = EffectiveWorkers(num_threads, tasks.size());
  WorkerReaders readers(&layout, options, workers);
  HEPQ_RETURN_NOT_OK(RunRowGroups(
      workers, std::move(tasks), [&](int worker, int g) -> Status {
        const DatasetLayout::Group& loc =
            layout.groups[static_cast<size_t>(g)];
        Partial* partial = &partials[static_cast<size_t>(g)];
        LaqReader* reader;
        HEPQ_ASSIGN_OR_RETURN(reader, readers.reader(worker, loc.file));
        RecordBatchPtr batch;
        HEPQ_ASSIGN_OR_RETURN(
            batch, reader->ReadRowGroupFiltered(loc.local_group, columns,
                                                scan.predicates,
                                                readers.scratch(worker)));
        if (batch == nullptr) {
          scan.pruned(loc, partial);
          return Status::OK();
        }
        return scan.process(ScanGroup{worker, g, readers.slot(worker)},
                            *batch, partial);
      }));
  {
    obs::ScopedSpan merge_span("merge", obs::Stage::kMerge);
    size_t g = 0;
    for (int file = 0; file < layout.num_files(); ++file) {
      Partial subtotal = scan.make_partial();
      for (; g < partials.size() && layout.groups[g].file == file; ++g) {
        HEPQ_RETURN_NOT_OK(scan.merge(&partials[g], &subtotal));
      }
      HEPQ_RETURN_NOT_OK(scan.merge(&subtotal, result));
    }
  }
  RunTotals totals;
  totals.scan = readers.TotalScanStats();
  totals.wall_seconds = wall.Seconds();
  totals.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return totals;
}

}  // namespace hepq::exec

#endif  // HEPQUERY_EXEC_EXEC_H_
