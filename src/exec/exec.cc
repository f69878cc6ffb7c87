#include "exec/exec.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "fileio/dataset_reader.h"
#include "obs/trace.h"

namespace hepq::exec {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::EnsureThreads(int num_threads) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  const int have = static_cast<int>(workers_.size());
  for (int i = have; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      if (worker >= job_->max_workers) continue;  // not part of this job
      job = job_;  // shared ownership: job outlives the final done increment
    }
    for (;;) {
      const int task = job->next.fetch_add(1, std::memory_order_relaxed);
      if (task >= job->num_tasks) break;
      (*job->fn)(worker, task);
      if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job->num_tasks) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(int max_workers, int num_tasks,
                             const std::function<void(int, int)>& fn) {
  if (num_tasks <= 0) return;
  max_workers = std::min(max_workers, num_threads());
  if (max_workers <= 1) {
    for (int task = 0; task < num_tasks; ++task) fn(0, task);
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mu_);
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->num_tasks = num_tasks;
  job->max_workers = max_workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == num_tasks;
    });
    job_.reset();
  }
}

ThreadPool& ThreadPool::Shared(int min_threads) {
  static ThreadPool* pool = new ThreadPool(1);  // leaked: outlives main
  if (min_threads > pool->num_threads()) pool->EnsureThreads(min_threads);
  return *pool;
}

std::vector<RowGroupTask> MakeRowGroupTasks(const FileMetadata& metadata) {
  std::vector<RowGroupTask> tasks;
  tasks.reserve(metadata.row_groups.size());
  for (size_t g = 0; g < metadata.row_groups.size(); ++g) {
    uint64_t bytes = 0;
    for (const ChunkMeta& chunk : metadata.row_groups[g].chunks) {
      bytes += chunk.compressed_size;
    }
    tasks.push_back(RowGroupTask{static_cast<int>(g), bytes});
  }
  return tasks;
}

Result<DatasetLayout> ResolveDatasetLayout(const std::string& path,
                                           const ReaderOptions& options) {
  DatasetLayout layout;
  HEPQ_ASSIGN_OR_RETURN(layout.files, ShardFiles(path));
  for (size_t f = 0; f < layout.files.size(); ++f) {
    std::unique_ptr<LaqReader> reader;
    HEPQ_ASSIGN_OR_RETURN(reader,
                          LaqReader::Open(layout.files[f], options));
    if (f == 0) {
      layout.schema = reader->schema();
    } else if (!reader->schema().Equals(layout.schema)) {
      return Status::Invalid("dataset file '" + layout.files[f] +
                             "' has a different schema than '" +
                             layout.files[0] + "'");
    }
    const FileMetadata& metadata = reader->metadata();
    for (const RowGroupTask& task : MakeRowGroupTasks(metadata)) {
      const int64_t rows =
          metadata.row_groups[static_cast<size_t>(task.group)].num_rows;
      layout.groups.push_back(
          DatasetLayout::Group{static_cast<int>(f), task.group, rows,
                               task.bytes});
      layout.total_rows += rows;
    }
  }
  return layout;
}

void SortLpt(std::vector<RowGroupTask>* tasks) {
  std::sort(tasks->begin(), tasks->end(),
            [](const RowGroupTask& a, const RowGroupTask& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.group < b.group;
            });
}

int EffectiveWorkers(int num_threads, size_t num_tasks) {
  int workers = std::max(num_threads, 1);
  if (num_tasks < static_cast<size_t>(workers)) {
    workers = static_cast<int>(num_tasks);
  }
  return std::max(workers, 1);
}

Status RunRowGroups(int num_threads, std::vector<RowGroupTask> tasks,
                    const std::function<Status(int, int)>& process) {
  if (tasks.empty()) return Status::OK();
  SortLpt(&tasks);
  const int workers = EffectiveWorkers(num_threads, tasks.size());
  // Deterministic error contract, shared by the inline and parallel paths:
  // once a group has failed, tasks whose group index is >= the smallest
  // failing group so far are skipped (they can change neither the outcome
  // nor the reported error), while smaller groups are always attempted —
  // so the reported error is exactly the error of the smallest failing
  // group, independent of thread count and scheduling. A corrupt file
  // therefore produces the same Status for 1 and N threads.
  std::mutex error_mu;
  Status first_error = Status::OK();
  std::atomic<int> error_group{std::numeric_limits<int>::max()};
  // Scheduling observability: when a trace session is active at job start,
  // each executed task records a row-group span carrying the worker id,
  // the task's position in the LPT order (`slot`), and the queue wait —
  // the gap between this worker finishing its previous task and starting
  // this one. The decision is latched here so a session starting mid-run
  // cannot observe half a job (or index a vector sized for no workers).
  const bool tracing = obs::TracingActive();
  std::vector<int64_t> last_end;
  if (tracing) {
    last_end.assign(static_cast<size_t>(workers), obs::NowNs());
  }
  const auto run_one = [&](int worker, int slot, const RowGroupTask& task) {
    const int group = task.group;
    if (group >= error_group.load(std::memory_order_acquire)) return;
    obs::ScopedSpan span("row_group", obs::Stage::kRowGroup);
    if (tracing && span.active()) {
      span.set_worker(worker);
      span.set_group(group);
      span.set_slot(slot);
      span.set_bytes(task.bytes);
      span.set_queue_ns(span.start_ns() -
                        last_end[static_cast<size_t>(worker)]);
    }
    Status status = process(worker, group);
    if (tracing) {
      last_end[static_cast<size_t>(worker)] = obs::NowNs();
    }
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (group < error_group.load(std::memory_order_relaxed)) {
        error_group.store(group, std::memory_order_release);
        first_error = std::move(status);
      }
    }
  };
  if (workers == 1) {
    // Inline path: same task order and per-group accumulation structure as
    // the parallel path, so results match bit for bit.
    for (size_t i = 0; i < tasks.size(); ++i) {
      run_one(0, static_cast<int>(i), tasks[i]);
    }
  } else {
    ThreadPool::Shared(workers).ParallelFor(
        workers, static_cast<int>(tasks.size()), [&](int worker, int index) {
          run_one(worker, index, tasks[static_cast<size_t>(index)]);
        });
  }
  return first_error;
}

size_t WorkerSlot::Bytes() const {
  size_t bytes = scratch.compressed.capacity() + scratch.encoded.capacity() +
                 scratch.values.capacity();
  for (const Entry& s : states_) bytes += s.bytes(s.object.get());
  return bytes;
}

void WorkerSlot::Trim() {
  scratch.Release();
  states_.clear();
}

SlotPool& SlotPool::Process() {
  static SlotPool* pool = new SlotPool();  // leaked: outlives main
  return *pool;
}

WorkerSlot* SlotPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      WorkerSlot* slot = idle_.back().release();
      idle_.pop_back();
      return slot;
    }
  }
  return new WorkerSlot();
}

void SlotPool::Release(WorkerSlot* slot) {
  std::unique_ptr<WorkerSlot> owned(slot);
  if (owned->Bytes() > kSlotCapBytes) owned->Trim();
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(owned));
}

size_t SlotPool::IdleBytes() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& slot : idle_) bytes += slot->Bytes();
  return bytes;
}

SlotLease::SlotLease(int n) {
  slots_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) slots_.push_back(SlotPool::Process().Acquire());
}

SlotLease::~SlotLease() {
  for (WorkerSlot* slot : slots_) SlotPool::Process().Release(slot);
}

WorkerReaders::WorkerReaders(std::string path, ReaderOptions options,
                             int num_workers)
    : options_(options),
      lease_(std::max(num_workers, 1)),
      open_(static_cast<size_t>(std::max(num_workers, 1))) {
  files_.push_back(std::move(path));
}

WorkerReaders::WorkerReaders(const DatasetLayout* layout,
                             ReaderOptions options, int num_workers)
    : files_(layout->files),
      options_(options),
      lease_(std::max(num_workers, 1)),
      open_(static_cast<size_t>(std::max(num_workers, 1))) {}

Result<LaqReader*> WorkerReaders::reader(int worker, int file) {
  Open& open = open_[static_cast<size_t>(worker)];
  if (open.reader != nullptr && open.file != file) {
    // Out-of-core discipline: one open shard per worker. Bank the closed
    // reader's stats so TotalScanStats still sees every byte. The
    // validated FileMetadata itself is NOT thrown away: it stays banked
    // in the process-wide footer cache, so re-opening this shard later —
    // by this worker, another worker, or another query — skips footer
    // parse + validation entirely (ScanStats::footer_cache_hits counts
    // the reuses).
    open.closed_stats.Add(open.reader->scan_stats());
    open.reader.reset();
    open.file = -1;
  }
  if (open.reader == nullptr) {
    obs::ScopedSpan span("open_reader", obs::Stage::kOpen);
    if (span.active()) span.set_worker(worker);
    HEPQ_ASSIGN_OR_RETURN(
        open.reader,
        LaqReader::Open(files_[static_cast<size_t>(file)], options_));
    open.file = file;
  }
  return open.reader.get();
}

Result<const FileMetadata*> WorkerReaders::metadata() {
  LaqReader* reader0;
  HEPQ_ASSIGN_OR_RETURN(reader0, reader(0));
  return &reader0->metadata();
}

ScanStats WorkerReaders::TotalScanStats() const {
  ScanStats total;
  for (const Open& open : open_) {
    total.Add(open.closed_stats);
    if (open.reader != nullptr) total.Add(open.reader->scan_stats());
  }
  return total;
}

}  // namespace hepq::exec
