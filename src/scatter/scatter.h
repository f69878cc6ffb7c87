#ifndef HEPQUERY_SCATTER_SCATTER_H_
#define HEPQUERY_SCATTER_SCATTER_H_

#include <functional>
#include <string>
#include <vector>

#include "core/status.h"
#include "scatter/ipc.h"

namespace hepq::scatter {

// Multi-process scatter/gather execution over a sharded dataset. The
// coordinator assigns each worker process a contiguous range of the
// sorted shard list, the worker runs the query once per shard file (the
// existing single-file execution path, so per-worker memory stays bounded
// by one shard's working set) and streams one fragment per shard back
// over a pipe, and the coordinator merges fragments in global shard
// order. Because the in-process dataset runtime merges per-file subtotals
// in exactly that order (see exec::DatasetLayout), the scattered result
// is bit-identical to a single-process run for any worker count.

/// Contiguous shard range [begin, end) of worker `worker` out of
/// `num_workers` over `num_files` shards: floor(w*F/P) .. floor((w+1)*F/P).
/// Ranges partition [0, F) exactly; sizes differ by at most one.
struct ShardRange {
  int begin = 0;
  int end = 0;

  int size() const { return end - begin; }
};

ShardRange ShardRangeFor(int num_files, int num_workers, int worker);

/// Runs the worker half: `run` once per shard in `range` (paths from
/// `files`, the dataset's sorted shard list), writing one kFragment frame
/// per shard to `fd`. When `report_payload` is set it is invoked after the
/// last shard (the caller stops its trace session and encodes the capture
/// there) and the returned bytes go out as one final kReport frame. A
/// shard failure writes a kError frame naming the shard and stops. For
/// fault-path tests the HEPQ_SCATTER_FAULT environment variable injects
/// failures:
///   "kill_before:K"  exit(1) without a frame when shard K is reached
///   "truncate:K"     write only half of shard K's frame, then exit
///   "badversion:K"   write shard K's frame with a wrong version field
///   "badreport"      corrupt the kReport frame's payload bytes
Status RunWorker(
    const std::vector<std::string>& files, ShardRange range,
    const std::function<Result<queries::QueryRunOutput>(const std::string&)>&
        run,
    int fd,
    const std::function<std::vector<uint8_t>()>& report_payload = nullptr);

/// Parse state of one worker's gathered byte stream.
struct WorkerStream {
  /// The shard range this worker was assigned (set by the coordinator;
  /// attributes a stream that broke before its first fragment to the
  /// right shard, independent of worker count).
  ShardRange range;
  std::vector<ShardFragment> fragments;
  /// Decoded kReport frames (at most one from a healthy worker). A
  /// kReport whose payload fails to decode is dropped, not fatal: the
  /// fragments before it still merge and the coordinator reports the
  /// worker as sending no report.
  std::vector<obs::SessionCapture> reports;
  /// Explicit kError frames (failing shard index + message).
  std::vector<std::pair<int, std::string>> errors;
  /// First malformed-frame error, if the stream broke mid-frame.
  Status parse_error = Status::OK();
};

/// Parses a worker's complete output stream. Trailing bytes that do not
/// form a full frame — a truncated write — surface as `parse_error`
/// (Corruption), as do bad magic/version/CRC frames; parsing stops there.
WorkerStream ParseWorkerStream(const uint8_t* data, size_t size);

/// Combines per-worker streams into the full fragment list, sorted by
/// shard index. Any missing shard is an error keyed to the smallest
/// missing index — an explicit kError message when the worker sent one,
/// the stream's parse error (naming the shard) when a frame was
/// malformed, and a generic worker-death report otherwise. Keying by
/// shard rather than worker makes the report identical for any worker
/// count. `files` is the sorted shard list (for naming shards in errors).
Result<std::vector<ShardFragment>> CombineWorkerStreams(
    const std::vector<WorkerStream>& streams,
    const std::vector<std::string>& files);

/// Merges complete, sorted fragments in shard order into one output:
/// histograms start zeroed from shard 0's specs and fold in file order
/// (the same association as the in-process two-level merge, hence
/// bit-identical); counters and scan stats sum; cpu_seconds sums;
/// wall_seconds is the max across fragments (workers run concurrently).
Result<queries::QueryRunOutput> MergeShardOutputs(
    const std::vector<ShardFragment>& fragments);

/// Coordinator: spawns `num_workers` subprocesses (argv from `make_argv`,
/// typically this binary re-invoked with --worker-shards=a:b), gathers
/// their streams, and merges. Workers with an empty range are not
/// spawned. `files` is the dataset's sorted shard list.
///
/// When `reports` is non-null it receives one ProcessReport per spawned
/// worker, in shard order: its shard range, its fragments' totals summed
/// in shard order, and its decoded session capture. A worker whose kReport
/// frame never arrived (or failed to decode) has `received = false`, so
/// the merged RunReport can degrade deterministically.
Result<queries::QueryRunOutput> RunScattered(
    const std::vector<std::string>& files, int num_workers,
    const std::function<std::vector<std::string>(ShardRange)>& make_argv,
    std::vector<obs::ProcessReport>* reports = nullptr);

}  // namespace hepq::scatter

#endif  // HEPQUERY_SCATTER_SCATTER_H_
