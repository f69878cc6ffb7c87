#ifndef HEPQUERY_OBS_REPORT_H_
#define HEPQUERY_OBS_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/simulator.h"
#include "core/status.h"
#include "fileio/reader.h"
#include "obs/trace.h"

namespace hepq::obs {

// Machine- and human-readable run reports built from a stopped
// TraceSession plus the engine's own end-of-run totals. The report's
// headline numbers (events, CPU ns, decoded bytes, storage bytes) are
// copied from the engine result / ScanStats — the same totals every bench
// prints — so they reconcile exactly; the trace contributes the per-stage,
// per-worker, and per-leaf attribution underneath them.

/// Identity and end-of-run totals of the traced query execution, supplied
/// by the caller from the frontend's result struct.
struct RunInfo {
  std::string query;   ///< e.g. "Q5"
  std::string engine;  ///< e.g. "bigquery-shape"
  int threads = 1;
  int64_t events_processed = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Exclusive (self) time of one stage, summed over all spans of that
/// stage on all threads: a span's time minus the time of spans nested
/// inside it, so the stage rows partition the traced time and sum to the
/// total span coverage.
struct StageSummary {
  Stage stage = Stage::kOther;
  int64_t wall_ns = 0;  ///< exclusive wall time
  int64_t cpu_ns = 0;   ///< exclusive thread-CPU time
  uint64_t bytes = 0;   ///< sum of span byte payloads (inclusive)
  uint64_t count = 0;   ///< number of spans
};

/// Busy/idle accounting of one runtime worker over the run window, from
/// the row-group spans (the scheduling envelope) stamped with its id.
struct WorkerSummary {
  int worker = 0;  ///< runtime worker id (same numbering as stragglers)
  /// Owning process index in a merged multi-process report (shard order),
  /// 0 for single-process runs. The stable cross-process worker identity
  /// is the pair `proc:worker`.
  int proc = 0;
  int64_t busy_ns = 0;        ///< sum of row-group span durations
  int64_t idle_ns = 0;        ///< window minus busy
  double busy_fraction = 0.0; ///< busy / window
  int64_t row_groups = 0;
  int64_t max_queue_ns = 0;   ///< worst scheduling wait before a group
  int max_queue_group = -1;
  /// Timeline of executed row groups in start order (capped; see
  /// timeline_truncated).
  struct TimelineEntry {
    int group = -1;
    int slot = -1;
    int64_t start_ns = 0;  ///< relative to the run window start
    int64_t dur_ns = 0;
    int64_t queue_ns = 0;
    uint64_t bytes = 0;
  };
  std::vector<TimelineEntry> timeline;
  bool timeline_truncated = false;
};

/// One of the slowest row-group spans of the run — the stragglers the
/// LPT schedule is supposed to keep off the critical path.
struct Straggler {
  int group = -1;
  int worker = -1;
  int proc = 0;  ///< owning process in a merged report (see WorkerSummary)
  int slot = -1;
  int64_t wall_ns = 0;
  uint64_t bytes = 0;
};

/// An aggregated counter with owned storage (CounterRecord points at
/// string literals; the report owns its strings).
struct CounterSummary {
  std::string name;
  Stage stage = Stage::kOther;
  int64_t ns = 0;
  uint64_t count = 0;
  uint64_t bytes = 0;
};

struct RunReport {
  /// v2: added the `expr_vm` object (vops_per_event, fused_coverage) —
  /// the expression-VM dispatch-overhead quantities derived from the
  /// vexpr_kernel stage counters.
  /// v3: added the `cache` object (footer/chunk hit+miss counters,
  /// cache_bytes_served, consumed_bytes) and `cache_bytes_served` on
  /// per_leaf entries. `consumed_bytes = decoded_bytes +
  /// cache_bytes_served` reconciles by construction: every byte a query
  /// consumes was either decoded from storage this run or served from
  /// the process-wide chunk cache.
  /// v4: multi-process. Added `processes[]` (one entry per scatter
  /// worker, shard order; empty for in-process runs), `partial` +
  /// `warnings` (a worker whose kReport frame was lost degrades the
  /// report, never the result), `proc` on workers/stragglers, and a
  /// `metrics` array (a process-lifetime registry snapshot). The
  /// per-process decoded-byte and cache totals sum bit-exactly to the
  /// top-level `scan` object: both sides add the same per-shard integer
  /// counters, only in different orders.
  /// v5: dropped `metrics`. Every fact it counted already lives in
  /// `scan`, `cache`, the worker timelines, `processes[]` or `warnings`.
  static constexpr int kSchemaVersion = 5;

  RunInfo info;
  ScanStats scan;  ///< bit-copied from the engine result

  int64_t run_span_ns = 0;    ///< summed duration of the root `run` spans
  int64_t total_span_ns = 0;  ///< sum of top-level span durations
  int64_t window_ns = 0;      ///< session start→stop window

  std::vector<StageSummary> stages;      ///< ordered by Stage enum
  std::vector<WorkerSummary> workers;    ///< ordered by (proc, worker id)
  std::vector<Straggler> stragglers;     ///< slowest row groups, descending
  std::vector<CounterSummary> counters;  ///< stage/name-merged counters

  /// One scatter worker process's contribution to a merged report, in
  /// shard order. Empty for single-process runs.
  struct ProcessSummary {
    int proc = 0;         ///< index in shard order (== merge order)
    int shard_begin = 0;  ///< global shard range [begin, end)
    int shard_end = 0;
    int threads = 1;
    int64_t events = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
    uint64_t storage_bytes = 0;
    uint64_t decoded_bytes = 0;
    uint64_t cache_bytes_served = 0;
    /// False when the worker's kReport frame never arrived (its shard
    /// results did — the report degrades, the histograms do not).
    bool report_received = true;
  };
  std::vector<ProcessSummary> processes;

  /// True when at least one worker's report is missing; `warnings` then
  /// carries one deterministic line per missing worker (keyed by shard
  /// range, never by pid — identical for any worker count).
  bool partial = false;
  std::vector<std::string> warnings;

  /// Cost-model inputs, ready to feed cloud::Simulator — the bridge from
  /// a profiled run to the paper's price/performance projections.
  cloud::MeasuredQuery cost_inputs;

  // Figure 4 quantities (a: CPU per event, b: bytes per event, c:
  // per-core throughput), derived from info + scan.
  double cpu_ns_per_event() const;
  double storage_bytes_per_event() const;
  double decoded_bytes_per_event() const;
  double events_per_sec_per_core() const;
  /// CPU seconds as integer nanoseconds (the reconciliation currency).
  int64_t cpu_ns() const;
  int64_t wall_ns() const;
  /// Fraction of the root run span covered by top-level child spans.
  double span_coverage() const;
  /// Expression-VM dispatch overhead, from the vexpr_kernel stage
  /// counters: source VOps retired per processed event, and the fraction
  /// of them absorbed into fused superinstructions (0 when untraced, on
  /// the interpret tier, or when no expression kernels ran).
  double vops_per_event() const;
  double vexpr_fused_coverage() const;
};

/// The raw facts a RunReport is built from, besides the engine's own
/// totals: one stopped session's window, every span and every counter.
/// A scatter worker ships
/// exactly this in its kReport frame; the coordinator builds the worker's
/// RunReport from it with the same BuildRunReport the in-process path
/// uses. Move-only: decoded span/counter names live in `name_pool`.
struct SessionCapture {
  /// Session window in CLOCK_MONOTONIC ns. The clock is machine-wide, so
  /// timestamps from co-located worker processes share an epoch and the
  /// stitched trace aligns without clock translation.
  int64_t start_ns = 0;
  int64_t stop_ns = 0;
  std::vector<SpanRecord> spans;        ///< TraceSession::MergedSpans order
  std::vector<CounterRecord> counters;  ///< TraceSession::MergedCounters
  /// Owns the names of decoded records (a live capture points at the
  /// instrument sites' string literals instead).
  std::vector<std::unique_ptr<std::string>> name_pool;
};

/// Captures a stopped session.
SessionCapture CaptureSession(const TraceSession& session);

/// Builds a report from captured session facts. `max_timeline_entries`
/// caps each worker's timeline (0 = unlimited); `max_stragglers` caps the
/// straggler list.
RunReport BuildRunReport(const SessionCapture& capture, const RunInfo& info,
                         const ScanStats& scan,
                         size_t max_timeline_entries = 512,
                         size_t max_stragglers = 5);

/// BuildRunReport over CaptureSession(session).
RunReport BuildRunReport(const TraceSession& session, const RunInfo& info,
                         const ScanStats& scan,
                         size_t max_timeline_entries = 512,
                         size_t max_stragglers = 5);

// ---- cross-process reports (scatter workers) -------------------------------

/// What the coordinator knows about one scatter worker process: its shard
/// range, its totals (its fragments summed in shard order, as the worker
/// itself would sum them), and its captured session when its kReport
/// frame arrived.
struct ProcessReport {
  int shard_begin = 0;  ///< global shard range [begin, end) this covers
  int shard_end = 0;
  /// False when the worker's kReport frame was lost; `capture` is then
  /// empty and only the shard range is meaningful.
  bool received = true;
  int64_t events = 0;
  double wall_seconds = 0.0;  ///< sum over the worker's shards
  double cpu_seconds = 0.0;
  ScanStats scan;
  SessionCapture capture;
};

/// Deterministically merges per-worker reports (shard order — the order
/// the coordinator spawned them) into one cross-process RunReport. Each
/// received worker's RunReport is built with BuildRunReport from its
/// capture, its totals, and `info`'s query/engine/threads; those reports
/// then merge: workers/stragglers renumbered `proc:slot`, stages and
/// counters summed, span times summed across processes, and one
/// ProcessSummary per worker. `info` and `merged_scan`
/// come from the coordinator's merged QueryRunOutput, so the report's
/// headline totals are exactly what the run printed; per-process scan
/// totals sum to them bit-exactly (integer sums of the same per-shard
/// counters). A not-received entry yields a `partial` report with a
/// deterministic warning keyed by shard range.
RunReport MergeProcessReports(const RunInfo& info, const ScanStats& merged_scan,
                              const std::vector<ProcessReport>& reports,
                              size_t max_stragglers = 5);

/// The RunReport as a JSON document (kSchemaVersion; see DESIGN.md).
std::string ReportToJson(const RunReport& report);

/// Human-readable per-stage/per-worker/per-leaf table for `--profile`.
std::string ReportToTable(const RunReport& report);

/// All spans of a stopped session in Chrome `trace_event` JSON, loadable
/// in chrome://tracing and Perfetto. Timestamps are microseconds relative
/// to the session start; tid is the dense per-session thread index. The
/// same renderer as MultiProcessChromeTraceJson with one process (pid 1)
/// and no process_name event.
std::string ChromeTraceJson(const TraceSession& session);

/// Every process's spans stitched into one Chrome trace: pid = process
/// index (shard order) + 1, tid = per-process thread index, process_name
/// metadata names the shard range. Timestamps are relative to the
/// earliest session start across processes (one shared CLOCK_MONOTONIC
/// epoch), so worker timelines line up as they ran.
std::string MultiProcessChromeTraceJson(
    const std::vector<ProcessReport>& reports);

/// Writes `content` to `path` (overwrites).
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace hepq::obs

#endif  // HEPQUERY_OBS_REPORT_H_
