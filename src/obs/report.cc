#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/json.h"

namespace hepq::obs {

namespace {

using json::JsonScope;

// ---- exclusive-time computation ------------------------------------------

struct SelfTimes {
  // Indexed like the span vector it was computed from.
  std::vector<int64_t> wall;
  std::vector<int64_t> cpu;
};

/// Exclusive times per span. `spans` must be the records of ONE thread in
/// end order (which is how ThreadBufs store them). Spans on one thread
/// nest properly, so in end order a span's direct children are exactly
/// the already-seen spans, not yet claimed by another parent, whose start
/// is >= its own — a single stack pass.
SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans) {
  SelfTimes self;
  self.wall.resize(spans.size());
  self.cpu.resize(spans.size());
  struct Open {
    int64_t start_ns;
    int64_t wall_ns;
    int64_t cpu_ns;
  };
  std::vector<Open> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    int64_t child_wall = 0, child_cpu = 0;
    while (!stack.empty() && stack.back().start_ns >= s.start_ns) {
      child_wall += stack.back().wall_ns;
      child_cpu += stack.back().cpu_ns;
      stack.pop_back();
    }
    self.wall[i] = std::max<int64_t>(0, s.duration_ns() - child_wall);
    self.cpu[i] = std::max<int64_t>(0, s.cpu_ns - child_cpu);
    stack.push_back(Open{s.start_ns, s.duration_ns(), s.cpu_ns});
  }
  return self;
}

std::string FormatNs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.3f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 10ull * 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%8.1f MB",
                  static_cast<double>(bytes) / 1e6);
  } else if (bytes >= 10ull * 1000) {
    std::snprintf(buf, sizeof(buf), "%8.1f kB",
                  static_cast<double>(bytes) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%8llu B ",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

/// One process of a Chrome trace: its captured session, the pid its spans
/// are drawn under, the process_name label (no metadata event when empty)
/// and the prefix of its thread_name labels.
struct TraceProcess {
  const SessionCapture* capture;
  int pid;
  std::string name;
  std::string thread_prefix;
};

/// The one Chrome trace body: metadata events, then every span as a
/// "complete" event timestamped against the earliest session start (the
/// steady clock is machine-wide, so per-process offsets against it
/// reproduce the real concurrency picture).
std::string RenderChromeTrace(const std::vector<TraceProcess>& processes) {
  int64_t epoch = 0;
  size_t total_spans = 0;
  for (size_t p = 0; p < processes.size(); ++p) {
    const SessionCapture& capture = *processes[p].capture;
    if (p == 0 || capture.start_ns < epoch) epoch = capture.start_ns;
    total_spans += capture.spans.size();
  }
  std::string out;
  out.reserve(total_spans * 192 + 512);
  {
    auto root = JsonScope::Object(&out);
    auto events = JsonScope::Array(root.Key("traceEvents"));
    for (const TraceProcess& process : processes) {
      if (!process.name.empty()) {
        auto meta = JsonScope::Object(events.Sep());
        meta.Str("ph", "M").Str("name", "process_name").Int("pid", process.pid);
        JsonScope::Object(meta.Key("args")).Str("name", process.name);
      }
      int num_threads = 0;
      for (const SpanRecord& span : process.capture->spans) {
        num_threads =
            std::max(num_threads, static_cast<int>(span.thread_index) + 1);
      }
      for (int t = 0; t < num_threads; ++t) {
        auto meta = JsonScope::Object(events.Sep());
        meta.Str("ph", "M").Str("name", "thread_name").Int("pid", process.pid);
        meta.Int("tid", t);
        JsonScope::Object(meta.Key("args"))
            .Str("name", process.thread_prefix + std::to_string(t));
      }
      for (const SpanRecord& span : process.capture->spans) {
        auto event = JsonScope::Object(events.Sep());
        event.Str("name", span.name).Str("cat", StageName(span.stage));
        event.Str("ph", "X");
        event.Num("ts", static_cast<double>(span.start_ns - epoch) / 1e3);
        event.Num("dur", static_cast<double>(span.duration_ns()) / 1e3);
        event.Int("pid", process.pid).Int("tid", span.thread_index);
        JsonScope::Object(event.Key("args"))
            .Int("worker", span.worker)
            .Int("group", span.group)
            .Int("slot", span.slot)
            .Int("leaf", span.leaf)
            .UInt("bytes", span.bytes)
            .Num("queue_us", static_cast<double>(span.queue_ns) / 1e3)
            .Num("cpu_us", static_cast<double>(span.cpu_ns) / 1e3);
      }
    }
  }
  out.push_back('\n');
  return out;
}

}  // namespace

double RunReport::cpu_ns_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  return info.cpu_seconds * 1e9 / static_cast<double>(info.events_processed);
}

double RunReport::storage_bytes_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  return static_cast<double>(scan.storage_bytes) /
         static_cast<double>(info.events_processed);
}

double RunReport::decoded_bytes_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  return static_cast<double>(scan.decoded_bytes) /
         static_cast<double>(info.events_processed);
}

double RunReport::events_per_sec_per_core() const {
  if (info.cpu_seconds <= 0.0) return 0.0;
  return static_cast<double>(info.events_processed) / info.cpu_seconds;
}

int64_t RunReport::cpu_ns() const {
  return static_cast<int64_t>(std::llround(info.cpu_seconds * 1e9));
}

int64_t RunReport::wall_ns() const {
  return static_cast<int64_t>(std::llround(info.wall_seconds * 1e9));
}

double RunReport::span_coverage() const {
  if (run_span_ns <= 0) return 0.0;
  return static_cast<double>(total_span_ns) /
         static_cast<double>(run_span_ns);
}

double RunReport::vops_per_event() const {
  if (info.events_processed <= 0) return 0.0;
  for (const CounterSummary& counter : counters) {
    if (counter.stage == Stage::kVexprKernel &&
        counter.name == "vops_retired") {
      return static_cast<double>(counter.count) /
             static_cast<double>(info.events_processed);
    }
  }
  return 0.0;
}

double RunReport::vexpr_fused_coverage() const {
  uint64_t retired = 0;
  uint64_t fused = 0;
  for (const CounterSummary& counter : counters) {
    if (counter.stage != Stage::kVexprKernel) continue;
    if (counter.name == "vops_retired") retired = counter.count;
    if (counter.name == "vops_fused") fused = counter.count;
  }
  if (retired == 0) return 0.0;
  return static_cast<double>(fused) / static_cast<double>(retired);
}

SessionCapture CaptureSession(const TraceSession& session) {
  SessionCapture capture;
  capture.start_ns = session.start_ns();
  capture.stop_ns = session.stop_ns();
  capture.spans = session.MergedSpans();
  capture.counters = session.MergedCounters();
  return capture;
}

RunReport BuildRunReport(const TraceSession& session, const RunInfo& info,
                         const ScanStats& scan, size_t max_timeline_entries,
                         size_t max_stragglers) {
  return BuildRunReport(CaptureSession(session), info, scan,
                        max_timeline_entries, max_stragglers);
}

RunReport BuildRunReport(const SessionCapture& capture, const RunInfo& info,
                         const ScanStats& scan, size_t max_timeline_entries,
                         size_t max_stragglers) {
  RunReport report;
  report.info = info;
  report.scan = scan;
  report.window_ns = capture.stop_ns - capture.start_ns;

  const std::vector<SpanRecord>& merged = capture.spans;

  // Regroup by thread and restore each thread's end order (seq), which
  // the start-ordered merge interleaved.
  size_t num_threads = 1;
  for (const SpanRecord& span : merged) {
    num_threads = std::max<size_t>(num_threads, span.thread_index + 1u);
  }
  std::vector<std::vector<SpanRecord>> per_thread(num_threads);
  for (const SpanRecord& span : merged) {
    per_thread[span.thread_index].push_back(span);
  }
  for (auto& spans : per_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.seq < b.seq;
              });
  }

  // Stage rollup from per-thread exclusive times.
  std::vector<StageSummary> stages(kNumStages);
  for (int s = 0; s < kNumStages; ++s) {
    stages[static_cast<size_t>(s)].stage = static_cast<Stage>(s);
  }
  for (const auto& spans : per_thread) {
    const SelfTimes self = ComputeSelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      StageSummary& stage = stages[static_cast<size_t>(spans[i].stage)];
      stage.wall_ns += self.wall[i];
      stage.cpu_ns += self.cpu[i];
      stage.bytes += spans[i].bytes;
      ++stage.count;
    }
  }
  for (const StageSummary& stage : stages) {
    if (stage.count > 0) report.stages.push_back(stage);
  }

  // Root spans (one per query run; a scatter worker runs one per shard)
  // + top-level coverage.
  for (const SpanRecord& span : merged) {
    if (span.stage == Stage::kRun) report.run_span_ns += span.duration_ns();
  }
  // "Top level" for coverage purposes means depth 1 when a run root
  // exists (children of the root), else depth 0.
  const uint8_t top_depth = report.run_span_ns > 0 ? 1 : 0;
  for (const SpanRecord& span : merged) {
    if (span.depth == top_depth) report.total_span_ns += span.duration_ns();
  }

  // Worker summaries from row-group spans.
  const int64_t window_start = capture.start_ns;
  int64_t window_end = capture.stop_ns;
  if (window_end <= window_start) {
    // Session still active when the report was built: fall back to the
    // span extent.
    for (const SpanRecord& span : merged) {
      window_end = std::max(window_end, span.end_ns);
    }
  }
  const int64_t window = std::max<int64_t>(window_end - window_start, 0);
  // Keyed by the runtime worker id the scheduler stamped on each span —
  // not the trace thread index, whose numbering depends on which thread
  // happened to register its buffer first. Untagged spans land on w0.
  auto worker_of = [](const SpanRecord* span) {
    return std::max(static_cast<int>(span->worker), 0);
  };
  std::vector<const SpanRecord*> row_group_spans;
  for (const SpanRecord& span : merged) {
    if (span.stage == Stage::kRowGroup) row_group_spans.push_back(&span);
  }
  // Grouped by worker id; each worker's spans keep the merged order (the
  // pointers all index `merged`, so address order is merged order).
  std::vector<const SpanRecord*> by_worker = row_group_spans;
  std::sort(by_worker.begin(), by_worker.end(),
            [&](const SpanRecord* a, const SpanRecord* b) {
              if (worker_of(a) != worker_of(b)) {
                return worker_of(a) < worker_of(b);
              }
              return a < b;
            });
  for (auto begin = by_worker.begin(); begin != by_worker.end();) {
    WorkerSummary worker;
    worker.worker = worker_of(*begin);
    auto end = begin;
    while (end != by_worker.end() && worker_of(*end) == worker.worker) ++end;
    std::vector<const SpanRecord*> groups(begin, end);
    begin = end;
    for (const SpanRecord* span : groups) {
      worker.busy_ns += span->duration_ns();
      ++worker.row_groups;
      if (span->queue_ns > worker.max_queue_ns) {
        worker.max_queue_ns = span->queue_ns;
        worker.max_queue_group = span->group;
      }
    }
    worker.idle_ns = std::max<int64_t>(window - worker.busy_ns, 0);
    worker.busy_fraction =
        window > 0 ? static_cast<double>(worker.busy_ns) /
                         static_cast<double>(window)
                   : 0.0;
    std::sort(groups.begin(), groups.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_ns < b->start_ns;
              });
    for (const SpanRecord* span : groups) {
      if (max_timeline_entries > 0 &&
          worker.timeline.size() >= max_timeline_entries) {
        worker.timeline_truncated = true;
        break;
      }
      worker.timeline.push_back(WorkerSummary::TimelineEntry{
          span->group, span->slot, span->start_ns - window_start,
          span->duration_ns(), span->queue_ns, span->bytes});
    }
    report.workers.push_back(std::move(worker));
  }

  // Stragglers: slowest row-group spans across all workers.
  std::vector<const SpanRecord*> row_groups = row_group_spans;
  std::sort(row_groups.begin(), row_groups.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->duration_ns() != b->duration_ns()) {
                return a->duration_ns() > b->duration_ns();
              }
              return a->group < b->group;
            });
  for (size_t i = 0; i < row_groups.size() && i < max_stragglers; ++i) {
    const SpanRecord* span = row_groups[i];
    Straggler straggler;
    straggler.group = span->group;
    straggler.worker = span->worker;
    straggler.slot = span->slot;
    straggler.wall_ns = span->duration_ns();
    straggler.bytes = span->bytes;
    report.stragglers.push_back(straggler);
  }

  for (const CounterRecord& counter : capture.counters) {
    report.counters.push_back(CounterSummary{counter.name, counter.stage,
                                             counter.ns, counter.count,
                                             counter.bytes});
  }

  report.cost_inputs.cpu_seconds = info.cpu_seconds;
  report.cost_inputs.storage_bytes = scan.storage_bytes;
  report.cost_inputs.logical_bytes_bq = scan.logical_bytes_bq;
  report.cost_inputs.row_groups =
      static_cast<int>(std::max<size_t>(row_groups.size(), 1));
  report.cost_inputs.events = info.events_processed;
  return report;
}

std::string ReportToJson(const RunReport& report) {
  std::string out;
  out.reserve(4096);
  {
    auto root = JsonScope::Object(&out);
    root.Int("schema_version", RunReport::kSchemaVersion);
    root.Str("query", report.info.query);
    root.Str("engine", report.info.engine);
    root.Int("threads", report.info.threads);
    root.Int("events_processed", report.info.events_processed);
    root.Int("wall_ns", report.wall_ns());
    root.Int("cpu_ns", report.cpu_ns());
    root.Int("run_span_ns", report.run_span_ns);
    root.Int("total_span_ns", report.total_span_ns);
    root.Int("window_ns", report.window_ns);
    root.Num("span_coverage", report.span_coverage());
    {
      auto fig = JsonScope::Object(root.Key("figure4"));
      fig.Num("cpu_ns_per_event", report.cpu_ns_per_event());
      fig.Num("storage_bytes_per_event", report.storage_bytes_per_event());
      fig.Num("decoded_bytes_per_event", report.decoded_bytes_per_event());
      fig.Num("events_per_sec_per_core", report.events_per_sec_per_core());
    }
    {
      auto vm = JsonScope::Object(root.Key("expr_vm"));
      vm.Num("vops_per_event", report.vops_per_event());
      vm.Num("fused_coverage", report.vexpr_fused_coverage());
    }
    {
      auto scan = JsonScope::Object(root.Key("scan"));
      scan.UInt("storage_bytes", report.scan.storage_bytes);
      scan.UInt("encoded_bytes", report.scan.encoded_bytes);
      scan.UInt("logical_bytes_bq", report.scan.logical_bytes_bq);
      scan.UInt("ideal_bytes", report.scan.ideal_bytes);
      scan.UInt("chunks_read", report.scan.chunks_read);
      scan.UInt("values_read", report.scan.values_read);
      scan.UInt("decoded_bytes", report.scan.decoded_bytes);
      scan.UInt("pages_read", report.scan.pages_read);
      scan.UInt("pages_pruned", report.scan.pages_pruned);
      scan.UInt("rows_pruned", report.scan.rows_pruned);
      scan.UInt("rows_read", report.scan.rows_read);
      scan.UInt("lanes_pruned", report.scan.lanes_pruned);
      scan.UInt("groups_pruned", report.scan.groups_pruned);
    }
    {
      // decoded_bytes (from disk, this run) + cache_bytes_served == the
      // bytes the query consumed — the cache hierarchy's reconciliation
      // invariant, emitted pre-summed so consumers need no arithmetic.
      auto cache = JsonScope::Object(root.Key("cache"));
      cache.UInt("footer_hits", report.scan.footer_cache_hits);
      cache.UInt("footer_misses", report.scan.footer_cache_misses);
      cache.UInt("chunk_hits", report.scan.chunk_cache_hits);
      cache.UInt("chunk_misses", report.scan.chunk_cache_misses);
      cache.UInt("cache_bytes_served", report.scan.cache_bytes_served);
      cache.UInt("consumed_bytes",
                 report.scan.decoded_bytes + report.scan.cache_bytes_served);
    }
    {
      auto stages = JsonScope::Array(root.Key("stages"));
      for (const StageSummary& stage : report.stages) {
        auto s = JsonScope::Object(stages.Sep());
        s.Str("stage", StageName(stage.stage));
        s.Int("wall_ns", stage.wall_ns);
        s.Int("cpu_ns", stage.cpu_ns);
        s.UInt("bytes", stage.bytes);
        s.UInt("count", stage.count);
      }
    }
    {
      auto processes = JsonScope::Array(root.Key("processes"));
      for (const RunReport::ProcessSummary& process : report.processes) {
        auto p = JsonScope::Object(processes.Sep());
        p.Int("proc", process.proc);
        p.Int("shard_begin", process.shard_begin);
        p.Int("shard_end", process.shard_end);
        p.Int("threads", process.threads);
        p.Int("events", process.events);
        p.Num("wall_seconds", process.wall_seconds);
        p.Num("cpu_seconds", process.cpu_seconds);
        p.UInt("storage_bytes", process.storage_bytes);
        p.UInt("decoded_bytes", process.decoded_bytes);
        p.UInt("cache_bytes_served", process.cache_bytes_served);
        p.Bool("report_received", process.report_received);
      }
    }
    root.Bool("partial", report.partial);
    {
      auto warnings = JsonScope::Array(root.Key("warnings"));
      for (const std::string& warning : report.warnings) {
        json::AppendJsonString(warnings.Sep(), warning);
      }
    }
    {
      auto workers = JsonScope::Array(root.Key("workers"));
      for (const WorkerSummary& worker : report.workers) {
        auto w = JsonScope::Object(workers.Sep());
        w.Int("proc", worker.proc);
        w.Int("worker", worker.worker);
        w.Int("busy_ns", worker.busy_ns);
        w.Int("idle_ns", worker.idle_ns);
        w.Num("busy_fraction", worker.busy_fraction);
        w.Int("row_groups", worker.row_groups);
        w.Int("max_queue_ns", worker.max_queue_ns);
        w.Int("max_queue_group", worker.max_queue_group);
        w.Bool("timeline_truncated", worker.timeline_truncated);
        {
          auto timeline = JsonScope::Array(w.Key("timeline"));
          for (const auto& entry : worker.timeline) {
            auto e = JsonScope::Object(timeline.Sep());
            e.Int("group", entry.group);
            e.Int("slot", entry.slot);
            e.Int("start_ns", entry.start_ns);
            e.Int("dur_ns", entry.dur_ns);
            e.Int("queue_ns", entry.queue_ns);
            e.UInt("bytes", entry.bytes);
          }
        }
      }
    }
    {
      auto stragglers = JsonScope::Array(root.Key("stragglers"));
      for (const Straggler& straggler : report.stragglers) {
        auto s = JsonScope::Object(stragglers.Sep());
        s.Int("group", straggler.group);
        s.Int("proc", straggler.proc);
        s.Int("worker", straggler.worker);
        s.Int("slot", straggler.slot);
        s.Int("wall_ns", straggler.wall_ns);
        s.UInt("bytes", straggler.bytes);
      }
    }
    {
      auto leaves = JsonScope::Array(root.Key("per_leaf"));
      for (const LeafScanStats& leaf : report.scan.leaves) {
        if (leaf.decoded_bytes == 0 && leaf.pages_read == 0 &&
            leaf.chunks_read == 0 && leaf.pages_pruned == 0 &&
            leaf.cache_bytes_served == 0) {
          continue;
        }
        auto l = JsonScope::Object(leaves.Sep());
        l.Str("leaf", leaf.path);
        l.UInt("decoded_bytes", leaf.decoded_bytes);
        l.UInt("storage_bytes", leaf.storage_bytes);
        l.UInt("chunks_read", leaf.chunks_read);
        l.UInt("pages_read", leaf.pages_read);
        l.UInt("pages_pruned", leaf.pages_pruned);
        l.UInt("cache_bytes_served", leaf.cache_bytes_served);
      }
    }
    {
      auto counters = JsonScope::Array(root.Key("counters"));
      for (const CounterSummary& counter : report.counters) {
        auto c = JsonScope::Object(counters.Sep());
        c.Str("name", counter.name);
        c.Str("stage", StageName(counter.stage));
        c.Int("ns", counter.ns);
        c.UInt("count", counter.count);
        c.UInt("bytes", counter.bytes);
      }
    }
    {
      auto cost = JsonScope::Object(root.Key("cost_inputs"));
      cost.Num("cpu_seconds", report.cost_inputs.cpu_seconds);
      cost.UInt("storage_bytes", report.cost_inputs.storage_bytes);
      cost.UInt("logical_bytes_bq", report.cost_inputs.logical_bytes_bq);
      cost.Int("row_groups", report.cost_inputs.row_groups);
      cost.Int("events", report.cost_inputs.events);
    }
  }
  out.push_back('\n');
  return out;
}

std::string ReportToTable(const RunReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "profile: %s %s  threads=%d  events=%lld  wall=%.3f ms  "
                "cpu=%.3f ms  coverage=%.1f%%\n",
                report.info.engine.c_str(), report.info.query.c_str(),
                report.info.threads,
                static_cast<long long>(report.info.events_processed),
                report.info.wall_seconds * 1e3, report.info.cpu_seconds * 1e3,
                100.0 * report.span_coverage());
  out += line;

  if (!report.processes.empty()) {
    out += "  proc  shards        events        decoded      served    "
           "cpu\n";
    for (const RunReport::ProcessSummary& process : report.processes) {
      std::snprintf(line, sizeof(line),
                    "  p%-4d [%d,%d)%*s %10lld %s %s %9.3f ms%s\n",
                    process.proc, process.shard_begin, process.shard_end,
                    process.shard_end >= 10 ? 4 : 6, "",
                    static_cast<long long>(process.events),
                    FormatBytes(process.decoded_bytes).c_str(),
                    FormatBytes(process.cache_bytes_served).c_str(),
                    process.cpu_seconds * 1e3,
                    process.report_received ? "" : "   [no report]");
      out += line;
    }
  }
  for (const std::string& warning : report.warnings) {
    out += "  warning: " + warning + "\n";
  }

  out += "  stage          self wall      self cpu         bytes    spans\n";
  for (const StageSummary& stage : report.stages) {
    std::snprintf(line, sizeof(line), "  %-10s %s %s  %s %8llu\n",
                  StageName(stage.stage), FormatNs(stage.wall_ns).c_str(),
                  FormatNs(stage.cpu_ns).c_str(),
                  FormatBytes(stage.bytes).c_str(),
                  static_cast<unsigned long long>(stage.count));
    out += line;
  }

  if (!report.workers.empty()) {
    out += "  worker     busy        idle        busy%   groups   "
           "max queue (group)\n";
    for (const WorkerSummary& worker : report.workers) {
      char label[24];
      if (report.processes.empty()) {
        std::snprintf(label, sizeof(label), "w%d", worker.worker);
      } else {
        std::snprintf(label, sizeof(label), "p%d:w%d", worker.proc,
                      worker.worker);
      }
      std::snprintf(line, sizeof(line),
                    "  %-5s %s %s %7.1f%% %8lld %s (%d)\n",
                    label, FormatNs(worker.busy_ns).c_str(),
                    FormatNs(worker.idle_ns).c_str(),
                    100.0 * worker.busy_fraction,
                    static_cast<long long>(worker.row_groups),
                    FormatNs(worker.max_queue_ns).c_str(),
                    worker.max_queue_group);
      out += line;
    }
  }

  if (!report.stragglers.empty()) {
    out += "  stragglers (slowest row groups):\n";
    for (const Straggler& straggler : report.stragglers) {
      std::snprintf(line, sizeof(line),
                    "    group %-6d %s  worker %-3d slot %-4d %s\n",
                    straggler.group, FormatNs(straggler.wall_ns).c_str(),
                    straggler.worker, straggler.slot,
                    FormatBytes(straggler.bytes).c_str());
      out += line;
    }
  }

  bool any_leaf = false;
  for (const LeafScanStats& leaf : report.scan.leaves) {
    if (leaf.decoded_bytes != 0 || leaf.pages_read != 0 ||
        leaf.chunks_read != 0 || leaf.pages_pruned != 0) {
      any_leaf = true;
      break;
    }
  }
  if (any_leaf) {
    out += "  leaf                       decoded      stored   chunks    "
           "pages   pruned\n";
    for (const LeafScanStats& leaf : report.scan.leaves) {
      if (leaf.decoded_bytes == 0 && leaf.pages_read == 0 &&
          leaf.chunks_read == 0 && leaf.pages_pruned == 0) {
        continue;
      }
      std::snprintf(line, sizeof(line),
                    "  %-24s %s %s %8llu %8llu %8llu\n", leaf.path.c_str(),
                    FormatBytes(leaf.decoded_bytes).c_str(),
                    FormatBytes(leaf.storage_bytes).c_str(),
                    static_cast<unsigned long long>(leaf.chunks_read),
                    static_cast<unsigned long long>(leaf.pages_read),
                    static_cast<unsigned long long>(leaf.pages_pruned));
      out += line;
    }
  }

  if (!report.counters.empty()) {
    out += "  counter                 time         count\n";
    for (const CounterSummary& counter : report.counters) {
      std::snprintf(line, sizeof(line), "  %-18s %s %10llu\n",
                    counter.name.c_str(), FormatNs(counter.ns).c_str(),
                    static_cast<unsigned long long>(counter.count));
      out += line;
    }
  }
  return out;
}

std::string ChromeTraceJson(const TraceSession& session) {
  const SessionCapture capture = CaptureSession(session);
  return RenderChromeTrace({TraceProcess{&capture, 1, "", "trace-thread-"}});
}

RunReport MergeProcessReports(const RunInfo& info, const ScanStats& merged_scan,
                              const std::vector<ProcessReport>& reports,
                              size_t max_stragglers) {
  RunReport merged;
  merged.info = info;
  merged.scan = merged_scan;

  std::vector<StageSummary> stages(kNumStages);
  for (int s = 0; s < kNumStages; ++s) {
    stages[static_cast<size_t>(s)].stage = static_cast<Stage>(s);
  }

  for (size_t p = 0; p < reports.size(); ++p) {
    const ProcessReport& process = reports[p];
    RunReport::ProcessSummary summary;
    summary.proc = static_cast<int>(p);
    summary.shard_begin = process.shard_begin;
    summary.shard_end = process.shard_end;
    if (!process.received) {
      summary.report_received = false;
      merged.partial = true;
      merged.warnings.push_back(
          "worker for shards [" + std::to_string(process.shard_begin) + "," +
          std::to_string(process.shard_end) +
          ") sent no run report; per-process attribution is incomplete");
      merged.processes.push_back(summary);
      continue;
    }
    summary.threads = info.threads;
    summary.events = process.events;
    summary.wall_seconds = process.wall_seconds;
    summary.cpu_seconds = process.cpu_seconds;
    summary.storage_bytes = process.scan.storage_bytes;
    summary.decoded_bytes = process.scan.decoded_bytes;
    summary.cache_bytes_served = process.scan.cache_bytes_served;
    merged.processes.push_back(summary);

    RunInfo worker_info = info;
    worker_info.events_processed = process.events;
    worker_info.wall_seconds = process.wall_seconds;
    worker_info.cpu_seconds = process.cpu_seconds;
    const RunReport r =
        BuildRunReport(process.capture, worker_info, process.scan);
    // Traced durations sum across processes: the merged report answers
    // "how much traced work happened", not "how long did the wall run"
    // (that is info.wall_seconds, the coordinator's own measurement).
    merged.run_span_ns += r.run_span_ns;
    merged.total_span_ns += r.total_span_ns;
    merged.window_ns = std::max(merged.window_ns, r.window_ns);

    for (const StageSummary& stage : r.stages) {
      StageSummary& acc = stages[static_cast<size_t>(stage.stage)];
      acc.wall_ns += stage.wall_ns;
      acc.cpu_ns += stage.cpu_ns;
      acc.bytes += stage.bytes;
      acc.count += stage.count;
    }
    for (WorkerSummary worker : r.workers) {
      worker.proc = static_cast<int>(p);
      merged.workers.push_back(std::move(worker));
    }
    for (Straggler straggler : r.stragglers) {
      straggler.proc = static_cast<int>(p);
      merged.stragglers.push_back(straggler);
    }
    for (const CounterSummary& counter : r.counters) {
      bool found = false;
      for (CounterSummary& acc : merged.counters) {
        if (acc.stage == counter.stage && acc.name == counter.name) {
          acc.ns += counter.ns;
          acc.count += counter.count;
          acc.bytes += counter.bytes;
          found = true;
          break;
        }
      }
      if (!found) merged.counters.push_back(counter);
    }
  }

  for (const StageSummary& stage : stages) {
    if (stage.count > 0) merged.stages.push_back(stage);
  }
  std::sort(merged.counters.begin(), merged.counters.end(),
            [](const CounterSummary& a, const CounterSummary& b) {
              if (a.stage != b.stage) return a.stage < b.stage;
              return a.name < b.name;
            });
  std::sort(merged.stragglers.begin(), merged.stragglers.end(),
            [](const Straggler& a, const Straggler& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
              if (a.proc != b.proc) return a.proc < b.proc;
              return a.group < b.group;
            });
  if (merged.stragglers.size() > max_stragglers) {
    merged.stragglers.resize(max_stragglers);
  }

  merged.cost_inputs.cpu_seconds = info.cpu_seconds;
  merged.cost_inputs.storage_bytes = merged_scan.storage_bytes;
  merged.cost_inputs.logical_bytes_bq = merged_scan.logical_bytes_bq;
  int64_t row_groups = 0;
  for (const StageSummary& stage : merged.stages) {
    if (stage.stage == Stage::kRowGroup) {
      row_groups = static_cast<int64_t>(stage.count);
    }
  }
  merged.cost_inputs.row_groups =
      static_cast<int>(std::max<int64_t>(row_groups, 1));
  merged.cost_inputs.events = info.events_processed;
  return merged;
}

std::string MultiProcessChromeTraceJson(
    const std::vector<ProcessReport>& reports) {
  std::vector<TraceProcess> processes;
  for (size_t p = 0; p < reports.size(); ++p) {
    const ProcessReport& process = reports[p];
    if (!process.received) continue;
    const std::string label = "p" + std::to_string(p);
    processes.push_back(TraceProcess{
        &process.capture, static_cast<int>(p) + 1,
        "worker " + label + " shards [" +
            std::to_string(process.shard_begin) + "," +
            std::to_string(process.shard_end) + ")",
        label + "-thread-"});
  }
  return RenderChromeTrace(processes);
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace hepq::obs
