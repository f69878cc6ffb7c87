// hepq_run: run one ADL benchmark query on a chosen engine and print the
// resulting histogram plus execution statistics.
//
// Usage: hepq_run <query 1..8> [engine] [events] [--threads=N]
//                 [--vexpr-tier=interpret|simd]
//                 [--no-pushdown] [--no-late-mat]
//                 [--profile[=report.json]] [--trace=trace.json]
//   engine: rdf (default) | bigquery | presto | doc | all | explain
//   events: data-set size to generate/reuse (default 20000)
//   --threads=N: scan row groups with N workers of the shared runtime
//     (results are bit-identical for any N; default 1)
//   --vexpr-tier=T: expression-execution tier for the bigquery/presto
//     plan shapes — interpret (tree walk) or simd (fused batch kernels,
//     the default); histograms are bit-identical across tiers.
//   --no-pushdown: disable zone-map predicate pushdown (group/page
//     pruning); histograms are bit-identical either way
//   --no-late-mat: disable late materialization (decode every projected
//     column even for row groups with no surviving events)
//   --profile: trace the run and print the per-stage/per-worker/per-leaf
//     table to stderr (stdout stays pipeable); --profile=path.json writes
//     the machine-readable RunReport JSON instead
//   --trace=path.json: write the spans as Chrome trace_event JSON,
//     loadable in chrome://tracing or Perfetto
//   --data=path.laq: run over an existing laq file (e.g. a laq_optimize'd
//     copy) OR a sharded dataset directory of "*.laq" files, instead of
//     generating one from the events count
//   --procs=P: scatter/gather coordinator — spawn P worker processes
//     (this binary re-invoked with --worker-shards), each owning a
//     contiguous range of the dataset's shards, and merge their results
//     in shard order. Bit-identical to --procs=1 (in-process) for any P.
//   --worker-shards=a:b: worker mode (used by --procs; scriptable for
//     debugging) — run shards [a, b) of the dataset and write result
//     frames to stdout instead of human-readable output.
//   --worker-report: worker mode only (added by a profiling coordinator)
//     — trace the whole shard range under one session and stream the
//     captured spans and counters back as a kReport frame. With
//     --procs=P plus --profile/--trace the coordinator builds each
//     worker's RunReport from its capture and merges all P into ONE
//     cross-process RunReport
//     (per-process totals reconcile bit-exactly against the merged scan
//     stats) and one stitched Chrome trace with a pid per worker.
//   --cache[=BYTES]: enable the process-wide cache hierarchy for this
//     invocation — a decoded-chunk LRU (BYTES budget, default 256 MiB)
//     shared by every reader plus a query-fingerprint result cache.
//     The footer/metadata cache is always on (it costs no data bytes).
//     Off by default so single-query ablation runs stay cold-path.
//   --queries=all: batch driver — run the whole 8-query suite in one
//     process (compact per-query lines instead of histograms), so
//     queries share the caches. Positionals shift: [engine] [events].
//   --repeat=N: run the suite N times (with --queries=all); under
//     --cache the second pass is served from the caches and decodes 0
//     bytes from storage. Each pass's totals line ends with the process
//     CPU seconds and minor page faults the pass took (getrusage deltas).
//   "explain" prints the relational plans instead of executing.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "datagen/dataset.h"
#include "fileio/dataset_reader.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/adl.h"
#include "queries/builders.h"
#include "scatter/ipc.h"
#include "scatter/scatter.h"

using hepq::queries::EngineKind;
using hepq::queries::EngineKindName;
using hepq::queries::RunAdlQuery;

namespace {

/// The engines by CLI name, in the order `all` runs them. The names are
/// also what --worker-shards children parse.
constexpr struct {
  EngineKind kind;
  const char* cli_name;
} kEngines[] = {{EngineKind::kRdf, "rdf"},
                {EngineKind::kBigQueryShape, "bigquery"},
                {EngineKind::kPrestoShape, "presto"},
                {EngineKind::kDoc, "doc"}};

/// The single engine `name` selects; false for "all", "explain" or a typo.
bool ParseEngine(const std::string& name, EngineKind* kind) {
  for (const auto& e : kEngines) {
    if (name == e.cli_name) {
      *kind = e.kind;
      return true;
    }
  }
  return false;
}

struct ProfileOptions {
  bool enabled = false;       // --profile or --trace given
  bool table = false;         // --profile with no path: table to stderr
  std::string report_path;    // --profile=path.json
  std::string trace_path;     // --trace=path.json
};

/// "report.json" -> "report.rdataframe.json" so engine=all runs do not
/// overwrite one another's files.
std::string WithEngineSuffix(const std::string& path,
                             const std::string& engine) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + engine;
  }
  return path.substr(0, dot) + "." + engine + path.substr(dot);
}

void PrintRunOutput(EngineKind engine,
                    const hepq::queries::QueryRunOutput& result) {
  std::printf("--- %s ---\n", EngineKindName(engine));
  std::printf(
      "events: %lld   cpu: %.4f s   wall: %.4f s   storage bytes: %llu\n",
      static_cast<long long>(result.events_processed),
      result.cpu_seconds, result.wall_seconds,
      static_cast<unsigned long long>(result.scan.storage_bytes));
  std::printf(
      "decoded bytes: %llu   groups pruned: %llu   pages pruned: %llu/%llu"
      "   rows pruned: %llu\n",
      static_cast<unsigned long long>(result.scan.decoded_bytes),
      static_cast<unsigned long long>(result.scan.groups_pruned),
      static_cast<unsigned long long>(result.scan.pages_pruned),
      static_cast<unsigned long long>(result.scan.pages_pruned +
                                      result.scan.pages_read),
      static_cast<unsigned long long>(result.scan.rows_pruned));
  if (result.ops > 0) {
    std::printf("ops/event: %.2f\n",
                static_cast<double>(result.ops) /
                    static_cast<double>(result.events_processed));
  }
  if (result.from_result_cache) {
    std::printf("result cache: hit (bit-identical cached histograms; no "
                "reader opened)\n");
  } else if (result.scan.chunk_cache_hits + result.scan.chunk_cache_misses >
             0) {
    std::printf(
        "chunk cache: %llu hits / %llu misses   served: %llu B   "
        "consumed: %llu B\n",
        static_cast<unsigned long long>(result.scan.chunk_cache_hits),
        static_cast<unsigned long long>(result.scan.chunk_cache_misses),
        static_cast<unsigned long long>(result.scan.cache_bytes_served),
        static_cast<unsigned long long>(result.scan.decoded_bytes +
                                        result.scan.cache_bytes_served));
  }
  for (const hepq::Histogram1D& h : result.histograms) {
    std::printf("%s\n", h.ToString(10).c_str());
  }
}

/// Process CPU seconds and minor page faults so far (getrusage).
struct Usage {
  double cpu_s = 0.0;
  long minor_faults = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.minor_faults = ru.ru_minflt;
  return u;
}

/// Batch driver (--queries=all): the 8-query suite, `repeat` passes, one
/// process — the access pattern the cache hierarchy exists for. Compact
/// per-query lines; machine-parsable per-pass totals (the CI warm-run
/// gate greps `decoded_bytes=0` off the repeat pass's totals line). The
/// totals' cpu_s and minor_faults split a pass's warm-up by cause: a pass
/// that re-faults its scratch shows it in minor_faults.
void RunSuite(EngineKind engine, const std::string& data,
              const hepq::queries::RunOptions& options, int repeat) {
  std::printf("--- %s ---\n", EngineKindName(engine));
  for (int pass = 0; pass < repeat; ++pass) {
    double wall = 0.0;
    unsigned long long decoded = 0, served = 0;
    int result_hits = 0;
    const Usage before = ProcessUsage();
    for (int q = 1; q <= hepq::queries::kNumAdlQueries; ++q) {
      auto result = RunAdlQuery(engine, q, data, options);
      if (!result.ok()) {
        std::fprintf(stderr, "error: Q%d: %s\n", q,
                     result.status().ToString().c_str());
        std::exit(1);
      }
      wall += result->wall_seconds;
      decoded += result->scan.decoded_bytes;
      served += result->scan.cache_bytes_served;
      result_hits += result->from_result_cache ? 1 : 0;
      std::printf("pass %d Q%d: wall %9.4f s   decoded %12llu B   "
                  "served %12llu B%s\n",
                  pass, q, result->wall_seconds,
                  static_cast<unsigned long long>(
                      result->scan.decoded_bytes),
                  static_cast<unsigned long long>(
                      result->scan.cache_bytes_served),
                  result->from_result_cache ? "   [result cache]" : "");
    }
    const Usage after = ProcessUsage();
    std::printf("pass %d totals: wall_s=%.6f decoded_bytes=%llu "
                "cache_bytes_served=%llu result_hits=%d/%d cpu_s=%.6f "
                "minor_faults=%ld\n",
                pass, wall, decoded, served, result_hits,
                hepq::queries::kNumAdlQueries, after.cpu_s - before.cpu_s,
                after.minor_faults - before.minor_faults);
  }
  const hepq::cache::CacheCounters footer =
      hepq::cache::FooterCache::Process().counters();
  std::printf("footer cache: %llu hits / %llu misses (%llu entries)\n",
              static_cast<unsigned long long>(footer.hits),
              static_cast<unsigned long long>(footer.misses),
              static_cast<unsigned long long>(footer.entries));
  if (options.chunk_cache != nullptr) {
    const hepq::cache::CacheCounters chunk = options.chunk_cache->counters();
    std::printf("chunk cache: %llu hits / %llu misses   %llu inserts   "
                "%llu evictions   resident %llu B in %llu entries "
                "(budget %llu B)\n",
                static_cast<unsigned long long>(chunk.hits),
                static_cast<unsigned long long>(chunk.misses),
                static_cast<unsigned long long>(chunk.inserts),
                static_cast<unsigned long long>(chunk.evictions),
                static_cast<unsigned long long>(chunk.bytes_held),
                static_cast<unsigned long long>(chunk.entries),
                static_cast<unsigned long long>(
                    options.chunk_cache->budget_bytes()));
  }
  if (options.result_cache != nullptr) {
    const hepq::cache::CacheCounters res = options.result_cache->counters();
    std::printf("result cache: %llu hits / %llu misses (%llu entries)\n",
                static_cast<unsigned long long>(res.hits),
                static_cast<unsigned long long>(res.misses),
                static_cast<unsigned long long>(res.entries));
  }
}

/// The report header for query `q` on `engine`: identity plus the run's
/// own totals.
hepq::obs::RunInfo InfoFor(EngineKind engine, int q, int threads,
                           const hepq::queries::QueryRunOutput& result) {
  hepq::obs::RunInfo info;
  info.query = "Q" + std::to_string(q);
  info.engine = EngineKindName(engine);
  info.threads = threads;
  info.events_processed = result.events_processed;
  info.wall_seconds = result.wall_seconds;
  info.cpu_seconds = result.cpu_seconds;
  return info;
}

/// Writes what --profile/--trace asked for: the table to stderr, the
/// RunReport JSON, and the Chrome trace (rendered only when wanted).
void EmitProfile(const hepq::obs::RunReport& report,
                 const std::function<std::string()>& trace_json,
                 const ProfileOptions& profile, bool suffix_outputs) {
  auto output_path = [&](const std::string& path) {
    return suffix_outputs ? WithEngineSuffix(path, report.info.engine) : path;
  };
  if (profile.table) {
    std::fputs(hepq::obs::ReportToTable(report).c_str(), stderr);
  }
  if (!profile.report_path.empty()) {
    const std::string out = output_path(profile.report_path);
    hepq::obs::WriteTextFile(out, hepq::obs::ReportToJson(report)).Check();
    std::fprintf(stderr, "run report: %s\n", out.c_str());
  }
  if (!profile.trace_path.empty()) {
    const std::string out = output_path(profile.trace_path);
    hepq::obs::WriteTextFile(out, trace_json()).Check();
    std::fprintf(stderr, "chrome trace: %s\n", out.c_str());
  }
}

void RunOne(EngineKind engine, int q, const std::string& path,
            const hepq::queries::RunOptions& options,
            const ProfileOptions& profile, bool suffix_outputs) {
  hepq::obs::TraceSession session;
  if (profile.enabled) session.Start();
  auto result = RunAdlQuery(engine, q, path, options);
  session.Stop();
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  PrintRunOutput(engine, *result);
  if (!profile.enabled) return;
  EmitProfile(
      hepq::obs::BuildRunReport(
          session, InfoFor(engine, q, options.num_threads, *result),
          result->scan),
      [&session] { return hepq::obs::ChromeTraceJson(session); }, profile,
      suffix_outputs);
}

/// Worker half of --procs: run shards [range) and stream frames to
/// stdout. Human output is suppressed — stdout is the wire. With
/// `worker_report` (set by a profiling coordinator) the whole range runs
/// under one trace session, and the captured session goes back as a
/// kReport frame.
int RunWorkerMode(EngineKind engine, int q, const std::string& data,
                  const hepq::queries::RunOptions& options,
                  hepq::scatter::ShardRange range, bool worker_report) {
  auto files = hepq::ShardFiles(data);
  if (!files.ok()) {
    std::fprintf(stderr, "error: %s\n", files.status().ToString().c_str());
    return 1;
  }
  if (range.begin < 0 || range.end > static_cast<int>(files->size()) ||
      range.begin >= range.end) {
    std::fprintf(stderr, "error: --worker-shards range [%d, %d) out of "
                         "bounds for %zu shards\n",
                 range.begin, range.end, files->size());
    return 1;
  }
  hepq::obs::TraceSession session;
  std::function<std::vector<uint8_t>()> report_payload;
  if (worker_report) {
    session.Start();
    report_payload = [&session]() {
      session.Stop();
      return hepq::scatter::EncodeReportPayload(
          hepq::obs::CaptureSession(session));
    };
  }
  const hepq::Status status = hepq::scatter::RunWorker(
      *files, range,
      [&](const std::string& shard) {
        return RunAdlQuery(engine, q, shard, options);
      },
      STDOUT_FILENO, report_payload);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

/// Coordinator half of --procs: spawn workers (this binary re-invoked
/// with --worker-shards), gather, merge in shard order, print. Under
/// --profile/--trace the workers also send kReport frames and
/// the coordinator merges them into one cross-process RunReport (and one
/// stitched Chrome trace).
void RunScatteredOne(const char* self, EngineKind engine,
                     const std::string& engine_name, int q,
                     const std::string& data,
                     const hepq::queries::RunOptions& options, int procs,
                     const ProfileOptions& profile, bool suffix_outputs) {
  auto files = hepq::ShardFiles(data);
  if (!files.ok()) {
    std::fprintf(stderr, "error: %s\n", files.status().ToString().c_str());
    std::exit(1);
  }
  auto make_argv = [&](hepq::scatter::ShardRange range) {
    std::vector<std::string> argv;
    argv.push_back(self);
    argv.push_back(std::to_string(q));
    argv.push_back(engine_name);
    argv.push_back("--data=" + data);
    argv.push_back("--threads=" + std::to_string(options.num_threads));
    argv.push_back(std::string("--vexpr-tier=") +
                   hepq::engine::ExprTierName(options.expr_tier));
    if (!options.scan_pushdown) argv.push_back("--no-pushdown");
    if (!options.late_materialization) argv.push_back("--no-late-mat");
    if (profile.enabled) argv.push_back("--worker-report");
    argv.push_back("--worker-shards=" + std::to_string(range.begin) + ":" +
                   std::to_string(range.end));
    return argv;
  };
  std::vector<hepq::obs::ProcessReport> reports;
  auto result = hepq::scatter::RunScattered(
      *files, procs, make_argv, profile.enabled ? &reports : nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  PrintRunOutput(engine, *result);
  if (!profile.enabled) return;
  EmitProfile(hepq::obs::MergeProcessReports(
                  InfoFor(engine, q, options.num_threads, *result),
                  result->scan, reports),
              [&reports] {
                return hepq::obs::MultiProcessChromeTraceJson(reports);
              },
              profile, suffix_outputs);
}

void PrintUsage(const char* self) {
  std::fprintf(stderr, "usage: %s <query 1..8> [rdf|bigquery|presto|doc|all]"
                       " [events] [--threads=N]"
                       " [--vexpr-tier=interpret|simd]"
                       " [--no-pushdown]"
                       " [--no-late-mat] [--profile[=report.json]]"
                       " [--trace=trace.json] [--data=path.laq]"
                       " [--cache[=BYTES]] [--queries=all] [--repeat=N]\n",
               self);
}

}  // namespace

int main(int argc, char** argv) {
  hepq::queries::RunOptions options;
  ProfileOptions profile;
  std::string data_path;
  int procs = 0;
  bool queries_all = false;
  int repeat = 1;
  hepq::scatter::ShardRange worker_shards;
  bool worker_mode = false;
  bool worker_report = false;
  int kept = 1;  // strip option flags wherever they appear
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--data=", 7) == 0) {
      data_path = argv[i] + 7;
      continue;
    }
    if (std::strncmp(argv[i], "--procs=", 8) == 0) {
      procs = std::atoi(argv[i] + 8);
      continue;
    }
    if (std::strncmp(argv[i], "--worker-shards=", 16) == 0) {
      const char* spec = argv[i] + 16;
      const char* colon = std::strchr(spec, ':');
      if (colon == nullptr) {
        std::fprintf(stderr, "--worker-shards must be <begin>:<end>\n");
        return 2;
      }
      worker_shards.begin = std::atoi(spec);
      worker_shards.end = std::atoi(colon + 1);
      worker_mode = true;
      continue;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const int v = std::atoi(argv[i] + 10);
      if (v > 0) options.num_threads = v;
      continue;
    }
    if (std::strncmp(argv[i], "--vexpr-tier=", 13) == 0) {
      if (!hepq::engine::ParseExprTier(argv[i] + 13, &options.expr_tier)) {
        std::fprintf(stderr, "--vexpr-tier must be interpret or simd\n");
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--cache") == 0 ||
        std::strncmp(argv[i], "--cache=", 8) == 0) {
      hepq::cache::CacheOptions cache_options;
      if (argv[i][7] == '=') {
        const long long bytes = std::atoll(argv[i] + 8);
        if (bytes <= 0) {
          std::fprintf(stderr, "--cache=BYTES needs a positive byte count\n");
          return 2;
        }
        cache_options.decoded_budget_bytes = static_cast<uint64_t>(bytes);
      }
      options.chunk_cache =
          std::make_shared<hepq::cache::ChunkCache>(cache_options);
      options.result_cache = std::make_shared<hepq::cache::ResultCache>();
      continue;
    }
    if (std::strcmp(argv[i], "--queries=all") == 0) {
      queries_all = true;
      continue;
    }
    if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
      if (repeat < 1) {
        std::fprintf(stderr, "--repeat needs a positive pass count\n");
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--no-pushdown") == 0) {
      options.scan_pushdown = false;
      continue;
    }
    if (std::strcmp(argv[i], "--no-late-mat") == 0) {
      options.late_materialization = false;
      continue;
    }
    if (std::strcmp(argv[i], "--profile") == 0) {
      profile.enabled = true;
      profile.table = true;
      continue;
    }
    if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile.enabled = true;
      profile.report_path = argv[i] + 10;
      continue;
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      profile.enabled = true;
      profile.trace_path = argv[i] + 8;
      continue;
    }
    if (std::strcmp(argv[i], "--worker-report") == 0) {
      worker_report = true;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      // A mistyped ablation flag must not silently run the defaults.
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  if (argc < 2 && !queries_all) {
    PrintUsage(argv[0]);
    return 2;
  }
  int q = 0;
  std::string engine_name;
  int64_t events = 20000;
  if (queries_all) {
    // Suite mode drops the query positional: [engine] [events].
    engine_name = argc > 1 ? argv[1] : "rdf";
    if (argc > 2) events = std::atoll(argv[2]);
  } else {
    q = std::atoi(argv[1]);
    if (q < 1 || q > 8) {
      std::fprintf(stderr, "query id must be 1..8\n");
      return 2;
    }
    engine_name = argc > 2 ? argv[2] : "rdf";
    if (argc > 3) events = std::atoll(argv[3]);
  }

  std::string data;
  if (!data_path.empty()) {
    data = data_path;
  } else {
    hepq::DatasetSpec spec;
    spec.num_events = events;
    spec.row_group_size = std::max<int64_t>(1000, events / 4);
    auto path = hepq::EnsureDataset(hepq::DefaultDataDir(), spec);
    path.status().Check();
    data = *path;
  }

  if (queries_all) {
    if (worker_mode || procs > 1) {
      std::fprintf(stderr,
                   "--queries=all runs in one process (no --procs/worker)\n");
      return 2;
    }
    std::printf("8-query suite   data: %s   passes: %d   cache: %s\n\n",
                data.c_str(), repeat,
                options.chunk_cache != nullptr ? "on" : "off");
    bool ran = false;
    for (const auto& e : kEngines) {
      if (engine_name == "all" || engine_name == e.cli_name) {
        RunSuite(e.kind, data, options, repeat);
        ran = true;
      }
    }
    if (!ran) {
      std::fprintf(stderr, "unknown engine '%s'\n", engine_name.c_str());
      return 2;
    }
    return 0;
  }

  if (worker_mode) {
    // Stdout is the frame wire; nothing human-readable may touch it.
    EngineKind engine;
    if (!ParseEngine(engine_name, &engine)) {
      std::fprintf(stderr, "--worker-shards needs a single engine, got '%s'\n",
                   engine_name.c_str());
      return 2;
    }
    return RunWorkerMode(engine, q, data, options, worker_shards,
                         worker_report);
  }

  std::printf("Q%d: %s\ndata: %s\n\n", q, hepq::queries::AdlQueryTitle(q),
              data.c_str());

  if (engine_name == "explain") {
    auto expr_plan = hepq::queries::BuildAdlEventQuery(q);
    expr_plan.status().Check();
    std::printf("%s\n", expr_plan->Explain().c_str());
    auto flat_plan = hepq::queries::BuildAdlFlatPipeline(q);
    if (flat_plan.ok()) {
      std::printf("%s", flat_plan->Explain().c_str());
    } else {
      std::printf("FlatPipeline: %s\n",
                  flat_plan.status().ToString().c_str());
    }
    return 0;
  }
  if (engine_name == "all") {
    for (const auto& e : kEngines) {
      if (procs > 1) {
        RunScatteredOne(argv[0], e.kind, e.cli_name, q, data, options, procs,
                        profile, /*suffix_outputs=*/true);
      } else {
        RunOne(e.kind, q, data, options, profile, /*suffix_outputs=*/true);
      }
    }
    return 0;
  }
  EngineKind engine;
  if (!ParseEngine(engine_name, &engine)) {
    std::fprintf(stderr, "unknown engine '%s'\n", engine_name.c_str());
    return 2;
  }
  if (procs > 1) {
    RunScatteredOne(argv[0], engine, engine_name, q, data, options, procs,
                    profile, /*suffix_outputs=*/false);
  } else {
    RunOne(engine, q, data, options, profile, /*suffix_outputs=*/false);
  }
  return 0;
}
