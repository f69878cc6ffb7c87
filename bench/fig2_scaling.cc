// Regenerates Figure 2 of the paper: end-to-end running time as a
// function of the data-set size (subsets of 1000 * 2^i events). The local
// engines run for real at each size; the simulated wall time uses the
// paper's deployment models (m5d.12xlarge for RDataFrame, m5d.24xlarge
// for the other self-managed systems, elastic for QaaS), so the plateau
// behaviour produced by row-group-granular parallelism is visible.
//
// `--measured` switches to real scale-out runs instead of the simulator:
// a sharded dataset is generated once, each (query, procs) point runs the
// query through the multi-process scatter/gather coordinator (1 proc runs
// in-process), and the records — measured wall/cpu plus the simulator's
// wall for the same measured work as the reconciliation column — are
// written to BENCH_fig2.json.
//
//   fig2_scaling --measured [--shards=N] [--events-per-shard=M]
//                [--procs=1,2,4] [--threads=T] [--queries=1,4,5,6]
//                [--hepq-run=path] [--dir=data-dir]
//
// --hepq-run names the worker binary (default "tools/hepq_run", correct
// when invoked from the build directory).

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cloud/simulator.h"
#include "datagen/dataset.h"
#include "fileio/dataset_reader.h"
#include "queries/adl.h"
#include "scatter/scatter.h"

using hepq::DatasetSpec;
using hepq::EnsureDataset;
using hepq::cloud::CloudSystem;
using hepq::cloud::CloudSystemName;
using hepq::cloud::MeasuredQuery;
using hepq::cloud::SimulateOn;
using hepq::queries::EngineKind;
using hepq::queries::RunAdlQuery;

namespace {

/// The paper's row-group geometry: ~400k events per group. Scaled to the
/// bench data so small subsets stay single-group (the single-threaded
/// region of Figure 2) and large ones become parallel.
constexpr int64_t kRowGroupEvents = 4000;

struct SystemUnderTest {
  CloudSystem system;
  EngineKind engine;
  const char* instance;  // "" for QaaS
};

constexpr SystemUnderTest kSystems[] = {
    {CloudSystem::kBigQuery, EngineKind::kBigQueryShape, ""},
    {CloudSystem::kAthenaV1, EngineKind::kPrestoShape, ""},
    {CloudSystem::kAthenaV2, EngineKind::kPrestoShape, ""},
    {CloudSystem::kPresto, EngineKind::kPrestoShape, "m5d.24xlarge"},
    {CloudSystem::kRDataFrame, EngineKind::kRdf, "m5d.12xlarge"},
    {CloudSystem::kRumble, EngineKind::kDoc, "m5d.24xlarge"},
};

std::vector<int> ParseIntList(const char* csv) {
  std::vector<int> values;
  for (const char* p = csv; *p != '\0';) {
    values.push_back(std::atoi(p));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return values;
}

/// Real scale-out Figure 2: wall time vs process count over a sharded
/// dataset, with the cloud simulator run on the same measurement for
/// reconciliation (the simulator's scale-out model vs an actual fork).
int RunMeasured(int argc, char** argv) {
  hepq::ShardedDatasetSpec spec;
  spec.num_shards = 4;
  spec.events_per_shard = 0;  // derived below
  int threads = hepq::bench::ParseThreadsFlag(argc, argv, 1);
  std::vector<int> procs_list = {1, 2, 4};
  std::vector<int> queries = {1, 4, 5, 6};
  std::string hepq_run = "tools/hepq_run";
  std::string dir = hepq::DefaultDataDir();
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      spec.num_shards = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--events-per-shard=", 19) == 0) {
      spec.events_per_shard = std::atoll(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--procs=", 8) == 0) {
      procs_list = ParseIntList(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = ParseIntList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--hepq-run=", 11) == 0) {
      hepq_run = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    }
  }
  if (spec.num_shards < 1 || procs_list.empty() || queries.empty()) {
    std::fprintf(stderr, "--shards, --procs, --queries must be nonempty\n");
    return 2;
  }
  if (spec.events_per_shard <= 0) {
    spec.events_per_shard =
        std::max<int64_t>(1000, hepq::bench::BenchEvents(20000) /
                                    spec.num_shards);
  }
  spec.row_group_size = std::max<int64_t>(1000, spec.events_per_shard / 4);

  bool needs_worker_binary = false;
  for (int p : procs_list) needs_worker_binary |= p > 1;
  struct stat st;
  if (needs_worker_binary &&
      (::stat(hepq_run.c_str(), &st) != 0 || (st.st_mode & S_IXUSR) == 0)) {
    std::fprintf(stderr,
                 "error: worker binary '%s' not found; pass "
                 "--hepq-run=path/to/hepq_run\n",
                 hepq_run.c_str());
    return 2;
  }

  auto dataset = hepq::EnsureShardedDataset(dir, spec);
  dataset.status().Check();
  auto files = hepq::ListLaqFiles(*dataset);
  files.status().Check();
  const int row_groups =
      spec.num_shards * static_cast<int>((spec.events_per_shard +
                                          spec.row_group_size - 1) /
                                         spec.row_group_size);

  hepq::bench::PrintHeaderLine(
      "Figure 2 (measured): end-to-end running time vs process count "
      "(multi-process scatter/gather over a sharded dataset)");
  std::printf("dataset: %s (%d shards x %lld events, %d row groups)\n",
              dataset->c_str(), spec.num_shards,
              static_cast<long long>(spec.events_per_shard), row_groups);
  std::printf("threads per process: %d\n\n", threads);
  std::printf("%-5s %6s %8s %12s %12s %9s %14s\n", "Query", "procs",
              "threads", "wall [s]", "cpu [s]", "speedup", "sim wall [s]");

  hepq::bench::BenchJson json("fig2");
  for (int q : queries) {
    double base_wall = 0.0;
    for (int procs : procs_list) {
      const auto t0 = std::chrono::steady_clock::now();
      hepq::Result<hepq::queries::QueryRunOutput> out = [&] {
        if (procs <= 1) {
          hepq::queries::RunOptions options;
          options.num_threads = threads;
          return RunAdlQuery(EngineKind::kRdf, q, *dataset, options);
        }
        return hepq::scatter::RunScattered(
            *files, procs, [&](hepq::scatter::ShardRange range) {
              return std::vector<std::string>{
                  hepq_run, std::to_string(q), "rdf", "--data=" + *dataset,
                  "--threads=" + std::to_string(threads),
                  "--worker-shards=" + std::to_string(range.begin) + ":" +
                      std::to_string(range.end)};
            });
      }();
      out.status().Check();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      if (procs == procs_list.front()) base_wall = wall;
      const double speedup = wall > 0.0 ? base_wall / wall : 0.0;

      // Reconciliation: feed the same measured work into the cloud
      // simulator's RDataFrame deployment model. The simulator predicts
      // scale-out from row-group-granular parallelism; the measured wall
      // shows what a real fork/merge achieves on this host.
      MeasuredQuery measured;
      measured.cpu_seconds = out->cpu_seconds;
      measured.storage_bytes = out->scan.storage_bytes;
      measured.logical_bytes_bq = out->scan.logical_bytes_bq;
      measured.row_groups = row_groups;
      measured.events = out->events_processed;
      auto sim = SimulateOn(CloudSystem::kRDataFrame, measured,
                            "m5d.12xlarge");
      sim.status().Check();

      std::printf("Q%-4d %6d %8d %12.4f %12.4f %8.2fx %14.4f\n", q, procs,
                  threads, wall, out->cpu_seconds, speedup,
                  sim->wall_seconds);
      json.Record()
          .Str("query", "Q" + std::to_string(q))
          .Str("engine", "rdataframe")
          .Int("procs", procs)
          .Int("threads", threads)
          .Int("events", out->events_processed)
          .Num("wall_s", wall)
          .Num("cpu_s", out->cpu_seconds)
          .Num("speedup", speedup)
          .Num("sim_wall_s", sim->wall_seconds);
    }
    std::printf("\n");
  }
  json.Write();
  std::printf(
      "Reconciliation: measured wall should fall with procs until per-\n"
      "process shard counts stop shrinking (ranges differ by at most one\n"
      "shard), mirroring the simulator's row-group plateau; cpu stays\n"
      "~constant (same work, different partitioning).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--measured") == 0) {
      return RunMeasured(argc, argv);
    }
  }
  const int64_t max_events = hepq::bench::BenchEvents(32000);

  hepq::bench::PrintHeaderLine(
      "Figure 2: impact of data size on end-to-end running time "
      "(simulated deployments driven by measured runs)");
  std::printf("row group size: %lld events\n\n",
              static_cast<long long>(kRowGroupEvents));
  std::printf("%-5s %-12s %12s %10s %14s %12s\n", "Query", "System",
              "events", "groups", "sim wall [s]", "meas cpu [s]");

  std::vector<int64_t> sizes;
  for (int64_t n = 1000; n < max_events; n *= 2) sizes.push_back(n);
  sizes.push_back(max_events);

  // Like the paper, heavy query/system combinations are bounded: the doc
  // engine (Rumble stand-in) only runs the largest sizes for cheap
  // queries.
  const int queries[] = {1, 4, 5, 6};
  for (int q : queries) {
    for (const SystemUnderTest& sut : kSystems) {
      for (int64_t n : sizes) {
        if (sut.engine == EngineKind::kDoc && q == 6 && n > 8000) {
          continue;  // paper: Rumble Q6 capped and extrapolated
        }
        DatasetSpec spec;
        spec.num_events = n;
        spec.row_group_size = std::min<int64_t>(kRowGroupEvents, n);
        auto path = EnsureDataset(hepq::DefaultDataDir(), spec);
        path.status().Check();
        auto result = RunAdlQuery(sut.engine, q, *path);
        result.status().Check();

        MeasuredQuery measured;
        measured.cpu_seconds = result->cpu_seconds;
        measured.storage_bytes = result->scan.storage_bytes;
        measured.logical_bytes_bq = result->scan.logical_bytes_bq;
        measured.row_groups = static_cast<int>(
            (n + spec.row_group_size - 1) / spec.row_group_size);
        measured.events = n;
        auto outcome = SimulateOn(sut.system, measured, sut.instance);
        outcome.status().Check();
        std::printf("Q%-4d %-12s %12lld %10d %14.4f %12.4f\n", q,
                    CloudSystemName(sut.system), static_cast<long long>(n),
                    measured.row_groups, outcome->wall_seconds,
                    result->cpu_seconds);
      }
      std::printf("\n");
    }
  }

  std::printf(
      "Expected shape (paper Figure 2): running time grows with size while\n"
      "the data fits one row group (single-threaded region), then\n"
      "plateaus once parallelization across row groups kicks in; QaaS\n"
      "systems stay essentially flat; self-managed systems rise again\n"
      "when there are more row groups than cores; Athena v2 beats v1 on\n"
      "every query, most visibly on the complex ones (paper: Q6/Q8).\n");
  return 0;
}
