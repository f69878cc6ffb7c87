#ifndef HEPQUERY_BENCH_BENCH_UTIL_H_
#define HEPQUERY_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cloud/simulator.h"
#include "datagen/dataset.h"
#include "queries/adl.h"

namespace hepq::bench {

/// Number of events the benchmark data set holds. The paper's data set has
/// ~53.4 M events in 128 row groups; benchmarks here default to a scaled
/// replica (HEPQ_BENCH_EVENTS to override) and extrapolate measured CPU
/// and IO to the full size when simulating cloud deployments, exactly like
/// the paper extrapolated its Presto Q6 and Rumble runs (§4.1).
inline int64_t BenchEvents(int64_t default_events = 20000) {
  const char* env = std::getenv("HEPQ_BENCH_EVENTS");
  if (env != nullptr && env[0] != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return v;
  }
  return default_events;
}

inline constexpr int64_t kPaperEvents = 53446198;
inline constexpr int kPaperRowGroups = 128;

/// Generates (or reuses) the benchmark data set and returns its path.
inline std::string BenchDataset(int64_t events) {
  DatasetSpec spec;
  spec.num_events = events;
  // Keep the paper's geometry: events / row-group ratio such that the
  // full data set would have ~128 groups, but at least 4 groups locally.
  spec.row_group_size = std::max<int64_t>(1000, events / 4);
  auto path = EnsureDataset(DefaultDataDir(), spec);
  path.status().Check();
  return *path;
}

/// The layout-optimized rewrite of BenchDataset (cached next to it).
inline std::string BenchOptimizedDataset(int64_t events) {
  DatasetSpec spec;
  spec.num_events = events;
  spec.row_group_size = std::max<int64_t>(1000, events / 4);
  auto path = EnsureOptimizedDataset(DefaultDataDir(), spec);
  path.status().Check();
  return *path;
}

/// Scales a local measurement up to the paper's data-set size so the
/// cloud simulation sees full-size work (documented in the bench output).
inline cloud::MeasuredQuery ExtrapolateToPaperSize(
    const queries::QueryRunOutput& output) {
  cloud::MeasuredQuery measured;
  const double scale =
      static_cast<double>(kPaperEvents) /
      static_cast<double>(std::max<int64_t>(1, output.events_processed));
  measured.cpu_seconds = output.cpu_seconds * scale;
  measured.storage_bytes =
      static_cast<uint64_t>(output.scan.storage_bytes * scale);
  measured.logical_bytes_bq =
      static_cast<uint64_t>(output.scan.logical_bytes_bq * scale);
  measured.row_groups = kPaperRowGroups;
  measured.events = kPaperEvents;
  return measured;
}

/// Parses `--threads=N` from the command line (default 1). Engine runs
/// then scan row groups with N workers of the shared pool. On the 1-core
/// bench host this exercises the parallel runtime's correctness and
/// scheduling, not speedup; multi-core wall times for the figures still
/// come from the cloud simulator's scaling model, which `--threads` lets
/// you cross-check against real multi-core runs on bigger hosts.
inline int ParseThreadsFlag(int argc, char** argv, int default_threads = 1) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      const int v = std::atoi(arg + 10);
      if (v > 0) return v;
    }
  }
  return default_threads;
}

/// Parses `--vexpr-tier=interpret|simd` (default simd) — the
/// expression-execution tier for the bigquery/presto plan shapes. Exits
/// with a message on a bad tier name so typos cannot silently benchmark
/// the wrong tier.
inline engine::ExprTier ParseExprTierFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--vexpr-tier=", 13) == 0) {
      engine::ExprTier tier;
      if (!engine::ParseExprTier(arg + 13, &tier)) {
        std::fprintf(stderr, "--vexpr-tier must be interpret or simd\n");
        std::exit(2);
      }
      return tier;
    }
  }
  return engine::ExprTier::kSimd;
}

inline void PrintHeaderLine(const char* title) {
  std::printf("\n%s\n", title);
  for (const char* p = title; *p != '\0'; ++p) std::printf("=");
  std::printf("\n");
}

/// Accumulates benchmark records and writes them as `BENCH_<name>.json`
/// in the working directory — the machine-readable companion of the
/// printed tables, uploaded as a CI artifact by the bench-smoke job.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& query, const std::string& engine, double cpu_s,
           uint64_t bytes_scanned, uint64_t bytes_decoded,
           uint64_t rows_pruned) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s  {\"query\": \"%s\", \"engine\": \"%s\", "
                  "\"cpu_s\": %.6f, \"bytes_scanned\": %llu, "
                  "\"bytes_decoded\": %llu, \"rows_pruned\": %llu}",
                  records_.empty() ? "" : ",\n", query.c_str(),
                  engine.c_str(), cpu_s,
                  static_cast<unsigned long long>(bytes_scanned),
                  static_cast<unsigned long long>(bytes_decoded),
                  static_cast<unsigned long long>(rows_pruned));
    records_ += buf;
  }

  /// Expression-tier record: one (kernel, tier) measurement from the
  /// micro-benchmarks. ns_per_row is the normalized cost; fused_coverage
  /// is the fraction of source VOps absorbed into superinstructions
  /// (simd tier only, 0 otherwise). CI compares the interpret/simd
  /// ns_per_row ratio against bench/baselines/micro_kernels_tiers.json.
  void AddTier(const std::string& kernel, const std::string& tier,
               double ns_per_row, double vops_per_row,
               double fused_coverage) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s  {\"kernel\": \"%s\", \"tier\": \"%s\", "
                  "\"ns_per_row\": %.3f, \"vops_per_row\": %.2f, "
                  "\"fused_coverage\": %.4f}",
                  records_.empty() ? "" : ",\n", kernel.c_str(),
                  tier.c_str(), ns_per_row, vops_per_row, fused_coverage);
    records_ += buf;
  }

  /// Scale-out record: one (query, procs, threads) measurement from a
  /// real multi-process run, with the cloud simulator's wall time for the
  /// same measured work as the reconciliation column. CI gates the shape
  /// of these records in BENCH_fig2.json.
  void AddScaling(const std::string& query, const std::string& engine,
                  int procs, int threads, int64_t events, double wall_s,
                  double cpu_s, double speedup, double sim_wall_s) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s  {\"query\": \"%s\", \"engine\": \"%s\", "
                  "\"procs\": %d, \"threads\": %d, \"events\": %lld, "
                  "\"wall_s\": %.6f, \"cpu_s\": %.6f, \"speedup\": %.4f, "
                  "\"sim_wall_s\": %.6f}",
                  records_.empty() ? "" : ",\n", query.c_str(),
                  engine.c_str(), procs, threads,
                  static_cast<long long>(events), wall_s, cpu_s, speedup,
                  sim_wall_s);
    records_ += buf;
  }

  /// Cache-warmth record: one full 8-query suite pass under a given cache
  /// state. `warm_speedup` is cold wall / this pass's wall (1.0 for the
  /// cold pass itself). CI gates warm passes on decoded_bytes == 0 and
  /// warm_speedup >= 2 in BENCH_cache.json.
  void AddCachePass(const std::string& label, int pass, double wall_s,
                    uint64_t decoded_bytes, uint64_t cache_bytes_served,
                    uint64_t chunk_cache_hits, uint64_t footer_cache_hits,
                    int result_cache_hits, double warm_speedup) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s  {\"label\": \"%s\", \"pass\": %d, "
                  "\"wall_s\": %.6f, \"decoded_bytes\": %llu, "
                  "\"cache_bytes_served\": %llu, \"chunk_cache_hits\": %llu, "
                  "\"footer_cache_hits\": %llu, \"result_cache_hits\": %d, "
                  "\"warm_speedup\": %.4f}",
                  records_.empty() ? "" : ",\n", label.c_str(), pass, wall_s,
                  static_cast<unsigned long long>(decoded_bytes),
                  static_cast<unsigned long long>(cache_bytes_served),
                  static_cast<unsigned long long>(chunk_cache_hits),
                  static_cast<unsigned long long>(footer_cache_hits),
                  result_cache_hits, warm_speedup);
    records_ += buf;
  }

  /// Writes the accumulated records; returns false (with a message on
  /// stderr) if the file cannot be created.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "[\n%s\n]\n", records_.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string records_;
};

}  // namespace hepq::bench

#endif  // HEPQUERY_BENCH_BENCH_UTIL_H_
