#ifndef HEPQUERY_BENCH_BENCH_UTIL_H_
#define HEPQUERY_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>

#include "cloud/simulator.h"
#include "core/json.h"
#include "datagen/dataset.h"
#include "obs/report.h"
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
/// then scan row groups with N workers of the shared pool, which on a
/// multi-core host measures real speedup. The figures' cloud-deployment
/// wall times still come from the cloud simulator's scaling model, which
/// `--threads` lets you cross-check against these measured runs.
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
/// in the working directory: a JSON array of flat records, the
/// machine-readable companion of the printed tables, uploaded as a CI
/// artifact by the bench-smoke job. CI's jq gates and bench_diff read the
/// records' fields by name.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// Starts one record; its fields are written through the returned
  /// scope (chained: `json.Record().Str("query", q).Num("cpu_s", s);`),
  /// which closes the record when it is destroyed.
  json::JsonScope Record() {
    return json::JsonScope::Object(&records_.emplace_back());
  }

  /// Writes the accumulated records; returns false (with a message on
  /// stderr) if the file cannot be created or written in full.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::string doc;
    {
      auto array = json::JsonScope::Array(&doc);
      // One record per line, so the files diff line by line.
      for (const std::string& record : records_) {
        array.Sep()->append("\n").append(record);
      }
    }
    doc.push_back('\n');
    const Status written = obs::WriteTextFile(path, doc);
    if (!written.ok()) {
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  /// One rendered record each; a deque so a record's open scope keeps
  /// its string when the next record is started.
  std::deque<std::string> records_;
};

}  // namespace hepq::bench

#endif  // HEPQUERY_BENCH_BENCH_UTIL_H_
