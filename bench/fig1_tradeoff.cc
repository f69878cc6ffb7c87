// Regenerates Figure 1 of the paper: the running-time / cost trade-off of
// every system on every ADL query. Each engine is executed for real on the
// local data set (with --threads=N workers of the shared execution
// runtime, default 1); the measured CPU seconds and scanned bytes are
// extrapolated to the paper's 53.4M-event data set and fed into the cloud
// deployment simulator (instances, elasticity, contention, pricing — see
// src/cloud/simulator.h and DESIGN.md). Multi-core scaling in the figure
// is the simulator's model; a real multi-core --threads run on a bigger
// host cross-checks it without replacing it.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "cloud/simulator.h"
#include "queries/adl.h"

using hepq::cloud::CloudSystem;
using hepq::cloud::CloudSystemName;
using hepq::cloud::InstanceType;
using hepq::cloud::IsQaas;
using hepq::cloud::M5dInstances;
using hepq::cloud::MeasuredQuery;
using hepq::cloud::SimulateOn;
using hepq::queries::EngineKind;
using hepq::queries::RunAdlQuery;

namespace {

EngineKind MeasurementEngine(CloudSystem system) {
  switch (system) {
    case CloudSystem::kBigQuery:
    case CloudSystem::kBigQueryExternal:
      return EngineKind::kBigQueryShape;
    case CloudSystem::kAthenaV1:
    case CloudSystem::kAthenaV2:
    case CloudSystem::kPresto:
      return EngineKind::kPrestoShape;
    case CloudSystem::kRDataFrame:
      return EngineKind::kRdf;
    case CloudSystem::kRumble:
      return EngineKind::kDoc;
  }
  return EngineKind::kRdf;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = hepq::bench::ParseThreadsFlag(argc, argv);
  const int64_t events = hepq::bench::BenchEvents();
  const std::string path = hepq::bench::BenchDataset(events);

  hepq::bench::PrintHeaderLine(
      "Figure 1: running time / cost trade-off (simulated deployments "
      "driven by measured engine runs)");
  std::printf(
      "local measurement: %lld events, --threads=%d; extrapolated to %lld "
      "events / %d row groups as in the paper\n"
      "(multi-core wall times below come from the simulator's scaling "
      "model; --threads > 1 measures real multi-core CPU seconds to "
      "cross-check it, results are bit-identical to 1 thread)\n\n",
      static_cast<long long>(events), threads,
      static_cast<long long>(hepq::bench::kPaperEvents),
      hepq::bench::kPaperRowGroups);

  const CloudSystem systems[] = {
      CloudSystem::kBigQuery,   CloudSystem::kBigQueryExternal,
      CloudSystem::kAthenaV2,   CloudSystem::kPresto,
      CloudSystem::kRDataFrame, CloudSystem::kRumble,
  };

  // Measure each engine once per query, shared across systems.
  hepq::queries::RunOptions run_options;
  run_options.num_threads = threads;
  std::map<int, hepq::queries::QueryRunOutput> measured_by_engine[8 + 1];
  for (int q = 1; q <= 8; ++q) {
    for (EngineKind engine :
         {EngineKind::kRdf, EngineKind::kBigQueryShape,
          EngineKind::kPrestoShape, EngineKind::kDoc}) {
      auto result = RunAdlQuery(engine, q, path, run_options);
      result.status().Check();
      measured_by_engine[q][static_cast<int>(engine)] = std::move(*result);
    }
  }

  std::printf("%-5s %-14s %-14s %12s %14s %10s\n", "Query", "System",
              "Instance", "wall [s]", "cost [USD]", "workers");
  for (int q = 1; q <= 8; ++q) {
    for (CloudSystem system : systems) {
      const auto& output =
          measured_by_engine[q][static_cast<int>(MeasurementEngine(system))];
      const MeasuredQuery measured =
          hepq::bench::ExtrapolateToPaperSize(output);
      if (IsQaas(system)) {
        auto outcome = SimulateOn(system, measured, "");
        outcome.status().Check();
        std::printf("Q%-4d %-14s %-14s %12.2f %14.6f %10d\n", q,
                    CloudSystemName(system), "(elastic)",
                    outcome->wall_seconds, outcome->cost_usd,
                    outcome->workers);
      } else {
        for (const InstanceType& instance : M5dInstances()) {
          auto outcome = SimulateOn(system, measured, instance.name);
          outcome.status().Check();
          std::printf("Q%-4d %-14s %-14s %12.2f %14.6f %10d\n", q,
                      CloudSystemName(system), instance.name.c_str(),
                      outcome->wall_seconds, outcome->cost_usd,
                      outcome->workers);
        }
      }
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape (paper Figure 1): the paper finds BigQuery fastest\n"
      "on every query and ~2x faster pre-loaded than external. This\n"
      "simulator does not reproduce that ranking: its BigQuery model pays\n"
      "a ~1.5 s start-up the self-managed model does not, so RDataFrame's\n"
      "best wall time comes first on every query, by 2-4x on Q1-Q5, Q7\n"
      "and Q8 and by ~10%% on compute-bound Q6. Also expected: RDataFrame\n"
      "the cheapest for Q1-Q5 with its best wall time at an intermediate\n"
      "instance size (lock contention beyond ~16 threads); Presto slower\n"
      "than the QaaS systems but cost-competitive; Rumble one to two\n"
      "orders of magnitude slower and the most expensive; Q6 dominates\n"
      "every system's runtime.\n");
  return 0;
}
