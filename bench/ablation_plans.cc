// Ablation bench for the design choices DESIGN.md calls out. Each section
// isolates ONE variable:
//   1. plan shape  — array expressions inside the scan (BigQuery shape)
//                    vs CROSS JOIN UNNEST + GROUP BY (Presto shape), both
//                    scanning with the SAME pushdown-enabled reader
//                    options on 1 thread;
//   2. struct projection pushdown — the same per-event plan through a
//                    reader with pushdown on vs off;
//   3. execution model — columnar expressions vs boxed items for the same
//                    query (Q1, where plan shape is trivial);
//   4. expression execution — per-row tree-walking interpretation vs the
//                    compiled, fused strip-mined kernels (engine/vexpr,
//                    engine/vexpr_fuse), same plans, bit-identical
//                    histograms;
//   5. predicate pushdown + late materialization — zone-map pruning on vs
//                    off for every query on every frontend;
//   6. layout optimization — the same queries against the generator-order
//                    file vs its laq_optimize rewrite (clustered events,
//                    advanced encodings, derived sizing), pruning on.
// Sections 4-6 double as the CI correctness gate: the process exits
// non-zero if any tier, pruning mode, or layout rewrite changes any
// histogram bit.

#include <cstdio>

#include "bench/bench_util.h"
#include "queries/adl.h"
#include "queries/builders.h"

using hepq::ReaderOptions;
using hepq::queries::BuildAdlEventQuery;
using hepq::queries::BuildAdlFlatPipeline;

namespace {

/// Exact (bitwise, not approximate) histogram equality — the contract
/// pruning must uphold.
bool BitIdentical(const hepq::Histogram1D& a, const hepq::Histogram1D& b) {
  if (a.num_entries() != b.num_entries()) return false;
  if (a.sum_weights() != b.sum_weights()) return false;
  if (a.underflow() != b.underflow() || a.overflow() != b.overflow()) {
    return false;
  }
  for (int i = 0; i < a.spec().num_bins; ++i) {
    if (a.BinContent(i) != b.BinContent(i)) return false;
  }
  return true;
}

}  // namespace

int main() {
  const int64_t events = hepq::bench::BenchEvents();
  const std::string path = hepq::bench::BenchDataset(events);

  hepq::bench::PrintHeaderLine(
      "Ablation 1: plan shape (same reader options, pushdown ON, 1 thread)");
  std::printf("%-6s %18s %18s %14s %18s\n", "Query", "expr-plan cpu[s]",
              "unnest-plan cpu[s]", "slowdown", "rows materialized");
  for (int q = 2; q <= 6; ++q) {
    auto expr_query = BuildAdlEventQuery(q);
    expr_query.status().Check();
    auto expr_result = expr_query->Execute(path, ReaderOptions{}, 1);
    expr_result.status().Check();

    auto flat_query = BuildAdlFlatPipeline(q);
    flat_query.status().Check();
    auto flat_result = flat_query->Execute(path, ReaderOptions{}, 1);
    flat_result.status().Check();

    std::printf("Q%-5d %18.4f %18.4f %13.1fx %18llu\n", q,
                expr_result->cpu_seconds, flat_result->cpu_seconds,
                flat_result->cpu_seconds /
                    std::max(1e-9, expr_result->cpu_seconds),
                static_cast<unsigned long long>(
                    flat_result->rows_materialized));
  }

  hepq::bench::PrintHeaderLine(
      "Ablation 2: struct projection pushdown (same per-event plan)");
  std::printf("%-6s %16s %16s %16s %16s\n", "Query", "on: cpu[s]",
              "off: cpu[s]", "on: bytes", "off: bytes");
  for (int q : {1, 4, 5}) {
    ReaderOptions with;
    with.struct_projection_pushdown = true;
    ReaderOptions without;
    without.struct_projection_pushdown = false;
    auto query = BuildAdlEventQuery(q);
    query.status().Check();
    auto on = query->Execute(path, with, 1);
    on.status().Check();
    auto off = query->Execute(path, without, 1);
    off.status().Check();
    std::printf("Q%-5d %16.4f %16.4f %16llu %16llu\n", q, on->cpu_seconds,
                off->cpu_seconds,
                static_cast<unsigned long long>(on->scan.storage_bytes),
                static_cast<unsigned long long>(off->scan.storage_bytes));
  }

  hepq::bench::PrintHeaderLine(
      "Ablation 3: columnar expressions vs boxed items (Q1)");
  {
    using hepq::queries::EngineKind;
    auto columnar =
        hepq::queries::RunAdlQuery(EngineKind::kBigQueryShape, 1, path);
    columnar.status().Check();
    auto boxed = hepq::queries::RunAdlQuery(EngineKind::kDoc, 1, path);
    boxed.status().Check();
    std::printf("columnar: %.4f s   boxed: %.4f s   (%.0fx)\n",
                columnar->cpu_seconds, boxed->cpu_seconds,
                boxed->cpu_seconds / std::max(1e-9, columnar->cpu_seconds));
  }

  hepq::bench::PrintHeaderLine(
      "Ablation 4: expression execution tier (interpret / simd, same plans)");
  int identity_failures = 0;
  {
    using hepq::engine::ExprTier;
    using hepq::queries::EngineKind;
    using hepq::queries::EngineKindName;
    using hepq::queries::RunAdlQuery;
    std::printf("%-6s %-14s %13s %13s %10s %10s\n", "Query", "engine",
                "interp[s]", "simd[s]", "int/simd", "identical");
    for (int q = 1; q <= hepq::queries::kNumAdlQueries; ++q) {
      for (EngineKind engine :
           {EngineKind::kBigQueryShape, EngineKind::kPrestoShape}) {
        hepq::queries::RunOptions options;
        options.expr_tier = ExprTier::kInterpret;
        auto interp = RunAdlQuery(engine, q, path, options);
        interp.status().Check();
        options.expr_tier = ExprTier::kSimd;
        auto simd = RunAdlQuery(engine, q, path, options);
        simd.status().Check();
        // The tier contract: both produce the same bits.
        bool identical =
            interp->histograms.size() == simd->histograms.size() &&
            interp->events_processed == simd->events_processed;
        for (size_t h = 0; identical && h < interp->histograms.size(); ++h) {
          identical = BitIdentical(interp->histograms[h], simd->histograms[h]);
        }
        if (!identical) ++identity_failures;
        std::printf("Q%-5d %-14s %13.4f %13.4f %9.1fx %10s\n", q,
                    EngineKindName(engine), interp->cpu_seconds,
                    simd->cpu_seconds,
                    interp->cpu_seconds / std::max(1e-9, simd->cpu_seconds),
                    identical ? "yes" : "NO");
      }
    }
  }

  hepq::bench::PrintHeaderLine(
      "Ablation 5: predicate pushdown + late materialization "
      "(zone-map pruning, all frontends)");
  {
    using hepq::queries::EngineKind;
    using hepq::queries::EngineKindName;
    using hepq::queries::RunAdlQuery;
    const EngineKind engines[] = {EngineKind::kRdf,
                                  EngineKind::kBigQueryShape,
                                  EngineKind::kPrestoShape, EngineKind::kDoc};
    hepq::bench::BenchJson json("ablation_plans");
    std::printf("%-6s %-10s %12s %12s %14s %14s %12s %10s\n", "Query",
                "engine", "on: cpu[s]", "off: cpu[s]", "on: decoded",
                "off: decoded", "rows pruned", "identical");
    for (int q = 1; q <= hepq::queries::kNumAdlQueries; ++q) {
      for (EngineKind engine : engines) {
        const hepq::queries::RunOptions with;  // pruning is the default
        hepq::queries::RunOptions without;
        without.scan_pushdown = false;
        without.late_materialization = false;
        auto on = RunAdlQuery(engine, q, path, with);
        on.status().Check();
        auto off = RunAdlQuery(engine, q, path, without);
        off.status().Check();
        bool identical = on->histograms.size() == off->histograms.size() &&
                         on->events_processed == off->events_processed;
        for (size_t h = 0; identical && h < on->histograms.size(); ++h) {
          identical = BitIdentical(on->histograms[h], off->histograms[h]);
        }
        if (!identical) ++identity_failures;
        std::printf("Q%-5d %-10s %12.4f %12.4f %14llu %14llu %12llu %10s\n",
                    q, EngineKindName(engine), on->cpu_seconds,
                    off->cpu_seconds,
                    static_cast<unsigned long long>(on->scan.decoded_bytes),
                    static_cast<unsigned long long>(off->scan.decoded_bytes),
                    static_cast<unsigned long long>(on->scan.rows_pruned),
                    identical ? "yes" : "NO");
        json.Add("Q" + std::to_string(q),
                 std::string(EngineKindName(engine)) + "+prune",
                 on->cpu_seconds, on->scan.storage_bytes,
                 on->scan.decoded_bytes, on->scan.rows_pruned);
        json.Add("Q" + std::to_string(q), EngineKindName(engine),
                 off->cpu_seconds, off->scan.storage_bytes,
                 off->scan.decoded_bytes, off->scan.rows_pruned);
      }
    }
    json.Write();
  }

  hepq::bench::PrintHeaderLine(
      "Ablation 6: layout optimization "
      "(laq_optimize rewrite vs generator order, pruning ON)");
  {
    using hepq::queries::EngineKind;
    using hepq::queries::EngineKindName;
    using hepq::queries::RunAdlQuery;
    const std::string optimized = hepq::bench::BenchOptimizedDataset(events);
    std::printf("%-6s %-10s %12s %12s %14s %14s %12s %10s\n", "Query",
                "engine", "orig cpu[s]", "opt cpu[s]", "orig decoded",
                "opt decoded", "groups skip", "identical");
    for (int q = 1; q <= hepq::queries::kNumAdlQueries; ++q) {
      for (EngineKind engine :
           {EngineKind::kRdf, EngineKind::kBigQueryShape}) {
        auto orig = RunAdlQuery(engine, q, path);
        orig.status().Check();
        auto opt = RunAdlQuery(engine, q, optimized);
        opt.status().Check();
        // The optimizer's contract: a rewritten layout is invisible in
        // every histogram bit, like the expression tier and pruning above.
        bool identical = orig->histograms.size() == opt->histograms.size() &&
                         orig->events_processed == opt->events_processed;
        for (size_t h = 0; identical && h < orig->histograms.size(); ++h) {
          identical = BitIdentical(orig->histograms[h], opt->histograms[h]);
        }
        if (!identical) ++identity_failures;
        std::printf("Q%-5d %-10s %12.4f %12.4f %14llu %14llu %12llu %10s\n",
                    q, EngineKindName(engine), orig->cpu_seconds,
                    opt->cpu_seconds,
                    static_cast<unsigned long long>(orig->scan.decoded_bytes),
                    static_cast<unsigned long long>(opt->scan.decoded_bytes),
                    static_cast<unsigned long long>(opt->scan.groups_pruned),
                    identical ? "yes" : "NO");
      }
    }
  }

  std::printf(
      "\nExpected: the unnest plan is slower than the expression plan and\n"
      "the gap explodes on Q6 (n^3 row materialization); pushdown-off\n"
      "multiplies bytes read without changing results; boxing costs one\n"
      "to two orders of magnitude even on the trivial query; the compiled\n"
      "expression tier pays off where per-event expression work is heavy\n"
      "(Q6's combination search), while scan-dominated queries\n"
      "and the unnest plan's materialization costs are unaffected by\n"
      "construction. Neither the tier (ablation 4) nor pruning (ablation\n"
      "5) nor the layout rewrite (ablation 6) may be visible in any\n"
      "histogram bit. The generator's unsorted data bounds what pruning\n"
      "can skip in ablation 5 — the decoded-byte deltas there come mostly\n"
      "from late materialization — while ablation 6 shows the same\n"
      "pushdown skipping whole row groups once laq_optimize has clustered\n"
      "events by the gated multiplicities (largest on Q5 and Q8).\n");
  if (identity_failures > 0) {
    std::fprintf(stderr,
                 "FAIL: %d run(s) broke bit-identity (expression tier or "
                 "pruning) — see 'NO' rows\n",
                 identity_failures);
    return 1;
  }
  return 0;
}
