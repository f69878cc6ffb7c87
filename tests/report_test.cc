// End-to-end reconciliation tests: a RunReport built from a traced query
// run must agree EXACTLY with the engine's own ScanStats / QueryRunOutput
// totals — for every benchmark query on every frontend. The trace is an
// attribution of the run, not a second measurement; any drift between the
// two would mean double-counted or lost work.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "datagen/dataset.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/adl.h"

namespace hepq::obs {
namespace {

using queries::EngineKind;
using queries::EngineKindName;
using queries::QueryRunOutput;
using queries::RunAdlQuery;

/// Shared small data set (same geometry as queries_test: 3 row groups).
const std::string& TestDataset() {
  static const auto& path = *new std::string([] {
    DatasetSpec spec;
    spec.num_events = 6000;
    spec.row_group_size = 2000;
    return EnsureDataset(::testing::TempDir() + "/hepq_report", spec)
        .ValueOrDie();
  }());
  return path;
}

struct TracedRun {
  QueryRunOutput output;
  RunReport report;
  SessionCapture capture;
};

/// Share of the `run` span's thread CPU that its direct child spans cover.
/// Unlike the wall-based span_coverage(), preemption cannot lower it: a
/// descheduled thread accrues CPU neither inside nor outside a span.
double RunCpuCoverage(const SessionCapture& capture) {
  int64_t run_cpu = 0;
  int64_t child_cpu = 0;
  for (const SpanRecord& run : capture.spans) {
    if (run.stage != Stage::kRun) continue;
    run_cpu += run.cpu_ns;
    for (const SpanRecord& span : capture.spans) {
      if (span.thread_index == run.thread_index &&
          span.depth == run.depth + 1 && span.start_ns >= run.start_ns &&
          span.end_ns <= run.end_ns) {
        child_cpu += span.cpu_ns;
      }
    }
  }
  return run_cpu > 0 ? static_cast<double>(child_cpu) /
                           static_cast<double>(run_cpu)
                     : 0.0;
}

TracedRun RunTraced(EngineKind engine, int q, int threads) {
  queries::RunOptions options;
  options.num_threads = threads;
  TraceSession session;
  session.Start();
  auto result = RunAdlQuery(engine, q, TestDataset(), options);
  session.Stop();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunInfo info;
  info.query = std::string("Q") + std::to_string(q);
  info.engine = EngineKindName(engine);
  info.threads = threads;
  info.events_processed = result->events_processed;
  info.wall_seconds = result->wall_seconds;
  info.cpu_seconds = result->cpu_seconds;
  TracedRun run;
  run.capture = CaptureSession(session);
  run.report = BuildRunReport(run.capture, info, result->scan);
  run.output = std::move(*result);
  return run;
}

constexpr EngineKind kEngines[] = {
    EngineKind::kRdf, EngineKind::kBigQueryShape, EngineKind::kPrestoShape,
    EngineKind::kDoc};

/// The Figure-4 quantities in the report reconcile exactly with the
/// engine's own totals, for all 8 queries x 4 frontends.
class ReportReconciliation : public ::testing::TestWithParam<int> {};

TEST_P(ReportReconciliation, Figure4QuantitiesMatchEngineTotals) {
  const int q = GetParam();
  for (EngineKind engine : kEngines) {
    SCOPED_TRACE(std::string("Q") + std::to_string(q) + " on " +
                 EngineKindName(engine));
    const TracedRun run = RunTraced(engine, q, /*threads=*/1);
    const RunReport& report = run.report;
    const QueryRunOutput& output = run.output;

    // Headline totals are bit-copies of the engine result.
    EXPECT_EQ(report.info.events_processed, output.events_processed);
    EXPECT_EQ(report.scan.decoded_bytes, output.scan.decoded_bytes);
    EXPECT_EQ(report.scan.storage_bytes, output.scan.storage_bytes);
    EXPECT_EQ(report.cpu_ns(),
              static_cast<int64_t>(std::llround(output.cpu_seconds * 1e9)));

    // Decode spans attribute every decoded byte: their byte payloads sum
    // to ScanStats::decoded_bytes exactly (deltas of the same counter).
    uint64_t decode_span_bytes = 0;
    for (const StageSummary& stage : report.stages) {
      if (stage.stage == Stage::kDecode) decode_span_bytes += stage.bytes;
    }
    EXPECT_EQ(decode_span_bytes, output.scan.decoded_bytes);

    // The per-leaf breakdown partitions the same totals.
    uint64_t leaf_decoded = 0, leaf_storage = 0;
    for (const LeafScanStats& leaf : output.scan.leaves) {
      leaf_decoded += leaf.decoded_bytes;
      leaf_storage += leaf.storage_bytes;
    }
    EXPECT_EQ(leaf_decoded, output.scan.decoded_bytes);
    EXPECT_EQ(leaf_storage, output.scan.storage_bytes);

    // Derived Figure-4 rates are consistent with the totals they quote.
    if (output.events_processed > 0) {
      const double events = static_cast<double>(output.events_processed);
      EXPECT_DOUBLE_EQ(report.decoded_bytes_per_event(),
                       static_cast<double>(output.scan.decoded_bytes) /
                           events);
      EXPECT_DOUBLE_EQ(report.storage_bytes_per_event(),
                       static_cast<double>(output.scan.storage_bytes) /
                           events);
      EXPECT_NEAR(report.cpu_ns_per_event() * events,
                  static_cast<double>(report.cpu_ns()), 1.0 * events);
    }
    if (output.cpu_seconds > 0) {
      EXPECT_DOUBLE_EQ(report.events_per_sec_per_core(),
                       static_cast<double>(output.events_processed) /
                           output.cpu_seconds);
    }

    // Cost-model inputs feed the cloud simulator the same numbers.
    EXPECT_DOUBLE_EQ(report.cost_inputs.cpu_seconds, output.cpu_seconds);
    EXPECT_EQ(report.cost_inputs.storage_bytes, output.scan.storage_bytes);
    EXPECT_EQ(report.cost_inputs.logical_bytes_bq,
              output.scan.logical_bytes_bq);
    EXPECT_EQ(report.cost_inputs.events, output.events_processed);

    // Trace structure: one run root whose children cover most of its CPU.
    EXPECT_GT(report.run_span_ns, 0);
    EXPECT_GT(report.total_span_ns, 0);
    EXPECT_GT(RunCpuCoverage(run.capture), 0.5)
        << "top-level spans cover too little of the run";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ReportReconciliation,
                         ::testing::Range(1, 9));

TEST(ReportReconciliationTest, ParallelRunReconcilesToo) {
  const TracedRun run = RunTraced(EngineKind::kRdf, 6, /*threads=*/4);
  uint64_t decode_span_bytes = 0;
  for (const StageSummary& stage : run.report.stages) {
    if (stage.stage == Stage::kDecode) decode_span_bytes += stage.bytes;
  }
  EXPECT_EQ(decode_span_bytes, run.output.scan.decoded_bytes);
  // 3 row groups -> up to 3 workers busy; every group accounted once.
  int64_t groups = 0;
  for (const WorkerSummary& worker : run.report.workers) {
    groups += worker.row_groups;
  }
  EXPECT_EQ(groups, 3);
  EXPECT_EQ(run.report.cost_inputs.row_groups, 3);
}

TEST(ReportJsonSchemaTest, RequiredKeysPresent) {
  const TracedRun run = RunTraced(EngineKind::kBigQueryShape, 5, 1);
  const std::string json = ReportToJson(run.report);
  for (const char* key :
       {"\"schema_version\":5", "\"query\":\"Q5\"",
        "\"cache\"", "\"footer_hits\"", "\"chunk_hits\"",
        "\"cache_bytes_served\"", "\"consumed_bytes\"",
        "\"engine\":\"bigquery-shape\"", "\"events_processed\"",
        "\"cpu_ns\"", "\"wall_ns\"", "\"run_span_ns\"", "\"span_coverage\"",
        "\"figure4\"", "\"cpu_ns_per_event\"", "\"decoded_bytes_per_event\"",
        "\"events_per_sec_per_core\"", "\"expr_vm\"", "\"vops_per_event\"",
        "\"fused_coverage\"", "\"scan\"", "\"decoded_bytes\"",
        "\"stages\"", "\"workers\"", "\"stragglers\"", "\"per_leaf\"",
        "\"counters\"", "\"cost_inputs\"", "\"processes\"", "\"partial\"",
        "\"warnings\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(ReportExprVmTest, DispatchOverheadDerivedFromKernelCounters) {
  // The default tier is simd, so a traced run retires VOps through the
  // fused kernels: the derived dispatch-overhead quantities must be
  // populated and the coverage a genuine fraction.
  const TracedRun run = RunTraced(EngineKind::kBigQueryShape, 5, 1);
  EXPECT_GT(run.report.vops_per_event(), 0.0);
  EXPECT_GT(run.report.vexpr_fused_coverage(), 0.0);
  EXPECT_LE(run.report.vexpr_fused_coverage(), 1.0);
}

TEST(ReportTableTest, ProfileTableShowsStagesWorkersAndLeaves) {
  const TracedRun run = RunTraced(EngineKind::kRdf, 5, 1);
  const std::string table = ReportToTable(run.report);
  EXPECT_NE(table.find("profile: rdataframe Q5"), std::string::npos);
  EXPECT_NE(table.find("decode"), std::string::npos);
  EXPECT_NE(table.find("row_group"), std::string::npos);
  EXPECT_NE(table.find("w0"), std::string::npos);
  EXPECT_NE(table.find("MET.pt"), std::string::npos);  // per-leaf row
}

// A scatter coordinator builds reports from captures it decoded off the
// wire, so worker ids need not be small or dense: each distinct id (any
// negative one counts as w0) yields one summary, with no work per unused
// id in between.
TEST(ReportWorkersTest, SparseWorkerIdsYieldOneSummaryEach) {
  SessionCapture capture;
  capture.start_ns = 0;
  capture.stop_ns = 1000;
  for (int32_t worker : {2147483647, -5, 0, 2147483647}) {
    SpanRecord span;
    span.name = "row_group";
    span.stage = Stage::kRowGroup;
    span.start_ns = 100 * static_cast<int64_t>(capture.spans.size());
    span.end_ns = span.start_ns + 50;
    span.worker = worker;
    span.seq = static_cast<uint32_t>(capture.spans.size());
    capture.spans.push_back(span);
  }
  const RunReport report = BuildRunReport(capture, RunInfo{}, ScanStats{});
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_EQ(report.workers[0].worker, 0);
  EXPECT_EQ(report.workers[0].row_groups, 2);
  EXPECT_EQ(report.workers[1].worker, 2147483647);
  EXPECT_EQ(report.workers[1].row_groups, 2);
  EXPECT_EQ(report.workers[1].busy_ns, 100);
}

TEST(ScanStatsTest, AddMergesLeavesAcrossReaders) {
  // Per-leaf stats merge by path — the laq_inspect-style breakdown
  // surfaces from N per-worker readers exactly as from one.
  ScanStats a, b;
  a.decoded_bytes = 100;
  a.leaves.push_back(LeafScanStats{"MET.pt", /*storage=*/40,
                                   /*decoded=*/100, 2, 1, 0});
  b.decoded_bytes = 70;
  b.leaves.push_back(LeafScanStats{"Muon.pt", /*storage=*/10,
                                   /*decoded=*/30, 1, 0, 0});
  b.leaves.push_back(LeafScanStats{"MET.pt", /*storage=*/20,
                                   /*decoded=*/40, 1, 1, 0});
  a.Add(b);
  EXPECT_EQ(a.decoded_bytes, 170u);
  ASSERT_EQ(a.leaves.size(), 2u);
  EXPECT_EQ(a.leaves[0].path, "MET.pt");
  EXPECT_EQ(a.leaves[0].decoded_bytes, 140u);
  EXPECT_EQ(a.leaves[0].storage_bytes, 60u);
  EXPECT_EQ(a.leaves[0].chunks_read, 3u);
  EXPECT_EQ(a.leaves[1].path, "Muon.pt");
  EXPECT_EQ(a.leaves[1].decoded_bytes, 30u);
}

TEST(ScanStatsTest, ResetKeepsLeafSlotsButZeroesCounters) {
  ScanStats stats;
  stats.decoded_bytes = 5;
  stats.leaves.push_back(LeafScanStats{"MET.pt", /*storage=*/2,
                                       /*decoded=*/5, 1, 0, 0});
  stats.Reset();
  EXPECT_EQ(stats.decoded_bytes, 0u);
  ASSERT_EQ(stats.leaves.size(), 1u);  // slot survives (no realloc)
  EXPECT_EQ(stats.leaves[0].path, "MET.pt");
  EXPECT_EQ(stats.leaves[0].decoded_bytes, 0u);
}

}  // namespace
}  // namespace hepq::obs
