#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "core/physics.h"
#include "engine/flat.h"
#include "fileio/writer.h"

namespace hepq::engine {
namespace {

/// Writes a three-event file:
///   event 0: MET 10; jets (pt): 50, 10, 45
///   event 1: MET 20; jets: 20
///   event 2: MET 30; jets: (none)
const std::string& TinyFile() {
  static const auto& path = *new std::string([] {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"MET", DataType::Struct({{"pt", DataType::Float32()}})},
        {"Jet", DataType::List(DataType::Struct(
                    {{"pt", DataType::Float32()},
                     {"eta", DataType::Float32()}}))},
    });
    auto met = StructArray::Make({{"pt", DataType::Float32()}},
                                 {MakeFloat32Array({10, 20, 30})})
                   .ValueOrDie();
    auto jets = MakeListOfStructArray(
                    {{"pt", DataType::Float32()},
                     {"eta", DataType::Float32()}},
                    {0, 3, 4, 4},
                    {MakeFloat32Array({50, 10, 45, 20}),
                     MakeFloat32Array({0.5f, -2.0f, 1.5f, 0.0f})})
                    .ValueOrDie();
    auto batch = RecordBatch::Make(schema, {met, jets}).ValueOrDie();
    const std::string file = ::testing::TempDir() + "/flat_tiny.laq";
    WriteLaqFile(file, schema, {RecordBatchPtr(batch)}).Check();
    return file;
  }());
  return path;
}

/// Runs `pipeline` single-threaded over `path`.
Result<FlatQueryResult> Scan(const FlatPipeline& pipeline,
                             const std::string& path = TinyFile()) {
  return pipeline.Execute(path, ReaderOptions{}, /*num_threads=*/1);
}

TEST(FlatPipelineTest, NoUnnestFillsPerEvent) {
  FlatPipeline pipeline("q1");
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddHistogram({"met", "", 10, 0, 100}, FlatCol("MET.pt"));
  auto result = Scan(pipeline).ValueOrDie();
  EXPECT_EQ(result.events_processed, 3);
  EXPECT_EQ(result.rows_materialized, 3u);
  EXPECT_EQ(result.histograms[0].num_entries(), 3u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 20.0);
}

TEST(FlatPipelineTest, UnnestDropsParticleFreeEvents) {
  FlatPipeline pipeline("unnest");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddHistogram({"pt", "", 10, 0, 100}, FlatCol("j.pt"));
  auto result = Scan(pipeline).ValueOrDie();
  // Inner-join semantics of CROSS JOIN UNNEST: event 2 vanishes.
  EXPECT_EQ(result.rows_materialized, 4u);
  EXPECT_EQ(result.histograms[0].num_entries(), 4u);
}

TEST(FlatPipelineTest, FilterThenProjectInRegistrationOrder) {
  FlatPipeline pipeline("chain");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddFilter(FlatGt(FlatCol("j.pt"), FlatLit(15.0)));
  pipeline.AddProject("double_pt",
                      FlatBin(BinOp::kMul, FlatCol("j.pt"), FlatLit(2.0)));
  pipeline.AddFilter(FlatLt(FlatCol("double_pt"), FlatLit(95.0)));
  pipeline.AddHistogram({"pt", "", 10, 0, 200}, FlatCol("double_pt"));
  auto result = Scan(pipeline).ValueOrDie();
  // 50, 45, 20 pass the first filter; doubled: 100, 90, 40; < 95: 90, 40.
  EXPECT_EQ(result.histograms[0].num_entries(), 2u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 65.0);
}

TEST(FlatPipelineTest, GroupByEventAggregates) {
  FlatPipeline pipeline("agg");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kSum, "j.pt", "", "sum"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMin, "j.pt", "", "lo"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMax, "j.pt", "", "hi"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kMinBy, "j.pt", "j.idx", "first_jet_pt"});
  // One histogram per aggregate output to observe each value.
  pipeline.AddHistogram({"n", "", 10, 0, 10}, FlatCol("n"));
  pipeline.AddHistogram({"sum", "", 10, 0, 200}, FlatCol("sum"));
  pipeline.AddHistogram({"met", "", 10, 0, 100}, FlatCol("met"));
  pipeline.AddHistogram({"fj", "", 10, 0, 100}, FlatCol("first_jet_pt"));
  auto result = Scan(pipeline).ValueOrDie();
  EXPECT_EQ(result.groups, 2);  // events 0 and 1
  // n: {3, 1} -> mean 2; sum: {105, 20}; met: {10, 20};
  // min_by idx -> first jet pt {50, 20}.
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 2.0);
  EXPECT_DOUBLE_EQ(result.histograms[1].mean(), 62.5);
  EXPECT_DOUBLE_EQ(result.histograms[2].mean(), 15.0);
  EXPECT_DOUBLE_EQ(result.histograms[3].mean(), 35.0);
}

TEST(FlatPipelineTest, HavingFiltersGroups) {
  FlatPipeline pipeline("having");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
  pipeline.AddHaving(FlatGe(FlatCol("n"), FlatLit(2.0)));
  pipeline.AddHistogram({"met", "", 10, 0, 100}, FlatCol("met"));
  auto result = Scan(pipeline).ValueOrDie();
  EXPECT_EQ(result.histograms[0].num_entries(), 1u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 10.0);
}

TEST(FlatPipelineTest, SelfJoinProducesFullProduct) {
  FlatPipeline pipeline("pairs");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "a"});
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "b"});
  pipeline.AddHistogram({"x", "", 10, 0, 200},
                        FlatBin(BinOp::kAdd, FlatCol("a.pt"),
                                FlatCol("b.pt")));
  auto result = Scan(pipeline).ValueOrDie();
  // Full Cartesian product per event: 3*3 + 1*1 = 10 rows (the plan-shape
  // cost the WHERE idx filter would then cut down).
  EXPECT_EQ(result.rows_materialized, 10u);
}

TEST(FlatPipelineTest, OrdinalsAreZeroBasedPerEvent) {
  FlatPipeline pipeline("ord");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddFilter(FlatBin(BinOp::kEq, FlatCol("j.idx"), FlatLit(0.0)));
  pipeline.AddHistogram({"lead", "", 10, 0, 100}, FlatCol("j.pt"));
  auto result = Scan(pipeline).ValueOrDie();
  // Leading jets: 50 (event 0) and 20 (event 1).
  EXPECT_EQ(result.histograms[0].num_entries(), 2u);
  EXPECT_DOUBLE_EQ(result.histograms[0].mean(), 35.0);
}

TEST(FlatPipelineTest, UnknownColumnFailsAtPreparation) {
  FlatPipeline pipeline("bad");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
  pipeline.AddHistogram({"x", "", 10, 0, 1}, FlatCol("j.nope"));
  EXPECT_EQ(Scan(pipeline).status().code(),
            StatusCode::kKeyError);
}

TEST(FlatPipelineTest, HavingWithoutAggregatesIsInvalid) {
  FlatPipeline pipeline("bad");
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddHaving(FlatGt(FlatCol("MET.pt"), FlatLit(0.0)));
  pipeline.AddHistogram({"x", "", 10, 0, 1}, FlatCol("MET.pt"));
  EXPECT_EQ(Scan(pipeline).status().code(),
            StatusCode::kInvalid);
}

TEST(FlatPipelineTest, ProjectionCoversUnnestsAndScalars) {
  FlatPipeline pipeline("proj");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt", "eta"}, "j"});
  pipeline.AddKeepScalar("MET.pt");
  EXPECT_EQ(pipeline.Projection(),
            (std::vector<std::string>{"Jet.pt", "Jet.eta", "MET.pt"}));
}

// ---------------------------------------------------------------------------
// Unnest emitter edge cases. The emitter writes each run of the innermost
// list column-at-a-time and cuts runs at chunk flushes (32768 rows); these
// tests pin the materialized row/cell counts, compare every flat column with
// a brute-force nested-loop oracle filled in the same row order, and check
// that both expression tiers agree bit for bit.
// ---------------------------------------------------------------------------

/// Per-event list lengths of the edge-case file. Event 0 has 40 jets, so a
/// Jet x Jet x Jet product emits 64000 rows and one inner run straddles the
/// first chunk flush; events 1-3 have an empty list in the first, middle and
/// last position of a Jet x Muon x Electron product.
constexpr uint32_t kJets[] = {40, 0, 2, 3, 2, 1};
constexpr uint32_t kMuons[] = {2, 1, 0, 1, 3, 1};
constexpr uint32_t kElectrons[] = {1, 1, 2, 0, 2, 1};
constexpr int kEdgeEvents = 6;

/// Member values, as functions of (event, element) so the oracle can
/// recompute them. Jet carries float32 / int32 / bool members, Electron a
/// float64 one; MET.pt is a float64 event scalar.
float JetPt(int e, uint32_t k) { return 10.0f + 0.25f * k + e; }
int32_t JetId(int e, uint32_t k) { return static_cast<int32_t>(k % 7) - 3 + e; }
uint8_t JetGood(int, uint32_t k) { return k % 3 == 0 ? 1 : 0; }
float MuonPt(int e, uint32_t k) { return 5.5f + k + 0.125f * e; }
double ElectronPt(int e, uint32_t k) { return 7.0 + 1.0 / (k + 3) + e; }
double MetPt(int e) { return 100.0 + 0.5 * e; }

std::vector<uint32_t> Offsets(const uint32_t* lengths) {
  std::vector<uint32_t> offsets{0};
  for (int e = 0; e < kEdgeEvents; ++e) {
    offsets.push_back(offsets.back() + lengths[e]);
  }
  return offsets;
}

const std::string& EdgeFile() {
  static const auto& path = *new std::string([] {
    const std::vector<Field> jet_fields = {{"pt", DataType::Float32()},
                                           {"id", DataType::Int32()},
                                           {"good", DataType::Bool()}};
    const std::vector<Field> muon_fields = {{"pt", DataType::Float32()}};
    const std::vector<Field> ele_fields = {{"pt", DataType::Float64()}};
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"MET", DataType::Struct({{"pt", DataType::Float64()}})},
        {"Jet", DataType::List(DataType::Struct(jet_fields))},
        {"Muon", DataType::List(DataType::Struct(muon_fields))},
        {"Electron", DataType::List(DataType::Struct(ele_fields))},
    });
    std::vector<double> met;
    std::vector<float> jpt, mpt;
    std::vector<int32_t> jid;
    std::vector<uint8_t> jgood;
    std::vector<double> ept;
    for (int e = 0; e < kEdgeEvents; ++e) {
      met.push_back(MetPt(e));
      for (uint32_t k = 0; k < kJets[e]; ++k) {
        jpt.push_back(JetPt(e, k));
        jid.push_back(JetId(e, k));
        jgood.push_back(JetGood(e, k));
      }
      for (uint32_t k = 0; k < kMuons[e]; ++k) mpt.push_back(MuonPt(e, k));
      for (uint32_t k = 0; k < kElectrons[e]; ++k) {
        ept.push_back(ElectronPt(e, k));
      }
    }
    auto met_col = StructArray::Make({{"pt", DataType::Float64()}},
                                     {MakeFloat64Array(std::move(met))})
                       .ValueOrDie();
    auto jets = MakeListOfStructArray(jet_fields, Offsets(kJets),
                                      {MakeFloat32Array(std::move(jpt)),
                                       MakeInt32Array(std::move(jid)),
                                       MakeBoolArray(std::move(jgood))})
                    .ValueOrDie();
    auto muons = MakeListOfStructArray(muon_fields, Offsets(kMuons),
                                       {MakeFloat32Array(std::move(mpt))})
                     .ValueOrDie();
    auto electrons =
        MakeListOfStructArray(ele_fields, Offsets(kElectrons),
                              {MakeFloat64Array(std::move(ept))})
            .ValueOrDie();
    auto batch =
        RecordBatch::Make(schema, {met_col, jets, muons, electrons})
            .ValueOrDie();
    const std::string file = ::testing::TempDir() + "/flat_edges.laq";
    WriteLaqFile(file, schema, {RecordBatchPtr(batch)}).Check();
    return file;
  }());
  return path;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameParts(const Histogram1D& got, const Histogram1D& want) {
  SCOPED_TRACE(want.spec().name);
  const HistogramParts g = got.ToParts();
  const HistogramParts w = want.ToParts();
  EXPECT_EQ(g.num_entries, w.num_entries);
  EXPECT_EQ(Bits(g.sum_w), Bits(w.sum_w));
  EXPECT_EQ(Bits(g.sum_wx), Bits(w.sum_wx));
  EXPECT_EQ(Bits(g.sum_wx2), Bits(w.sum_wx2));
  EXPECT_EQ(Bits(g.underflow), Bits(w.underflow));
  EXPECT_EQ(Bits(g.overflow), Bits(w.overflow));
  EXPECT_EQ(g.bins, w.bins);
}

/// Runs `pipeline` on the edge-case file under both expression tiers,
/// checks they agree bit for bit, and returns the simd result.
FlatQueryResult RunBothTiers(FlatPipeline* pipeline) {
  pipeline->set_expr_tier(ExprTier::kInterpret);
  const FlatQueryResult interpreted =
      Scan(*pipeline, EdgeFile()).ValueOrDie();
  pipeline->set_expr_tier(ExprTier::kSimd);
  FlatQueryResult compiled = Scan(*pipeline, EdgeFile()).ValueOrDie();
  EXPECT_EQ(compiled.rows_materialized, interpreted.rows_materialized);
  EXPECT_EQ(compiled.cells_materialized, interpreted.cells_materialized);
  EXPECT_EQ(compiled.groups, interpreted.groups);
  EXPECT_EQ(compiled.histograms.size(), interpreted.histograms.size());
  for (size_t h = 0; h < compiled.histograms.size(); ++h) {
    ExpectSameParts(compiled.histograms[h], interpreted.histograms[h]);
  }
  return compiled;
}

/// A histogram over one flat column; the pipeline and the oracle fill the
/// same spec, so a misplaced or misconverted column shows up in the moments.
struct ColumnFill {
  std::string column;
  HistogramSpec spec;
};

TEST(FlatEmitterTest, RunSplitAcrossChunkFlushMatchesOracle) {
  FlatPipeline pipeline("jet3");
  for (const char* alias : {"a", "b", "c"}) {
    pipeline.AddUnnest(UnnestList{"Jet", {"pt", "id", "good"}, alias});
  }
  const std::vector<ColumnFill> fills = {
      {"__event", {"event", "", 8, 0, 8}},
      {"a.idx", {"a.idx", "", 50, 0, 50}},
      {"a.pt", {"a.pt", "", 40, 0, 40}},
      {"b.idx", {"b.idx", "", 50, 0, 50}},
      {"b.id", {"b.id", "", 20, -10, 10}},
      {"c.idx", {"c.idx", "", 50, 0, 50}},
      {"c.pt", {"c.pt", "", 40, 0, 40}},
      {"c.id", {"c.id", "", 20, -10, 10}},
      {"c.good", {"c.good", "", 2, 0, 2}},
  };
  for (const ColumnFill& f : fills) {
    pipeline.AddHistogram(f.spec, FlatCol(f.column));
  }
  // A fingerprint of the three ordinals: exact in doubles, unique per row.
  pipeline.AddHistogram(
      {"ord", "", 100, 0, 64000},
      FlatBin(BinOp::kAdd, FlatCol("a.idx"),
              FlatBin(BinOp::kAdd,
                      FlatBin(BinOp::kMul, FlatCol("b.idx"), FlatLit(40.0)),
                      FlatBin(BinOp::kMul, FlatCol("c.idx"),
                              FlatLit(1600.0)))));
  const FlatQueryResult result = RunBothTiers(&pipeline);

  // 40^3 + 0 + 2^3 + 3^3 + 2^3 + 1^3 rows; 1 + 3 * (1 + 3) base columns.
  EXPECT_EQ(result.rows_materialized, 64044u);
  EXPECT_EQ(result.cells_materialized, 64044u * 13u);
  EXPECT_EQ(result.events_processed, kEdgeEvents);

  std::vector<Histogram1D> want;
  for (const ColumnFill& f : fills) want.emplace_back(f.spec);
  want.emplace_back(result.histograms.back().spec());
  for (int e = 0; e < kEdgeEvents; ++e) {
    const uint32_t n = kJets[e];
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = 0; j < n; ++j) {
        for (uint32_t k = 0; k < n; ++k) {
          const double row[] = {static_cast<double>(e),
                                static_cast<double>(i),
                                JetPt(e, i),
                                static_cast<double>(j),
                                static_cast<double>(JetId(e, j)),
                                static_cast<double>(k),
                                JetPt(e, k),
                                static_cast<double>(JetId(e, k)),
                                static_cast<double>(JetGood(e, k))};
          for (size_t f = 0; f < fills.size(); ++f) want[f].Fill(row[f]);
          want.back().Fill(i + (j * 40.0 + k * 1600.0));
        }
      }
    }
  }
  ASSERT_EQ(result.histograms.size(), want.size());
  for (size_t h = 0; h < want.size(); ++h) {
    ExpectSameParts(result.histograms[h], want[h]);
  }
}

TEST(FlatEmitterTest, GroupByEventSpansChunkFlushes) {
  // Q6's shape: the i<j<k restriction in WHERE, GROUP BY event over the
  // survivors. Event 0's 9880 surviving rows come from a 64000-row product
  // that crosses two chunk flushes, so one group is fed by three chunks.
  FlatPipeline pipeline("trijet");
  for (const char* alias : {"a", "b", "c"}) {
    pipeline.AddUnnest(UnnestList{"Jet", {"pt", "id"}, alias});
  }
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddFilter(FlatAnd(FlatLt(FlatCol("a.idx"), FlatCol("b.idx")),
                             FlatLt(FlatCol("b.idx"), FlatCol("c.idx"))));
  pipeline.AddProject("sum_pt",
                      FlatBin(BinOp::kAdd,
                              FlatBin(BinOp::kAdd, FlatCol("a.pt"),
                                      FlatCol("b.pt")),
                              FlatCol("c.pt")));
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kSum, "sum_pt", "", "s"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kMinBy, "c.id", "sum_pt", "id_at_min"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
  pipeline.AddHistogram({"n", "", 100, 0, 10000}, FlatCol("n"));
  pipeline.AddHistogram({"s", "", 100, 0, 1e6}, FlatCol("s"));
  pipeline.AddHistogram({"id", "", 20, -10, 10}, FlatCol("id_at_min"));
  pipeline.AddHistogram({"met", "", 10, 100, 105}, FlatCol("met"));
  const FlatQueryResult result = RunBothTiers(&pipeline);

  // 1 + 3 * (1 + 2) + 1 base columns.
  EXPECT_EQ(result.rows_materialized, 64044u);
  EXPECT_EQ(result.cells_materialized, 64044u * 11u);
  // Events with at least three jets: 0 and 3.
  EXPECT_EQ(result.groups, 2);

  Histogram1D n(result.histograms[0].spec());
  Histogram1D s(result.histograms[1].spec());
  Histogram1D id(result.histograms[2].spec());
  Histogram1D met(result.histograms[3].spec());
  for (int e = 0; e < kEdgeEvents; ++e) {
    double count = 0.0, sum = 0.0, best = 0.0;
    double best_key = std::numeric_limits<double>::infinity();
    const uint32_t jets = kJets[e];
    for (uint32_t i = 0; i < jets; ++i) {
      for (uint32_t j = i + 1; j < jets; ++j) {
        for (uint32_t k = j + 1; k < jets; ++k) {
          const double key =
              (static_cast<double>(JetPt(e, i)) + JetPt(e, j)) + JetPt(e, k);
          count += 1.0;
          sum += key;
          if (key < best_key) {
            best_key = key;
            best = JetId(e, k);
          }
        }
      }
    }
    if (count == 0.0) continue;
    n.Fill(count);
    s.Fill(sum);
    id.Fill(best);
    met.Fill(MetPt(e));
  }
  EXPECT_EQ(result.histograms[0].mean(), (9880.0 + 1.0) / 2.0);
  ExpectSameParts(result.histograms[0], n);
  ExpectSameParts(result.histograms[1], s);
  ExpectSameParts(result.histograms[2], id);
  ExpectSameParts(result.histograms[3], met);
}

TEST(FlatEmitterTest, EmptyListInAnyUnnestPositionEmitsNothing) {
  FlatPipeline pipeline("mixed");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt", "good"}, "j"});
  pipeline.AddUnnest(UnnestList{"Muon", {"pt"}, "m"});
  pipeline.AddUnnest(UnnestList{"Electron", {"pt"}, "e"});
  pipeline.AddKeepScalar("MET.pt");
  const std::vector<ColumnFill> fills = {
      {"__event", {"event", "", 8, 0, 8}},
      {"j.idx", {"j.idx", "", 50, 0, 50}},
      {"j.pt", {"j.pt", "", 40, 0, 40}},
      {"j.good", {"j.good", "", 2, 0, 2}},
      {"m.idx", {"m.idx", "", 4, 0, 4}},
      {"m.pt", {"m.pt", "", 20, 0, 20}},
      {"e.idx", {"e.idx", "", 4, 0, 4}},
      {"e.pt", {"e.pt", "", 20, 0, 20}},
      {"MET.pt", {"met", "", 10, 100, 105}},
  };
  for (const ColumnFill& f : fills) {
    pipeline.AddHistogram(f.spec, FlatCol(f.column));
  }
  const FlatQueryResult result = RunBothTiers(&pipeline);

  // Events 1, 2 and 3 have an empty Jet, Muon and Electron list
  // respectively and emit nothing: 40*2*1 + 2*3*2 + 1*1*1 rows over
  // 1 + (1 + 2) + (1 + 1) + (1 + 1) + 1 = 9 base columns.
  EXPECT_EQ(result.rows_materialized, 93u);
  EXPECT_EQ(result.cells_materialized, 93u * 9u);

  std::vector<Histogram1D> want;
  for (const ColumnFill& f : fills) want.emplace_back(f.spec);
  for (int e = 0; e < kEdgeEvents; ++e) {
    for (uint32_t j = 0; j < kJets[e]; ++j) {
      for (uint32_t m = 0; m < kMuons[e]; ++m) {
        for (uint32_t x = 0; x < kElectrons[e]; ++x) {
          const double row[] = {static_cast<double>(e),
                                static_cast<double>(j),
                                JetPt(e, j),
                                static_cast<double>(JetGood(e, j)),
                                static_cast<double>(m),
                                MuonPt(e, m),
                                static_cast<double>(x),
                                ElectronPt(e, x),
                                MetPt(e)};
          for (size_t f = 0; f < fills.size(); ++f) want[f].Fill(row[f]);
        }
      }
    }
  }
  for (size_t h = 0; h < want.size(); ++h) {
    ExpectSameParts(result.histograms[h], want[h]);
  }
}

TEST(FlatEmitterTest, ZeroUnnestEmitsOneRowPerEvent) {
  FlatPipeline pipeline("events");
  pipeline.AddKeepScalar("MET.pt");
  pipeline.AddFilter(FlatGt(FlatCol("MET.pt"), FlatLit(100.75)));
  pipeline.AddHistogram({"met", "", 10, 100, 105}, FlatCol("MET.pt"));
  pipeline.AddHistogram({"event", "", 8, 0, 8}, FlatCol("__event"));
  const FlatQueryResult result = RunBothTiers(&pipeline);

  // One row per event over {__event, MET.pt}, empty particle lists or not.
  EXPECT_EQ(result.rows_materialized, 6u);
  EXPECT_EQ(result.cells_materialized, 12u);
  Histogram1D met(result.histograms[0].spec());
  Histogram1D event(result.histograms[1].spec());
  for (int e = 0; e < kEdgeEvents; ++e) {
    if (!(MetPt(e) > 100.75)) continue;
    met.Fill(MetPt(e));
    event.Fill(e);
  }
  EXPECT_EQ(result.histograms[0].num_entries(), 4u);
  ExpectSameParts(result.histograms[0], met);
  ExpectSameParts(result.histograms[1], event);
}

// ---------------------------------------------------------------------------
// Projection runs. The simd tier compiles each maximal run of consecutive
// projections into one multi-result program (shared subexpressions, later
// projections reading earlier results from registers); these pin that
// against the interpreter and a brute-force oracle, bit for bit.
// ---------------------------------------------------------------------------

/// A (pt, eta, phi, mass) quad built from the edge file's Jet members, so
/// the kinematic calls see varied, exactly reproducible inputs.
std::vector<FlatExprPtr> JetQuad(const std::string& alias) {
  return {FlatCol(alias + ".pt"),
          FlatBin(BinOp::kMul, FlatCol(alias + ".id"), FlatLit(0.25)),
          FlatBin(BinOp::kSub, FlatCol(alias + ".good"), FlatLit(0.5)),
          FlatBin(BinOp::kMul, FlatCol(alias + ".pt"), FlatLit(0.125))};
}

PtEtaPhiM OracleJet(int e, uint32_t k) {
  const double pt = JetPt(e, k);
  return {pt, JetId(e, k) * 0.25, JetGood(e, k) - 0.5, pt * 0.125};
}

TEST(FlatProjectionRunTest, LaterProjectionsReadEarlierResultsOfTheRun) {
  // One run: m3 and pt3 share the three jets' Cartesian components, b
  // reads m3 and c reads b — from registers, not stale chunk columns. The
  // fills follow the run directly (ungrouped).
  FlatPipeline pipeline("run");
  for (const char* alias : {"a", "b", "c"}) {
    pipeline.AddUnnest(UnnestList{"Jet", {"pt", "id", "good"}, alias});
  }
  pipeline.AddFilter(FlatAnd(FlatLt(FlatCol("a.idx"), FlatCol("b.idx")),
                             FlatLt(FlatCol("b.idx"), FlatCol("c.idx"))));
  std::vector<FlatExprPtr> trijet = JetQuad("a");
  for (const char* alias : {"b", "c"}) {
    const std::vector<FlatExprPtr> q = JetQuad(alias);
    trijet.insert(trijet.end(), q.begin(), q.end());
  }
  pipeline.AddProject("m3", FlatCall(Fn::kInvMass3, trijet));
  pipeline.AddProject("pt3", FlatCall(Fn::kSumPt3, trijet));
  pipeline.AddProject("b", FlatBin(BinOp::kMul, FlatCol("m3"), FlatLit(2.0)));
  pipeline.AddProject("c",
                      FlatBin(BinOp::kAdd, FlatCol("b"), FlatCol("a.pt")));
  const std::vector<ColumnFill> fills = {
      {"m3", {"m3", "", 50, 0, 150}},
      {"pt3", {"pt3", "", 50, 0, 100}},
      {"b", {"b", "", 50, 0, 300}},
      {"c", {"c", "", 50, 0, 350}},
  };
  for (const ColumnFill& f : fills) {
    pipeline.AddHistogram(f.spec, FlatCol(f.column));
  }
  const FlatQueryResult result = RunBothTiers(&pipeline);

  std::vector<Histogram1D> want;
  for (const ColumnFill& f : fills) want.emplace_back(f.spec);
  for (int e = 0; e < kEdgeEvents; ++e) {
    const uint32_t n = kJets[e];
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        for (uint32_t k = j + 1; k < n; ++k) {
          const PtEtaPhiM a = OracleJet(e, i), b = OracleJet(e, j),
                          c = OracleJet(e, k);
          const double m3 = InvariantMass3(a, b, c);
          want[0].Fill(m3);
          want[1].Fill(AddPtEtaPhiM3(a, b, c).pt);
          want[2].Fill(m3 * 2.0);
          want[3].Fill(m3 * 2.0 + static_cast<double>(JetPt(e, i)));
        }
      }
    }
  }
  EXPECT_EQ(result.histograms[0].num_entries(), 9880u + 1u);
  for (size_t h = 0; h < want.size(); ++h) {
    ExpectSameParts(result.histograms[h], want[h]);
  }
}

TEST(FlatProjectionRunTest, FilterSplitsRunsAndLaterRunsReadScatteredResults) {
  // Two runs split by a filter: the second run reads the first's columns
  // through the narrowed selection (scattered to their row positions), and
  // the GROUP BY consumes both.
  FlatPipeline pipeline("split");
  pipeline.AddUnnest(UnnestList{"Jet", {"pt", "id"}, "a"});
  pipeline.AddUnnest(UnnestList{"Jet", {"pt", "id"}, "b"});
  pipeline.AddProject("s", FlatBin(BinOp::kAdd, FlatCol("a.pt"),
                                   FlatCol("b.pt")));
  pipeline.AddProject("d", FlatBin(BinOp::kMul, FlatCol("s"), FlatLit(0.5)));
  pipeline.AddFilter(FlatGt(FlatCol("d"), FlatLit(16.0)));
  pipeline.AddProject("x", FlatBin(BinOp::kSub, FlatCol("d"),
                                   FlatCol("a.pt")));
  pipeline.AddProject("f", FlatBin(BinOp::kAdd,
                                   FlatBin(BinOp::kMul, FlatCol("x"),
                                           FlatCol("x")),
                                   FlatCol("s")));
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kCount, "", "", "n"});
  pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kSum, "f", "", "sum_f"});
  pipeline.AddAggregate(
      FlatAggSpec{FlatAggKind::kMinBy, "x", "f", "x_at_min"});
  pipeline.AddHistogram({"n", "", 100, 0, 2000}, FlatCol("n"));
  pipeline.AddHistogram({"sum_f", "", 100, 0, 1e6}, FlatCol("sum_f"));
  pipeline.AddHistogram({"x", "", 40, -10, 10}, FlatCol("x_at_min"));
  const FlatQueryResult result = RunBothTiers(&pipeline);

  Histogram1D n(result.histograms[0].spec());
  Histogram1D sum_f(result.histograms[1].spec());
  Histogram1D x_at_min(result.histograms[2].spec());
  for (int e = 0; e < kEdgeEvents; ++e) {
    double count = 0.0, sum = 0.0, best = 0.0;
    double best_key = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < kJets[e]; ++i) {
      for (uint32_t j = 0; j < kJets[e]; ++j) {
        const double s =
            static_cast<double>(JetPt(e, i)) + static_cast<double>(JetPt(e, j));
        const double d = s * 0.5;
        if (!(d > 16.0)) continue;
        const double x = d - static_cast<double>(JetPt(e, i));
        const double f = x * x + s;
        count += 1.0;
        sum += f;
        if (f < best_key) {
          best_key = f;
          best = x;
        }
      }
    }
    if (count == 0.0) continue;
    n.Fill(count);
    sum_f.Fill(sum);
    x_at_min.Fill(best);
  }
  EXPECT_GT(result.groups, 0);
  ExpectSameParts(result.histograms[0], n);
  ExpectSameParts(result.histograms[1], sum_f);
  ExpectSameParts(result.histograms[2], x_at_min);
}

TEST(FlatPipelineTest, WrongCallArityFailsAtPreparationOnBothTiers) {
  // 13 arguments used to overflow FlatCallExpr::Eval's 12-slot buffer and
  // too few read uninitialized lanes; Resolve now rejects both, in every
  // expression position and on both tiers, before any row is read.
  const auto cols = [](size_t n) {
    return std::vector<FlatExprPtr>(n, FlatCol("j.pt"));
  };
  for (const ExprTier tier : {ExprTier::kInterpret, ExprTier::kSimd}) {
    for (int where = 0; where < 3; ++where) {
      SCOPED_TRACE(std::string(ExprTierName(tier)) + " position " +
                   std::to_string(where));
      FlatPipeline pipeline("arity");
      pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
      if (where == 0) {
        pipeline.AddProject("m", FlatCall(Fn::kInvMass3, cols(13)));
      } else if (where == 1) {
        pipeline.AddFilter(FlatGt(FlatCall(Fn::kDeltaR, {}), FlatLit(0.0)));
      }
      pipeline.AddHistogram(
          {"x", "", 10, 0, 1},
          where == 2 ? FlatCall(Fn::kSumPt3, cols(11)) : FlatCol("j.pt"));
      pipeline.set_expr_tier(tier);
      const auto result = Scan(pipeline);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalid);
      EXPECT_NE(result.status().ToString().find("arguments, got"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace hepq::engine
