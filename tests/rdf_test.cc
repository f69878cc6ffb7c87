#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "datagen/dataset.h"
#include "fileio/writer.h"
#include "rdf/rdf.h"

namespace hepq {
namespace {

using rdf::EventView;
using rdf::RDataFrame;

class RdfTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec;
    spec.num_events = 4000;
    spec.row_group_size = 1000;
    path_ = new std::string(
        EnsureDataset(::testing::TempDir() + "/hepq_rdf", spec)
            .ValueOrDie());
  }

  static std::unique_ptr<RDataFrame> Open(int threads = 1) {
    rdf::RdfOptions options;
    options.num_threads = threads;
    return RDataFrame::Open(*path_, options).ValueOrDie();
  }

  static std::string* path_;
};

std::string* RdfTest::path_ = nullptr;

TEST_F(RdfTest, OpenExposesShape) {
  auto df = Open();
  EXPECT_EQ(df->total_rows(), 4000);
  EXPECT_EQ(df->num_row_groups(), 4);
}

TEST_F(RdfTest, ScalarDeclarationErrors) {
  auto df = Open();
  EXPECT_FALSE(df->Scalar<float>("nope").ok());
  EXPECT_FALSE(df->Scalar<float>("MET.nope").ok());
  // Wrong type.
  EXPECT_EQ(df->Scalar<double>("MET.pt").status().code(),
            StatusCode::kTypeError);
  // Nested column without member.
  EXPECT_FALSE(df->Scalar<float>("MET").ok());
  // Particle leaf declared as scalar.
  EXPECT_FALSE(df->Scalar<float>("Jet.pt").ok());
  EXPECT_FALSE(df->Particles<float>("MET.pt").ok());
}

TEST_F(RdfTest, DuplicateDeclarationSharesSlot) {
  auto df = Open();
  auto a = df->Scalar<float>("MET.pt").ValueOrDie();
  auto b = df->Scalar<float>("MET.pt").ValueOrDie();
  EXPECT_EQ(a.slot, b.slot);
}

TEST_F(RdfTest, CountAllEvents) {
  auto df = Open();
  auto count = df->root().Count();
  ASSERT_TRUE(df->Run().ok());
  EXPECT_EQ(df->GetCount(count), 4000);
}

TEST_F(RdfTest, ChainedFiltersIntersect) {
  auto df = Open();
  auto met = df->Scalar<float>("MET.pt").ValueOrDie();
  auto all = df->root().Count();
  auto low =
      df->root().Filter([met](const EventView& e) { return e.Get(met) < 30; });
  auto low_count = low.Count();
  auto band = low.Filter([met](const EventView& e) { return e.Get(met) > 10; });
  auto band_count = band.Count();
  ASSERT_TRUE(df->Run().ok());
  EXPECT_EQ(df->GetCount(all), 4000);
  EXPECT_GT(df->GetCount(low_count), 0);
  EXPECT_LE(df->GetCount(band_count), df->GetCount(low_count));
  EXPECT_LT(df->GetCount(low_count), 4000);
}

TEST_F(RdfTest, SiblingBranchesAreIndependent) {
  auto df = Open();
  auto met = df->Scalar<float>("MET.pt").ValueOrDie();
  auto lo = df->root()
                .Filter([met](const EventView& e) { return e.Get(met) < 20; })
                .Count();
  auto hi = df->root()
                .Filter([met](const EventView& e) { return e.Get(met) >= 20; })
                .Count();
  ASSERT_TRUE(df->Run().ok());
  EXPECT_EQ(df->GetCount(lo) + df->GetCount(hi), 4000);
}

TEST_F(RdfTest, DefineIsCachedPerEvent) {
  auto df = Open();
  auto met = df->Scalar<float>("MET.pt").ValueOrDie();
  int calls = 0;
  auto define = df->Define("expensive", [met, &calls](const EventView& e) {
    ++calls;
    return e.Get(met) * 2.0;
  });
  // Two consumers of the define on the same node.
  auto h1 = df->root().Histo1D({"h1", "", 10, 0, 400},
                               [define](const EventView& e) {
                                 return e.Get(define);
                               });
  auto h2 = df->root().Histo1D({"h2", "", 10, 0, 400},
                               [define](const EventView& e) {
                                 return e.Get(define);
                               });
  ASSERT_TRUE(df->Run().ok());
  EXPECT_EQ(calls, 4000);  // once per event, not twice
  EXPECT_EQ(df->GetHistogram(h1).num_entries(), 4000u);
  EXPECT_TRUE(
      df->GetHistogram(h1).ApproxEquals(df->GetHistogram(h2)));
}

TEST_F(RdfTest, VectorHistogramFillsPerElement) {
  auto df = Open();
  auto jet_pt = df->Particles<float>("Jet.pt").ValueOrDie();
  auto h = df->root().Histo1DVec({"jets", "", 50, 0, 200},
                                 [jet_pt](const EventView& e) {
                                   const auto pts = e.Get(jet_pt);
                                   return rdf::RVecD(pts.begin(), pts.end());
                                 });
  auto count = df->root().Count();
  ASSERT_TRUE(df->Run().ok());
  EXPECT_GT(df->GetHistogram(h).num_entries(),
            static_cast<uint64_t>(df->GetCount(count)));
}

TEST_F(RdfTest, MultiThreadedMatchesSingleThreaded) {
  auto run = [&](int threads) {
    auto df = Open(threads);
    auto met = df->Scalar<float>("MET.pt").ValueOrDie();
    auto jet_pt = df->Particles<float>("Jet.pt").ValueOrDie();
    auto selected = df->root().Filter([jet_pt](const EventView& e) {
      int n = 0;
      for (float pt : e.Get(jet_pt)) {
        if (pt > 40) ++n;
      }
      return n >= 2;
    });
    auto h = selected.Histo1D({"met", "", 100, 0, 200},
                              [met](const EventView& e) {
                                return e.Get(met);
                              });
    auto c = selected.Count();
    EXPECT_TRUE(df->Run().ok());
    return std::make_pair(df->GetHistogram(h), df->GetCount(c));
  };
  const auto [h1, c1] = run(1);
  const auto [h3, c3] = run(3);
  EXPECT_EQ(c1, c3);
  EXPECT_TRUE(h1.ApproxEquals(h3));
}

// Stronger than ApproxEquals: per-row-group accumulation + ordered merge
// make results bit-identical for any worker count, and the filter
// cutflow (the Table 2 op counters) identical too.
TEST_F(RdfTest, ThreadCountNeverChangesAnyBit) {
  struct Observed {
    Histogram1D histo;
    double sum = 0.0;
    std::vector<rdf::FilterReport> report;
    ScanStats scan;
  };
  auto run = [&](int threads) {
    auto df = Open(threads);
    auto met = df->Scalar<float>("MET.pt").ValueOrDie();
    auto jet_pt = df->Particles<float>("Jet.pt").ValueOrDie();
    auto selected =
        df->root().Filter(
            [jet_pt](const EventView& e) {
              int n = 0;
              for (float pt : e.Get(jet_pt)) {
                if (pt > 40) ++n;
              }
              return n >= 2;
            },
            "two_hard_jets");
    auto h = selected.Histo1D({"met", "", 100, 0, 200},
                              [met](const EventView& e) {
                                return e.Get(met);
                              });
    auto s = selected.Sum([met](const EventView& e) { return e.Get(met); });
    EXPECT_TRUE(df->Run().ok());
    return Observed{df->GetHistogram(h), df->GetSum(s), df->Report(),
                    df->run_stats().scan};
  };
  const Observed base = run(1);
  for (int threads : {2, 4}) {
    const Observed observed = run(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(observed.sum, base.sum);  // exact, not approximate
    EXPECT_EQ(observed.histo.num_entries(), base.histo.num_entries());
    EXPECT_EQ(observed.histo.sum_weights(), base.histo.sum_weights());
    for (int i = 0; i < base.histo.spec().num_bins; ++i) {
      EXPECT_EQ(observed.histo.BinContent(i), base.histo.BinContent(i));
    }
    ASSERT_EQ(observed.report.size(), base.report.size());
    for (size_t i = 0; i < base.report.size(); ++i) {
      EXPECT_EQ(observed.report[i].examined, base.report[i].examined);
      EXPECT_EQ(observed.report[i].passed, base.report[i].passed);
    }
    // Same bytes read regardless of how many readers shared the work.
    EXPECT_EQ(observed.scan.storage_bytes, base.scan.storage_bytes);
    EXPECT_EQ(observed.scan.chunks_read, base.scan.chunks_read);
  }
}

TEST_F(RdfTest, WeightedHistogram) {
  auto df = Open();
  auto met = df->Scalar<float>("MET.pt").ValueOrDie();
  auto unweighted = df->root().Histo1D(
      {"h", "", 10, 0, 200},
      [met](const EventView& e) { return e.Get(met); });
  auto weighted = df->root().WeightedHisto1D(
      {"h", "", 10, 0, 200},
      [met](const EventView& e) { return e.Get(met); },
      [](const EventView&) { return 2.0; });
  ASSERT_TRUE(df->Run().ok());
  EXPECT_DOUBLE_EQ(df->GetHistogram(weighted).sum_weights(),
                   2.0 * df->GetHistogram(unweighted).sum_weights());
  EXPECT_EQ(df->GetHistogram(weighted).num_entries(),
            df->GetHistogram(unweighted).num_entries());
}

TEST_F(RdfTest, SumAction) {
  auto df = Open();
  auto met = df->Scalar<float>("MET.pt").ValueOrDie();
  auto total = df->root().Sum(
      [met](const EventView& e) { return e.Get(met); });
  auto h = df->root().Histo1D({"h", "", 10, 0, 1e9},
                              [met](const EventView& e) {
                                return e.Get(met);
                              });
  ASSERT_TRUE(df->Run().ok());
  // Sum of fills equals mean * count.
  EXPECT_NEAR(df->GetSum(total),
              df->GetHistogram(h).mean() * 4000.0, 1e-3);
}

TEST_F(RdfTest, ReportGivesCutflow) {
  auto df = Open();
  auto met = df->Scalar<float>("MET.pt").ValueOrDie();
  auto loose = df->root().Filter(
      [met](const EventView& e) { return e.Get(met) < 60; }, "loose");
  auto tight = loose.Filter(
      [met](const EventView& e) { return e.Get(met) < 15; }, "tight");
  auto count = tight.Count();
  ASSERT_TRUE(df->Run().ok());
  const auto report = df->Report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].label, "loose");
  EXPECT_EQ(report[0].examined, 4000);
  EXPECT_GT(report[0].passed, 0);
  EXPECT_EQ(report[1].label, "tight");
  // Only events passing "loose" reach "tight".
  EXPECT_EQ(report[1].examined, report[0].passed);
  EXPECT_EQ(report[1].passed, df->GetCount(count));
}

TEST_F(RdfTest, ReportMergesAcrossThreads) {
  auto run = [&](int threads) {
    auto df = Open(threads);
    auto met = df->Scalar<float>("MET.pt").ValueOrDie();
    auto node = df->root().Filter(
        [met](const EventView& e) { return e.Get(met) > 25; }, "cut");
    node.Count();
    EXPECT_TRUE(df->Run().ok());
    return df->Report();
  };
  const auto single = run(1);
  const auto multi = run(4);
  ASSERT_EQ(single.size(), 1u);
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_EQ(single[0].examined, multi[0].examined);
  EXPECT_EQ(single[0].passed, multi[0].passed);
}

TEST_F(RdfTest, LazyFiltersAreNotExamined) {
  auto df = Open();
  auto met = df->Scalar<float>("MET.pt").ValueOrDie();
  // A filter with no booked action below it never runs.
  df->root().Filter([met](const EventView& e) { return e.Get(met) > 0; },
                    "unused");
  auto used = df->root().Filter(
      [met](const EventView& e) { return e.Get(met) > 10; }, "used");
  used.Count();
  ASSERT_TRUE(df->Run().ok());
  const auto report = df->Report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].examined, 0);
  EXPECT_EQ(report[1].examined, 4000);
}

// A hint is honored only on a root filter above every booking. Here a
// second booking hangs off the root outside the hinted filter, so pruning
// the groups the hint rules out (event >= 1000) would drop events the
// outside Count must see: nothing may be pruned and the cutflow is exact.
// The positive control books only below the filter, which then prunes.
TEST_F(RdfTest, HintIgnoredWhenABookingIsOutsideTheFilter) {
  auto run = [&](bool outside_booking) {
    auto df = Open();
    auto event = df->Scalar<int64_t>("event").ValueOrDie();
    ScanPredicateSet hint;
    hint.AddRange("event", -1e18, 999.0);
    auto early = df->root().Filter(
        [event](const EventView& e) { return e.Get(event) < 1000; }, hint,
        "early");
    const auto inside = early.Count();
    rdf::CountHandle all;
    if (outside_booking) all = df->root().Count();
    EXPECT_TRUE(df->Run().ok());
    EXPECT_EQ(df->GetCount(inside), 1000);
    if (outside_booking) {
      EXPECT_EQ(df->GetCount(all), 4000);
    }
    const auto report = df->Report();
    EXPECT_EQ(report.at(0).examined, 4000);
    EXPECT_EQ(report.at(0).passed, 1000);
    return df->run_stats().scan.groups_pruned;
  };
  EXPECT_EQ(run(/*outside_booking=*/true), 0u);
  EXPECT_EQ(run(/*outside_booking=*/false), 3u);
}

TEST_F(RdfTest, RunTwiceFails) {
  auto df = Open();
  df->root().Count();
  ASSERT_TRUE(df->Run().ok());
  EXPECT_FALSE(df->Run().ok());
}

TEST_F(RdfTest, ScanStatsReflectProjection) {
  auto df_narrow = Open();
  auto met = df_narrow->Scalar<float>("MET.pt").ValueOrDie();
  df_narrow->root().Histo1D({"h", "", 10, 0, 200},
                            [met](const EventView& e) {
                              return e.Get(met);
                            });
  ASSERT_TRUE(df_narrow->Run().ok());

  auto df_wide = Open();
  auto jet_pt = df_wide->Particles<float>("Jet.pt").ValueOrDie();
  auto jet_eta = df_wide->Particles<float>("Jet.eta").ValueOrDie();
  auto met2 = df_wide->Scalar<float>("MET.pt").ValueOrDie();
  df_wide->root().Histo1D({"h", "", 10, 0, 200},
                          [jet_pt, jet_eta, met2](const EventView& e) {
                            (void)e.Get(jet_pt);
                            (void)e.Get(jet_eta);
                            return e.Get(met2);
                          });
  ASSERT_TRUE(df_wide->Run().ok());
  EXPECT_GT(df_wide->run_stats().scan.storage_bytes,
            df_narrow->run_stats().scan.storage_bytes);
}

TEST_F(RdfTest, ListOfPrimitiveBranches) {
  // ROOT-layout-style branch: write a small file with a list<float>
  // column and read it through the particle API.
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"Jet_pt", DataType::List(DataType::Float32())}});
  auto branch = ListArray::Make({0, 2, 3}, MakeFloat32Array({50, 10, 20}))
                    .ValueOrDie();
  auto batch =
      RecordBatch::Make(schema, {ArrayPtr(branch)}).ValueOrDie();
  const std::string path = ::testing::TempDir() + "/rdf_branch.laq";
  ASSERT_TRUE(WriteLaqFile(path, schema, {RecordBatchPtr(batch)}).ok());

  auto df = RDataFrame::Open(path).ValueOrDie();
  // Must be declared as a particle leaf, with the element type.
  EXPECT_FALSE(df->Scalar<float>("Jet_pt").ok());
  auto pt = df->Particles<float>("Jet_pt").ValueOrDie();
  auto h = df->root().Histo1DVec({"pt", "", 10, 0, 100},
                                 [pt](const EventView& e) {
                                   const auto values = e.Get(pt);
                                   return rdf::RVecD(values.begin(),
                                                     values.end());
                                 });
  ASSERT_TRUE(df->Run().ok());
  EXPECT_EQ(df->GetHistogram(h).num_entries(), 3u);
}

TEST_F(RdfTest, BoolAndIntColumns) {
  auto df = Open();
  auto hlt = df->Scalar<uint8_t>("HLT_IsoMu24").ValueOrDie();
  auto npvs = df->Scalar<int32_t>("PV.npvs").ValueOrDie();
  auto charge = df->Particles<int32_t>("Muon.charge").ValueOrDie();
  auto c = df->root()
               .Filter([hlt, npvs, charge](const EventView& e) {
                 int total_charge = 0;
                 for (int32_t q : e.Get(charge)) total_charge += q;
                 return e.Get(hlt) != 0 && e.Get(npvs) > 0 &&
                        total_charge >= -50;
               })
               .Count();
  ASSERT_TRUE(df->Run().ok());
  EXPECT_GT(df->GetCount(c), 0);
}

}  // namespace
}  // namespace hepq
