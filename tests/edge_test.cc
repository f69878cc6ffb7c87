// Edge cases across the stack: empty data sets, particle-free events,
// degenerate inputs — the situations interactive exploration hits first.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "columnar/builder.h"
#include "core/physics.h"
#include "datagen/generator.h"
#include "fileio/corruption.h"
#include "fileio/reader.h"
#include "fileio/writer.h"
#include "queries/adl.h"
#include "queries/builders.h"
#include "rdf/rdf.h"

namespace hepq {
namespace {

/// A file whose events all have zero particles.
std::string EmptyParticlesFile() {
  const std::string path = ::testing::TempDir() + "/empty_particles.laq";
  GeneratorConfig config;
  config.jet_soft_mean = 0.0;
  config.jet_busy_fraction = 0.0;
  config.jet_very_busy_fraction = 0.0;
  config.muon_cumprob[0] = 1.0;  // always zero muons
  config.muon_cumprob[1] = 1.0;
  config.muon_cumprob[2] = 1.0;
  config.muon_cumprob[3] = 1.0;
  config.muon_cumprob[4] = 1.0;
  config.electron_mean = 0.0;
  config.photon_mean = 0.0;
  config.tau_mean = 0.0;
  config.z_to_mumu_fraction = 0.0;
  config.z_to_ee_fraction = 0.0;
  EventGenerator generator(config);
  WriteLaqFile(path, EventGenerator::CmsSchema(),
               {generator.GenerateBatch(500)})
      .Check();
  return path;
}

TEST(EdgeTest, ParticleFreeEventsAcrossAllEnginesAndQueries) {
  const std::string path = EmptyParticlesFile();
  for (int q = 1; q <= 8; ++q) {
    for (queries::EngineKind engine :
         {queries::EngineKind::kRdf, queries::EngineKind::kBigQueryShape,
          queries::EngineKind::kPrestoShape, queries::EngineKind::kDoc}) {
      auto result = queries::RunAdlQuery(engine, q, path);
      ASSERT_TRUE(result.ok())
          << "Q" << q << " on " << queries::EngineKindName(engine) << ": "
          << result.status().ToString();
      // Q1 sees every event; Q7 fills a zero sum per event; everything
      // else selects nothing.
      if (q == 1 || q == 7) {
        EXPECT_EQ(result->histograms[0].num_entries(), 500u);
      } else {
        EXPECT_EQ(result->histograms[0].num_entries(), 0u)
            << "Q" << q << " on " << queries::EngineKindName(engine);
      }
    }
  }
}

TEST(EdgeTest, SingleEventFile) {
  const std::string path = ::testing::TempDir() + "/one_event.laq";
  EventGenerator generator;
  WriteLaqFile(path, EventGenerator::CmsSchema(),
               {generator.GenerateBatch(1)})
      .Check();
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_rows(), 1);
  auto result =
      queries::RunAdlQuery(queries::EngineKind::kBigQueryShape, 1, path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->histograms[0].num_entries(), 1u);
}

TEST(EdgeTest, EmptyFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/zero_events.laq";
  auto writer = LaqWriter::Open(path, EventGenerator::CmsSchema());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_rows(), 0);
  EXPECT_EQ((*reader)->num_row_groups(), 0);
  // Every engine handles a file with no row groups.
  auto result = queries::RunAdlQuery(queries::EngineKind::kRdf, 1, path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->histograms[0].num_entries(), 0u);
  result = queries::RunAdlQuery(queries::EngineKind::kPrestoShape, 6, path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->histograms[0].num_entries(), 0u);
  result = queries::RunAdlQuery(queries::EngineKind::kDoc, 8, path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->histograms[0].num_entries(), 0u);
}

TEST(EdgeTest, EmptyFileSurvivesTruncationSweep) {
  // A zero-row file is all structure (magic + footer + trailer): every
  // truncation of it must be rejected, never crash the footer parser.
  const std::string path = ::testing::TempDir() + "/zero_truncate.laq";
  auto writer = LaqWriter::Open(path, EventGenerator::CmsSchema());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto image = laqfuzz::LoadLaqImage(path).ValueOrDie();
  const std::string mutated = ::testing::TempDir() + "/zero_truncated.laq";
  for (uint64_t size = 0; size < image.bytes.size(); ++size) {
    laqfuzz::WriteBytes(mutated, laqfuzz::TruncateAt(image, size)).Check();
    EXPECT_FALSE(LaqReader::Open(mutated).ok()) << "size " << size;
  }
}

TEST(EdgeTest, ParticleFreeFileReadsIdenticallyWithoutChecksums) {
  // All-empty lists stress the lengths/offsets fold; the answer must not
  // depend on whether CRC validation is on.
  const std::string path = EmptyParticlesFile();
  ReaderOptions with, without;
  with.validate_checksums = true;
  without.validate_checksums = false;
  auto a = LaqReader::Open(path, with).ValueOrDie()->ReadRowGroup(0);
  auto b = LaqReader::Open(path, without).ValueOrDie()->ReadRowGroup(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*a)->Equals(**b));
}

TEST(EdgeTest, RdfMoreThreadsThanRowGroups) {
  const std::string path = ::testing::TempDir() + "/one_event.laq";
  EventGenerator generator;
  WriteLaqFile(path, EventGenerator::CmsSchema(),
               {generator.GenerateBatch(10)})
      .Check();
  rdf::RdfOptions options;
  options.num_threads = 16;  // clamped to the single row group
  auto df = rdf::RDataFrame::Open(path, options).ValueOrDie();
  auto count = df->root().Count();
  ASSERT_TRUE(df->Run().ok());
  EXPECT_EQ(df->GetCount(count), 10);
}

TEST(EdgeTest, ExtremeKinematicValuesSurviveRoundTrip) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"MET", DataType::Struct({{"pt", DataType::Float32()}})},
      {"Jet",
       DataType::List(DataType::Struct({{"pt", DataType::Float32()}}))},
  });
  const float huge = 3.0e38f;
  const float tiny = 1.0e-38f;
  auto met = StructArray::Make({{"pt", DataType::Float32()}},
                               {MakeFloat32Array({huge, tiny, 0.0f})})
                 .ValueOrDie();
  auto jets = MakeListOfStructArray({{"pt", DataType::Float32()}},
                                    {0, 1, 2, 3},
                                    {MakeFloat32Array({huge, tiny, -1.0f})})
                  .ValueOrDie();
  auto batch = RecordBatch::Make(schema, {met, jets}).ValueOrDie();
  const std::string path = ::testing::TempDir() + "/extreme.laq";
  ASSERT_TRUE(WriteLaqFile(path, schema, {RecordBatchPtr(batch)}).ok());
  auto reader = LaqReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto back = (*reader)->ReadRowGroup(0);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE((*back)->Equals(*batch));
  // Statistics cover the extremes.
  const FileMetadata& meta = (*reader)->metadata();
  const int leaf = meta.LeafIndex("MET.pt");
  EXPECT_FLOAT_EQ(
      static_cast<float>(
          meta.row_groups[0].chunks[static_cast<size_t>(leaf)].max_value),
      huge);
}

TEST(EdgeTest, HistogramHandlesNonFiniteFills) {
  Histogram1D h({"h", "", 10, 0.0, 10.0});
  h.Fill(std::numeric_limits<double>::infinity());
  h.Fill(-std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_EQ(h.num_entries(), 2u);
}

TEST(EdgeTest, GeneratorZeroEventsBatch) {
  EventGenerator generator;
  auto batch = generator.GenerateBatch(0);
  EXPECT_EQ(batch->num_rows(), 0);
  EXPECT_EQ(generator.events_generated(), 0);
}

TEST(EdgeTest, Q6NeedsExactlyThreeJetsBoundary) {
  // An event with exactly 3 jets has exactly one trijet combination.
  auto query = queries::BuildAdlEventQuery(6).ValueOrDie();
  auto schema = EventGenerator::CmsSchema();
  GeneratorConfig config;
  config.jet_soft_mean = 3.0;
  EventGenerator generator(config);
  auto batch = generator.GenerateBatch(200);
  auto result = query.MakeResult();
  ASSERT_TRUE(query.ExecuteBatch(*batch, &result).ok());
  // Every selected event contributes exactly one entry to both plots.
  EXPECT_EQ(result.histograms[0].num_entries(),
            static_cast<uint64_t>(result.events_selected));
  EXPECT_EQ(result.histograms[1].num_entries(),
            static_cast<uint64_t>(result.events_selected));
}

struct TestJet {
  float pt, eta, phi, mass, btag;
};

/// Writes `events` (jets per event) as `groups` identical row groups of a
/// Jet{pt, eta, phi, mass, btag} file.
std::string WriteJetEvents(const std::string& name,
                           const std::vector<std::vector<TestJet>>& events,
                           int groups) {
  const auto f32 = DataType::Float32();
  const std::vector<Field> members = {
      {"pt", f32}, {"eta", f32}, {"phi", f32}, {"mass", f32}, {"btag", f32}};
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"Jet", DataType::List(DataType::Struct(members))}});
  std::vector<uint32_t> offsets = {0};
  std::vector<float> pt, eta, phi, mass, btag;
  for (const std::vector<TestJet>& jets : events) {
    for (const TestJet& j : jets) {
      pt.push_back(j.pt);
      eta.push_back(j.eta);
      phi.push_back(j.phi);
      mass.push_back(j.mass);
      btag.push_back(j.btag);
    }
    offsets.push_back(static_cast<uint32_t>(pt.size()));
  }
  auto jets = MakeListOfStructArray(
                  members, offsets,
                  {MakeFloat32Array(pt), MakeFloat32Array(eta),
                   MakeFloat32Array(phi), MakeFloat32Array(mass),
                   MakeFloat32Array(btag)})
                  .ValueOrDie();
  RecordBatchPtr batch = RecordBatch::Make(schema, {jets}).ValueOrDie();
  WriterOptions options;
  options.row_group_size = static_cast<int64_t>(events.size());
  const std::string path = ::testing::TempDir() + "/" + name;
  WriteLaqFile(path, schema,
               std::vector<RecordBatchPtr>(static_cast<size_t>(groups), batch),
               options)
      .Check();
  return path;
}

/// rdf Q6 with every jet converted per triple (InvariantMass3 and
/// AddPtEtaPhiM3(...).pt), keeping the first strict minimum in i<j<k
/// order: the formulation the per-event JetXYZT column must reproduce.
std::vector<Histogram1D> PerTripleQ6(const std::string& path, int threads) {
  rdf::RdfOptions options;
  options.num_threads = threads;
  auto df = rdf::RDataFrame::Open(path, options).ValueOrDie();
  const auto pt = df->Particles<float>("Jet.pt").ValueOrDie();
  const auto eta = df->Particles<float>("Jet.eta").ValueOrDie();
  const auto phi = df->Particles<float>("Jet.phi").ValueOrDie();
  const auto mass = df->Particles<float>("Jet.mass").ValueOrDie();
  const auto btag = df->Particles<float>("Jet.btag").ValueOrDie();
  const auto jet = [=](const rdf::EventView& e, size_t i) {
    return PtEtaPhiM{e.Get(pt)[i], e.Get(eta)[i], e.Get(phi)[i],
                     e.Get(mass)[i]};
  };
  auto three_jets = df->root().Filter(
      [pt](const rdf::EventView& e) { return e.Get(pt).size() >= 3; });
  auto best = df->DefineVec("best", [pt, jet](const rdf::EventView& e) {
    const size_t n = e.Get(pt).size();
    double best_diff = 1e300;
    rdf::RVecD best_indices;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        for (size_t k = j + 1; k < n; ++k) {
          const double diff = std::abs(
              InvariantMass3(jet(e, i), jet(e, j), jet(e, k)) - 172.5);
          if (diff < best_diff) {
            best_diff = diff;
            best_indices = {static_cast<double>(i), static_cast<double>(j),
                            static_cast<double>(k)};
          }
        }
      }
    }
    return best_indices;
  });
  const auto at = [](const rdf::RVecD& idx, size_t n) {
    return static_cast<size_t>(idx[n]);
  };
  const std::vector<HistogramSpec> specs = queries::AdlHistogramSpecs(6);
  const rdf::HistoHandle trijet_pt = three_jets.Histo1D(
      specs[0], [best, jet, at](const rdf::EventView& e) {
        const rdf::RVecD& idx = e.Get(best);
        return AddPtEtaPhiM3(jet(e, at(idx, 0)), jet(e, at(idx, 1)),
                             jet(e, at(idx, 2)))
            .pt;
      });
  const rdf::HistoHandle max_btag = three_jets.Histo1D(
      specs[1], [best, btag, at](const rdf::EventView& e) {
        const rdf::RVecD& idx = e.Get(best);
        double best_tag = 0.0;
        for (size_t n = 0; n < 3; ++n) {
          best_tag = std::max(
              best_tag, static_cast<double>(e.Get(btag)[at(idx, n)]));
        }
        return best_tag;
      });
  df->Run().Check();
  return {df->GetHistogram(trijet_pt), df->GetHistogram(max_btag)};
}

void ExpectSameBits(const Histogram1D& got, const Histogram1D& want,
                    const std::string& what) {
  const HistogramParts g = got.ToParts();
  const HistogramParts w = want.ToParts();
  const auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  EXPECT_EQ(g.spec, w.spec) << what;
  ASSERT_EQ(g.bins.size(), w.bins.size()) << what;
  for (size_t b = 0; b < g.bins.size(); ++b) {
    EXPECT_EQ(bits(g.bins[b]), bits(w.bins[b])) << what << " bin " << b;
  }
  EXPECT_EQ(bits(g.underflow), bits(w.underflow)) << what;
  EXPECT_EQ(bits(g.overflow), bits(w.overflow)) << what;
  EXPECT_EQ(g.num_entries, w.num_entries) << what;
  EXPECT_EQ(bits(g.sum_w), bits(w.sum_w)) << what;
  EXPECT_EQ(bits(g.sum_wx), bits(w.sum_wx)) << what;
  EXPECT_EQ(bits(g.sum_wx2), bits(w.sum_wx2)) << what;
}

/// rdf Q6, the BigQuery shape and the per-triple oracle fill the same
/// bits at 1 and 4 threads; returns rdf's histograms at 1 thread.
std::vector<Histogram1D> ExpectQ6AgreesBitForBit(const std::string& path) {
  std::vector<Histogram1D> first;
  for (int threads : {1, 4}) {
    queries::RunOptions options;
    options.num_threads = threads;
    auto rdf = queries::RunAdlQuery(queries::EngineKind::kRdf, 6, path,
                                    options);
    auto bq = queries::RunAdlQuery(queries::EngineKind::kBigQueryShape, 6,
                                   path, options);
    EXPECT_TRUE(rdf.ok()) << rdf.status().ToString();
    EXPECT_TRUE(bq.ok()) << bq.status().ToString();
    if (!rdf.ok() || !bq.ok()) return {};
    const std::vector<Histogram1D> oracle = PerTripleQ6(path, threads);
    for (size_t h = 0; h < 2; ++h) {
      const std::string what =
          "threads " + std::to_string(threads) + " histogram " +
          std::to_string(h);
      ExpectSameBits(rdf->histograms[h], bq->histograms[h], what + " vs bq");
      ExpectSameBits(rdf->histograms[h], oracle[h], what + " vs oracle");
    }
    if (first.empty()) first = rdf->histograms;
  }
  return first;
}

TEST(EdgeTest, RdfQ6MatchesBigQueryShapeBitForBit) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min() * 7.0f;
  const float max_mass = std::numeric_limits<float>::max();
  // Four identical jets: all four triples tie exactly on |m - 172.5|,
  // and only the first (0, 1, 2) leaves max b-tag at 0.3.
  const TestJet twin{61.5f, 0.4f, 1.1f, 8.25f, 0.0f};
  std::vector<TestJet> ties;
  for (float tag : {0.1f, 0.2f, 0.3f, 0.9f}) {
    TestJet j = twin;
    j.btag = tag;
    ties.push_back(j);
  }
  // -0.0, NaN and denormal pt, |eta| = 700 (pz^2 overflows), a float-max
  // mass, and a kinematic twin of jet 1 with another b-tag.
  const std::vector<TestJet> extremes = {
      {85.0f, 0.3f, -2.9f, 11.0f, 0.05f},
      {47.0f, -1.2f, 0.7f, 6.5f, 0.75f},
      {120.0f, 2.0f, 2.2f, 15.0f, 0.15f},
      {-0.0f, 0.5f, 0.5f, 4.0f, 0.35f},
      {nan, 0.1f, -0.3f, 5.0f, 0.95f},
      {denormal, -0.7f, 1.7f, 3.0f, 0.45f},
      {55.0f, 700.0f, 0.9f, 7.0f, 0.55f},
      {2.0e5f, -700.0f, -1.4f, 9.0f, 0.65f},
      {33.0f, 1.5f, -0.6f, max_mass, 0.25f},
      {47.0f, -1.2f, 0.7f, 6.5f, 0.85f},  // kinematic twin of jet 1
      {95.0f, -0.2f, 3.0f, 12.0f, 0.5f},
      {28.0f, 0.8f, -2.4f, 4.5f, 0.6f},
  };
  // Triples (0, 1, 2) and (1, 2, 3) hold the same three jets summed in
  // two orders; rounding alone decides between them, and a + (b + c)
  // decides the other way.
  const TestJet x{0x1.c73bf4p+6f, -0x1.e63a7cp-1f, -0x1.6ce09cp+1f,
                  0x1.804afap+3f, 0.1f};
  TestJet x_again = x;
  x_again.btag = 0.9f;
  const std::vector<TestJet> permuted = {
      x,
      {0x1.503298p+6f, -0x1.f5fa1cp-1f, 0x1.59b31p+1f, 0x1.a6e5aap+3f, 0.2f},
      {0x1.95d16ep+5f, -0x1.4dc51cp+0f, 0x1.29ec1p-2f, 0x1.8fa738p+3f, 0.3f},
      x_again,
  };
  std::vector<TestJet> busy;
  uint32_t state = 12345;
  const auto next = [&state](float lo, float hi) {
    state = state * 1664525u + 1013904223u;
    return lo + (hi - lo) * static_cast<float>(state >> 8) / 16777216.0f;
  };
  for (int i = 0; i < 40; ++i) {
    busy.push_back({next(20.0f, 150.0f), next(-2.5f, 2.5f),
                    next(-3.14f, 3.14f), next(2.0f, 20.0f), next(0.0f, 1.0f)});
  }
  busy[33] = busy[7];  // duplicated kinematics, different b-tag
  busy[33].btag = busy[7].btag < 0.5f ? 0.99f : 0.01f;
  const std::vector<std::vector<TestJet>> events = {
      {{50.0f, 0.1f, 0.2f, 5.0f, 0.3f},
       {60.0f, -0.4f, 2.1f, 6.0f, 0.7f},
       {70.0f, 1.3f, -1.9f, 7.0f, 0.2f}},
      ties, permuted, extremes, busy,
      {{40.0f, 0.0f, 0.0f, 4.0f, 0.9f}, {41.0f, 0.0f, 1.0f, 4.0f, 0.8f}},
      {},
  };
  const std::string path = WriteJetEvents("q6_edges.laq", events, 4);
  const std::vector<Histogram1D> rdf = ExpectQ6AgreesBitForBit(path);
  ASSERT_EQ(rdf.size(), 2u);
  EXPECT_EQ(rdf[0].num_entries(), 20u);  // five events of >= 3 jets x 4

  // The same agreement on generated events.
  const std::string generated = ::testing::TempDir() + "/q6_generated.laq";
  EventGenerator generator;
  std::vector<RecordBatchPtr> batches;
  for (int b = 0; b < 4; ++b) batches.push_back(generator.GenerateBatch(5000));
  WriterOptions options;
  options.row_group_size = 5000;
  WriteLaqFile(generated, EventGenerator::CmsSchema(), batches, options)
      .Check();
  const std::vector<Histogram1D> busy_rdf = ExpectQ6AgreesBitForBit(generated);
  ASSERT_EQ(busy_rdf.size(), 2u);
  EXPECT_GT(busy_rdf[0].num_entries(), 5000u);
}

}  // namespace
}  // namespace hepq
