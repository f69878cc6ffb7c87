#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fourvector.h"
#include "core/histogram.h"
#include "core/json.h"
#include "core/physics.h"
#include "core/rng.h"
#include "core/status.h"
#include "obs/report.h"

namespace hepq {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status st = Status::Invalid("bad arg");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalid);
  EXPECT_EQ(st.message(), "bad arg");
  EXPECT_EQ(st.ToString(), "Invalid: bad arg");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotImplemented),
               "NotImplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "TypeError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kKeyError), "KeyError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::KeyError("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
}

TEST(ResultTest, MoveTo) {
  Result<std::string> r(std::string("hello"));
  std::string out;
  ASSERT_TRUE(r.MoveTo(&out).ok());
  EXPECT_EQ(out, "hello");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.05);
}

TEST(RngTest, NextBelowBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

class RngPoissonTest : public ::testing::TestWithParam<double> {};

TEST_P(RngPoissonTest, MeanAndVarianceMatch) {
  const double lambda = GetParam();
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int v = rng.NextPoisson(lambda);
    EXPECT_GE(v, 0);
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, lambda, std::max(0.05, lambda * 0.03));
  EXPECT_NEAR(var, lambda, std::max(0.1, lambda * 0.06));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, RngPoissonTest,
                         ::testing::Values(0.3, 1.0, 3.0, 16.0, 80.0));

TEST(RngTest, PoissonZeroMean) {
  Rng rng(29);
  EXPECT_EQ(rng.NextPoisson(0.0), 0);
  EXPECT_EQ(rng.NextPoisson(-1.0), 0);
}

TEST(RngTest, BernoulliFraction) {
  Rng rng(31);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, FindBinEdges) {
  Histogram1D h({"h", "", 10, 0.0, 10.0});
  EXPECT_EQ(h.FindBin(-0.001), -1);
  EXPECT_EQ(h.FindBin(0.0), 0);
  EXPECT_EQ(h.FindBin(0.999), 0);
  EXPECT_EQ(h.FindBin(1.0), 1);
  EXPECT_EQ(h.FindBin(9.999), 9);
  EXPECT_EQ(h.FindBin(10.0), 10);  // overflow
}

TEST(HistogramTest, FillAndFlows) {
  Histogram1D h({"h", "", 4, 0.0, 4.0});
  h.Fill(-1.0);
  h.Fill(0.5);
  h.Fill(1.5, 2.0);
  h.Fill(7.0);
  EXPECT_EQ(h.num_entries(), 4u);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.BinContent(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BinContent(1), 2.0);
  EXPECT_DOUBLE_EQ(h.sum_weights(), 5.0);
}

TEST(HistogramTest, MeanAndStddev) {
  Histogram1D h({"h", "", 100, 0.0, 10.0});
  for (int i = 0; i < 1000; ++i) h.Fill(4.0);
  for (int i = 0; i < 1000; ++i) h.Fill(6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_NEAR(h.stddev(), 1.0, 1e-12);
}

TEST(HistogramTest, MergeRequiresMatchingSpec) {
  Histogram1D a({"a", "", 10, 0.0, 1.0});
  Histogram1D b({"b", "", 10, 0.0, 1.0});
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(HistogramTest, MergeAddsContents) {
  Histogram1D a({"h", "", 10, 0.0, 10.0});
  Histogram1D b({"h", "", 10, 0.0, 10.0});
  a.Fill(1.0);
  b.Fill(1.0);
  b.Fill(20.0);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.BinContent(1), 2.0);
  EXPECT_DOUBLE_EQ(a.overflow(), 1.0);
  EXPECT_EQ(a.num_entries(), 3u);
}

TEST(HistogramTest, ApproxEquals) {
  Histogram1D a({"h", "", 10, 0.0, 10.0});
  Histogram1D b({"h", "", 10, 0.0, 10.0});
  a.Fill(3.0);
  b.Fill(3.0);
  EXPECT_TRUE(a.ApproxEquals(b));
  b.Fill(4.0);
  EXPECT_FALSE(a.ApproxEquals(b));
}

TEST(HistogramTest, BinGeometry) {
  Histogram1D h({"h", "", 4, 0.0, 8.0});
  EXPECT_DOUBLE_EQ(h.BinLowEdge(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BinLowEdge(4), 8.0);
  EXPECT_DOUBLE_EQ(h.BinCenter(1), 3.0);
}

TEST(HistogramTest, DegenerateSpecIsSanitized) {
  Histogram1D h({"h", "", 0, 5.0, 5.0});
  EXPECT_GE(h.spec().num_bins, 1);
  EXPECT_GT(h.spec().hi, h.spec().lo);
  h.Fill(5.0);  // must not crash
}

TEST(HistogramTest, CsvIncludesFlowRows) {
  Histogram1D h({"h", "", 2, 0.0, 2.0});
  h.Fill(-5.0);
  h.Fill(0.5);
  h.Fill(1.5);
  h.Fill(1.5);
  h.Fill(99.0);
  EXPECT_EQ(h.ToCsv(),
            "bin_low,bin_high,content\n"
            "-inf,0,1\n"
            "0,1,1\n"
            "1,2,2\n"
            "2,inf,1\n");
}

// Property sweep: every in-range value lands in exactly the bin whose
// edges contain it.
class HistogramBinProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramBinProperty, ValueWithinItsBinEdges) {
  const int bins = GetParam();
  Histogram1D h({"h", "", bins, -3.0, 7.0});
  Rng rng(41);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.Uniform(-3.0, 7.0);
    const int bin = h.FindBin(v);
    ASSERT_GE(bin, 0);
    ASSERT_LT(bin, bins);
    EXPECT_GE(v, h.BinLowEdge(bin));
    EXPECT_LT(v, h.BinLowEdge(bin + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, HistogramBinProperty,
                         ::testing::Values(1, 7, 100, 1000));

// ---------------------------------------------------------------------------
// Four-vectors & physics
// ---------------------------------------------------------------------------

TEST(FourVectorTest, RoundTripConversion) {
  const PtEtaPhiM p{50.0, 1.2, -2.1, 5.0};
  const PtEtaPhiM q = p.ToPxPyPzE().ToPtEtaPhiM();
  EXPECT_NEAR(q.pt, p.pt, 1e-9);
  EXPECT_NEAR(q.eta, p.eta, 1e-9);
  EXPECT_NEAR(q.phi, p.phi, 1e-9);
  EXPECT_NEAR(q.mass, p.mass, 1e-7);
}

TEST(FourVectorTest, MassOfSingleParticle) {
  const PtEtaPhiM p{30.0, 0.5, 1.0, 4.2};
  EXPECT_NEAR(p.ToPxPyPzE().Mass(), 4.2, 1e-9);
}

TEST(FourVectorTest, BackToBackMasslessPairMass) {
  // Two massless particles, equal pt, opposite phi, eta = 0:
  // m^2 = 2 pt^2 (1 - cos(pi)) = 4 pt^2.
  const PtEtaPhiM p1{40.0, 0.0, 0.0, 0.0};
  const PtEtaPhiM p2{40.0, 0.0, M_PI, 0.0};
  EXPECT_NEAR(InvariantMass2(p1, p2), 80.0, 1e-9);
}

TEST(FourVectorTest, CollinearPairHasSumMass) {
  const PtEtaPhiM p1{40.0, 0.7, 0.3, 0.0};
  const PtEtaPhiM p2{10.0, 0.7, 0.3, 0.0};
  EXPECT_NEAR(InvariantMass2(p1, p2), 0.0, 1e-6);
}

TEST(FourVectorTest, AdditionIsCommutativeAndAssociative) {
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    const PtEtaPhiM a{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                      rng.Uniform(-3, 3), rng.Uniform(0, 10)};
    const PtEtaPhiM b{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                      rng.Uniform(-3, 3), rng.Uniform(0, 10)};
    const PtEtaPhiM c{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                      rng.Uniform(-3, 3), rng.Uniform(0, 10)};
    EXPECT_NEAR((a + b).pt, (b + a).pt, 1e-9);
    EXPECT_NEAR(((a + b) + c).pt, AddPtEtaPhiM3(a, b, c).pt, 1e-9);
    EXPECT_NEAR(((a + b) + c).mass, AddPtEtaPhiM3(a, b, c).mass, 1e-6);
  }
}

TEST(PhysicsTest, DeltaPhiWrapsIntoRange) {
  Rng rng(47);
  for (int i = 0; i < 2000; ++i) {
    const double d =
        DeltaPhi(rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0));
    EXPECT_GT(d, -M_PI - 1e-12);
    EXPECT_LE(d, M_PI + 1e-12);
  }
}

TEST(PhysicsTest, DeltaPhiKnownValues) {
  EXPECT_NEAR(DeltaPhi(0.5, 0.2), 0.3, 1e-12);
  EXPECT_NEAR(DeltaPhi(3.0, -3.0), 6.0 - 2 * M_PI, 1e-12);
}

TEST(PhysicsTest, DeltaRIsSymmetricAndNonNegative) {
  Rng rng(53);
  for (int i = 0; i < 500; ++i) {
    const double eta1 = rng.Uniform(-3, 3), phi1 = rng.Uniform(-3, 3);
    const double eta2 = rng.Uniform(-3, 3), phi2 = rng.Uniform(-3, 3);
    const double d12 = DeltaR(eta1, phi1, eta2, phi2);
    EXPECT_GE(d12, 0.0);
    EXPECT_NEAR(d12, DeltaR(eta2, phi2, eta1, phi1), 1e-12);
    EXPECT_NEAR(DeltaR(eta1, phi1, eta1, phi1), 0.0, 1e-12);
  }
}

TEST(PhysicsTest, InvariantMassAtLeastSumOfMasses) {
  Rng rng(59);
  for (int i = 0; i < 500; ++i) {
    const PtEtaPhiM p1{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                       rng.Uniform(-3, 3), rng.Uniform(0, 5)};
    const PtEtaPhiM p2{rng.Uniform(1, 100), rng.Uniform(-2, 2),
                       rng.Uniform(-3, 3), rng.Uniform(0, 5)};
    EXPECT_GE(InvariantMass2(p1, p2), p1.mass + p2.mass - 1e-6);
  }
}

TEST(PhysicsTest, TransverseMassKnownValue) {
  // Back-to-back: mT = sqrt(2 pt1 pt2 (1 - cos pi)) = 2 sqrt(pt1 pt2).
  EXPECT_NEAR(TransverseMass(25.0, 0.0, 25.0, M_PI), 50.0, 1e-9);
  // Collinear: mT = 0.
  EXPECT_NEAR(TransverseMass(25.0, 1.0, 30.0, 1.0), 0.0, 1e-9);
}


// ---------------------------------------------------------------------------
// JSON parser on adversarial input. laq_optimize --report and bench_diff
// read outside files through it, so every input must give a value or a
// clean Status — never a crash, an unbounded recursion or a non-finite
// number.
// ---------------------------------------------------------------------------

/// Parses `text` and checks the failure form: a Status carrying the byte
/// offset of the offending input.
bool ParsesOk(const std::string& text) {
  auto parsed = json::ParseJson(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(parsed.status().message().rfind("JSON parse error at byte ", 0),
              0u)
        << parsed.status().message();
  }
  return parsed.ok();
}

/// A real RunReport document with every section populated.
std::string SampleReportJson() {
  obs::RunReport report;
  report.info = obs::RunInfo{"Q6", "presto-shape", 2, 1000, 0.25, 0.5};
  report.scan.storage_bytes = 123456;
  report.scan.decoded_bytes = 65432;
  report.scan.leaves.push_back(LeafScanStats{"Jet.pt", 100, 200, 1, 2, 0, 0});
  report.run_span_ns = 250000000;
  report.total_span_ns = 240000000;
  report.window_ns = 251000000;
  report.stages.push_back(obs::StageSummary{obs::Stage::kDecode, 10, 9, 64, 2});
  obs::WorkerSummary worker;
  worker.busy_ns = 5;
  worker.busy_fraction = 0.125;
  worker.timeline.push_back({3, 0, 1, 2, 3, 64});
  report.workers.push_back(worker);
  report.stragglers.push_back(obs::Straggler{3, 0, 0, 0, 7, 64});
  report.counters.push_back(
      obs::CounterSummary{"vops_retired", obs::Stage::kVexprKernel, 1, 2, 3});
  report.processes.push_back(obs::RunReport::ProcessSummary{});
  report.partial = true;
  report.warnings.push_back("shards [1, 2): \"no report\"\t\xce\xbc");
  return obs::ReportToJson(report);
}

std::string CommittedBaselineJson() {
  std::FILE* f = std::fopen(
      HEPQ_SOURCE_DIR "/bench/baselines/micro_kernels_tiers.json", "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  if (f == nullptr) return text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

std::vector<std::string> RealDocuments() {
  return {SampleReportJson(), CommittedBaselineJson()};
}

TEST(JsonTest, RealDocumentsParse) {
  for (const std::string& text : RealDocuments()) {
    ASSERT_TRUE(ParsesOk(text)) << text;
  }
  auto report = json::ParseJson(SampleReportJson());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Find("schema_version")->number_value(),
            obs::RunReport::kSchemaVersion);
  EXPECT_EQ(report->Find("warnings")->array_items()[0].string_value(),
            "shards [1, 2): \"no report\"\t\xce\xbc");
}

TEST(JsonTest, EveryTruncationIsAnError) {
  for (const std::string& text : RealDocuments()) {
    // Only trailing whitespace follows the closing bracket, so every
    // shorter prefix is an incomplete document.
    const size_t end = text.find_last_of("}]") + 1;
    for (size_t n = 0; n < end; ++n) {
      EXPECT_FALSE(ParsesOk(text.substr(0, n))) << "prefix of " << n;
    }
  }
}

TEST(JsonTest, EveryBitFlipGivesAValueOrAStatus) {
  for (const std::string& text : RealDocuments()) {
    int rejected = 0;
    for (size_t i = 0; i < text.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = text;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        if (!ParsesOk(flipped)) ++rejected;
      }
    }
    EXPECT_GT(rejected, 0);
  }
}

TEST(JsonTest, NestingIsCappedAtMaxDepth) {
  // The cap counts arrays and objects, whatever the innermost one holds.
  auto nested = [](int depth, const char* open, const char* inner,
                   const char* close) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    text += inner;
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_TRUE(ParsesOk(nested(json::kMaxDepth, "[", "1", "]")));
  EXPECT_TRUE(ParsesOk(nested(json::kMaxDepth, "[", "", "]")));
  EXPECT_TRUE(ParsesOk(nested(json::kMaxDepth, "{\"a\":", "1", "}")));
  for (const std::string& deep :
       {nested(json::kMaxDepth + 1, "[", "1", "]"),
        nested(json::kMaxDepth + 1, "[", "", "]"),
        nested(json::kMaxDepth + 1, "{\"a\":", "1", "}"),
        std::string(1000000, '[')}) {
    auto parsed = json::ParseJson(deep);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("nesting too deep"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(JsonTest, NumbersFollowTheRfcGrammar) {
  for (const char* bad :
       {"-inf", "-nan", "-Infinity", "0x10", "-0x1p3", "01", "1e400",
        "-1e400", "inf", "nan", "NaN", "Infinity", "+1", ".5", "1.", "1.e3",
        "1e", "1e+", "-", "--1", "-01", "00", "0.", "1_000", "1ee2"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParsesOk(bad));
    EXPECT_FALSE(ParsesOk(std::string("[") + bad + "]"));
    EXPECT_FALSE(ParsesOk(std::string("{\"ns_per_row\":") + bad + "}"));
  }
  const struct {
    const char* text;
    double value;
  } good[] = {{"0", 0.0},         {"-0", -0.0},       {"7", 7.0},
              {"-12.5", -12.5},   {"1.5e-3", 1.5e-3}, {"1E+2", 100.0},
              {"2e0", 2.0},       {"0.125", 0.125},   {"1e-400", 0.0},
              {"1.7976931348623157e308", 1.7976931348623157e308}};
  for (const auto& g : good) {
    SCOPED_TRACE(g.text);
    auto parsed = json::ParseJson(std::string("[") + g.text + "]");
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed->array_items()[0].number_value(), g.value);
  }
  EXPECT_TRUE(std::signbit(json::ParseJson("-0")->number_value()));
}

TEST(JsonTest, LiteralsAndSeparators) {
  auto literals = json::ParseJson(" [null, true, false] ");
  ASSERT_TRUE(literals.ok());
  EXPECT_TRUE(literals->array_items()[0].is_null());
  EXPECT_TRUE(literals->array_items()[1].bool_value());
  EXPECT_FALSE(literals->array_items()[2].bool_value());
  for (const char* bad : {"nul", "True", "[1,]", "{\"a\"}", "{1:2}", "[1 2]"}) {
    EXPECT_FALSE(ParsesOk(bad)) << bad;
  }
}

TEST(JsonTest, StringsRejectLoneSurrogatesAndKeepRawBytes) {
  for (const char* bad :
       {"\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"\\ud800x\"",
        "\"\\ud8\"", "\"\\uzzzz\"", "\"\\x41\"", "\"a\nb\"", "\"abc"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParsesOk(bad));
  }
  auto pair = json::ParseJson("\"\\ud83d\\ude00 \\u00b5\"");
  ASSERT_TRUE(pair.ok()) << pair.status().message();
  EXPECT_EQ(pair->string_value(), "\xf0\x9f\x98\x80 \xc2\xb5");
  // Invalid UTF-8 outside escapes is kept byte for byte.
  auto raw = json::ParseJson("\"\xff\xfe\xc0\x80\xed\xa0\x80\"");
  ASSERT_TRUE(raw.ok()) << raw.status().message();
  EXPECT_EQ(raw->string_value(), "\xff\xfe\xc0\x80\xed\xa0\x80");
}

TEST(JsonTest, EveryByteRoundTripsThroughTheWriter) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  std::string text;
  json::AppendJsonString(&text, all);
  auto parsed = json::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->string_value(), all);
}

TEST(JsonTest, WriterOutputParsesBackExactly) {
  const std::string keys[] = {"quote\"d", "back\\slash", "ctl\x01\x1f\n\t",
                              "utf8 \xce\xbc\xf0\x9f\x98\x80", ""};
  const double finite[] = {0.1,
                           1.0 / 3.0,
                           -0.0,
                           1e300,
                           -2.5e-8,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest()};
  const double non_finite[] = {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
  std::string text;
  {
    auto root = json::JsonScope::Object(&text);
    for (const std::string& key : keys) root.Str(key, key + "!");
    {
      auto numbers = json::JsonScope::Array(root.Key("finite"));
      for (double v : finite) json::AppendJsonNumber(numbers.Sep(), v);
    }
    {
      auto numbers = json::JsonScope::Array(root.Key("non_finite"));
      for (double v : non_finite) json::AppendJsonNumber(numbers.Sep(), v);
    }
    root.Num("nan", std::numeric_limits<double>::quiet_NaN())
        .Int("int_min", std::numeric_limits<int64_t>::min())
        .UInt("uint_max", std::numeric_limits<uint64_t>::max())
        .Bool("yes", true);
  }
  auto parsed = json::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message() << "\n" << text;
  const auto& members = parsed->object_items();
  ASSERT_EQ(members.size(), std::size(keys) + 6);
  for (size_t k = 0; k < std::size(keys); ++k) {
    EXPECT_EQ(members[k].first, keys[k]);
    EXPECT_EQ(members[k].second.string_value(), keys[k] + "!");
  }
  const auto& numbers = parsed->Find("finite")->array_items();
  ASSERT_EQ(numbers.size(), std::size(finite));
  for (size_t i = 0; i < numbers.size(); ++i) {
    // Shortest round-trip spelling: the same double, sign of zero too.
    const double back = numbers[i].number_value();
    EXPECT_EQ(std::memcmp(&back, &finite[i], sizeof(back)), 0)
        << finite[i] << " came back as " << back;
  }
  for (const json::JsonValue& v : parsed->Find("non_finite")->array_items()) {
    EXPECT_TRUE(v.is_null());
  }
  EXPECT_TRUE(parsed->Find("nan")->is_null());
  EXPECT_EQ(parsed->Find("int_min")->number_value(), -0x1p63);
  EXPECT_EQ(parsed->Find("uint_max")->number_value(), 0x1p64);
  EXPECT_TRUE(parsed->Find("yes")->bool_value());
}

TEST(JsonTest, RunReportWritesNonFiniteAsNull) {
  obs::RunReport report;
  report.cost_inputs.cpu_seconds = std::numeric_limits<double>::quiet_NaN();
  obs::WorkerSummary worker;
  worker.busy_fraction = std::numeric_limits<double>::infinity();
  report.workers.push_back(worker);
  auto parsed = json::ParseJson(obs::ReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->Find("cost_inputs")->Find("cpu_seconds")->is_null());
  const json::JsonValue& first = parsed->Find("workers")->array_items()[0];
  EXPECT_TRUE(first.Find("busy_fraction")->is_null());
}

}  // namespace
}  // namespace hepq
