#include "engine/flat.h"
#include "queries/adl.h"
#include "queries/builders.h"

namespace hepq::queries {

namespace {

using engine::BinOp;
using engine::FlatAggKind;
using engine::FlatAggSpec;
using engine::FlatAnd;
using engine::FlatBin;
using engine::FlatCall;
using engine::FlatCol;
using engine::FlatExprPtr;
using engine::FlatGe;
using engine::FlatGt;
using engine::FlatLit;
using engine::FlatLt;
using engine::FlatPipeline;
using engine::Fn;
using engine::UnnestList;

std::vector<FlatExprPtr> FlatKinematics(const std::string& alias) {
  return {FlatCol(alias + ".pt"), FlatCol(alias + ".eta"),
          FlatCol(alias + ".phi"), FlatCol(alias + ".mass")};
}

std::vector<FlatExprPtr> ConcatFlat(std::vector<FlatExprPtr> a,
                                    std::vector<FlatExprPtr> b,
                                    std::vector<FlatExprPtr> c = {}) {
  std::vector<FlatExprPtr> out = std::move(a);
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

}  // namespace

Result<engine::FlatPipeline> BuildAdlFlatPipeline(int q) {
  const std::vector<HistogramSpec> specs = AdlHistogramSpecs(q);
  FlatPipeline pipeline("adl_q" + std::to_string(q) + "_flat");
  switch (q) {
    case 1: {
      // SELECT HistogramBin(MET.pt) ... GROUP BY bin — no unnesting.
      pipeline.AddKeepScalar("MET.pt");
      pipeline.AddHistogram(specs[0], FlatCol("MET.pt"));
      return pipeline;
    }
    case 2: {
      // SELECT j.pt FROM events CROSS JOIN UNNEST(Jet) AS j.
      pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
      pipeline.AddHistogram(specs[0], FlatCol("j.pt"));
      return pipeline;
    }
    case 3: {
      pipeline.AddUnnest(UnnestList{"Jet", {"pt", "eta"}, "j"});
      pipeline.AddFilter(FlatLt(FlatCall(Fn::kAbs, {FlatCol("j.eta")}),
                                FlatLit(1.0)));
      pipeline.AddHistogram(specs[0], FlatCol("j.pt"));
      return pipeline;
    }
    case 4: {
      // Listing 4b: unnest, filter, GROUP BY event HAVING COUNT(*) >= 2.
      pipeline.AddUnnest(UnnestList{"Jet", {"pt"}, "j"});
      pipeline.AddKeepScalar("MET.pt");
      pipeline.AddFilter(FlatGt(FlatCol("j.pt"), FlatLit(40.0)));
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kCount, "", "", "n_jets"});
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
      pipeline.AddHaving(FlatGe(FlatCol("n_jets"), FlatLit(2.0)));
      pipeline.AddHistogram(specs[0], FlatCol("met"));
      return pipeline;
    }
    case 5: {
      // Listing 6b: self cross join with ordinality, idx1 < idx2 in WHERE.
      pipeline.AddUnnest(
          UnnestList{"Muon", {"pt", "eta", "phi", "mass", "charge"}, "m1"});
      pipeline.AddUnnest(
          UnnestList{"Muon", {"pt", "eta", "phi", "mass", "charge"}, "m2"});
      pipeline.AddKeepScalar("MET.pt");
      pipeline.AddFilter(FlatLt(FlatCol("m1.idx"), FlatCol("m2.idx")));
      pipeline.AddFilter(FlatBin(BinOp::kNe, FlatCol("m1.charge"),
                                 FlatCol("m2.charge")));
      pipeline.AddProject("pair_mass",
                          FlatCall(Fn::kInvMass2,
                                   ConcatFlat(FlatKinematics("m1"),
                                              FlatKinematics("m2"))));
      pipeline.AddFilter(FlatAnd(FlatGt(FlatCol("pair_mass"), FlatLit(60.0)),
                                 FlatLt(FlatCol("pair_mass"),
                                        FlatLit(120.0))));
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kCount, "", "", "n_pairs"});
      pipeline.AddAggregate(
          FlatAggSpec{FlatAggKind::kFirst, "MET.pt", "", "met"});
      pipeline.AddHaving(FlatGe(FlatCol("n_pairs"), FlatLit(1.0)));
      pipeline.AddHistogram(specs[0], FlatCol("met"));
      return pipeline;
    }
    case 6: {
      // Triple self cross join; the full n^3 product is materialized and
      // the i<j<k restriction applied in WHERE — the plan shape that made
      // Q6 intractable on Presto in the paper (run on 1/4 of the data).
      const std::vector<std::string> members = {"pt", "eta", "phi", "mass",
                                                "btag"};
      pipeline.AddUnnest(UnnestList{"Jet", members, "j1"});
      pipeline.AddUnnest(UnnestList{"Jet", members, "j2"});
      pipeline.AddUnnest(UnnestList{"Jet", members, "j3"});
      pipeline.AddFilter(
          FlatAnd(FlatLt(FlatCol("j1.idx"), FlatCol("j2.idx")),
                  FlatLt(FlatCol("j2.idx"), FlatCol("j3.idx"))));
      const auto trijet = ConcatFlat(FlatKinematics("j1"),
                                     FlatKinematics("j2"),
                                     FlatKinematics("j3"));
      pipeline.AddProject(
          "mass_diff",
          FlatCall(Fn::kAbs,
                   {FlatBin(BinOp::kSub, FlatCall(Fn::kInvMass3, trijet),
                            FlatLit(172.5))}));
      pipeline.AddProject("trijet_pt", FlatCall(Fn::kSumPt3, trijet));
      pipeline.AddProject(
          "max_btag",
          FlatCall(Fn::kMax2,
                   {FlatCall(Fn::kMax2,
                             {FlatCol("j1.btag"), FlatCol("j2.btag")}),
                    FlatCol("j3.btag")}));
      pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMinBy, "trijet_pt",
                                        "mass_diff", "best_pt"});
      pipeline.AddAggregate(FlatAggSpec{FlatAggKind::kMinBy, "max_btag",
                                        "mass_diff", "best_btag"});
      pipeline.AddHistogram(specs[0], FlatCol("best_pt"));
      pipeline.AddHistogram(specs[1], FlatCol("best_btag"));
      return pipeline;
    }
    default:
      // Q7/Q8 need correlated anti-joins across two particle arrays; the
      // idiomatic Presto implementations use array functions (FILTER /
      // CARDINALITY), i.e. the per-event expression plan.
      return Status::NotImplemented(
          "no idiomatic UNNEST plan for this query; use the array-function "
          "fallback");
  }
}

Result<QueryRunOutput> RunAdlQueryPresto(int q, const std::string& path,
                                         const RunOptions& options) {
  // Every member of a touched struct is read (see ReaderOptionsFor).
  const ReaderOptions reader_options =
      ReaderOptionsFor(EngineKind::kPrestoShape, options);
  auto flat_result = BuildAdlFlatPipeline(q);
  if (flat_result.ok()) {
    flat_result->set_expr_tier(options.expr_tier);
    engine::FlatQueryResult result;
    HEPQ_ASSIGN_OR_RETURN(
        result,
        flat_result->Execute(path, reader_options, options.num_threads));
    return ToRunOutput(result, result.rows_materialized);
  }
  if (flat_result.status().code() != StatusCode::kNotImplemented) {
    return flat_result.status();
  }
  return RunAdlEventQuery(q, path, reader_options, options);
}

}  // namespace hepq::queries
