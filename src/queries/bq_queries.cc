#include "engine/event_query.h"
#include "queries/adl.h"
#include "queries/builders.h"

namespace hepq::queries {

namespace {

using engine::AggKind;
using engine::AggOverList;
using engine::AnyCombination;
using engine::BestCombination;
using engine::BestElement;
using engine::Call;
using engine::ComboLoop;
using engine::EventQuery;
using engine::ExprPtr;
using engine::Fn;
using engine::IterMember;
using engine::IterOrdinal;
using engine::ListSize;
using engine::Lit;
using engine::ScalarRef;
using engine::Abs;
using engine::And;
using engine::Eq;
using engine::Ge;
using engine::Gt;
using engine::Lt;
using engine::Ne;
using engine::Not;
using engine::Sub;

// Member slot layout shared by the kinematic declarations below.
constexpr int kPt = 0;
constexpr int kEta = 1;
constexpr int kPhi = 2;
constexpr int kMass = 3;

/// (pt, eta, phi, mass) of the particle bound to `iter` over `list`.
std::vector<ExprPtr> Kinematics(int list, int iter) {
  return {IterMember(list, iter, kPt), IterMember(list, iter, kEta),
          IterMember(list, iter, kPhi), IterMember(list, iter, kMass)};
}

std::vector<ExprPtr> ConcatArgs(std::vector<ExprPtr> a,
                                std::vector<ExprPtr> b,
                                std::vector<ExprPtr> c = {}) {
  std::vector<ExprPtr> out = std::move(a);
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

}  // namespace

Result<engine::EventQuery> BuildAdlEventQuery(int q) {
  const std::vector<HistogramSpec> specs = AdlHistogramSpecs(q);
  EventQuery query("adl_q" + std::to_string(q));
  switch (q) {
    case 1: {
      const int met = query.DeclareScalar("MET.pt");
      query.AddHistogram(specs[0], ScalarRef(met));
      return query;
    }
    case 2: {
      const int jets = query.DeclareList("Jet", {"pt"});
      query.AddPerElementHistogram(specs[0], jets, /*iter_slot=*/0,
                                   /*filter=*/nullptr,
                                   IterMember(jets, 0, kPt));
      return query;
    }
    case 3: {
      const int jets = query.DeclareList("Jet", {"pt", "eta"});
      query.AddPerElementHistogram(
          specs[0], jets, /*iter_slot=*/0,
          Lt(Abs(IterMember(jets, 0, /*eta member=*/1)), Lit(1.0)),
          IterMember(jets, 0, kPt));
      return query;
    }
    case 4: {
      const int jets = query.DeclareList("Jet", {"pt"});
      const int met = query.DeclareScalar("MET.pt");
      query.AddStage(Ge(AggOverList(AggKind::kCount, jets, /*iter_slot=*/0,
                                    Gt(IterMember(jets, 0, kPt), Lit(40.0)),
                                    nullptr),
                        Lit(2.0)));
      query.AddHistogram(specs[0], ScalarRef(met));
      return query;
    }
    case 5: {
      const int muons =
          query.DeclareList("Muon", {"pt", "eta", "phi", "mass", "charge"});
      const int met = query.DeclareScalar("MET.pt");
      const ExprPtr mass = Call(
          Fn::kInvMass2, ConcatArgs(Kinematics(muons, 0),
                                    Kinematics(muons, 1)));
      const ExprPtr opposite_charge =
          Ne(IterMember(muons, 0, 4), IterMember(muons, 1, 4));
      query.AddStage(AnyCombination(
          {ComboLoop{muons, 0}, ComboLoop{muons, 1}},
          And(opposite_charge,
              And(Gt(mass, Lit(60.0)), Lt(mass, Lit(120.0))))));
      query.AddHistogram(specs[0], ScalarRef(met));
      return query;
    }
    case 6: {
      const int jets =
          query.DeclareList("Jet", {"pt", "eta", "phi", "mass", "btag"});
      query.AddStage(Ge(ListSize(jets), Lit(3.0)));
      const std::vector<ExprPtr> trijet = ConcatArgs(
          Kinematics(jets, 0), Kinematics(jets, 1), Kinematics(jets, 2));
      query.AddStage(BestCombination(
          {ComboLoop{jets, 0}, ComboLoop{jets, 1}, ComboLoop{jets, 2}},
          /*filter=*/nullptr,
          Abs(Sub(Call(Fn::kInvMass3, trijet), Lit(172.5)))));
      query.AddHistogram(specs[0], Call(Fn::kSumPt3, trijet));
      constexpr int kBtag = 4;
      query.AddHistogram(
          specs[1],
          Call(Fn::kMax2, {Call(Fn::kMax2, {IterMember(jets, 0, kBtag),
                                            IterMember(jets, 1, kBtag)}),
                           IterMember(jets, 2, kBtag)}));
      return query;
    }
    case 7: {
      const int jets = query.DeclareList("Jet", {"pt", "eta", "phi"});
      const int leptons = query.DeclareUnionList(
          "Lepton", {"pt", "eta", "phi"},
          {engine::UnionSource{"Electron", {"pt", "eta", "phi"}, 0.0},
           engine::UnionSource{"Muon", {"pt", "eta", "phi"}, 1.0}});
      const ExprPtr near_lepton = AggOverList(
          AggKind::kAny, leptons, /*iter_slot=*/1,
          And(Gt(IterMember(leptons, 1, kPt), Lit(10.0)),
              Lt(Call(Fn::kDeltaR,
                      {IterMember(jets, 0, kEta), IterMember(jets, 0, kPhi),
                       IterMember(leptons, 1, kEta),
                       IterMember(leptons, 1, kPhi)}),
                 Lit(0.4))),
          nullptr);
      query.AddHistogram(
          specs[0],
          AggOverList(AggKind::kSum, jets, /*iter_slot=*/0,
                      And(Gt(IterMember(jets, 0, kPt), Lit(30.0)),
                          Not(near_lepton)),
                      IterMember(jets, 0, kPt)));
      return query;
    }
    case 8: {
      const int leptons = query.DeclareUnionList(
          "Lepton", {"pt", "eta", "phi", "mass", "charge", "flavor"},
          {engine::UnionSource{
               "Electron", {"pt", "eta", "phi", "mass", "charge"}, 0.0},
           engine::UnionSource{"Muon",
                               {"pt", "eta", "phi", "mass", "charge"},
                               1.0}});
      const int met_pt = query.DeclareScalar("MET.pt");
      const int met_phi = query.DeclareScalar("MET.phi");
      constexpr int kCharge = 4;
      constexpr int kFlavor = 5;
      query.AddStage(Ge(ListSize(leptons), Lit(3.0)));
      // Same-flavor opposite-charge pair closest to the Z mass.
      query.AddStage(BestCombination(
          {ComboLoop{leptons, 0}, ComboLoop{leptons, 1}},
          And(Eq(IterMember(leptons, 0, kFlavor),
                 IterMember(leptons, 1, kFlavor)),
              Ne(IterMember(leptons, 0, kCharge),
                 IterMember(leptons, 1, kCharge))),
          Abs(Sub(Call(Fn::kInvMass2, ConcatArgs(Kinematics(leptons, 0),
                                                 Kinematics(leptons, 1))),
                  Lit(91.2)))));
      // Highest-pt lepton not in the pair (minimize negated pt).
      query.AddStage(BestElement(
          leptons, /*iter_slot=*/2,
          And(Ne(IterOrdinal(leptons, 2), IterOrdinal(leptons, 0)),
              Ne(IterOrdinal(leptons, 2), IterOrdinal(leptons, 1))),
          Sub(Lit(0.0), IterMember(leptons, 2, kPt))));
      query.AddHistogram(
          specs[0], Call(Fn::kTransverseMass,
                         {ScalarRef(met_pt), ScalarRef(met_phi),
                          IterMember(leptons, 2, kPt),
                          IterMember(leptons, 2, kPhi)}));
      return query;
    }
    default:
      return Status::Invalid("ADL query id must be in 1..8");
  }
}

Result<QueryRunOutput> RunAdlEventQuery(int q, const std::string& path,
                                        const ReaderOptions& reader_options,
                                        const RunOptions& options) {
  engine::EventQuery query("");
  HEPQ_ASSIGN_OR_RETURN(query, BuildAdlEventQuery(q));
  query.set_expr_tier(options.expr_tier);
  engine::EventQueryResult result;
  HEPQ_ASSIGN_OR_RETURN(
      result, query.Execute(path, reader_options, options.num_threads));
  return ToRunOutput(result, result.ops);
}

Result<QueryRunOutput> RunAdlQueryBq(int q, const std::string& path,
                                     const RunOptions& options) {
  return RunAdlEventQuery(
      q, path, ReaderOptionsFor(EngineKind::kBigQueryShape, options), options);
}

}  // namespace hepq::queries
