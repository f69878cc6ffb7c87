#include "doc/runner.h"
#include "queries/adl.h"
#include "queries/builders.h"

namespace hepq::queries {

namespace {

using doc::DArray;
using doc::DBin;
using doc::DBool;
using doc::DCall;
using doc::DConcat;
using doc::DContextItem;
using doc::DIf;
using doc::DMember;
using doc::DNum;
using doc::DObject;
using doc::DocBinOp;
using doc::DocExprPtr;
using doc::DocQuery;
using doc::DPredicate;
using doc::DUnbox;
using doc::DVar;
using doc::FlworClause;
using doc::For;
using doc::Let;
using doc::Where;

DocExprPtr Event() { return DVar("event"); }
DocExprPtr Particles(const std::string& column) {
  return DUnbox(DMember(Event(), column));
}
DocExprPtr MetMember(const std::string& member) {
  return DMember(DMember(Event(), "MET"), member);
}
DocExprPtr Lt(DocExprPtr a, DocExprPtr b) {
  return DBin(DocBinOp::kLt, std::move(a), std::move(b));
}
DocExprPtr Gt(DocExprPtr a, DocExprPtr b) {
  return DBin(DocBinOp::kGt, std::move(a), std::move(b));
}
DocExprPtr Ge(DocExprPtr a, DocExprPtr b) {
  return DBin(DocBinOp::kGe, std::move(a), std::move(b));
}
DocExprPtr Eq(DocExprPtr a, DocExprPtr b) {
  return DBin(DocBinOp::kEq, std::move(a), std::move(b));
}
DocExprPtr Ne(DocExprPtr a, DocExprPtr b) {
  return DBin(DocBinOp::kNe, std::move(a), std::move(b));
}
DocExprPtr AndE(DocExprPtr a, DocExprPtr b) {
  return DBin(DocBinOp::kAnd, std::move(a), std::move(b));
}
DocExprPtr Sub(DocExprPtr a, DocExprPtr b) {
  return DBin(DocBinOp::kSub, std::move(a), std::move(b));
}

/// for $<var> in <source> return {pt, eta, phi, mass, charge, flavor}
DocExprPtr TaggedLeptons(const std::string& column, double flavor) {
  return doc::DFlwor(
      {For("l", Particles(column))},
      DObject({{"pt", DMember(DVar("l"), "pt")},
               {"eta", DMember(DVar("l"), "eta")},
               {"phi", DMember(DVar("l"), "phi")},
               {"mass", DMember(DVar("l"), "mass")},
               {"charge", DMember(DVar("l"), "charge")},
               {"flavor", DNum(flavor)}}));
}

}  // namespace

Result<doc::DocQuery> BuildAdlDocQuery(int q) {
  const std::vector<HistogramSpec> specs = AdlHistogramSpecs(q);
  DocQuery query;
  query.name = "adl_q" + std::to_string(q) + "_jsoniq";
  switch (q) {
    case 1: {
      query.fills.emplace_back(specs[0], MetMember("pt"));
      query.projection = {"MET.pt"};  // simple enough for Rumble to push
      return query;
    }
    case 2: {
      query.fills.emplace_back(specs[0], DMember(Particles("Jet"), "pt"));
      query.projection = {"Jet.pt"};
      return query;
    }
    case 3: {
      // $event.Jet[][abs($$.eta) < 1].pt
      query.fills.emplace_back(
          specs[0],
          DMember(DPredicate(Particles("Jet"),
                             Lt(DCall("abs",
                                      {DMember(DContextItem(), "eta")}),
                                DNum(1.0))),
                  "pt"));
      return query;
    }
    case 4: {
      query.guard =
          Gt(DCall("count",
                   {DPredicate(Particles("Jet"),
                               Gt(DMember(DContextItem(), "pt"),
                                  DNum(40.0)))}),
             DNum(1.0));
      query.fills.emplace_back(specs[0], MetMember("pt"));
      return query;
    }
    case 5: {
      query.lets.emplace_back("muons", Particles("Muon"));
      query.guard = DCall(
          "exists",
          {doc::DFlwor(
              {For("m1", DVar("muons"), "i"), For("m2", DVar("muons"), "j"),
               Where(AndE(
                   Lt(DVar("i"), DVar("j")),
                   AndE(Ne(DMember(DVar("m1"), "charge"),
                           DMember(DVar("m2"), "charge")),
                        AndE(Gt(DCall("hep:invariant-mass2",
                                      {DVar("m1"), DVar("m2")}),
                                DNum(60.0)),
                             Lt(DCall("hep:invariant-mass2",
                                      {DVar("m1"), DVar("m2")}),
                                DNum(120.0))))))},
              DNum(1.0))});
      query.fills.emplace_back(specs[0], MetMember("pt"));
      return query;
    }
    case 6: {
      query.lets.emplace_back("jets", Particles("Jet"));
      // (for $j1 at $i in $jets ... order by |m3 - 172.5| return
      //  {"pt": ..., "btag": ...})[1]
      query.lets.emplace_back(
          "best",
          DIf(Ge(DCall("count", {DVar("jets")}), DNum(3.0)),
              DPredicate(
                  doc::DFlwor(
                      {For("j1", DVar("jets"), "i"),
                       For("j2", DVar("jets"), "j"),
                       For("j3", DVar("jets"), "k"),
                       Where(AndE(Lt(DVar("i"), DVar("j")),
                                  Lt(DVar("j"), DVar("k"))))},
                      DObject(
                          {{"pt",
                            DMember(DCall("hep:add-pt-eta-phi-m3",
                                          {DVar("j1"), DVar("j2"),
                                           DVar("j3")}),
                                    "pt")},
                           {"btag",
                            DCall("max",
                                  {DConcat(
                                      {DMember(DVar("j1"), "btag"),
                                       DMember(DVar("j2"), "btag"),
                                       DMember(DVar("j3"), "btag")})})}}),
                      /*order_by_key=*/
                      DCall("abs",
                            {Sub(DCall("hep:invariant-mass3",
                                       {DVar("j1"), DVar("j2"), DVar("j3")}),
                                 DNum(172.5))})),
                  DNum(1.0)),
              nullptr));
      query.guard = DCall("exists", {DVar("best")});
      query.fills.emplace_back(specs[0], DMember(DVar("best"), "pt"));
      query.fills.emplace_back(specs[1], DMember(DVar("best"), "btag"));
      return query;
    }
    case 7: {
      query.lets.emplace_back(
          "leptons", DConcat({Particles("Electron"), Particles("Muon")}));
      query.fills.emplace_back(
          specs[0],
          DCall("sum",
                {doc::DFlwor(
                    {For("j", Particles("Jet")),
                     Where(AndE(
                         Gt(DMember(DVar("j"), "pt"), DNum(30.0)),
                         DCall("empty",
                               {DPredicate(
                                   DVar("leptons"),
                                   AndE(Gt(DMember(DContextItem(), "pt"),
                                           DNum(10.0)),
                                        Lt(DCall("hep:delta-r",
                                                 {DContextItem(), DVar("j")}),
                                           DNum(0.4))))})))},
                    DMember(DVar("j"), "pt"))}));
      return query;
    }
    case 8: {
      query.lets.emplace_back(
          "leptons",
          DConcat({TaggedLeptons("Electron", 0.0),
                   TaggedLeptons("Muon", 1.0)}));
      query.lets.emplace_back(
          "pair",
          DIf(Ge(DCall("count", {DVar("leptons")}), DNum(3.0)),
              DPredicate(
                  doc::DFlwor(
                      {For("l1", DVar("leptons"), "i"),
                       For("l2", DVar("leptons"), "j"),
                       Where(AndE(
                           Lt(DVar("i"), DVar("j")),
                           AndE(Eq(DMember(DVar("l1"), "flavor"),
                                   DMember(DVar("l2"), "flavor")),
                                Ne(DMember(DVar("l1"), "charge"),
                                   DMember(DVar("l2"), "charge")))))},
                      DObject({{"i", DVar("i")}, {"j", DVar("j")}}),
                      /*order_by_key=*/
                      DCall("abs",
                            {Sub(DCall("hep:invariant-mass2",
                                       {DVar("l1"), DVar("l2")}),
                                 DNum(91.2))})),
                  DNum(1.0)),
              nullptr));
      query.lets.emplace_back(
          "other",
          DIf(DCall("exists", {DVar("pair")}),
              DPredicate(
                  doc::DFlwor(
                      {For("l", DVar("leptons"), "k"),
                       Where(AndE(Ne(DVar("k"),
                                     DMember(DVar("pair"), "i")),
                                  Ne(DVar("k"),
                                     DMember(DVar("pair"), "j"))))},
                      DVar("l"),
                      /*order_by_key=*/DMember(DVar("l"), "pt"),
                      /*order_descending=*/true),
                  DNum(1.0)),
              nullptr));
      query.guard = DCall("exists", {DVar("other")});
      query.fills.emplace_back(
          specs[0], DCall("hep:transverse-mass",
                          {MetMember("pt"), MetMember("phi"),
                           DMember(DVar("other"), "pt"),
                           DMember(DVar("other"), "phi")}));
      return query;
    }
    default:
      return Status::Invalid("ADL query id must be in 1..8");
  }
}

Result<QueryRunOutput> RunAdlQueryDoc(int q, const std::string& path,
                                      const RunOptions& options) {
  doc::DocQuery query;
  HEPQ_ASSIGN_OR_RETURN(query, BuildAdlDocQuery(q));
  doc::DocQueryResult result;
  HEPQ_ASSIGN_OR_RETURN(
      result,
      doc::RunDocQuery(path, ReaderOptionsFor(EngineKind::kDoc, options),
                       options.num_threads, query));
  return ToRunOutput(result, result.interpreter_steps);
}

}  // namespace hepq::queries
