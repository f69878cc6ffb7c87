#include <cmath>
#include <limits>

#include "core/physics.h"
#include "queries/adl.h"
#include "rdf/rdf.h"

namespace hepq::queries {

namespace {

using rdf::EventView;
using rdf::RDataFrame;

struct LeptonView {
  double pt, eta, phi, mass;
  int charge;
  int flavor;  // 0 = electron, 1 = muon
};

/// Gathers the light leptons (electrons + muons) of one event, the
/// RDataFrame analogue of the Leptons CTE.
template <typename EH, typename MH>
std::vector<LeptonView> CollectLeptons(const EventView& e, const EH& eh,
                                       const MH& mh) {
  std::vector<LeptonView> leptons;
  const auto e_pt = e.Get(eh.pt);
  const auto e_eta = e.Get(eh.eta);
  const auto e_phi = e.Get(eh.phi);
  const auto e_mass = e.Get(eh.mass);
  const auto e_charge = e.Get(eh.charge);
  for (size_t i = 0; i < e_pt.size(); ++i) {
    leptons.push_back(LeptonView{e_pt[i], e_eta[i], e_phi[i], e_mass[i],
                                 e_charge[i], 0});
  }
  const auto m_pt = e.Get(mh.pt);
  const auto m_eta = e.Get(mh.eta);
  const auto m_phi = e.Get(mh.phi);
  const auto m_mass = e.Get(mh.mass);
  const auto m_charge = e.Get(mh.charge);
  for (size_t i = 0; i < m_pt.size(); ++i) {
    leptons.push_back(LeptonView{m_pt[i], m_eta[i], m_phi[i], m_mass[i],
                                 m_charge[i], 1});
  }
  return leptons;
}

struct ParticleHandles {
  rdf::ParticleColumn<float> pt, eta, phi, mass;
  rdf::ParticleColumn<int32_t> charge;
};

Result<ParticleHandles> DeclareKinematics(RDataFrame* df,
                                          const std::string& column,
                                          bool with_charge) {
  ParticleHandles h;
  HEPQ_ASSIGN_OR_RETURN(h.pt, df->Particles<float>(column + ".pt"));
  HEPQ_ASSIGN_OR_RETURN(h.eta, df->Particles<float>(column + ".eta"));
  HEPQ_ASSIGN_OR_RETURN(h.phi, df->Particles<float>(column + ".phi"));
  HEPQ_ASSIGN_OR_RETURN(h.mass, df->Particles<float>(column + ".mass"));
  if (with_charge) {
    HEPQ_ASSIGN_OR_RETURN(h.charge,
                          df->Particles<int32_t>(column + ".charge"));
  }
  return h;
}

/// Jet `i` of a per-event JetXYZT column (4 components per jet).
PxPyPzE JetAt(const rdf::RVecD& xyzt, size_t i) {
  return {xyzt[4 * i], xyzt[4 * i + 1], xyzt[4 * i + 2], xyzt[4 * i + 3]};
}

}  // namespace

Result<QueryRunOutput> RunAdlQueryRdf(int q, const std::string& path,
                                      const RunOptions& options) {
  rdf::RdfOptions rdf_options;
  rdf_options.num_threads = options.num_threads;
  rdf_options.reader = ReaderOptionsFor(EngineKind::kRdf, options);
  std::unique_ptr<RDataFrame> df;
  HEPQ_ASSIGN_OR_RETURN(df, RDataFrame::Open(path, rdf_options));
  const std::vector<HistogramSpec> specs = AdlHistogramSpecs(q);
  std::vector<rdf::HistoHandle> handles;

  switch (q) {
    case 1: {
      rdf::ScalarColumn<float> met;
      HEPQ_ASSIGN_OR_RETURN(met, df->Scalar<float>("MET.pt"));
      handles.push_back(df->root().Histo1D(
          specs[0], [met](const EventView& e) { return e.Get(met); }));
      break;
    }
    case 2: {
      rdf::ParticleColumn<float> jet_pt;
      HEPQ_ASSIGN_OR_RETURN(jet_pt, df->Particles<float>("Jet.pt"));
      handles.push_back(df->root().Histo1DVec(
          specs[0], [jet_pt](const EventView& e) {
            const auto pts = e.Get(jet_pt);
            return rdf::RVecD(pts.begin(), pts.end());
          }));
      break;
    }
    case 3: {
      rdf::ParticleColumn<float> jet_pt, jet_eta;
      HEPQ_ASSIGN_OR_RETURN(jet_pt, df->Particles<float>("Jet.pt"));
      HEPQ_ASSIGN_OR_RETURN(jet_eta, df->Particles<float>("Jet.eta"));
      handles.push_back(df->root().Histo1DVec(
          specs[0], [jet_pt, jet_eta](const EventView& e) {
            const auto pts = e.Get(jet_pt);
            const auto etas = e.Get(jet_eta);
            rdf::RVecD out;
            for (size_t i = 0; i < pts.size(); ++i) {
              if (std::abs(etas[i]) < 1.0) out.push_back(pts[i]);
            }
            return out;
          }));
      break;
    }
    case 4: {
      rdf::ScalarColumn<float> met;
      rdf::ParticleColumn<float> jet_pt;
      HEPQ_ASSIGN_OR_RETURN(met, df->Scalar<float>("MET.pt"));
      HEPQ_ASSIGN_OR_RETURN(jet_pt, df->Particles<float>("Jet.pt"));
      // The hint states necessary conditions of the cut: at least two
      // jets, at least one of them above 40 GeV. Storage uses it for
      // zone-map pruning; the lambda stays authoritative.
      ScanPredicateSet hint;
      hint.AddMinCount("Jet", 2);
      hint.AddItemRange("Jet.pt", 40.0,
                        std::numeric_limits<double>::infinity());
      auto selected =
          df->root().Filter([jet_pt](const EventView& e) {
            int n = 0;
            for (float pt : e.Get(jet_pt)) {
              if (pt > 40.0f) ++n;
            }
            return n >= 2;
          }, std::move(hint));
      handles.push_back(selected.Histo1D(
          specs[0], [met](const EventView& e) { return e.Get(met); }));
      break;
    }
    case 5: {
      rdf::ScalarColumn<float> met;
      ParticleHandles muon;
      HEPQ_ASSIGN_OR_RETURN(met, df->Scalar<float>("MET.pt"));
      HEPQ_ASSIGN_OR_RETURN(muon, DeclareKinematics(df.get(), "Muon", true));
      ScanPredicateSet hint;
      hint.AddMinCount("Muon", 2);  // an opposite-charge pair needs two
      auto selected = df->root().Filter([muon](const EventView& e) {
        const auto pt = e.Get(muon.pt);
        const auto eta = e.Get(muon.eta);
        const auto phi = e.Get(muon.phi);
        const auto mass = e.Get(muon.mass);
        const auto charge = e.Get(muon.charge);
        for (size_t i = 0; i < pt.size(); ++i) {
          for (size_t j = i + 1; j < pt.size(); ++j) {
            if (charge[i] == charge[j]) continue;
            const double m =
                InvariantMass2({pt[i], eta[i], phi[i], mass[i]},
                               {pt[j], eta[j], phi[j], mass[j]});
            if (m > 60.0 && m < 120.0) return true;
          }
        }
        return false;
      }, std::move(hint));
      handles.push_back(selected.Histo1D(
          specs[0], [met](const EventView& e) { return e.Get(met); }));
      break;
    }
    case 6: {
      ParticleHandles jet;
      rdf::ParticleColumn<float> btag;
      HEPQ_ASSIGN_OR_RETURN(jet, DeclareKinematics(df.get(), "Jet", false));
      HEPQ_ASSIGN_OR_RETURN(btag, df->Particles<float>("Jet.btag"));
      ScanPredicateSet hint;
      hint.AddMinCount("Jet", 3);
      auto three_jets = df->root().Filter([jet](const EventView& e) {
        return e.Get(jet.pt).size() >= 3;
      }, std::move(hint));
      // Every jet in Cartesian components, converted once per event as
      // ROOT's ADL solution does with Construct<XYZTVector>: jet i's
      // (px, py, pz, E) sit at 4i .. 4i+3. The trijet search and the
      // trijet-pt fill only add these per triple.
      auto xyzt = df->DefineVec("JetXYZT", [jet](const EventView& e) {
        const auto pt = e.Get(jet.pt);
        const auto eta = e.Get(jet.eta);
        const auto phi = e.Get(jet.phi);
        const auto mass = e.Get(jet.mass);
        rdf::RVecD out(4 * pt.size());
        for (size_t i = 0; i < pt.size(); ++i) {
          const PxPyPzE p =
              PtEtaPhiM{pt[i], eta[i], phi[i], mass[i]}.ToPxPyPzE();
          out[4 * i] = p.px;
          out[4 * i + 1] = p.py;
          out[4 * i + 2] = p.pz;
          out[4 * i + 3] = p.e;
        }
        return out;
      });
      // The combination search runs once per event and is shared by the
      // two histograms through a cached vector Define.
      auto best = df->DefineVec("best_trijet", [xyzt](const EventView& e) {
        const rdf::RVecD& jets = e.Get(xyzt);
        const size_t n = jets.size() / 4;
        double best_diff = 1e300;
        rdf::RVecD best_indices;
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = i + 1; j < n; ++j) {
            for (size_t k = j + 1; k < n; ++k) {
              const double m = MassOfSum3(JetAt(jets, i), JetAt(jets, j),
                                          JetAt(jets, k));
              const double diff = std::abs(m - 172.5);
              if (diff < best_diff) {
                best_diff = diff;
                best_indices = {static_cast<double>(i),
                                static_cast<double>(j),
                                static_cast<double>(k)};
              }
            }
          }
        }
        return best_indices;
      });
      handles.push_back(three_jets.Histo1D(
          specs[0], [xyzt, best](const EventView& e) {
            const auto& idx = e.Get(best);
            const rdf::RVecD& jets = e.Get(xyzt);
            return PtOfSum3(JetAt(jets, static_cast<size_t>(idx[0])),
                            JetAt(jets, static_cast<size_t>(idx[1])),
                            JetAt(jets, static_cast<size_t>(idx[2])));
          }));
      handles.push_back(three_jets.Histo1D(
          specs[1], [btag, best](const EventView& e) {
            const auto& idx = e.Get(best);
            const auto tags = e.Get(btag);
            double best_tag = 0.0;
            for (double d : idx) {
              best_tag =
                  std::max(best_tag,
                           static_cast<double>(tags[static_cast<size_t>(d)]));
            }
            return best_tag;
          }));
      break;
    }
    case 7: {
      ParticleHandles jet;
      ParticleHandles electron;
      ParticleHandles muon;
      HEPQ_ASSIGN_OR_RETURN(jet, DeclareKinematics(df.get(), "Jet", false));
      HEPQ_ASSIGN_OR_RETURN(electron,
                            DeclareKinematics(df.get(), "Electron", true));
      HEPQ_ASSIGN_OR_RETURN(muon, DeclareKinematics(df.get(), "Muon", true));
      handles.push_back(df->root().Histo1D(
          specs[0], [jet, electron, muon](const EventView& e) {
            const auto pt = e.Get(jet.pt);
            const auto eta = e.Get(jet.eta);
            const auto phi = e.Get(jet.phi);
            const auto leptons = CollectLeptons(e, electron, muon);
            double sum = 0.0;
            for (size_t i = 0; i < pt.size(); ++i) {
              if (pt[i] <= 30.0f) continue;
              bool isolated = true;
              for (const LeptonView& lepton : leptons) {
                if (lepton.pt <= 10.0) continue;
                if (DeltaR(eta[i], phi[i], lepton.eta, lepton.phi) < 0.4) {
                  isolated = false;
                  break;
                }
              }
              if (isolated) sum += pt[i];
            }
            return sum;
          }));
      break;
    }
    case 8: {
      rdf::ScalarColumn<float> met_pt, met_phi;
      ParticleHandles electron, muon;
      HEPQ_ASSIGN_OR_RETURN(met_pt, df->Scalar<float>("MET.pt"));
      HEPQ_ASSIGN_OR_RETURN(met_phi, df->Scalar<float>("MET.phi"));
      HEPQ_ASSIGN_OR_RETURN(electron,
                            DeclareKinematics(df.get(), "Electron", true));
      HEPQ_ASSIGN_OR_RETURN(muon, DeclareKinematics(df.get(), "Muon", true));
      // Cached per-event: [found, i, j, other] over the combined leptons.
      auto best = df->DefineVec("best_pair", [electron,
                                              muon](const EventView& e) {
        const auto leptons = CollectLeptons(e, electron, muon);
        if (leptons.size() < 3) return rdf::RVecD{0};
        double best_diff = 1e300;
        int best_i = -1, best_j = -1;
        for (size_t i = 0; i < leptons.size(); ++i) {
          for (size_t j = i + 1; j < leptons.size(); ++j) {
            if (leptons[i].flavor != leptons[j].flavor) continue;
            if (leptons[i].charge == leptons[j].charge) continue;
            const double m = InvariantMass2(
                {leptons[i].pt, leptons[i].eta, leptons[i].phi,
                 leptons[i].mass},
                {leptons[j].pt, leptons[j].eta, leptons[j].phi,
                 leptons[j].mass});
            const double diff = std::abs(m - 91.2);
            if (diff < best_diff) {
              best_diff = diff;
              best_i = static_cast<int>(i);
              best_j = static_cast<int>(j);
            }
          }
        }
        if (best_i < 0) return rdf::RVecD{0};
        int other = -1;
        for (size_t l = 0; l < leptons.size(); ++l) {
          if (static_cast<int>(l) == best_i || static_cast<int>(l) == best_j) {
            continue;
          }
          if (other < 0 ||
              leptons[l].pt > leptons[static_cast<size_t>(other)].pt) {
            other = static_cast<int>(l);
          }
        }
        if (other < 0) return rdf::RVecD{0};
        return rdf::RVecD{1, static_cast<double>(best_i),
                          static_cast<double>(best_j),
                          static_cast<double>(other)};
      });
      // A Z candidate plus a third lepton needs three leptons across both
      // flavors combined.
      ScanPredicateSet hint;
      hint.AddMinCountSum({"Electron", "Muon"}, 3);
      auto selected = df->root().Filter([best](const EventView& e) {
        return e.Get(best)[0] != 0.0;
      }, std::move(hint));
      handles.push_back(selected.Histo1D(
          specs[0],
          [met_pt, met_phi, electron, muon, best](const EventView& e) {
            const auto& result = e.Get(best);
            const auto leptons = CollectLeptons(e, electron, muon);
            const LeptonView& other =
                leptons[static_cast<size_t>(result[3])];
            return TransverseMass(e.Get(met_pt), e.Get(met_phi), other.pt,
                                  other.phi);
          }));
      break;
    }
    default:
      return Status::Invalid("ADL query id must be in 1..8");
  }

  HEPQ_RETURN_NOT_OK(df->Run());

  QueryRunOutput out;
  for (const rdf::HistoHandle& handle : handles) {
    out.histograms.push_back(df->GetHistogram(handle));
  }
  out.events_processed = df->run_stats().events_processed;
  out.wall_seconds = df->run_stats().wall_seconds;
  out.cpu_seconds = df->run_stats().cpu_seconds;
  out.scan = df->run_stats().scan;
  return out;
}

}  // namespace hepq::queries
