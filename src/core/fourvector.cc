#include "core/fourvector.h"

namespace hepq {

double PxPyPzE::Eta() const {
  const double pt = Pt();
  if (pt == 0.0) return pz >= 0.0 ? 1e9 : -1e9;  // beam-axis limit
  return std::asinh(pz / pt);
}

PtEtaPhiM PxPyPzE::ToPtEtaPhiM() const {
  return {Pt(), Eta(), Phi(), Mass()};
}

[[gnu::noinline]] double MomentumComponent(double pt, double factor) {
  return pt * factor;
}

[[gnu::noinline]] double CartesianE(double px, double py, double pz,
                                    double mass) {
  return std::sqrt(px * px + py * py + pz * pz + mass * mass);
}

PxPyPzE PtEtaPhiM::ToPxPyPzE() const {
  const double px = MomentumComponent(pt, std::cos(phi));
  const double py = MomentumComponent(pt, std::sin(phi));
  const double pz = MomentumComponent(pt, std::sinh(eta));
  return {px, py, pz, CartesianE(px, py, pz, mass)};
}

}  // namespace hepq
