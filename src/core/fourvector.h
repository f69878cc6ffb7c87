#ifndef HEPQUERY_CORE_FOURVECTOR_H_
#define HEPQUERY_CORE_FOURVECTOR_H_

#include <cmath>

namespace hepq {

struct PtEtaPhiM;

/// The arithmetic of PtEtaPhiM::ToPxPyPzE, one body each: a momentum
/// component pt * f, where f is cos(phi), sin(phi) or sinh(eta), and
/// E = sqrt(px^2 + py^2 + pz^2 + m^2). Defined out of line and never
/// inlined (fourvector.cc), so the conversion, the interpreter through it
/// and the expression VM's component kernels (engine/vexpr) all run the
/// same compiled instructions. Operand order is the compiler's choice per
/// body, and it decides which payload survives when two NaNs meet; one
/// body means one choice, so every caller agrees to the bit. The libm
/// factor stays with the caller, where cos and sin of one phi may share
/// one sincos call.
double MomentumComponent(double pt, double factor);
double CartesianE(double px, double py, double pz, double mass);

/// Relativistic four-momentum in Cartesian representation (px, py, pz, E).
/// This is the representation in which four-momenta add component-wise; HEP
/// detectors, however, measure in the cylindrical (pt, eta, phi, m) basis,
/// so combining particles is convert -> add -> convert back.
struct PxPyPzE {
  double px = 0.0;
  double py = 0.0;
  double pz = 0.0;
  double e = 0.0;

  PxPyPzE operator+(const PxPyPzE& o) const {
    return {px + o.px, py + o.py, pz + o.pz, e + o.e};
  }

  double Pt() const { return std::hypot(px, py); }
  double P2() const { return px * px + py * py + pz * pz; }

  /// Invariant mass m = sqrt(E^2 - |p|^2); clamped at 0 for round-off.
  double Mass() const {
    const double m2 = e * e - P2();
    return m2 > 0.0 ? std::sqrt(m2) : 0.0;
  }

  double Eta() const;
  double Phi() const { return std::atan2(py, px); }

  PtEtaPhiM ToPtEtaPhiM() const;
};

/// Four-momentum in the detector-native cylindrical basis:
/// transverse momentum, pseudorapidity, azimuth, and rest mass.
struct PtEtaPhiM {
  double pt = 0.0;
  double eta = 0.0;
  double phi = 0.0;
  double mass = 0.0;

  /// Built from MomentumComponent and CartesianE, the definitions the
  /// vectorized expression VM (engine/vexpr) calls too, which keeps the
  /// two bit-identical no matter how each caller's translation unit would
  /// have compiled the FP math.
  PxPyPzE ToPxPyPzE() const;

  /// Vector-space transform, piece-wise addition, reverse transform — the
  /// "pseudo-particle" combination pattern of ADL queries Q5/Q6/Q8.
  PtEtaPhiM operator+(const PtEtaPhiM& o) const {
    return (ToPxPyPzE() + o.ToPxPyPzE()).ToPtEtaPhiM();
  }
};

/// Sums three four-momenta (the "trijet system" of Q6).
PtEtaPhiM AddPtEtaPhiM3(const PtEtaPhiM& a, const PtEtaPhiM& b,
                        const PtEtaPhiM& c);

}  // namespace hepq

#endif  // HEPQUERY_CORE_FOURVECTOR_H_
