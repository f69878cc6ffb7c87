// Strip-mined execution of fused expression plans (the simd tier), and
// VOpApply, the scalar reference the constant folder shares with them.
//
// Bit-identity contract: every micro-op body below performs the exact IEEE
// operation sequence of the corresponding VOpApply case (which mirrors the
// interpreter's switch in expr.cc) — same operand order, same comparison
// forms, same out-of-line helper calls. The component kernels
// (kPx/kPy/kPz/kE) call MomentumComponent and CartesianE, the
// out-of-line bodies PtEtaPhiM::ToPxPyPzE is built from, and the
// structure-of-arrays Cartesian kernels inline the operation sequences of
// MassOfSum2/3 and PtOfSum3 from core/physics.cc verbatim. This file,
// physics.cc, and fourvector.cc are all compiled with -ffp-contract=off
// (see the CMakeLists), so no build mode can contract a*b+c into an FMA
// here while the helper keeps separate rounding, or vice versa. Do not
// reassociate, hoist, or "simplify" any arithmetic in this file without
// re-running the interpret-vs-simd agreement matrix in vexpr_test.
//
// The full-strip bodies run with a constant trip count (kVexprBlockLanes)
// over 64-byte-aligned temporaries, which is what lets the compiler
// auto-vectorize them; CI greps the -fopt-info-vec report for this file
// to keep that true (see HEPQ_VEC_REPORT in the top-level CMakeLists).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/fourvector.h"
#include "core/physics.h"
#include "engine/vexpr_fuse.h"
#include "obs/trace.h"

namespace hepq::engine {

namespace {

constexpr int kW = kVexprBlockLanes;

template <typename T>
void LoadStrip(const T* src, const uint32_t* index, int base, int w,
               double* d) {
  if (index != nullptr) {
    const uint32_t* idx = index + base;
    for (int i = 0; i < w; ++i) d[i] = static_cast<double>(src[idx[i]]);
  } else {
    const T* s = src + base;
    if (w == kW) {
      for (int i = 0; i < kW; ++i) d[i] = static_cast<double>(s[i]);
    } else {
      for (int i = 0; i < w; ++i) d[i] = static_cast<double>(s[i]);
    }
  }
}

// One column into one strip temporary: splat, then type dispatch. Shared
// by the kLoad micro-op and the staged fallback of the gather-absorbed
// kernels.
void LoadStripCol(const VColumn& col, int base, int w, double* d) {
  if (col.data == nullptr) {
    const double v = col.splat;
    for (int i = 0; i < w; ++i) d[i] = v;
    return;
  }
  switch (col.type) {
    case TypeId::kFloat32:
      LoadStrip(static_cast<const float*>(col.data), col.index, base, w, d);
      break;
    case TypeId::kFloat64:
      LoadStrip(static_cast<const double*>(col.data), col.index, base, w, d);
      break;
    case TypeId::kInt32:
      LoadStrip(static_cast<const int32_t*>(col.data), col.index, base, w, d);
      break;
    case TypeId::kInt64:
      LoadStrip(static_cast<const int64_t*>(col.data), col.index, base, w, d);
      break;
    case TypeId::kBool:
      LoadStrip(static_cast<const uint8_t*>(col.data), col.index, base, w, d);
      break;
    default:
      for (int i = 0; i < w; ++i) d[i] = 0.0;
      break;
  }
}

// Inline replicas of the per-lane core/physics helpers, copied operation
// for operation from physics.cc (this TU and that one are both compiled
// with -ffp-contract=off, so they round identically). Replicating them
// here removes an out-of-line call per lane from the strip loops; the
// interpret-vs-simd agreement matrix in vexpr_test pins them to the
// originals.
inline double DeltaPhiLane(double phi1, double phi2) {
  double d = phi1 - phi2;
  if (!std::isfinite(d)) return std::numeric_limits<double>::quiet_NaN();
  while (d > M_PI) d -= 2.0 * M_PI;
  while (d <= -M_PI) d += 2.0 * M_PI;
  return d;
}

inline double DeltaRLane(double eta1, double phi1, double eta2, double phi2) {
  const double deta = eta1 - eta2;
  const double dphi = DeltaPhiLane(phi1, phi2);
  return std::sqrt(deta * deta + dphi * dphi);
}

inline double TransverseMassLane(double pt1, double phi1, double pt2,
                                 double phi2) {
  const double arg =
      2.0 * pt1 * pt2 * (1.0 - std::cos(DeltaPhiLane(phi1, phi2)));
  return arg > 0.0 ? std::sqrt(arg) : 0.0;
}

// The three libm-calling lines of PtEtaPhiM::ToPxPyPzE: the factor here,
// the product through the one body core/fourvector.cc also uses.
inline double PxLane(double pt, double phi) {
  return MomentumComponent(pt, std::cos(phi));
}
inline double PyLane(double pt, double phi) {
  return MomentumComponent(pt, std::sin(phi));
}
inline double PzLane(double pt, double eta) {
  return MomentumComponent(pt, std::sinh(eta));
}

// Bitwise operand equality: memcmp, not ==. -0.0 == +0.0, yet
// -0.0 * cos(phi) and +0.0 * cos(phi) differ in sign, so only identical
// bits may share a result.
inline bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// A libm-calling component over one strip: a lane whose two operands are
// bitwise equal to the previous lane's copies that lane's result (the
// function is pure, so the bits are the ones it would compute).
template <double (*F)(double, double)>
void RepeatReuseLanes(const double* a, const double* b, int w, double* d) {
  d[0] = F(a[0], b[0]);
  for (int i = 1; i < w; ++i) {
    d[i] = SameBits(a[i], a[i - 1]) && SameBits(b[i], b[i - 1])
               ? d[i - 1]
               : F(a[i], b[i]);
  }
}

// A particle's momentum components viewed structure-of-arrays for the
// gather-absorbed kernels: all `n` slots must be raw double columns
// sharing one index vector (the shape the combination-frame drivers
// bind). Any other shape falls back to staged strips.
struct SoAView {
  const double* c[4];
  const uint32_t* idx;
};

bool SoAParticle(const VColumn* cols, const uint16_t* slots, int n,
                 SoAView* v) {
  v->idx = cols[slots[0]].index;
  for (int k = 0; k < n; ++k) {
    const VColumn& col = cols[slots[k]];
    if (col.type != TypeId::kFloat64 || col.data == nullptr ||
        col.index != v->idx) {
      return false;
    }
    v->c[k] = static_cast<const double*>(col.data);
  }
  return true;
}

}  // namespace

double VOpApply(VOp op, const double* v) {
  switch (op) {
    case VOp::kAdd: return v[0] + v[1];
    case VOp::kSub: return v[0] - v[1];
    case VOp::kMul: return v[0] * v[1];
    case VOp::kDiv: return v[0] / v[1];
    case VOp::kLt: return v[0] < v[1] ? 1.0 : 0.0;
    case VOp::kLe: return v[0] <= v[1] ? 1.0 : 0.0;
    case VOp::kGt: return v[0] > v[1] ? 1.0 : 0.0;
    case VOp::kGe: return v[0] >= v[1] ? 1.0 : 0.0;
    case VOp::kEq: return v[0] == v[1] ? 1.0 : 0.0;
    case VOp::kNe: return v[0] != v[1] ? 1.0 : 0.0;
    // Eager && / || match the interpreter's short-circuit forms exactly:
    // operands reaching a VM program are pure, and booleans are exact 0/1.
    case VOp::kAnd: return v[0] != 0.0 && v[1] != 0.0 ? 1.0 : 0.0;
    case VOp::kOr: return v[0] != 0.0 || v[1] != 0.0 ? 1.0 : 0.0;
    case VOp::kAbs: return std::abs(v[0]);
    case VOp::kSqrt: return std::sqrt(v[0]);
    case VOp::kNot: return v[0] != 0.0 ? 0.0 : 1.0;
    case VOp::kMin2: return std::min(v[0], v[1]);
    case VOp::kMax2: return std::max(v[0], v[1]);
    case VOp::kDeltaPhi: return DeltaPhi(v[0], v[1]);
    case VOp::kDeltaR: return DeltaR(v[0], v[1], v[2], v[3]);
    case VOp::kTransverseMass:
      return TransverseMass(v[0], v[1], v[2], v[3]);
    case VOp::kPx: return PxLane(v[0], v[1]);
    case VOp::kPy: return PyLane(v[0], v[1]);
    case VOp::kPz: return PzLane(v[0], v[1]);
    case VOp::kE: return CartesianE(v[0], v[1], v[2], v[3]);
    case VOp::kMassOfSum2:
      return MassOfSum2({v[0], v[1], v[2], v[3]}, {v[4], v[5], v[6], v[7]});
    case VOp::kMassOfSum3:
      return MassOfSum3({v[0], v[1], v[2], v[3]}, {v[4], v[5], v[6], v[7]},
                        {v[8], v[9], v[10], v[11]});
    case VOp::kPtOfSum3:
      // PtOfSum3 reads only px and py.
      return PtOfSum3({v[0], v[1], 0.0, 0.0}, {v[2], v[3], 0.0, 0.0},
                      {v[4], v[5], 0.0, 0.0});
    case VOp::kConst:
    case VOp::kLoad:
      break;
  }
  return 0.0;
}

// Emits the loop body twice: once with the constant trip count kW (the
// full-strip fast path the vectorizer unrolls into straight SIMD) and
// once with the runtime bound w (the final partial strip). Both execute
// the identical per-lane expression, so path choice cannot change bits.
#define HEPQ_FUSED_LANES(body)                    \
  do {                                            \
    if (w == kW) {                                \
      for (int i = 0; i < kW; ++i) { body; }      \
    } else {                                      \
      for (int i = 0; i < w; ++i) { body; }       \
    }                                             \
  } while (0)

void VFusedPlan::ExecStrip(const VColumn* cols, int base, int w,
                           double* t) const {
  const uint16_t* const pool = args_.data();
  const double* p[12];
  for (const MInstr& m : mops_) {
    double* const d = t + m.dst * kW;
    const uint16_t* ia = pool + m.first_arg;
    // Gather-absorbed ops carry input slot ids in the args pool, not strip
    // temp ids — their operands must not be resolved against the block.
    const bool slot_args = m.op >= MOp::kMassOfSum2G;
    const double* const a =
        !slot_args && m.num_args > 0 ? t + ia[0] * kW : nullptr;
    const double* const b =
        !slot_args && m.num_args > 1 ? t + ia[1] * kW : nullptr;
    const double* const c =
        !slot_args && m.num_args > 2 ? t + ia[2] * kW : nullptr;
    switch (m.op) {
      case MOp::kSplat: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = v);
        break;
      }
      case MOp::kLoad:
        LoadStripCol(cols[m.aux], base, w, d);
        break;
      case MOp::kAbs:
        HEPQ_FUSED_LANES(d[i] = std::abs(a[i]));
        break;
      case MOp::kSqrt:
        HEPQ_FUSED_LANES(d[i] = std::sqrt(a[i]));
        break;
      case MOp::kNot:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 ? 0.0 : 1.0);
        break;
      case MOp::kAdd:
        HEPQ_FUSED_LANES(d[i] = a[i] + b[i]);
        break;
      case MOp::kSub:
        HEPQ_FUSED_LANES(d[i] = a[i] - b[i]);
        break;
      case MOp::kMul:
        HEPQ_FUSED_LANES(d[i] = a[i] * b[i]);
        break;
      case MOp::kDiv:
        HEPQ_FUSED_LANES(d[i] = a[i] / b[i]);
        break;
      case MOp::kLt:
        HEPQ_FUSED_LANES(d[i] = a[i] < b[i] ? 1.0 : 0.0);
        break;
      case MOp::kLe:
        HEPQ_FUSED_LANES(d[i] = a[i] <= b[i] ? 1.0 : 0.0);
        break;
      case MOp::kGt:
        HEPQ_FUSED_LANES(d[i] = a[i] > b[i] ? 1.0 : 0.0);
        break;
      case MOp::kGe:
        HEPQ_FUSED_LANES(d[i] = a[i] >= b[i] ? 1.0 : 0.0);
        break;
      case MOp::kEq:
        HEPQ_FUSED_LANES(d[i] = a[i] == b[i] ? 1.0 : 0.0);
        break;
      case MOp::kNe:
        HEPQ_FUSED_LANES(d[i] = a[i] != b[i] ? 1.0 : 0.0);
        break;
      case MOp::kAnd:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] != 0.0 ? 1.0 : 0.0);
        break;
      case MOp::kOr:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] != 0.0 ? 1.0 : 0.0);
        break;
      case MOp::kMin2:
        HEPQ_FUSED_LANES(d[i] = std::min(a[i], b[i]));
        break;
      case MOp::kMax2:
        HEPQ_FUSED_LANES(d[i] = std::max(a[i], b[i]));
        break;
      case MOp::kAddImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] + v);
        break;
      }
      case MOp::kSubImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] - v);
        break;
      }
      case MOp::kRsubImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = v - a[i]);
        break;
      }
      case MOp::kMulImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] * v);
        break;
      }
      case MOp::kDivImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] / v);
        break;
      }
      case MOp::kRdivImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = v / a[i]);
        break;
      }
      case MOp::kLtImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] < v ? 1.0 : 0.0);
        break;
      }
      case MOp::kLeImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] <= v ? 1.0 : 0.0);
        break;
      }
      case MOp::kGtImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] > v ? 1.0 : 0.0);
        break;
      }
      case MOp::kGeImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] >= v ? 1.0 : 0.0);
        break;
      }
      case MOp::kEqImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] == v ? 1.0 : 0.0);
        break;
      }
      case MOp::kNeImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != v ? 1.0 : 0.0);
        break;
      }
      case MOp::kAndLt:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] < c[i] ? 1.0 : 0.0);
        break;
      case MOp::kAndLe:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] <= c[i] ? 1.0 : 0.0);
        break;
      case MOp::kAndGt:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] > c[i] ? 1.0 : 0.0);
        break;
      case MOp::kAndGe:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] >= c[i] ? 1.0 : 0.0);
        break;
      case MOp::kOrLt:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] < c[i] ? 1.0 : 0.0);
        break;
      case MOp::kOrLe:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] <= c[i] ? 1.0 : 0.0);
        break;
      case MOp::kOrGt:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] > c[i] ? 1.0 : 0.0);
        break;
      case MOp::kOrGe:
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] >= c[i] ? 1.0 : 0.0);
        break;
      case MOp::kAndLtImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] < v ? 1.0 : 0.0);
        break;
      }
      case MOp::kAndLeImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] <= v ? 1.0 : 0.0);
        break;
      }
      case MOp::kAndGtImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] > v ? 1.0 : 0.0);
        break;
      }
      case MOp::kAndGeImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 && b[i] >= v ? 1.0 : 0.0);
        break;
      }
      case MOp::kOrLtImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] < v ? 1.0 : 0.0);
        break;
      }
      case MOp::kOrLeImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] <= v ? 1.0 : 0.0);
        break;
      }
      case MOp::kOrGtImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] > v ? 1.0 : 0.0);
        break;
      }
      case MOp::kOrGeImm: {
        const double v = imms_[m.aux];
        HEPQ_FUSED_LANES(d[i] = a[i] != 0.0 || b[i] >= v ? 1.0 : 0.0);
        break;
      }
      // Per-lane helper bodies: data-dependent control flow (angle
      // wrapping, mass clamping) keeps these scalar, but the inline Lane
      // replicas above save an out-of-line call per lane and their inputs
      // are already L1-hot in the strip.
      case MOp::kDeltaPhi:
        for (int i = 0; i < w; ++i) d[i] = DeltaPhiLane(a[i], b[i]);
        break;
      case MOp::kDeltaR:
        for (int i = 0; i < w; ++i) {
          d[i] = DeltaRLane(a[i], b[i], c[i], (t + ia[3] * kW)[i]);
        }
        break;
      case MOp::kTransverseMass:
        for (int i = 0; i < w; ++i) {
          d[i] = TransverseMassLane(a[i], b[i], c[i], (t + ia[3] * kW)[i]);
        }
        break;
      // Cartesian components, through the compiled bodies ToPxPyPzE
      // (core/fourvector.cc) uses. The libm-calling three reuse the
      // previous lane's result on bitwise-repeated operands.
      case MOp::kPx:
        RepeatReuseLanes<PxLane>(a, b, w, d);
        break;
      case MOp::kPy:
        RepeatReuseLanes<PyLane>(a, b, w, d);
        break;
      case MOp::kPz:
        RepeatReuseLanes<PzLane>(a, b, w, d);
        break;
      case MOp::kE: {
        const double* const m = t + ia[3] * kW;
        for (int i = 0; i < w; ++i) d[i] = CartesianE(a[i], b[i], c[i], m[i]);
        break;
      }
      // Structure-of-arrays Cartesian kernels. Args are (px, py, pz, e)
      // per particle (px, py for the pt); the bodies repeat
      // PxPyPzE::operator+ / Mass() / Pt() from core/fourvector.h
      // operation for operation (componentwise left-associated sums,
      // m2 = e*e - (px*px + py*py + pz*pz), the m2 > 0 clamp before sqrt)
      // so the inlined, vectorized form rounds identically to the
      // out-of-line helper the interpreter calls.
      case MOp::kMassOfSum2:
        for (int k = 0; k < 8; ++k) p[k] = t + ia[k] * kW;
        HEPQ_FUSED_LANES({
          const double px = p[0][i] + p[4][i];
          const double py = p[1][i] + p[5][i];
          const double pz = p[2][i] + p[6][i];
          const double e = p[3][i] + p[7][i];
          const double m2 = e * e - (px * px + py * py + pz * pz);
          d[i] = m2 > 0.0 ? std::sqrt(m2) : 0.0;
        });
        break;
      case MOp::kMassOfSum3:
        for (int k = 0; k < 12; ++k) p[k] = t + ia[k] * kW;
        HEPQ_FUSED_LANES({
          const double px = (p[0][i] + p[4][i]) + p[8][i];
          const double py = (p[1][i] + p[5][i]) + p[9][i];
          const double pz = (p[2][i] + p[6][i]) + p[10][i];
          const double e = (p[3][i] + p[7][i]) + p[11][i];
          const double m2 = e * e - (px * px + py * py + pz * pz);
          d[i] = m2 > 0.0 ? std::sqrt(m2) : 0.0;
        });
        break;
      case MOp::kPtOfSum3:
        // Args are (px, py) per particle. std::hypot is the exact call
        // Pt() makes; it stays a scalar libm call.
        for (int k = 0; k < 6; ++k) p[k] = t + ia[k] * kW;
        for (int i = 0; i < w; ++i) {
          const double px = (p[0][i] + p[2][i]) + p[4][i];
          const double py = (p[1][i] + p[3][i]) + p[5][i];
          d[i] = std::hypot(px, py);
        }
        break;
      // Gather-absorbed forms: ia[] holds input slot ids. Fast path when
      // every particle binds its raw double columns sharing one index
      // vector — then each lane reads the components straight from the
      // source columns (one gathered load each) instead of the kernel
      // first filling 6/8/12 staging strips. The arithmetic is the staged
      // body verbatim, so both paths round identically; any other column
      // shape (splats, float32, mixed indices) stages locally and runs
      // the same body.
      case MOp::kMassOfSum2G: {
        SoAView v1, v2;
        if (SoAParticle(cols, ia, 4, &v1) &&
            SoAParticle(cols, ia + 4, 4, &v2)) {
          for (int i = 0; i < w; ++i) {
            const uint32_t u = static_cast<uint32_t>(base + i);
            const uint32_t l1 = v1.idx != nullptr ? v1.idx[u] : u;
            const uint32_t l2 = v2.idx != nullptr ? v2.idx[u] : u;
            const double px = v1.c[0][l1] + v2.c[0][l2];
            const double py = v1.c[1][l1] + v2.c[1][l2];
            const double pz = v1.c[2][l1] + v2.c[2][l2];
            const double e = v1.c[3][l1] + v2.c[3][l2];
            const double m2 = e * e - (px * px + py * py + pz * pz);
            d[i] = m2 > 0.0 ? std::sqrt(m2) : 0.0;
          }
          break;
        }
        alignas(64) double stage[8 * kW];
        for (int k = 0; k < 8; ++k) {
          p[k] = stage + k * kW;
          LoadStripCol(cols[ia[k]], base, w, stage + k * kW);
        }
        HEPQ_FUSED_LANES({
          const double px = p[0][i] + p[4][i];
          const double py = p[1][i] + p[5][i];
          const double pz = p[2][i] + p[6][i];
          const double e = p[3][i] + p[7][i];
          const double m2 = e * e - (px * px + py * py + pz * pz);
          d[i] = m2 > 0.0 ? std::sqrt(m2) : 0.0;
        });
        break;
      }
      case MOp::kMassOfSum3G: {
        SoAView v1, v2, v3;
        if (SoAParticle(cols, ia, 4, &v1) &&
            SoAParticle(cols, ia + 4, 4, &v2) &&
            SoAParticle(cols, ia + 8, 4, &v3)) {
          for (int i = 0; i < w; ++i) {
            const uint32_t u = static_cast<uint32_t>(base + i);
            const uint32_t l1 = v1.idx != nullptr ? v1.idx[u] : u;
            const uint32_t l2 = v2.idx != nullptr ? v2.idx[u] : u;
            const uint32_t l3 = v3.idx != nullptr ? v3.idx[u] : u;
            const double px = (v1.c[0][l1] + v2.c[0][l2]) + v3.c[0][l3];
            const double py = (v1.c[1][l1] + v2.c[1][l2]) + v3.c[1][l3];
            const double pz = (v1.c[2][l1] + v2.c[2][l2]) + v3.c[2][l3];
            const double e = (v1.c[3][l1] + v2.c[3][l2]) + v3.c[3][l3];
            const double m2 = e * e - (px * px + py * py + pz * pz);
            d[i] = m2 > 0.0 ? std::sqrt(m2) : 0.0;
          }
          break;
        }
        alignas(64) double stage[12 * kW];
        for (int k = 0; k < 12; ++k) {
          p[k] = stage + k * kW;
          LoadStripCol(cols[ia[k]], base, w, stage + k * kW);
        }
        HEPQ_FUSED_LANES({
          const double px = (p[0][i] + p[4][i]) + p[8][i];
          const double py = (p[1][i] + p[5][i]) + p[9][i];
          const double pz = (p[2][i] + p[6][i]) + p[10][i];
          const double e = (p[3][i] + p[7][i]) + p[11][i];
          const double m2 = e * e - (px * px + py * py + pz * pz);
          d[i] = m2 > 0.0 ? std::sqrt(m2) : 0.0;
        });
        break;
      }
      case MOp::kPtOfSum3G: {
        SoAView v1, v2, v3;
        if (SoAParticle(cols, ia, 2, &v1) &&
            SoAParticle(cols, ia + 2, 2, &v2) &&
            SoAParticle(cols, ia + 4, 2, &v3)) {
          for (int i = 0; i < w; ++i) {
            const uint32_t u = static_cast<uint32_t>(base + i);
            const uint32_t l1 = v1.idx != nullptr ? v1.idx[u] : u;
            const uint32_t l2 = v2.idx != nullptr ? v2.idx[u] : u;
            const uint32_t l3 = v3.idx != nullptr ? v3.idx[u] : u;
            const double px = (v1.c[0][l1] + v2.c[0][l2]) + v3.c[0][l3];
            const double py = (v1.c[1][l1] + v2.c[1][l2]) + v3.c[1][l3];
            d[i] = std::hypot(px, py);
          }
          break;
        }
        alignas(64) double stage[6 * kW];
        for (int k = 0; k < 6; ++k) {
          p[k] = stage + k * kW;
          LoadStripCol(cols[ia[k]], base, w, stage + k * kW);
        }
        for (int i = 0; i < w; ++i) {
          const double px = (p[0][i] + p[2][i]) + p[4][i];
          const double py = (p[1][i] + p[3][i]) + p[5][i];
          d[i] = std::hypot(px, py);
        }
        break;
      }
    }
  }
}

#undef HEPQ_FUSED_LANES

void VFusedPlan::Run(const VColumn* cols, int n, VScratch* scratch,
                     double* const* outs) const {
  if (n <= 0) return;
  const bool traced = obs::TracingActive();
  const int64_t t0 = traced ? obs::NowNs() : 0;
  double* const t = scratch->Block(num_temps_);
  const size_t num_results = result_temps_.size();
  for (int base = 0; base < n; base += kW) {
    const int w = std::min(kW, n - base);
    ExecStrip(cols, base, w, t);
    for (size_t k = 0; k < num_results; ++k) {
      std::memcpy(outs[k] + base, t + result_temps_[k] * kW,
                  static_cast<size_t>(w) * sizeof(double));
    }
  }
  if (traced) {
    const uint64_t lanes = static_cast<uint64_t>(n);
    obs::CountStage("vops_retired", obs::Stage::kVexprKernel,
                    obs::NowNs() - t0,
                    static_cast<uint64_t>(num_source_ops_) * lanes);
    obs::CountStage(
        "vops_fused", obs::Stage::kVexprKernel, 0,
        static_cast<uint64_t>(num_source_ops_ - num_micro_ops()) * lanes);
  }
}

int VFusedPlan::RunGate(const VColumn* cols, int n, VScratch* scratch,
                        bool negate, uint32_t* sel_out) const {
  if (n <= 0) return 0;
  const bool traced = obs::TracingActive();
  const int64_t t0 = traced ? obs::NowNs() : 0;
  double* const t = scratch->Block(num_temps_);
  const double* const res = t + result_temps_[0] * kW;
  int count = 0;
  for (int base = 0; base < n; base += kW) {
    const int w = std::min(kW, n - base);
    ExecStrip(cols, base, w, t);
    // Per-strip compaction in ascending lane order — the selection Run
    // plus a `!= 0` compare pass produces, minus the 0/1 value-vector
    // round trip.
    for (int i = 0; i < w; ++i) {
      if ((res[i] != 0.0) != negate) {
        sel_out[count++] = static_cast<uint32_t>(base + i);
      }
    }
  }
  if (traced) {
    const uint64_t lanes = static_cast<uint64_t>(n);
    obs::CountStage("vops_retired", obs::Stage::kVexprKernel,
                    obs::NowNs() - t0,
                    static_cast<uint64_t>(num_source_ops_) * lanes);
    obs::CountStage(
        "vops_fused", obs::Stage::kVexprKernel, 0,
        static_cast<uint64_t>(num_source_ops_ - num_micro_ops()) * lanes);
  }
  return count;
}

}  // namespace hepq::engine
