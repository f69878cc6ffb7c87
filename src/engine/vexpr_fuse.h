#ifndef HEPQUERY_ENGINE_VEXPR_FUSE_H_
#define HEPQUERY_ENGINE_VEXPR_FUSE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/vexpr.h"

namespace hepq::engine {

// The fusion pass: how the simd expression-execution tier runs a VProgram.
//
// A finished VProgram is a straight-line SSA instruction list (control
// flow — aggregates, combination searches, short-circuit residue — never
// reaches the VM; it lives in the drivers of vexpr_compile.cc, which are
// therefore the fusion boundaries). BuildFusedPlan regroups that list
// into superinstruction "micro-ops" executed strip-mined: the batch is
// cut into blocks of kVexprBlockLanes lanes and ALL micro-ops run over
// one block before moving to the next, with every temporary held in a
// small cacheline-aligned block buffer (VScratch::Block) that stays in
// registers/L1. Compared to running the instruction list one opcode at a
// time over the whole batch, this removes a full-batch store+reload round
// trip per opcode, and shrinks the instruction stream via four rewrites:
//
//   1. load fusion — kConst/kLoad instructions stop materializing
//      full-batch register buffers; constants become immediates and slot
//      loads gather directly into the strip block (contiguous fast path
//      when the VColumn has no index vector, gather path otherwise —
//      the selection-density dichotomy of the drivers);
//   2. immediate forms — binary ops with one folded-constant operand
//      become reg-imm micro-ops (kGtImm, kMulImm, ...), keeping the
//      operand on the side it occupied so the IEEE operation sequence
//      is unchanged; NaN immediates are never folded (NaN payload
//      propagation is operand-order-sensitive on x86);
//   3. compare+mask fusion — an And/Or whose comparison operand has no
//      other consumer absorbs it (kAndGtImm, kOrLt, ...), collapsing
//      the gate trees of event cuts into one micro-op per level;
//   4. SoA gather absorption — a Cartesian kernel (kMassOfSum2/3,
//      kPtOfSum3) whose every operand is a single-use load absorbs the
//      loads (kMassOfSum3G, ...): the kernel reads the component columns
//      directly through their per-particle index vectors, eliminating
//      the 6/8/12 staging strips a combination frame would otherwise fill
//      before every mass evaluation.
//
// The Cartesian combination kernels (kMassOfSum2/3, kPtOfSum3) become
// structure-of-arrays loops over the strip whose inline math repeats the
// core/physics helper sequences operation for operation, and the
// component kernels (kPx/kPy/kPz/kE) call the out-of-line bodies
// PtEtaPhiM::ToPxPyPzE is built from; vexpr_kernels.cc is compiled with
// -ffp-contract=off (as are physics.cc/fourvector.cc) so no build can
// contract them differently than the helpers. Everything else about bit-identity is structural:
// same ops, same operand order, same per-lane evaluation order, no
// reassociation — reductions never enter the VM, so the fused tier
// introduces no reduction-order hazard.
//
// Repeat reuse: the libm-calling component kernels (kPx/kPy/kPz) copy the
// previous lane's result when both operands are BITWISE equal to the
// previous lane's (memcmp, not ==: -0.0 == +0.0 yet pt*cos(phi) differs
// in sign, and NaN != NaN would only lose reuse). A pure function of
// identical bits gives identical bits, so reuse is exact. It pays in the
// presto shape, where the outer unnest aliases are fills of the flat
// chunk and repeat across consecutive surviving rows.

/// Lanes per strip block. 64 doubles = 8 cachelines per temporary; a
/// typical fused program holds 10-30 live temporaries, so the whole
/// working set stays L1-resident while each micro-op's inner loop is a
/// constant-trip-count, auto-vectorizable sweep (checked in CI via
/// -fopt-info-vec on vexpr_kernels.cc).
inline constexpr int kVexprBlockLanes = 64;

/// Fused micro-op kinds. Operand order is load-bearing: reg-reg forms
/// mirror the source VOps exactly, imm forms keep the immediate on
/// the side the constant occupied (R* = immediate on the left).
enum class MOp : uint8_t {
  kSplat,  // d = imm (constant the peephole could not absorb)
  kLoad,   // d = convert(cols[aux]) — dense or gather, type-dispatched
  // unary
  kAbs,
  kSqrt,
  kNot,
  // binary reg-reg
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
  kMin2,
  kMax2,
  // binary reg-imm
  kAddImm,
  kSubImm,
  kRsubImm,  // d = imm - a
  kMulImm,
  kDivImm,   // d = a / imm
  kRdivImm,  // d = imm / a
  kLtImm,
  kLeImm,
  kGtImm,
  kGeImm,
  kEqImm,
  kNeImm,
  // fused compare+mask: d = mask(a) &/| (b CMP c) — gate-tree levels
  kAndLt,
  kAndLe,
  kAndGt,
  kAndGe,
  kOrLt,
  kOrLe,
  kOrGt,
  kOrGe,
  // fused compare+mask with immediate comparand: d = mask(a) &/| (b CMP imm)
  kAndLtImm,
  kAndLeImm,
  kAndGtImm,
  kAndGeImm,
  kOrLtImm,
  kOrLeImm,
  kOrGtImm,
  kOrGeImm,
  // per-lane calls into core/physics (data-dependent control flow keeps
  // these scalar; they fuse into the strip, not into vector lanes)
  kDeltaPhi,
  kDeltaR,
  kTransverseMass,
  // Cartesian components (ToPxPyPzE's bodies); kPx/kPy/kPz call libm
  // and reuse the previous lane's result on bitwise-repeated operands
  kPx,
  kPy,
  kPz,
  kE,
  // structure-of-arrays Cartesian kernels: inline PxPyPzE component
  // sums + mass/pt, vectorizable (pt keeps the scalar hypot call)
  kMassOfSum2,
  kMassOfSum3,
  kPtOfSum3,
  // gather-absorbed SoA kernels: every operand was a single-use kLoad, so
  // the args are input SLOT ids (not temps) and the kernel reads the
  // component columns directly through their index vectors — no staging
  // strip per component. Values are identical to the staged forms; only
  // the data path changes.
  kMassOfSum2G,
  kMassOfSum3G,
  kPtOfSum3G,
};

const char* MOpName(MOp op);

struct MInstr {
  MOp op = MOp::kSplat;
  uint8_t num_args = 0;    // operand count in VFusedPlan's args pool
  uint16_t dst = 0;        // strip temp id
  uint16_t aux = 0;        // kLoad: input slot; imm forms: immediate index
  uint16_t first_arg = 0;  // offset into VFusedPlan's args pool
};

/// The fused execution plan of one VProgram: micro-op list, immediate
/// pool, and strip-temp layout. Built once at VProgram::Finish, immutable
/// and thread-safe afterwards (workers bring their own VScratch blocks).
class VFusedPlan {
 public:
  int num_temps() const { return num_temps_; }
  int num_micro_ops() const { return static_cast<int>(mops_.size()); }
  /// Source VOps the plan covers (every instruction of the VProgram).
  int num_source_ops() const { return num_source_ops_; }
  /// Fraction of source VOps absorbed into superinstructions — the
  /// fused-kernel coverage surfaced in micro_kernels and RunReports.
  double fused_coverage() const;

  /// Strip-mined execution over lanes [0, n); outs[k][0..n) gets result k
  /// for every result of the program.
  void Run(const VColumn* cols, int n, VScratch* scratch,
           double* const* outs) const;

  /// Fused gate: evaluates and compacts in one pass, writing passing lane
  /// indices (first result != 0, xor negate) to sel_out; returns their
  /// count.
  int RunGate(const VColumn* cols, int n, VScratch* scratch, bool negate,
              uint32_t* sel_out) const;

  /// Micro-op disassembly for the fusion-pass unit tests.
  std::string ToString() const;

 private:
  friend std::shared_ptr<const VFusedPlan> BuildFusedPlan(
      const VProgram& program);
  /// Executes every micro-op over lanes [base, base+w) of the bound
  /// columns into the strip block `t` (vexpr_kernels.cc).
  void ExecStrip(const VColumn* cols, int base, int w, double* t) const;

  std::vector<MInstr> mops_;
  std::vector<uint16_t> args_;  // temp ids, indexed by MInstr::first_arg
  std::vector<double> imms_;
  int num_temps_ = 0;
  std::vector<uint16_t> result_temps_;  // one per program result
  int num_source_ops_ = 0;
};

/// Runs the fusion pass over a finished program. Never fails: any shape
/// the peepholes do not recognize stays a generic micro-op.
std::shared_ptr<const VFusedPlan> BuildFusedPlan(const VProgram& program);

}  // namespace hepq::engine

#endif  // HEPQUERY_ENGINE_VEXPR_FUSE_H_
