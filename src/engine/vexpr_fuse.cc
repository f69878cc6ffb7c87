#include "engine/vexpr_fuse.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace hepq::engine {

namespace {

// Working form of one micro-op while the peepholes rewrite the program:
// operands inline, immediates unpacked, tombstone instead of erase so reg
// ids stay stable until the final renumbering.
struct WorkOp {
  MOp op = MOp::kSplat;
  uint16_t dst = 0;
  uint16_t aux = 0;  // kLoad: input slot
  double imm = 0.0;
  bool has_imm = false;
  bool deleted = false;
  bool slot_args = false;  // G-forms: args are input slots, not temps
  std::vector<uint16_t> args;
};

MOp GenericMOp(VOp op) {
  switch (op) {
    case VOp::kConst:
      return MOp::kSplat;
    case VOp::kLoad:
      return MOp::kLoad;
    case VOp::kAdd:
      return MOp::kAdd;
    case VOp::kSub:
      return MOp::kSub;
    case VOp::kMul:
      return MOp::kMul;
    case VOp::kDiv:
      return MOp::kDiv;
    case VOp::kLt:
      return MOp::kLt;
    case VOp::kLe:
      return MOp::kLe;
    case VOp::kGt:
      return MOp::kGt;
    case VOp::kGe:
      return MOp::kGe;
    case VOp::kEq:
      return MOp::kEq;
    case VOp::kNe:
      return MOp::kNe;
    case VOp::kAnd:
      return MOp::kAnd;
    case VOp::kOr:
      return MOp::kOr;
    case VOp::kAbs:
      return MOp::kAbs;
    case VOp::kSqrt:
      return MOp::kSqrt;
    case VOp::kNot:
      return MOp::kNot;
    case VOp::kMin2:
      return MOp::kMin2;
    case VOp::kMax2:
      return MOp::kMax2;
    case VOp::kDeltaPhi:
      return MOp::kDeltaPhi;
    case VOp::kDeltaR:
      return MOp::kDeltaR;
    case VOp::kTransverseMass:
      return MOp::kTransverseMass;
    case VOp::kPx:
      return MOp::kPx;
    case VOp::kPy:
      return MOp::kPy;
    case VOp::kPz:
      return MOp::kPz;
    case VOp::kE:
      return MOp::kE;
    case VOp::kMassOfSum2:
      return MOp::kMassOfSum2;
    case VOp::kMassOfSum3:
      return MOp::kMassOfSum3;
    case VOp::kPtOfSum3:
      return MOp::kPtOfSum3;
  }
  return MOp::kSplat;
}

/// Immediate form of `op` with the constant on the right (d = a OP imm),
/// or kSplat when none exists (min/max: std::min/std::max are asymmetric
/// under NaN, and And/Or with a constant side never survive the builder's
/// constant folder in a shape worth an imm form).
MOp RhsImmForm(MOp op) {
  switch (op) {
    case MOp::kAdd:
      return MOp::kAddImm;
    case MOp::kSub:
      return MOp::kSubImm;
    case MOp::kMul:
      return MOp::kMulImm;
    case MOp::kDiv:
      return MOp::kDivImm;
    case MOp::kLt:
      return MOp::kLtImm;
    case MOp::kLe:
      return MOp::kLeImm;
    case MOp::kGt:
      return MOp::kGtImm;
    case MOp::kGe:
      return MOp::kGeImm;
    case MOp::kEq:
      return MOp::kEqImm;
    case MOp::kNe:
      return MOp::kNeImm;
    default:
      return MOp::kSplat;
  }
}

/// Immediate form of `op` with the constant on the left (d = imm OP a).
/// Addition and multiplication commute bit-exactly when at most one
/// operand is NaN (guaranteed: the immediate is finite); comparisons flip
/// to the mirrored predicate, exact even for NaN (both sides false);
/// subtraction and division get dedicated reversed micro-ops.
MOp LhsImmForm(MOp op) {
  switch (op) {
    case MOp::kAdd:
      return MOp::kAddImm;
    case MOp::kSub:
      return MOp::kRsubImm;
    case MOp::kMul:
      return MOp::kMulImm;
    case MOp::kDiv:
      return MOp::kRdivImm;
    case MOp::kLt:
      return MOp::kGtImm;  // imm < a  ==  a > imm
    case MOp::kLe:
      return MOp::kGeImm;
    case MOp::kGt:
      return MOp::kLtImm;
    case MOp::kGe:
      return MOp::kLeImm;
    case MOp::kEq:
      return MOp::kEqImm;
    case MOp::kNe:
      return MOp::kNeImm;
    default:
      return MOp::kSplat;
  }
}

/// Fused mask-op absorbing `cmp` into an And/Or, or kSplat if the pair
/// has no fused form (kEq/kNe comparisons stay standalone: they almost
/// never gate event cuts, so the ISA leaves them out).
MOp FusedMaskForm(MOp mask_op, MOp cmp) {
  const bool is_and = mask_op == MOp::kAnd;
  switch (cmp) {
    case MOp::kLt:
      return is_and ? MOp::kAndLt : MOp::kOrLt;
    case MOp::kLe:
      return is_and ? MOp::kAndLe : MOp::kOrLe;
    case MOp::kGt:
      return is_and ? MOp::kAndGt : MOp::kOrGt;
    case MOp::kGe:
      return is_and ? MOp::kAndGe : MOp::kOrGe;
    case MOp::kLtImm:
      return is_and ? MOp::kAndLtImm : MOp::kOrLtImm;
    case MOp::kLeImm:
      return is_and ? MOp::kAndLeImm : MOp::kOrLeImm;
    case MOp::kGtImm:
      return is_and ? MOp::kAndGtImm : MOp::kOrGtImm;
    case MOp::kGeImm:
      return is_and ? MOp::kAndGeImm : MOp::kOrGeImm;
    default:
      return MOp::kSplat;
  }
}

bool IsAbsorbableCmp(MOp op) {
  switch (op) {
    case MOp::kLt:
    case MOp::kLe:
    case MOp::kGt:
    case MOp::kGe:
    case MOp::kLtImm:
    case MOp::kLeImm:
    case MOp::kGtImm:
    case MOp::kGeImm:
      return true;
    default:
      return false;
  }
}

/// Gather-absorbed form of a Cartesian SoA kernel, kSplat if none.
MOp GatherForm(MOp op) {
  switch (op) {
    case MOp::kMassOfSum2:
      return MOp::kMassOfSum2G;
    case MOp::kMassOfSum3:
      return MOp::kMassOfSum3G;
    case MOp::kPtOfSum3:
      return MOp::kPtOfSum3G;
    default:
      return MOp::kSplat;
  }
}

/// True for micro-ops whose args pool entries are input slot ids rather
/// than strip temps (the gather-absorbed SoA kernels).
bool HasSlotArgs(MOp op) {
  switch (op) {
    case MOp::kMassOfSum2G:
    case MOp::kMassOfSum3G:
    case MOp::kPtOfSum3G:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* MOpName(MOp op) {
  switch (op) {
    case MOp::kSplat:
      return "splat";
    case MOp::kLoad:
      return "load";
    case MOp::kAbs:
      return "abs";
    case MOp::kSqrt:
      return "sqrt";
    case MOp::kNot:
      return "not";
    case MOp::kAdd:
      return "add";
    case MOp::kSub:
      return "sub";
    case MOp::kMul:
      return "mul";
    case MOp::kDiv:
      return "div";
    case MOp::kLt:
      return "lt";
    case MOp::kLe:
      return "le";
    case MOp::kGt:
      return "gt";
    case MOp::kGe:
      return "ge";
    case MOp::kEq:
      return "eq";
    case MOp::kNe:
      return "ne";
    case MOp::kAnd:
      return "and";
    case MOp::kOr:
      return "or";
    case MOp::kMin2:
      return "min2";
    case MOp::kMax2:
      return "max2";
    case MOp::kAddImm:
      return "add_imm";
    case MOp::kSubImm:
      return "sub_imm";
    case MOp::kRsubImm:
      return "rsub_imm";
    case MOp::kMulImm:
      return "mul_imm";
    case MOp::kDivImm:
      return "div_imm";
    case MOp::kRdivImm:
      return "rdiv_imm";
    case MOp::kLtImm:
      return "lt_imm";
    case MOp::kLeImm:
      return "le_imm";
    case MOp::kGtImm:
      return "gt_imm";
    case MOp::kGeImm:
      return "ge_imm";
    case MOp::kEqImm:
      return "eq_imm";
    case MOp::kNeImm:
      return "ne_imm";
    case MOp::kAndLt:
      return "and_lt";
    case MOp::kAndLe:
      return "and_le";
    case MOp::kAndGt:
      return "and_gt";
    case MOp::kAndGe:
      return "and_ge";
    case MOp::kOrLt:
      return "or_lt";
    case MOp::kOrLe:
      return "or_le";
    case MOp::kOrGt:
      return "or_gt";
    case MOp::kOrGe:
      return "or_ge";
    case MOp::kAndLtImm:
      return "and_lt_imm";
    case MOp::kAndLeImm:
      return "and_le_imm";
    case MOp::kAndGtImm:
      return "and_gt_imm";
    case MOp::kAndGeImm:
      return "and_ge_imm";
    case MOp::kOrLtImm:
      return "or_lt_imm";
    case MOp::kOrLeImm:
      return "or_le_imm";
    case MOp::kOrGtImm:
      return "or_gt_imm";
    case MOp::kOrGeImm:
      return "or_ge_imm";
    case MOp::kDeltaPhi:
      return "delta_phi";
    case MOp::kDeltaR:
      return "delta_r";
    case MOp::kTransverseMass:
      return "transverse_mass";
    case MOp::kPx:
      return "px";
    case MOp::kPy:
      return "py";
    case MOp::kPz:
      return "pz";
    case MOp::kE:
      return "e";
    case MOp::kMassOfSum2:
      return "mass_of_sum2";
    case MOp::kMassOfSum3:
      return "mass_of_sum3";
    case MOp::kPtOfSum3:
      return "pt_of_sum3";
    case MOp::kMassOfSum2G:
      return "mass_of_sum2_g";
    case MOp::kMassOfSum3G:
      return "mass_of_sum3_g";
    case MOp::kPtOfSum3G:
      return "pt_of_sum3_g";
  }
  return "?";
}

double VFusedPlan::fused_coverage() const {
  if (num_source_ops_ <= 0) return 0.0;
  return static_cast<double>(num_source_ops_ - num_micro_ops()) /
         static_cast<double>(num_source_ops_);
}

std::string VFusedPlan::ToString() const {
  std::string s;
  char buf[96];
  for (const MInstr& m : mops_) {
    std::snprintf(buf, sizeof(buf), "t%u = %s", m.dst, MOpName(m.op));
    s += buf;
    if (m.op == MOp::kLoad) {
      std::snprintf(buf, sizeof(buf), " slot%u", m.aux);
      s += buf;
    }
    const bool slot_args = HasSlotArgs(m.op);
    for (int a = 0; a < m.num_args; ++a) {
      std::snprintf(buf, sizeof(buf), slot_args ? " slot%u" : " t%u",
                    args_[m.first_arg + a]);
      s += buf;
    }
    switch (m.op) {
      case MOp::kSplat:
      case MOp::kAddImm:
      case MOp::kSubImm:
      case MOp::kRsubImm:
      case MOp::kMulImm:
      case MOp::kDivImm:
      case MOp::kRdivImm:
      case MOp::kLtImm:
      case MOp::kLeImm:
      case MOp::kGtImm:
      case MOp::kGeImm:
      case MOp::kEqImm:
      case MOp::kNeImm:
      case MOp::kAndLtImm:
      case MOp::kAndLeImm:
      case MOp::kAndGtImm:
      case MOp::kAndGeImm:
      case MOp::kOrLtImm:
      case MOp::kOrLeImm:
      case MOp::kOrGtImm:
      case MOp::kOrGeImm:
        std::snprintf(buf, sizeof(buf), " #%g", imms_[m.aux]);
        s += buf;
        break;
      default:
        break;
    }
    s += "\n";
  }
  s += "ret";
  for (const uint16_t r : result_temps_) {
    std::snprintf(buf, sizeof(buf), " t%u", r);
    s += buf;
  }
  s += "\n";
  return s;
}

std::shared_ptr<const VFusedPlan> BuildFusedPlan(const VProgram& program) {
  const std::vector<VInstr>& code = program.code();
  const std::vector<uint16_t>& pargs = program.args();
  const std::vector<double>& consts = program.consts();
  if (code.empty()) return nullptr;

  // ---- Translate to the working form --------------------------------------
  std::vector<WorkOp> work(code.size());
  // Register metadata. Registers are SSA (the builder assigns each exactly
  // once), so defining-instruction and use-count maps are exact.
  std::vector<int> def(program.num_regs(), -1);
  std::vector<int> uses(program.num_regs(), 0);
  for (size_t i = 0; i < code.size(); ++i) {
    const VInstr& vi = code[i];
    WorkOp& w = work[i];
    w.op = GenericMOp(vi.op);
    w.dst = vi.dst;
    def[vi.dst] = static_cast<int>(i);
    if (vi.op == VOp::kConst) {
      w.imm = consts[vi.index];
      w.has_imm = true;
    } else if (vi.op == VOp::kLoad) {
      w.aux = vi.index;
    } else {
      w.args.assign(pargs.begin() + vi.first_arg,
                    pargs.begin() + vi.first_arg + vi.num_args);
      for (uint16_t a : w.args) ++uses[a];
    }
  }
  // Each result counts as a use that no peephole takes away, so a result
  // register always keeps its temporary.
  for (const uint16_t r : program.result_regs()) ++uses[r];

  auto splat_of = [&](uint16_t reg, double* value) {
    const WorkOp& d = work[def[reg]];
    if (d.op != MOp::kSplat || d.deleted) return false;
    *value = d.imm;
    return true;
  };

  // ---- Peephole 1: immediate forms ----------------------------------------
  // Only finite constants are folded: a NaN immediate could change which
  // NaN payload x86 propagates when the other lane is also NaN, and the
  // tiers must stay bit-identical even on adversarial inputs.
  for (WorkOp& w : work) {
    if (w.args.size() != 2) continue;
    double c;
    if (RhsImmForm(w.op) != MOp::kSplat && splat_of(w.args[1], &c) &&
        std::isfinite(c)) {
      --uses[w.args[1]];
      w.op = RhsImmForm(w.op);
      w.imm = c;
      w.has_imm = true;
      w.args.resize(1);
    } else if (LhsImmForm(w.op) != MOp::kSplat && splat_of(w.args[0], &c) &&
               std::isfinite(c)) {
      --uses[w.args[0]];
      w.op = LhsImmForm(w.op);
      w.imm = c;
      w.has_imm = true;
      w.args[0] = w.args[1];
      w.args.resize(1);
    }
  }

  // ---- Peephole 2: compare+mask fusion ------------------------------------
  // An And/Or absorbs one comparison operand when that comparison has no
  // other consumer (single-use SSA value). Exact: the comparison's result
  // is exactly 0.0 or 1.0, so `cmp != 0.0` in the mask loop equals the
  // predicate itself, and both operand expressions are pure.
  for (WorkOp& w : work) {
    if ((w.op != MOp::kAnd && w.op != MOp::kOr) || w.args.size() != 2)
      continue;
    for (int side = 1; side >= 0; --side) {  // prefer the rhs comparison
      const uint16_t cmp_reg = w.args[side];
      WorkOp& cmp = work[def[cmp_reg]];
      if (cmp.deleted || uses[cmp_reg] != 1 || !IsAbsorbableCmp(cmp.op))
        continue;
      const MOp fused = FusedMaskForm(w.op, cmp.op);
      if (fused == MOp::kSplat) continue;
      const uint16_t mask = w.args[1 - side];
      w.op = fused;
      w.imm = cmp.imm;
      w.has_imm = cmp.has_imm;
      w.args.clear();
      w.args.push_back(mask);
      for (uint16_t a : cmp.args) w.args.push_back(a);
      --uses[cmp_reg];
      cmp.deleted = true;
      break;
    }
  }

  // ---- Peephole 2b: SoA gather absorption ---------------------------------
  // A Cartesian kernel whose every component operand is a single-use load
  // reads the columns directly (through their index vectors) instead of
  // staging 8/12 full strips first. The kernel's arithmetic is untouched;
  // only the data path changes, so values stay bit-identical.
  for (WorkOp& w : work) {
    const MOp g = GatherForm(w.op);
    if (g == MOp::kSplat || w.deleted || w.args.empty()) continue;
    bool ok = true;
    for (uint16_t a : w.args) {
      const WorkOp& ld = work[def[a]];
      if (ld.deleted || ld.op != MOp::kLoad || uses[a] != 1) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    w.op = g;
    w.slot_args = true;
    for (size_t k = 0; k < w.args.size(); ++k) {
      WorkOp& ld = work[def[w.args[k]]];
      --uses[w.args[k]];
      ld.deleted = true;
      w.args[k] = ld.aux;  // input slot id, not a temp
    }
  }

  // ---- Peephole 3: dead splats --------------------------------------------
  // Splats whose every consumer took them as an immediate no longer need a
  // strip temporary.
  for (WorkOp& w : work) {
    if (w.op == MOp::kSplat && uses[w.dst] == 0) w.deleted = true;
  }

  // ---- Renumber into the final plan ---------------------------------------
  auto plan = std::make_shared<VFusedPlan>();
  std::vector<uint16_t> remap(program.num_regs(), 0);
  uint16_t next_temp = 0;
  for (const WorkOp& w : work)
    if (!w.deleted) remap[w.dst] = next_temp++;
  for (const WorkOp& w : work) {
    if (w.deleted) continue;
    MInstr m;
    m.op = w.op;
    m.dst = remap[w.dst];
    m.num_args = static_cast<uint8_t>(w.args.size());
    m.first_arg = static_cast<uint16_t>(plan->args_.size());
    for (uint16_t a : w.args)
      plan->args_.push_back(w.slot_args ? a : remap[a]);
    if (w.has_imm) {
      m.aux = static_cast<uint16_t>(plan->imms_.size());
      plan->imms_.push_back(w.imm);
    } else {
      m.aux = w.aux;  // kLoad slot (0 otherwise)
    }
    plan->mops_.push_back(m);
  }
  plan->num_temps_ = next_temp;
  for (const uint16_t r : program.result_regs()) {
    plan->result_temps_.push_back(remap[r]);
  }
  plan->num_source_ops_ = static_cast<int>(code.size());
  return plan;
}

}  // namespace hepq::engine
