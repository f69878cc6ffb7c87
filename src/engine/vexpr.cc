#include "engine/vexpr.h"

#include <cassert>
#include <cstdio>
#include <cstring>

#include "engine/vexpr_fuse.h"

namespace hepq::engine {

const char* VOpName(VOp op) {
  switch (op) {
    case VOp::kConst: return "const";
    case VOp::kLoad: return "load";
    case VOp::kAdd: return "add";
    case VOp::kSub: return "sub";
    case VOp::kMul: return "mul";
    case VOp::kDiv: return "div";
    case VOp::kLt: return "lt";
    case VOp::kLe: return "le";
    case VOp::kGt: return "gt";
    case VOp::kGe: return "ge";
    case VOp::kEq: return "eq";
    case VOp::kNe: return "ne";
    case VOp::kAnd: return "and";
    case VOp::kOr: return "or";
    case VOp::kAbs: return "abs";
    case VOp::kSqrt: return "sqrt";
    case VOp::kNot: return "not";
    case VOp::kMin2: return "min";
    case VOp::kMax2: return "max";
    case VOp::kDeltaPhi: return "delta_phi";
    case VOp::kDeltaR: return "delta_r";
    case VOp::kTransverseMass: return "transverse_mass";
    case VOp::kPx: return "px";
    case VOp::kPy: return "py";
    case VOp::kPz: return "pz";
    case VOp::kE: return "e";
    case VOp::kMassOfSum2: return "mass_of_sum2";
    case VOp::kMassOfSum3: return "mass_of_sum3";
    case VOp::kPtOfSum3: return "pt_of_sum3";
  }
  return "?";
}

VOp VOpFor(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return VOp::kAdd;
    case BinOp::kSub: return VOp::kSub;
    case BinOp::kMul: return VOp::kMul;
    case BinOp::kDiv: return VOp::kDiv;
    case BinOp::kLt: return VOp::kLt;
    case BinOp::kLe: return VOp::kLe;
    case BinOp::kGt: return VOp::kGt;
    case BinOp::kGe: return VOp::kGe;
    case BinOp::kEq: return VOp::kEq;
    case BinOp::kNe: return VOp::kNe;
    case BinOp::kAnd: return VOp::kAnd;
    case BinOp::kOr: return VOp::kOr;
  }
  return VOp::kAdd;
}

double* VScratch::Block(int num_temps) {
  // Over-allocate by one cacheline and hand out an aligned pointer: the
  // fused strip loops then run over 64-byte-aligned temporaries, which the
  // vectorizer can load without peel loops.
  const size_t need =
      static_cast<size_t>(num_temps) * kVexprBlockLanes + 64 / sizeof(double);
  if (block_.size() < need) block_.resize(need);
  const uintptr_t addr = reinterpret_cast<uintptr_t>(block_.data());
  const uintptr_t aligned = (addr + 63) & ~static_cast<uintptr_t>(63);
  return reinterpret_cast<double*>(aligned);
}

void VProgram::Run(const VColumn* cols, int n, VScratch* scratch,
                   double* const* outs) const {
  fused_->Run(cols, n, scratch, outs);
}

int VProgram::RunGate(const VColumn* cols, int n, VScratch* scratch,
                      bool negate, uint32_t* sel_out) const {
  return fused_->RunGate(cols, n, scratch, negate, sel_out);
}

std::string VProgram::ToString() const {
  std::string out;
  char buf[64];
  for (const VInstr& in : code_) {
    std::snprintf(buf, sizeof(buf), "r%u = %s", in.dst, VOpName(in.op));
    out += buf;
    if (in.op == VOp::kConst) {
      std::snprintf(buf, sizeof(buf), " %g", consts_[in.index]);
      out += buf;
    } else if (in.op == VOp::kLoad) {
      std::snprintf(buf, sizeof(buf), " slot%u", in.index);
      out += buf;
    } else {
      for (int k = 0; k < in.num_args; ++k) {
        std::snprintf(buf, sizeof(buf), " r%u", args_[in.first_arg + k]);
        out += buf;
      }
    }
    out += "\n";
  }
  out += "ret";
  for (const uint16_t r : result_regs_) {
    std::snprintf(buf, sizeof(buf), " r%u", r);
    out += buf;
  }
  out += "\n";
  return out;
}

// ---- Builder ---------------------------------------------------------------

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// CSE key tags; kept distinct from VOp values used in op keys.
constexpr uint64_t kKeyConst = ~uint64_t{0};
constexpr uint64_t kKeyLoad = ~uint64_t{1};

}  // namespace

int VProgramBuilder::NewReg(bool is_const, double value) {
  const int r = program_.num_regs_++;
  reg_const_.push_back({is_const, value});
  return r;
}

int VProgramBuilder::Const(double value) {
  std::vector<uint64_t> key{kKeyConst, DoubleBits(value)};
  auto it = cse_.find(key);
  if (it != cse_.end()) return it->second;
  // Folded-away constants never reach the instruction stream; the register
  // is materialized lazily the first time a non-folded op consumes it.
  const int r = NewReg(true, value);
  cse_.emplace(std::move(key), r);
  return r;
}

int VProgramBuilder::Load(int slot) {
  std::vector<uint64_t> key{kKeyLoad, static_cast<uint64_t>(slot)};
  auto it = cse_.find(key);
  if (it != cse_.end()) return it->second;
  const int r = NewReg(false, 0.0);
  program_.code_.push_back({VOp::kLoad, static_cast<uint16_t>(r),
                            static_cast<uint16_t>(slot), 0, 0});
  if (slot + 1 > program_.num_slots_) program_.num_slots_ = slot + 1;
  cse_.emplace(std::move(key), r);
  return r;
}

void VProgramBuilder::BindSlot(int slot, int reg) {
  cse_[std::vector<uint64_t>{kKeyLoad, static_cast<uint64_t>(slot)}] = reg;
}

void VProgramBuilder::Materialize(int reg) {
  if (!reg_const_[static_cast<size_t>(reg)].first) return;
  if (materialized_.size() < reg_const_.size()) {
    materialized_.resize(reg_const_.size(), false);
  }
  if (materialized_[static_cast<size_t>(reg)]) return;
  materialized_[static_cast<size_t>(reg)] = true;
  const double value = reg_const_[static_cast<size_t>(reg)].second;
  const uint16_t ci = static_cast<uint16_t>(program_.consts_.size());
  program_.consts_.push_back(value);
  program_.code_.push_back(
      {VOp::kConst, static_cast<uint16_t>(reg), ci, 0, 0});
}

int VProgramBuilder::Op(VOp op, const std::vector<int>& arg_regs) {
  // Constant folding: if every argument is a known constant, apply the
  // exact scalar semantics now and emit nothing. `vals` fits the widest
  // opcode, kMassOfSum3; call arity is checked when a query is prepared.
  assert(arg_regs.size() <= 12);
  bool all_const = true;
  double vals[12];
  for (size_t k = 0; k < arg_regs.size(); ++k) {
    const auto& rc = reg_const_[static_cast<size_t>(arg_regs[k])];
    if (!rc.first) {
      all_const = false;
      break;
    }
    vals[k] = rc.second;
  }
  if (all_const) return Const(VOpApply(op, vals));

  std::vector<uint64_t> key;
  key.reserve(arg_regs.size() + 1);
  key.push_back(static_cast<uint64_t>(op));
  for (int r : arg_regs) key.push_back(static_cast<uint64_t>(r));
  auto it = cse_.find(key);
  if (it != cse_.end()) return it->second;

  for (int r : arg_regs) Materialize(r);
  const int dst = NewReg(false, 0.0);
  VInstr in;
  in.op = op;
  in.dst = static_cast<uint16_t>(dst);
  in.first_arg = static_cast<uint16_t>(program_.args_.size());
  in.num_args = static_cast<uint16_t>(arg_regs.size());
  for (int r : arg_regs) program_.args_.push_back(static_cast<uint16_t>(r));
  program_.code_.push_back(in);
  cse_.emplace(std::move(key), dst);
  return dst;
}

int VProgramBuilder::Call(Fn fn, const std::vector<int>& arg_regs) {
  // Particle g's (pt, eta, phi, mass) are arg_regs[4g .. 4g+3]. CSE keys
  // on (op, argument registers), so a particle that several kinematic
  // calls read converts once.
  const auto arg = [&](size_t g, size_t k) { return arg_regs[4 * g + k]; };
  const auto px = [&](size_t g) {
    return Op(VOp::kPx, {arg(g, 0), arg(g, 2)});
  };
  const auto py = [&](size_t g) {
    return Op(VOp::kPy, {arg(g, 0), arg(g, 2)});
  };
  std::vector<int> comps;
  switch (fn) {
    case Fn::kInvMass2:
    case Fn::kInvMass3: {
      const size_t particles = fn == Fn::kInvMass2 ? 2 : 3;
      for (size_t g = 0; g < particles; ++g) {
        const int x = px(g);
        const int y = py(g);
        const int z = Op(VOp::kPz, {arg(g, 0), arg(g, 1)});
        const int e = Op(VOp::kE, {x, y, z, arg(g, 3)});
        comps.insert(comps.end(), {x, y, z, e});
      }
      return Op(fn == Fn::kInvMass2 ? VOp::kMassOfSum2 : VOp::kMassOfSum3,
                comps);
    }
    case Fn::kSumPt3:
      // Pt() reads only px and py; pz and E are never computed.
      for (size_t g = 0; g < 3; ++g) {
        comps.push_back(px(g));
        comps.push_back(py(g));
      }
      return Op(VOp::kPtOfSum3, comps);
    case Fn::kAbs: return Op(VOp::kAbs, arg_regs);
    case Fn::kSqrt: return Op(VOp::kSqrt, arg_regs);
    case Fn::kNot: return Op(VOp::kNot, arg_regs);
    case Fn::kMin2: return Op(VOp::kMin2, arg_regs);
    case Fn::kMax2: return Op(VOp::kMax2, arg_regs);
    case Fn::kDeltaPhi: return Op(VOp::kDeltaPhi, arg_regs);
    case Fn::kDeltaR: return Op(VOp::kDeltaR, arg_regs);
    case Fn::kTransverseMass: return Op(VOp::kTransverseMass, arg_regs);
  }
  return Const(0.0);
}

bool VProgramBuilder::IsConst(int reg, double* value) const {
  const auto& rc = reg_const_[static_cast<size_t>(reg)];
  if (rc.first && value != nullptr) *value = rc.second;
  return rc.first;
}

VProgram VProgramBuilder::Finish(const std::vector<int>& result_regs) {
  for (const int r : result_regs) {
    Materialize(r);
    program_.result_regs_.push_back(static_cast<uint16_t>(r));
  }
  // The fusion pass runs once here: the fused plan is what Run executes.
  // The instruction list is never empty at this point (each result
  // register is a materialized constant, a load, or an op), so the plan
  // exists.
  program_.fused_ = BuildFusedPlan(program_);
  return std::move(program_);
}

// ---- Scratch ---------------------------------------------------------------

std::vector<double>* VexprScratch::AcquireF64() {
  if (f64_used_ == f64_.size()) {
    f64_.push_back(std::make_unique<std::vector<double>>());
  }
  std::vector<double>* v = f64_[f64_used_++].get();
  v->clear();
  return v;
}

std::vector<uint32_t>* VexprScratch::AcquireU32() {
  if (u32_used_ == u32_.size()) {
    u32_.push_back(std::make_unique<std::vector<uint32_t>>());
  }
  std::vector<uint32_t>* v = u32_[u32_used_++].get();
  v->clear();
  return v;
}

std::vector<VColumn>* VexprScratch::AcquireCols() {
  if (cols_used_ == cols_.size()) {
    cols_.push_back(std::make_unique<std::vector<VColumn>>());
  }
  std::vector<VColumn>* v = cols_[cols_used_++].get();
  v->clear();
  return v;
}

void VexprScratch::ResetAll() {
  f64_used_ = 0;
  u32_used_ = 0;
  cols_used_ = 0;
}

}  // namespace hepq::engine
