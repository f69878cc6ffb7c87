#ifndef HEPQUERY_ENGINE_VEXPR_H_
#define HEPQUERY_ENGINE_VEXPR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "engine/expr.h"

namespace hepq::engine {

// Vectorized expression programs.
//
// An Expr (or FlatExpr) tree is lowered once into a flat postfix program:
// every leaf and every operator becomes one instruction over a *batch of
// lanes*. The lowering performs constant folding and common-subexpression
// elimination, and resolves member accessors to typed input slots, so the
// per-lane hot loop contains no virtual dispatch, no shared_ptr chasing,
// and no per-access type switch — the `MemberAccessor::Get` switch runs
// once per (instruction, batch) instead of once per access. This is the
// paper's fast execution model (BigQuery's vectorized array expressions)
// as opposed to the tree-walking interpreter (the Rumble end of Figure 1);
// both are kept and selectable via ExprTier so the gap stays measurable.
//
// The instruction list is an intermediate form: Finish() runs the fusion
// pass (engine/vexpr_fuse), which regroups the whole straight-line program
// into superinstruction "batch kernels" executed strip-mined over small
// lane blocks, so intermediates stay in registers/L1. Run() and RunGate()
// always execute that fused plan.
//
// Results are bit-identical to the interpreter: each arithmetic opcode is
// the same single IEEE operation on the same operands (VOpApply is the
// scalar reference), and every physics opcode either calls the same
// out-of-line helper in core/physics.cc that the interpreter calls, or
// (the fused structure-of-arrays kernels) repeats the helper's exact
// operation sequence in a TU compiled with the same contraction rules (see
// the notes in core/physics.h and engine/vexpr_kernels.cc).

/// VM opcodes. kConst splats a constant-pool entry; kLoad gathers a typed
/// input slot; everything else consumes argument registers lane-wise.
enum class VOp : uint8_t {
  kConst,
  kLoad,
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
  kAnd,  // eager: operands are pure, so evaluating both sides is exact
  kOr,
  kAbs,
  kSqrt,
  kNot,
  kMin2,
  kMax2,
  kDeltaPhi,
  kDeltaR,
  kTransverseMass,
  // Cartesian components of one (pt, eta, phi, mass) particle, each one
  // line of PtEtaPhiM::ToPxPyPzE through the same out-of-line bodies
  // (core/fourvector.cc): px = pt*cos(phi), py = pt*sin(phi),
  // pz = pt*sinh(eta), E = sqrt(px*px + py*py + pz*pz + m*m). The
  // kinematic calls lower to these (VProgramBuilder::Call), so CSE
  // converts a particle once per lane however many kinematic consumers
  // the program has.
  kPx,  // (pt, phi)
  kPy,  // (pt, phi)
  kPz,  // (pt, eta)
  kE,   // (px, py, pz, m)
  // Cartesian reductions: operands are components (px, py, pz, E per
  // particle for the masses; px, py per particle for the pt), the per-lane
  // work is add + reduce (see the note in core/physics.h).
  kMassOfSum2,  // 8 args
  kMassOfSum3,  // 12 args
  kPtOfSum3,    // 6 args: (px1, py1, px2, py2, px3, py3)
};

const char* VOpName(VOp op);
VOp VOpFor(BinOp op);
/// Applies `op` to one lane of arguments — the exact scalar semantics the
/// fused kernels implement, shared with the constant folder so folded and
/// evaluated results are bit-identical. Defined in vexpr_kernels.cc, the
/// TU that compiles the kernels with the same contraction rules.
double VOpApply(VOp op, const double* v);

struct VInstr {
  VOp op = VOp::kConst;
  uint16_t dst = 0;        // destination register
  uint16_t index = 0;      // kConst: constant-pool slot; kLoad: input slot
  uint16_t first_arg = 0;  // offset into VProgram's argument list
  uint16_t num_args = 0;
};

/// One input slot bound for a Run: a typed base pointer read through an
/// optional per-lane index vector (gather), or a splat constant when
/// `data` is null. The type dispatch happens once per instruction, never
/// per lane.
struct VColumn {
  TypeId type = TypeId::kFloat64;
  const void* data = nullptr;
  const uint32_t* index = nullptr;  // null: lane i reads data[i]
  double splat = 0.0;
};

/// Per-worker strip storage of the fused kernels. The buffer keeps its
/// capacity across row groups, so steady-state execution allocates
/// nothing.
class VScratch {
 public:
  /// 64-byte-aligned block storage for `num_temps` fused-kernel strip
  /// temporaries of kVexprBlockLanes lanes each.
  double* Block(int num_temps);

 private:
  std::vector<double> block_;
};

class VFusedPlan;  // engine/vexpr_fuse.h

/// A compiled batch program: flat postfix instruction list over a constant
/// pool, input slots, and SSA registers, plus the fused superinstruction
/// plan built from it at Finish time, which is what executes. Immutable
/// after Finish; Run is const and thread-safe (each worker brings its own
/// VScratch).
class VProgram {
 public:
  VProgram() = default;

  int num_slots() const { return num_slots_; }
  int num_regs() const { return num_regs_; }
  int num_instrs() const { return static_cast<int>(code_.size()); }

  // Read access for the fusion pass and tests.
  const std::vector<VInstr>& code() const { return code_; }
  const std::vector<uint16_t>& args() const { return args_; }
  const std::vector<double>& consts() const { return consts_; }
  /// Result registers, one per output, in Finish order.
  const std::vector<uint16_t>& result_regs() const { return result_regs_; }
  int num_results() const { return static_cast<int>(result_regs_.size()); }

  /// Evaluates the program over lanes [0, n) through its fused plan,
  /// writing result k to outs[k][0..n) for every k < num_results().
  /// cols must provide num_slots() entries. Only finished programs
  /// (VProgramBuilder::Finish) run.
  void Run(const VColumn* cols, int n, VScratch* scratch,
           double* const* outs) const;
  /// Single-result form: out[0..n) gets result 0.
  void Run(const VColumn* cols, int n, VScratch* scratch, double* out) const {
    Run(cols, n, scratch, &out);
  }

  /// Fused gate: evaluates the program's first result as a predicate over
  /// lanes [0, n) and writes the passing lane indices (result != 0, xor
  /// `negate`) to sel_out[0..return) in ascending order, without
  /// materializing the 0/1 value vector. sel_out must hold n entries.
  int RunGate(const VColumn* cols, int n, VScratch* scratch, bool negate,
              uint32_t* sel_out) const;

  /// The fused plan (null only for default-constructed programs).
  const VFusedPlan* fused() const { return fused_.get(); }

  /// Disassembly for EXPLAIN output and tests.
  std::string ToString() const;

 private:
  friend class VProgramBuilder;
  std::vector<VInstr> code_;
  std::vector<uint16_t> args_;
  std::vector<double> consts_;
  std::shared_ptr<const VFusedPlan> fused_;
  int num_slots_ = 0;
  int num_regs_ = 0;
  std::vector<uint16_t> result_regs_;
};

/// Builds a VProgram bottom-up. Every Const/Load/Op returns a register id;
/// identical subcomputations are merged (CSE) and operations over
/// all-constant arguments are folded at build time. A program may have
/// several results (Finish), so CSE shares work across all of them.
class VProgramBuilder {
 public:
  int Const(double value);
  /// Loads input slot `slot` (caller-assigned; slots need not be dense,
  /// the program sizes itself to the largest slot id + 1).
  int Load(int slot);
  /// Makes every later Load(slot) return `reg`: the slot's value is
  /// computed by this program itself (an earlier result of the same run).
  void BindSlot(int slot, int reg);
  /// `arg_regs.size()` must be `op`'s operand count: lowerings reject
  /// wrong-arity calls with Status::Invalid when a query is prepared.
  int Op(VOp op, const std::vector<int>& arg_regs);
  /// Lowers built-in `fn` over `arg_regs` (arity as CheckFnArity). InvMass2,
  /// InvMass3 and SumPt3 decompose into kPx/kPy/kPz/kE per particle plus
  /// their Cartesian reduction, so every kinematic consumer of a particle
  /// shares one conversion; every other function is one opcode.
  int Call(Fn fn, const std::vector<int>& arg_regs);

  /// True (with the value) when `reg` folded to a constant.
  bool IsConst(int reg, double* value) const;

  /// Finishes the program with one output per entry of `result_regs`.
  VProgram Finish(const std::vector<int>& result_regs);

 private:
  VProgram program_;
  std::vector<std::pair<bool, double>> reg_const_;
  std::vector<bool> materialized_;
  std::map<std::vector<uint64_t>, int> cse_;
  int NewReg(bool is_const, double value);
  /// Emits the deferred kConst instruction for a folded register the first
  /// time a non-folded consumer needs it in the instruction stream.
  void Materialize(int reg);
};

/// Per-worker state of the compiled event-shape path: VM strip storage plus
/// a stack-scoped pool of index and value buffers used for lane frames,
/// selection vectors, and driver outputs. Everything keeps its capacity
/// across row groups — after warm-up the compiled path performs no heap
/// allocation per row group (micro_kernels asserts this).
class VexprScratch {
 public:
  VScratch vm;

  std::vector<double>* AcquireF64();
  std::vector<uint32_t>* AcquireU32();
  std::vector<VColumn>* AcquireCols();

  /// Returns every buffer acquired since construction to the pool; call
  /// once per batch before use.
  void ResetAll();

  /// RAII stack frame: buffers acquired inside the scope return to the
  /// pool on exit (capacity kept), so loops that acquire per iteration
  /// reuse the same buffers. Callers must not hold pointers into a scope's
  /// buffers after it exits.
  class Scope {
   public:
    explicit Scope(VexprScratch* s)
        : s_(s),
          f64_mark_(s->f64_used_),
          u32_mark_(s->u32_used_),
          cols_mark_(s->cols_used_) {}
    ~Scope() {
      s_->f64_used_ = f64_mark_;
      s_->u32_used_ = u32_mark_;
      s_->cols_used_ = cols_mark_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    VexprScratch* s_;
    size_t f64_mark_;
    size_t u32_mark_;
    size_t cols_mark_;
  };

 private:
  std::vector<std::unique_ptr<std::vector<double>>> f64_;
  std::vector<std::unique_ptr<std::vector<uint32_t>>> u32_;
  std::vector<std::unique_ptr<std::vector<VColumn>>> cols_;
  size_t f64_used_ = 0;
  size_t u32_used_ = 0;
  size_t cols_used_ = 0;
};

/// The parts of an EventQuery the compiler needs (EventQuery fills this in
/// from its declarations; the split keeps event_query.h light).
struct CompiledQuerySpec {
  std::vector<ExprPtr> stages;
  struct Fill {
    ExprPtr scalar;  // exactly one representation is active, as in FillSpec
    int list_slot = -1;
    int iter_slot = -1;
    ExprPtr filter;
    ExprPtr value;
    std::vector<ComboLoop> loops;
    bool per_element = false;
    bool per_combination = false;
  };
  std::vector<Fill> fills;
};

/// A fully compiled event-shape query: stage predicates narrow an event
/// selection vector, aggregate and combination drivers batch their inner
/// filter/score bodies across all surviving events, and fills evaluate
/// over the final selection. ExecuteBatch mirrors the interpreter loop in
/// EventQuery::ExecuteBatch bit for bit, including the ops counters.
class CompiledEventQuery {
 public:
  ~CompiledEventQuery();

  /// Every call in `spec` must have its function's arity (EventQuery
  /// checks CheckCallArity first).
  static Result<std::shared_ptr<const CompiledEventQuery>> Compile(
      CompiledQuerySpec spec);

  /// Runs over rows [0, num_rows) of the bound batch. Histograms must be
  /// sized to the fills; `events_selected` and `ops` accumulate.
  Status ExecuteBatch(const BatchBindings& bindings, int64_t num_rows,
                      VexprScratch* scratch,
                      std::vector<Histogram1D>* histograms,
                      int64_t* events_selected, uint64_t* ops) const;

 private:
  CompiledEventQuery();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Compiles a single expression for batch evaluation over the events of a
/// bound batch — the direct cross-check surface used by the randomized
/// compiler tests and the expression micro-benchmarks.
class CompiledExprKernel {
 public:
  /// Invalid if any call in `expr` has the wrong argument count.
  static Result<CompiledExprKernel> Compile(ExprPtr expr);

  /// Evaluates the expression once per row in [0, num_rows), exactly like
  /// calling Expr::Eval per row with a fresh EvalContext (all iterators
  /// initially bound to element 0). `ops` accumulates element and
  /// combination visits as the interpreter would count them.
  Status Eval(const BatchBindings& bindings, int64_t num_rows,
              VexprScratch* scratch, double* out, uint64_t* ops) const;

  /// Predicate form of Eval: writes the passing row indices (result != 0)
  /// to sel_out[0..return) in ascending order and returns their count —
  /// the fused gate+fill path the engines use for filter stages. sel_out
  /// must hold num_rows entries.
  Result<int> Gate(const BatchBindings& bindings, int64_t num_rows,
                   VexprScratch* scratch, uint32_t* sel_out,
                   uint64_t* ops) const;

  /// The compiled batch program — read access for the fused-plan stats
  /// (coverage, micro-op counts) reported by the expression benchmarks.
  /// Empty (zero instructions) when the expression fell back to the
  /// per-lane interpreter (combination searches).
  const VProgram& program() const;

 private:
  std::shared_ptr<const void> impl_;
};

}  // namespace hepq::engine

#endif  // HEPQUERY_ENGINE_VEXPR_H_
