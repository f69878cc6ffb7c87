#ifndef HEPQUERY_ENGINE_EXPR_H_
#define HEPQUERY_ENGINE_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/context.h"

namespace hepq::engine {

enum class BinOp {
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
};

/// Built-in scalar functions. The physics entries mirror the UDF library
/// every HEP system ships (paper §3.6): they consume flattened
/// (pt, eta, phi, mass) argument groups.
enum class Fn {
  kAbs,       // 1 arg
  kSqrt,      // 1 arg
  kNot,       // 1 arg
  kMin2,      // 2 args
  kMax2,      // 2 args
  kDeltaPhi,  // (phi1, phi2)
  kDeltaR,    // (eta1, phi1, eta2, phi2)
  kInvMass2,  // (pt1,eta1,phi1,m1, pt2,eta2,phi2,m2)
  kInvMass3,  // 12 args, three (pt,eta,phi,m) groups
  kSumPt3,    // 12 args: pt of the three-particle system four-momentum
  kTransverseMass,  // (pt1, phi1, pt2, phi2)
};

/// Invalid status naming the call unless `fn` takes exactly `num_args`
/// arguments — the one arity rule every preparation path applies.
Status CheckFnArity(Fn fn, size_t num_args);

/// `x op lit` as a closed conservative range on x — the zone-map bound a
/// pushed-down comparison implies. kNe carries no range information; the
/// arithmetic/logic ops are not comparisons (both return false).
bool CmpToRange(BinOp op, double lit, double* lo, double* hi);
/// Rewrites `lit op x` as `x op' lit`.
BinOp MirrorCmp(BinOp op);

enum class AggKind { kCount, kSum, kMin, kMax, kAny };

/// One loop level of a combination search.
struct ComboLoop {
  int list_slot;
  int iter_slot;
};

/// Which execution tier an engine uses for its expression trees — the
/// interpreted-vs-compiled ablation of DESIGN.md "Expression execution":
///   kInterpret — per-row virtual-dispatch tree walk (the Rumble end); also
///                the independent oracle the compiled tier is tested
///                against;
///   kSimd      — the tree lowered to a VM program (engine/vexpr) and run
///                as fused, strip-mined batch kernels (engine/vexpr_fuse);
///                the default.
/// Both produce bit-identical results; only the cost model differs.
enum class ExprTier {
  kInterpret,
  kSimd,
};

/// Stable lowercase tier name ("interpret" / "simd") — the value syntax of
/// the `--vexpr-tier` flag.
const char* ExprTierName(ExprTier tier);
/// Parses a tier name; returns false (leaving `out` untouched) on any
/// other string.
bool ParseExprTier(const std::string& name, ExprTier* out);

class Expr;

/// Structural reflection of one expression node, consumed by the
/// vectorizing compiler (engine/vexpr): it lowers trees to batch programs
/// without widening the interpreter's class hierarchy or exposing the
/// node classes outside expr.cc. Child pointers stay owned by the
/// reflected node and are valid while the tree is alive.
struct ExprShape {
  enum class Kind {
    kLit,
    kScalarRef,
    kIterMember,
    kIterOrdinal,
    kListSize,
    kBin,
    kCall,
    kAgg,
    kBestCombination,
    kAnyCombination,
  };
  Kind kind = Kind::kLit;
  double lit = 0.0;
  int list_slot = -1;
  int iter_slot = -1;
  int member_slot = -1;
  int scalar_slot = -1;
  BinOp bin_op = BinOp::kAdd;
  Fn fn = Fn::kAbs;
  AggKind agg_kind = AggKind::kCount;
  std::vector<ComboLoop> loops;        // combination searches
  std::vector<const Expr*> operands;   // kBin operands / kCall arguments
  const Expr* filter = nullptr;        // agg / combination filter (or null)
  const Expr* value = nullptr;         // agg value / combination key (or null)
};

/// Interpreted scalar expression evaluated once per event (or per bound
/// particle combination). Booleans are represented as 0.0 / 1.0. This is
/// the execution model of the "BigQuery plan shape": array logic runs as
/// expressions inside the scan, with no flattening of the event table.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual double Eval(EvalContext* ctx) const = 0;
  /// Compact plan rendering for EXPLAIN output and error messages.
  virtual std::string ToString() const = 0;
  /// Reflects the node's structure for the vectorizing compiler.
  virtual ExprShape Shape() const = 0;
  bool EvalBool(EvalContext* ctx) const { return Eval(ctx) != 0.0; }
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Checks every call in the tree under `e` (null is fine) with
/// CheckFnArity. Run when a query is prepared, on both tiers, so no
/// evaluator indexes past or short of a call's argument list.
Status CheckCallArity(const Expr* e);

// ---- Node factories -------------------------------------------------------

ExprPtr Lit(double value);
/// Scalar leaf of the event (slot from the query's scalar declarations).
ExprPtr ScalarRef(int scalar_slot);
/// Member `member_slot` of the particle bound to iterator `iter_slot`,
/// which iterates over list `list_slot`.
ExprPtr IterMember(int list_slot, int iter_slot, int member_slot);
/// The ordinal (0-based position within its event) of iterator `iter_slot`
/// over `list_slot` — SQL's WITH ORDINALITY / JSONiq's `at $i`.
ExprPtr IterOrdinal(int list_slot, int iter_slot);
ExprPtr Bin(BinOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Call(Fn fn, std::vector<ExprPtr> args);

/// Number of particles in a list — CARDINALITY / ARRAY_LENGTH.
ExprPtr ListSize(int list_slot);

/// Aggregates over the elements of one list within the current event
/// (SQL's correlated nested subquery, Listing 4a of the paper; JSONiq's
/// `count($event.jets[][...])`). Binds `iter_slot` to each element in
/// turn; elements failing `filter` (optional) are skipped; `value`
/// (optional, defaults to 1) is aggregated. May be nested: `filter` /
/// `value` can themselves aggregate over other lists with other iterator
/// slots, which is how Q7's "no lepton within dR < 0.4" veto runs.
ExprPtr AggOverList(AggKind kind, int list_slot, int iter_slot,
                    ExprPtr filter, ExprPtr value);

/// Finds the combination of particles minimizing `key` subject to
/// `filter` (optional), exploring the Cartesian product of the loops;
/// loops over the same list are restricted to strictly increasing ordinals
/// (symmetric combinations, e.g. Q6's trijet). On success the winning
/// element indices stay bound to the loops' iterator slots for all
/// subsequently evaluated expressions, and the expression yields 1.
/// Yields 0 if no combination passes the filter.
ExprPtr BestCombination(std::vector<ComboLoop> loops, ExprPtr filter,
                        ExprPtr key);

/// Like BestCombination but only tests for existence (Q5): yields 1 as
/// soon as some combination passes `filter`, leaving it bound.
ExprPtr AnyCombination(std::vector<ComboLoop> loops, ExprPtr filter);

/// Finds the single element of `list_slot` minimizing `key` subject to
/// `filter`, binding `iter_slot` to it (Q8's "highest-pt lepton not in the
/// pair" uses the negated pt as key). Yields 1 if found, else 0.
ExprPtr BestElement(int list_slot, int iter_slot, ExprPtr filter,
                    ExprPtr key);

// ---- Convenience wrappers -------------------------------------------------

inline ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr And(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kAnd, std::move(a), std::move(b));
}
inline ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Bin(BinOp::kOr, std::move(a), std::move(b));
}
inline ExprPtr Abs(ExprPtr a) { return Call(Fn::kAbs, {std::move(a)}); }
inline ExprPtr Not(ExprPtr a) { return Call(Fn::kNot, {std::move(a)}); }

}  // namespace hepq::engine

#endif  // HEPQUERY_ENGINE_EXPR_H_
