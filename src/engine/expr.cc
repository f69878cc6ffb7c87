#include "engine/expr.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "core/physics.h"

namespace hepq::engine {

const char* ExprTierName(ExprTier tier) {
  return tier == ExprTier::kInterpret ? "interpret" : "simd";
}

bool ParseExprTier(const std::string& name, ExprTier* out) {
  if (name == "interpret") {
    *out = ExprTier::kInterpret;
  } else if (name == "simd") {
    *out = ExprTier::kSimd;
  } else {
    return false;
  }
  return true;
}

namespace {

const char* FnName(Fn fn) {
  switch (fn) {
    case Fn::kAbs: return "abs";
    case Fn::kSqrt: return "sqrt";
    case Fn::kNot: return "not";
    case Fn::kMin2: return "min";
    case Fn::kMax2: return "max";
    case Fn::kDeltaPhi: return "delta_phi";
    case Fn::kDeltaR: return "delta_r";
    case Fn::kInvMass2: return "inv_mass2";
    case Fn::kInvMass3: return "inv_mass3";
    case Fn::kSumPt3: return "sum_pt3";
    case Fn::kTransverseMass: return "transverse_mass";
  }
  return "?";
}

int FnArity(Fn fn) {
  switch (fn) {
    case Fn::kAbs:
    case Fn::kSqrt:
    case Fn::kNot:
      return 1;
    case Fn::kMin2:
    case Fn::kMax2:
    case Fn::kDeltaPhi:
      return 2;
    case Fn::kDeltaR:
    case Fn::kTransverseMass:
      return 4;
    case Fn::kInvMass2:
      return 8;
    case Fn::kInvMass3:
    case Fn::kSumPt3:
      return 12;
  }
  return 0;
}

}  // namespace

Status CheckFnArity(Fn fn, size_t num_args) {
  if (num_args == static_cast<size_t>(FnArity(fn))) return Status::OK();
  return Status::Invalid(std::string(FnName(fn)) + " takes " +
                         std::to_string(FnArity(fn)) + " arguments, got " +
                         std::to_string(num_args));
}

Status CheckCallArity(const Expr* e) {
  if (e == nullptr) return Status::OK();
  const ExprShape s = e->Shape();
  if (s.kind == ExprShape::Kind::kCall) {
    HEPQ_RETURN_NOT_OK(CheckFnArity(s.fn, s.operands.size()));
  }
  for (const Expr* operand : s.operands) {
    HEPQ_RETURN_NOT_OK(CheckCallArity(operand));
  }
  HEPQ_RETURN_NOT_OK(CheckCallArity(s.filter));
  return CheckCallArity(s.value);
}

namespace {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "!=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount: return "count";
    case AggKind::kSum: return "sum";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
    case AggKind::kAny: return "any";
  }
  return "?";
}

std::string LoopsToString(const std::vector<ComboLoop>& loops) {
  std::string out;
  for (size_t i = 0; i < loops.size(); ++i) {
    if (i > 0) out += ", ";
    out += "list" + std::to_string(loops[i].list_slot) + "@it" +
           std::to_string(loops[i].iter_slot);
  }
  return out;
}

class LitExpr final : public Expr {
 public:
  explicit LitExpr(double v) : value_(v) {}
  double Eval(EvalContext*) const override { return value_; }
  std::string ToString() const override {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value_);
    return buf;
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kLit;
    s.lit = value_;
    return s;
  }

 private:
  double value_;
};

class ScalarRefExpr final : public Expr {
 public:
  explicit ScalarRefExpr(int slot) : slot_(slot) {}
  double Eval(EvalContext* ctx) const override {
    return ctx->bindings->scalar(slot_).Get(ctx->row);
  }
  std::string ToString() const override {
    return "scalar" + std::to_string(slot_);
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kScalarRef;
    s.scalar_slot = slot_;
    return s;
  }

 private:
  int slot_;
};

class IterMemberExpr final : public Expr {
 public:
  IterMemberExpr(int list_slot, int iter_slot, int member_slot)
      : list_slot_(list_slot),
        iter_slot_(iter_slot),
        member_slot_(member_slot) {}
  double Eval(EvalContext* ctx) const override {
    const ListBinding& list = ctx->bindings->list(list_slot_);
    return list.members[static_cast<size_t>(member_slot_)].Get(
        ctx->iter_index[iter_slot_]);
  }
  std::string ToString() const override {
    return "it" + std::to_string(iter_slot_) + ".m" +
           std::to_string(member_slot_);
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kIterMember;
    s.list_slot = list_slot_;
    s.iter_slot = iter_slot_;
    s.member_slot = member_slot_;
    return s;
  }

 private:
  int list_slot_;
  int iter_slot_;
  int member_slot_;
};

class IterOrdinalExpr final : public Expr {
 public:
  IterOrdinalExpr(int list_slot, int iter_slot)
      : list_slot_(list_slot), iter_slot_(iter_slot) {}
  double Eval(EvalContext* ctx) const override {
    const ListBinding& list = ctx->bindings->list(list_slot_);
    return static_cast<double>(ctx->iter_index[iter_slot_] -
                               list.begin(ctx->row));
  }
  std::string ToString() const override {
    return "ordinal(it" + std::to_string(iter_slot_) + ")";
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kIterOrdinal;
    s.list_slot = list_slot_;
    s.iter_slot = iter_slot_;
    return s;
  }

 private:
  int list_slot_;
  int iter_slot_;
};

class BinExpr final : public Expr {
 public:
  BinExpr(BinOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  double Eval(EvalContext* ctx) const override {
    // Short-circuit logical operators.
    if (op_ == BinOp::kAnd) {
      return lhs_->EvalBool(ctx) && rhs_->EvalBool(ctx) ? 1.0 : 0.0;
    }
    if (op_ == BinOp::kOr) {
      return lhs_->EvalBool(ctx) || rhs_->EvalBool(ctx) ? 1.0 : 0.0;
    }
    const double a = lhs_->Eval(ctx);
    const double b = rhs_->Eval(ctx);
    switch (op_) {
      case BinOp::kAdd:
        return a + b;
      case BinOp::kSub:
        return a - b;
      case BinOp::kMul:
        return a * b;
      case BinOp::kDiv:
        return a / b;
      case BinOp::kLt:
        return a < b ? 1.0 : 0.0;
      case BinOp::kLe:
        return a <= b ? 1.0 : 0.0;
      case BinOp::kGt:
        return a > b ? 1.0 : 0.0;
      case BinOp::kGe:
        return a >= b ? 1.0 : 0.0;
      case BinOp::kEq:
        return a == b ? 1.0 : 0.0;
      case BinOp::kNe:
        return a != b ? 1.0 : 0.0;
      default:
        return 0.0;
    }
  }
  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + BinOpName(op_) + " " +
           rhs_->ToString() + ")";
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kBin;
    s.bin_op = op_;
    s.operands = {lhs_.get(), rhs_.get()};
    return s;
  }

 private:
  BinOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class CallExpr final : public Expr {
 public:
  CallExpr(Fn fn, std::vector<ExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}
  double Eval(EvalContext* ctx) const override {
    double v[12];
    const size_t n = args_.size();
    for (size_t i = 0; i < n; ++i) v[i] = args_[i]->Eval(ctx);
    switch (fn_) {
      case Fn::kAbs:
        return std::abs(v[0]);
      case Fn::kSqrt:
        return std::sqrt(v[0]);
      case Fn::kNot:
        return v[0] != 0.0 ? 0.0 : 1.0;
      case Fn::kMin2:
        return std::min(v[0], v[1]);
      case Fn::kMax2:
        return std::max(v[0], v[1]);
      case Fn::kDeltaPhi:
        return DeltaPhi(v[0], v[1]);
      case Fn::kDeltaR:
        return DeltaR(v[0], v[1], v[2], v[3]);
      case Fn::kInvMass2:
        return InvariantMass2({v[0], v[1], v[2], v[3]},
                              {v[4], v[5], v[6], v[7]});
      case Fn::kInvMass3:
        return InvariantMass3({v[0], v[1], v[2], v[3]},
                              {v[4], v[5], v[6], v[7]},
                              {v[8], v[9], v[10], v[11]});
      case Fn::kSumPt3:
        return AddPtEtaPhiM3({v[0], v[1], v[2], v[3]},
                             {v[4], v[5], v[6], v[7]},
                             {v[8], v[9], v[10], v[11]})
            .pt;
      case Fn::kTransverseMass:
        return TransverseMass(v[0], v[1], v[2], v[3]);
    }
    return 0.0;
  }
  std::string ToString() const override {
    std::string out = std::string(FnName(fn_)) + "(";
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ", ";
      out += args_[i]->ToString();
    }
    return out + ")";
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kCall;
    s.fn = fn_;
    s.operands.reserve(args_.size());
    for (const ExprPtr& arg : args_) s.operands.push_back(arg.get());
    return s;
  }

 private:
  Fn fn_;
  std::vector<ExprPtr> args_;
};

class ListSizeExpr final : public Expr {
 public:
  explicit ListSizeExpr(int list_slot) : list_slot_(list_slot) {}
  double Eval(EvalContext* ctx) const override {
    return ctx->bindings->list(list_slot_).size(ctx->row);
  }
  std::string ToString() const override {
    return "cardinality(list" + std::to_string(list_slot_) + ")";
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kListSize;
    s.list_slot = list_slot_;
    return s;
  }

 private:
  int list_slot_;
};

class AggOverListExpr final : public Expr {
 public:
  AggOverListExpr(AggKind kind, int list_slot, int iter_slot, ExprPtr filter,
                  ExprPtr value)
      : kind_(kind),
        list_slot_(list_slot),
        iter_slot_(iter_slot),
        filter_(std::move(filter)),
        value_(std::move(value)) {}

  double Eval(EvalContext* ctx) const override {
    const ListBinding& list = ctx->bindings->list(list_slot_);
    const uint32_t begin = list.begin(ctx->row);
    const uint32_t end = list.end(ctx->row);
    const uint32_t saved = ctx->iter_index[iter_slot_];
    double acc;
    switch (kind_) {
      case AggKind::kMin:
        acc = std::numeric_limits<double>::infinity();
        break;
      case AggKind::kMax:
        acc = -std::numeric_limits<double>::infinity();
        break;
      default:
        acc = 0.0;
    }
    for (uint32_t i = begin; i < end; ++i) {
      ctx->iter_index[iter_slot_] = i;
      ++ctx->ops;
      if (filter_ != nullptr && !filter_->EvalBool(ctx)) continue;
      const double v = value_ != nullptr ? value_->Eval(ctx) : 1.0;
      switch (kind_) {
        case AggKind::kCount:
          acc += 1.0;
          break;
        case AggKind::kSum:
          acc += v;
          break;
        case AggKind::kMin:
          acc = std::min(acc, v);
          break;
        case AggKind::kMax:
          acc = std::max(acc, v);
          break;
        case AggKind::kAny:
          if (v != 0.0) {
            ctx->iter_index[iter_slot_] = saved;
            return 1.0;
          }
          break;
      }
    }
    ctx->iter_index[iter_slot_] = saved;
    return acc;
  }
  std::string ToString() const override {
    std::string out = std::string(AggKindName(kind_)) + "(list" +
                      std::to_string(list_slot_) + "@it" +
                      std::to_string(iter_slot_);
    if (filter_ != nullptr) out += " where " + filter_->ToString();
    if (value_ != nullptr) out += " -> " + value_->ToString();
    return out + ")";
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kAgg;
    s.agg_kind = kind_;
    s.list_slot = list_slot_;
    s.iter_slot = iter_slot_;
    s.filter = filter_.get();
    s.value = value_.get();
    return s;
  }

 private:
  AggKind kind_;
  int list_slot_;
  int iter_slot_;
  ExprPtr filter_;
  ExprPtr value_;
};

/// Shared machinery for combination searches: iterates the (restricted)
/// Cartesian product of the loop lists, calling `visit` for each
/// combination that survives the per-loop symmetric-deduplication rule.
class CombinationExprBase : public Expr {
 protected:
  explicit CombinationExprBase(std::vector<ComboLoop> loops)
      : loops_(std::move(loops)) {}

  template <typename Visit>
  void ForEachCombination(EvalContext* ctx, const Visit& visit) const {
    Recurse(ctx, 0, visit);
  }

 private:
  template <typename Visit>
  void Recurse(EvalContext* ctx, size_t depth, const Visit& visit) const {
    if (depth == loops_.size()) {
      ++ctx->ops;
      visit();
      return;
    }
    const ComboLoop& loop = loops_[depth];
    const ListBinding& list = ctx->bindings->list(loop.list_slot);
    uint32_t begin = list.begin(ctx->row);
    const uint32_t end = list.end(ctx->row);
    // Symmetric combinations: if an earlier loop runs over the same list,
    // start strictly after its current element so each unordered
    // combination is explored exactly once.
    for (size_t d = 0; d < depth; ++d) {
      if (loops_[d].list_slot == loop.list_slot) {
        begin = std::max(begin, ctx->iter_index[loops_[d].iter_slot] + 1);
      }
    }
    for (uint32_t i = begin; i < end; ++i) {
      ctx->iter_index[loop.iter_slot] = i;
      Recurse(ctx, depth + 1, visit);
    }
  }

 protected:
  std::vector<ComboLoop> loops_;
};

class BestCombinationExpr final : public CombinationExprBase {
 public:
  BestCombinationExpr(std::vector<ComboLoop> loops, ExprPtr filter,
                      ExprPtr key)
      : CombinationExprBase(std::move(loops)),
        filter_(std::move(filter)),
        key_(std::move(key)) {}

  double Eval(EvalContext* ctx) const override {
    double best_key = std::numeric_limits<double>::infinity();
    uint32_t best[kMaxIterators];
    bool found = false;
    ForEachCombination(ctx, [&] {
      if (filter_ != nullptr && !filter_->EvalBool(ctx)) return;
      const double k = key_->Eval(ctx);
      if (!found || k < best_key) {
        found = true;
        best_key = k;
        for (const ComboLoop& loop : loops_) {
          best[loop.iter_slot] = ctx->iter_index[loop.iter_slot];
        }
      }
    });
    if (!found) return 0.0;
    for (const ComboLoop& loop : loops_) {
      ctx->iter_index[loop.iter_slot] = best[loop.iter_slot];
    }
    return 1.0;
  }
  std::string ToString() const override {
    std::string out = "best_combination(" + LoopsToString(loops_);
    if (filter_ != nullptr) out += " where " + filter_->ToString();
    return out + " minimize " + key_->ToString() + ")";
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kBestCombination;
    s.loops = loops_;
    s.filter = filter_.get();
    s.value = key_.get();
    return s;
  }

 private:
  ExprPtr filter_;
  ExprPtr key_;
};

class AnyCombinationExpr final : public CombinationExprBase {
 public:
  AnyCombinationExpr(std::vector<ComboLoop> loops, ExprPtr filter)
      : CombinationExprBase(std::move(loops)), filter_(std::move(filter)) {}

  double Eval(EvalContext* ctx) const override {
    bool found = false;
    uint32_t bound[kMaxIterators];
    ForEachCombination(ctx, [&] {
      if (found) return;  // no early exit from the recursion; cheap check
      if (filter_ == nullptr || filter_->EvalBool(ctx)) {
        found = true;
        for (const ComboLoop& loop : loops_) {
          bound[loop.iter_slot] = ctx->iter_index[loop.iter_slot];
        }
      }
    });
    if (!found) return 0.0;
    for (const ComboLoop& loop : loops_) {
      ctx->iter_index[loop.iter_slot] = bound[loop.iter_slot];
    }
    return 1.0;
  }
  std::string ToString() const override {
    std::string out = "any_combination(" + LoopsToString(loops_);
    if (filter_ != nullptr) out += " where " + filter_->ToString();
    return out + ")";
  }
  ExprShape Shape() const override {
    ExprShape s;
    s.kind = ExprShape::Kind::kAnyCombination;
    s.loops = loops_;
    s.filter = filter_.get();
    return s;
  }

 private:
  ExprPtr filter_;
};

}  // namespace

bool CmpToRange(BinOp op, double lit, double* lo, double* hi) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (op) {
    case BinOp::kGt:
    case BinOp::kGe:
      *lo = lit;
      *hi = inf;
      return true;
    case BinOp::kLt:
    case BinOp::kLe:
      *lo = -inf;
      *hi = lit;
      return true;
    case BinOp::kEq:
      *lo = lit;
      *hi = lit;
      return true;
    default:
      return false;
  }
}

BinOp MirrorCmp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;
  }
}

ExprPtr Lit(double value) { return std::make_shared<LitExpr>(value); }

ExprPtr ScalarRef(int scalar_slot) {
  return std::make_shared<ScalarRefExpr>(scalar_slot);
}

ExprPtr IterMember(int list_slot, int iter_slot, int member_slot) {
  return std::make_shared<IterMemberExpr>(list_slot, iter_slot, member_slot);
}

ExprPtr IterOrdinal(int list_slot, int iter_slot) {
  return std::make_shared<IterOrdinalExpr>(list_slot, iter_slot);
}

ExprPtr Bin(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BinExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr Call(Fn fn, std::vector<ExprPtr> args) {
  return std::make_shared<CallExpr>(fn, std::move(args));
}

ExprPtr ListSize(int list_slot) {
  return std::make_shared<ListSizeExpr>(list_slot);
}

ExprPtr AggOverList(AggKind kind, int list_slot, int iter_slot,
                    ExprPtr filter, ExprPtr value) {
  return std::make_shared<AggOverListExpr>(kind, list_slot, iter_slot,
                                           std::move(filter),
                                           std::move(value));
}

ExprPtr BestCombination(std::vector<ComboLoop> loops, ExprPtr filter,
                        ExprPtr key) {
  return std::make_shared<BestCombinationExpr>(
      std::move(loops), std::move(filter), std::move(key));
}

ExprPtr AnyCombination(std::vector<ComboLoop> loops, ExprPtr filter) {
  return std::make_shared<AnyCombinationExpr>(std::move(loops),
                                              std::move(filter));
}

ExprPtr BestElement(int list_slot, int iter_slot, ExprPtr filter,
                    ExprPtr key) {
  return BestCombination({{list_slot, iter_slot}}, std::move(filter),
                         std::move(key));
}

}  // namespace hepq::engine
