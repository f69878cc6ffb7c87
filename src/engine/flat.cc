#include "engine/flat.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

#include "core/physics.h"
#include "engine/vexpr.h"
#include "exec/exec.h"
#include "obs/trace.h"

namespace hepq::engine {

int FlatBatch::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void FlatBatch::Clear() {
  num_rows = 0;
  for (auto& column : columns) column.clear();
}

namespace {

class FlatLitExpr final : public FlatExpr {
 public:
  explicit FlatLitExpr(double v) : value_(v) {}
  double Eval(const FlatBatch&, size_t) const override { return value_; }
  Status Resolve(const FlatBatch&) override { return Status::OK(); }
  Result<int> Lower(VProgramBuilder* builder) const override {
    return builder->Const(value_);
  }
  FlatShape Shape() const override {
    FlatShape s;
    s.kind = FlatShape::Kind::kLit;
    s.lit = value_;
    return s;
  }

 private:
  double value_;
};

class FlatColExpr final : public FlatExpr {
 public:
  explicit FlatColExpr(std::string name) : name_(std::move(name)) {}
  double Eval(const FlatBatch& batch, size_t row) const override {
    return batch.columns[static_cast<size_t>(index_)][row];
  }
  Status Resolve(const FlatBatch& batch) override {
    index_ = batch.ColumnIndex(name_);
    if (index_ < 0) {
      return Status::KeyError("flat pipeline has no column '" + name_ + "'");
    }
    return Status::OK();
  }
  Result<int> Lower(VProgramBuilder* builder) const override {
    if (index_ < 0) {
      return Status::Invalid("FlatColExpr '" + name_ +
                             "' lowered before Resolve");
    }
    return builder->Load(index_);
  }
  FlatShape Shape() const override {
    FlatShape s;
    s.kind = FlatShape::Kind::kCol;
    s.col = name_;
    return s;
  }

 private:
  std::string name_;
  int index_ = -1;
};

class FlatBinExpr final : public FlatExpr {
 public:
  FlatBinExpr(BinOp op, FlatExprPtr lhs, FlatExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  double Eval(const FlatBatch& batch, size_t row) const override {
    if (op_ == BinOp::kAnd) {
      return lhs_->EvalBool(batch, row) && rhs_->EvalBool(batch, row) ? 1.0
                                                                      : 0.0;
    }
    if (op_ == BinOp::kOr) {
      return lhs_->EvalBool(batch, row) || rhs_->EvalBool(batch, row) ? 1.0
                                                                      : 0.0;
    }
    const double a = lhs_->Eval(batch, row);
    const double b = rhs_->Eval(batch, row);
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
  Status Resolve(const FlatBatch& batch) override {
    HEPQ_RETURN_NOT_OK(lhs_->Resolve(batch));
    return rhs_->Resolve(batch);
  }
  Result<int> Lower(VProgramBuilder* builder) const override {
    // Flat expressions are pure, so evaluating both sides of And/Or
    // eagerly is exact — the short-circuit above is only a scalar-path
    // optimization.
    int lhs, rhs;
    HEPQ_ASSIGN_OR_RETURN(lhs, lhs_->Lower(builder));
    HEPQ_ASSIGN_OR_RETURN(rhs, rhs_->Lower(builder));
    return builder->Op(VOpFor(op_), {lhs, rhs});
  }
  FlatShape Shape() const override {
    FlatShape s;
    s.kind = FlatShape::Kind::kBin;
    s.bin_op = op_;
    s.lhs = lhs_.get();
    s.rhs = rhs_.get();
    return s;
  }

 private:
  BinOp op_;
  FlatExprPtr lhs_;
  FlatExprPtr rhs_;
};

class FlatCallExpr final : public FlatExpr {
 public:
  FlatCallExpr(Fn fn, std::vector<FlatExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}
  double Eval(const FlatBatch& batch, size_t row) const override {
    double v[12];
    for (size_t i = 0; i < args_.size(); ++i) {
      v[i] = args_[i]->Eval(batch, row);
    }
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
  Status Resolve(const FlatBatch& batch) override {
    // Both tiers resolve before running, so a wrong argument count never
    // reaches Eval's fixed argument buffer or a kernel's operand list.
    HEPQ_RETURN_NOT_OK(CheckFnArity(fn_, args_.size()));
    for (auto& arg : args_) HEPQ_RETURN_NOT_OK(arg->Resolve(batch));
    return Status::OK();
  }
  Result<int> Lower(VProgramBuilder* builder) const override {
    std::vector<int> regs;
    regs.reserve(args_.size());
    for (const FlatExprPtr& arg : args_) {
      int reg;
      HEPQ_ASSIGN_OR_RETURN(reg, arg->Lower(builder));
      regs.push_back(reg);
    }
    return builder->Call(fn_, regs);
  }

 private:
  Fn fn_;
  std::vector<FlatExprPtr> args_;
};

/// Hash aggregation state, keyed by the __event column.
class EventAggregator {
 public:
  explicit EventAggregator(const std::vector<FlatAggSpec>& specs)
      : specs_(specs) {
    state_offsets_.reserve(specs.size());
    int offset = 0;
    for (const FlatAggSpec& spec : specs) {
      state_offsets_.push_back(offset);
      offset += spec.kind == FlatAggKind::kMinBy ? 2 : 1;
    }
    state_width_ = offset;
  }

  Status Resolve(const FlatBatch& layout) {
    input_cols_.assign(specs_.size(), -1);
    key_cols_.assign(specs_.size(), -1);
    for (size_t a = 0; a < specs_.size(); ++a) {
      const FlatAggSpec& spec = specs_[a];
      if (spec.kind != FlatAggKind::kCount) {
        input_cols_[a] = layout.ColumnIndex(spec.input);
        if (input_cols_[a] < 0) {
          return Status::KeyError("aggregate input column '" + spec.input +
                                  "' not found");
        }
      }
      if (spec.kind == FlatAggKind::kMinBy) {
        key_cols_[a] = layout.ColumnIndex(spec.key);
        if (key_cols_[a] < 0) {
          return Status::KeyError("aggregate key column '" + spec.key +
                                  "' not found");
        }
      }
    }
    return Status::OK();
  }

  void Consume(const FlatBatch& batch, int event_col) {
    Consume(batch, event_col, nullptr, batch.num_rows);
  }

  /// Selection-vector form: consumes rows sel[0..n) (all rows when `sel`
  /// is null). Visiting the same surviving rows in the same ascending
  /// order as the compacting path keeps group insertion order — and hence
  /// the merged output — bit-identical. An event's rows arrive as one
  /// contiguous run (possibly split across chunks), so the hash lookup
  /// only happens when the key changes.
  void Consume(const FlatBatch& batch, int event_col, const uint32_t* sel,
               size_t n) {
    const auto& event_ids =
        batch.columns[static_cast<size_t>(event_col)];
    for (size_t lane = 0; lane < n; ++lane) {
      const size_t row = sel != nullptr ? sel[lane] : lane;
      const int64_t key = static_cast<int64_t>(event_ids[row]);
      if (key != last_key_) {
        auto [it, inserted] = groups_.try_emplace(key, states_.size());
        if (inserted) {
          keys_.push_back(key);
          states_.resize(states_.size() + static_cast<size_t>(state_width_));
          InitState(&states_[it->second]);
        }
        last_key_ = key;
        last_state_ = it->second;
      }
      double* state = &states_[last_state_];
      for (size_t a = 0; a < specs_.size(); ++a) {
        double* s = state + state_offsets_[a];
        const FlatAggSpec& spec = specs_[a];
        const double v =
            spec.kind == FlatAggKind::kCount
                ? 1.0
                : batch.columns[static_cast<size_t>(input_cols_[a])][row];
        switch (spec.kind) {
          case FlatAggKind::kCount:
          case FlatAggKind::kSum:
            s[0] += v;
            break;
          case FlatAggKind::kMin:
            s[0] = std::min(s[0], v);
            break;
          case FlatAggKind::kMax:
            s[0] = std::max(s[0], v);
            break;
          case FlatAggKind::kFirst:
            if (std::isnan(s[0])) s[0] = v;
            break;
          case FlatAggKind::kMinBy: {
            const double k =
                batch.columns[static_cast<size_t>(key_cols_[a])][row];
            if (k < s[0]) {
              s[0] = k;
              s[1] = v;
            }
            break;
          }
        }
      }
    }
  }

  /// Emits one row per group: "__event" plus one column per aggregate.
  FlatBatch Finish() const {
    FlatBatch out;
    out.names.push_back("__event");
    for (const FlatAggSpec& spec : specs_) out.names.push_back(spec.output);
    out.columns.resize(out.names.size());
    out.num_rows = keys_.size();
    for (size_t g = 0; g < keys_.size(); ++g) {
      out.columns[0].push_back(static_cast<double>(keys_[g]));
      const double* state = &states_[g * static_cast<size_t>(state_width_)];
      for (size_t a = 0; a < specs_.size(); ++a) {
        const double* s = state + state_offsets_[a];
        const double v =
            specs_[a].kind == FlatAggKind::kMinBy ? s[1] : s[0];
        out.columns[a + 1].push_back(v);
      }
    }
    return out;
  }

  size_t num_groups() const { return keys_.size(); }

 private:
  void InitState(double* state) {
    for (size_t a = 0; a < specs_.size(); ++a) {
      double* s = state + state_offsets_[a];
      switch (specs_[a].kind) {
        case FlatAggKind::kCount:
        case FlatAggKind::kSum:
          s[0] = 0.0;
          break;
        case FlatAggKind::kMin:
          s[0] = std::numeric_limits<double>::infinity();
          break;
        case FlatAggKind::kMax:
          s[0] = -std::numeric_limits<double>::infinity();
          break;
        case FlatAggKind::kFirst:
          s[0] = std::numeric_limits<double>::quiet_NaN();
          break;
        case FlatAggKind::kMinBy:
          s[0] = std::numeric_limits<double>::infinity();
          s[1] = 0.0;
          break;
      }
    }
  }

  const std::vector<FlatAggSpec>& specs_;
  std::vector<int> state_offsets_;
  int state_width_ = 0;
  std::unordered_map<int64_t, size_t> groups_;  // key -> state offset
  std::vector<int64_t> keys_;                   // insertion order
  std::vector<double> states_;
  int64_t last_key_ = -1;  // event ids are >= 0
  size_t last_state_ = 0;  // state offset of last_key_
  std::vector<int> input_cols_;
  std::vector<int> key_cols_;
};

/// Rows per flat chunk: one flush's working set (every materialized column
/// at this length) stays a few hundred KiB and pool-sized per worker.
constexpr size_t kChunkRows = 4096;

}  // namespace

FlatExprPtr FlatLit(double value) {
  return std::make_shared<FlatLitExpr>(value);
}
FlatExprPtr FlatCol(std::string name) {
  return std::make_shared<FlatColExpr>(std::move(name));
}
FlatExprPtr FlatBin(BinOp op, FlatExprPtr lhs, FlatExprPtr rhs) {
  return std::make_shared<FlatBinExpr>(op, std::move(lhs), std::move(rhs));
}
FlatExprPtr FlatCall(Fn fn, std::vector<FlatExprPtr> args) {
  return std::make_shared<FlatCallExpr>(fn, std::move(args));
}

void FlatPipeline::AddUnnest(UnnestList list) {
  unnests_.push_back(std::move(list));
}
void FlatPipeline::AddKeepScalar(const std::string& leaf_path) {
  keep_scalars_.push_back(leaf_path);
}
void FlatPipeline::AddFilter(FlatExprPtr predicate) {
  Step step;
  step.is_filter = true;
  step.expr = std::move(predicate);
  steps_.push_back(std::move(step));
}
void FlatPipeline::AddProject(std::string name, FlatExprPtr value) {
  Step step;
  step.name = std::move(name);
  step.expr = std::move(value);
  steps_.push_back(std::move(step));
}
void FlatPipeline::AddAggregate(FlatAggSpec spec) {
  aggregates_.push_back(std::move(spec));
}
void FlatPipeline::AddHaving(FlatExprPtr predicate) {
  having_.push_back(std::move(predicate));
}
int FlatPipeline::AddHistogram(HistogramSpec spec, FlatExprPtr value) {
  fills_.emplace_back(std::move(spec), std::move(value));
  return static_cast<int>(fills_.size()) - 1;
}

std::vector<std::string> FlatPipeline::Projection() const {
  std::vector<std::string> projection;
  for (const UnnestList& u : unnests_) {
    for (const std::string& member : u.members) {
      projection.push_back(u.column + "." + member);
    }
    if (u.members.empty()) projection.push_back(u.column);
  }
  for (const std::string& scalar : keep_scalars_) {
    projection.push_back(scalar);
  }
  if (projection.empty()) projection.push_back("event");
  return projection;
}

namespace {

/// Flattens nested kAnd nodes into their conjuncts.
void SplitFlatConjuncts(const FlatExpr* e,
                        std::vector<const FlatExpr*>* out) {
  const FlatShape s = e->Shape();
  if (s.kind == FlatShape::Kind::kBin && s.bin_op == BinOp::kAnd) {
    SplitFlatConjuncts(s.lhs, out);
    SplitFlatConjuncts(s.rhs, out);
    return;
  }
  out->push_back(e);
}

/// Decomposes `var cmp literal` (either operand order), normalizing the
/// comparison to have the variable on the left.
const FlatExpr* MatchFlatCmpWithLit(const FlatShape& s, BinOp* op,
                                    double* lit) {
  if (s.kind != FlatShape::Kind::kBin) return nullptr;
  const FlatShape lhs = s.lhs->Shape();
  const FlatShape rhs = s.rhs->Shape();
  if (rhs.kind == FlatShape::Kind::kLit) {
    *op = s.bin_op;
    *lit = rhs.lit;
    return s.lhs;
  }
  if (lhs.kind == FlatShape::Kind::kLit) {
    *op = MirrorCmp(s.bin_op);
    *lit = lhs.lit;
    return s.rhs;
  }
  return nullptr;
}

}  // namespace

ScanPredicateSet FlatPipeline::ScanPredicates() const {
  ScanPredicateSet preds;
  std::vector<const FlatExpr*> conjuncts;
  for (const Step& step : steps_) {
    if (step.is_filter) SplitFlatConjuncts(step.expr.get(), &conjuncts);
  }

  // An event emits flat rows only when every unnest list is non-empty
  // (the Cartesian product is empty otherwise); strict idx-order filters
  // between aliases of the same column ("m1.idx < m2.idx") mean those
  // aliases bind distinct elements, so the longest strict chain raises
  // the cardinality bound (Q5 pairs need 2 muons, Q6 trijets 3 jets).
  const size_t n_unnests = unnests_.size();
  std::vector<std::vector<char>> before(n_unnests,
                                        std::vector<char>(n_unnests, 0));
  auto alias_index = [&](const std::string& col) -> int {
    for (size_t u = 0; u < n_unnests; ++u) {
      if (col == unnests_[u].alias + ".idx") return static_cast<int>(u);
    }
    return -1;
  };
  for (const FlatExpr* conjunct : conjuncts) {
    const FlatShape s = conjunct->Shape();
    if (s.kind != FlatShape::Kind::kBin ||
        (s.bin_op != BinOp::kLt && s.bin_op != BinOp::kGt)) {
      continue;
    }
    const FlatShape lhs = s.lhs->Shape();
    const FlatShape rhs = s.rhs->Shape();
    if (lhs.kind != FlatShape::Kind::kCol ||
        rhs.kind != FlatShape::Kind::kCol) {
      continue;
    }
    int a = alias_index(lhs.col);
    int b = alias_index(rhs.col);
    if (a < 0 || b < 0) continue;
    if (s.bin_op == BinOp::kGt) std::swap(a, b);
    if (unnests_[static_cast<size_t>(a)].column ==
        unnests_[static_cast<size_t>(b)].column) {
      before[static_cast<size_t>(a)][static_cast<size_t>(b)] = 1;
    }
  }
  // Longest strict chain through each alias (graphs here are 2-3 nodes).
  std::vector<int> chain(n_unnests, 0);
  std::function<int(size_t)> longest = [&](size_t u) -> int {
    if (chain[u] != 0) return chain[u];
    int best = 1;
    for (size_t v = 0; v < n_unnests; ++v) {
      if (before[u][v]) best = std::max(best, 1 + longest(v));
    }
    return chain[u] = best;
  };
  for (size_t u = 0; u < n_unnests; ++u) {
    bool first = true;
    for (size_t v = 0; v < u; ++v) {
      if (unnests_[v].column == unnests_[u].column) first = false;
    }
    if (!first) continue;
    int bound = 1;
    for (size_t v = 0; v < n_unnests; ++v) {
      if (unnests_[v].column == unnests_[u].column) {
        bound = std::max(bound, longest(v));
      }
    }
    preds.AddMinCount(unnests_[u].column, bound);
  }

  // WHERE conjuncts comparing a column with a literal: keep-scalars are
  // event-constant (a failing event contributes no row at all), unnest
  // members are element-existence conditions.
  for (const FlatExpr* conjunct : conjuncts) {
    BinOp op;
    double lit;
    const FlatExpr* var = MatchFlatCmpWithLit(conjunct->Shape(), &op, &lit);
    if (var == nullptr) continue;
    const FlatShape v = var->Shape();
    if (v.kind != FlatShape::Kind::kCol) continue;
    double lo, hi;
    if (!CmpToRange(op, lit, &lo, &hi)) continue;
    bool matched = false;
    for (const std::string& scalar : keep_scalars_) {
      if (v.col == scalar) {
        preds.AddRange(scalar, lo, hi);
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const UnnestList& u : unnests_) {
      for (const std::string& member : u.members) {
        if (v.col == u.alias + "." + member) {
          preds.AddItemRange(u.column + "." + member, lo, hi);
          matched = true;
          break;
        }
      }
      if (matched) break;
    }
  }

  // HAVING COUNT(*) >= n over a single unnest: the count tallies
  // surviving elements of that one list, so the event needs at least
  // ceil(n) elements (Listing 4b's n_jets >= 2).
  if (n_unnests == 1) {
    for (const FlatExprPtr& predicate : having_) {
      std::vector<const FlatExpr*> having_conjuncts;
      SplitFlatConjuncts(predicate.get(), &having_conjuncts);
      for (const FlatExpr* conjunct : having_conjuncts) {
        BinOp op;
        double lit;
        const FlatExpr* var =
            MatchFlatCmpWithLit(conjunct->Shape(), &op, &lit);
        if (var == nullptr || (op != BinOp::kGe && op != BinOp::kGt)) {
          continue;
        }
        const FlatShape v = var->Shape();
        if (v.kind != FlatShape::Kind::kCol) continue;
        for (const FlatAggSpec& spec : aggregates_) {
          if (spec.kind == FlatAggKind::kCount && spec.output == v.col) {
            const double n =
                op == BinOp::kGe ? std::ceil(lit) : std::floor(lit) + 1.0;
            if (n >= 1.0) {
              preds.AddMinCount(unnests_[0].column,
                                static_cast<int64_t>(n));
            }
          }
        }
      }
    }
  }
  return preds;
}

std::string FlatPipeline::Explain() const {
  std::string out = "FlatPipeline " + name_ + " (unnest + regroup plan)\n";
  for (const UnnestList& u : unnests_) {
    out += "  CROSS JOIN UNNEST(" + u.column + ") AS " + u.alias + " {";
    for (size_t m = 0; m < u.members.size(); ++m) {
      if (m > 0) out += ", ";
      out += u.members[m];
    }
    out += "} WITH ORDINALITY\n";
  }
  for (const std::string& scalar : keep_scalars_) {
    out += "  keep " + scalar + "\n";
  }
  for (const Step& step : steps_) {
    out += step.is_filter ? "  WHERE <predicate>\n"
                          : "  PROJECT " + step.name + "\n";
  }
  if (!aggregates_.empty()) {
    out += "  GROUP BY event:";
    for (const FlatAggSpec& spec : aggregates_) {
      out += " " + spec.output;
    }
    out += "\n";
  }
  for (size_t h = 0; h < having_.size(); ++h) {
    out += "  HAVING <predicate>\n";
  }
  for (const auto& [spec, expr] : fills_) {
    out += "  fill '" + spec.name + "'\n";
  }
  return out;
}

namespace {

/// One worker's state, kept in its exec::WorkerSlot across row groups and
/// runs: the VM scratch, the flat chunk, whose columns are sized to
/// kChunkRows for the run's layout, and the output pointers of
/// multi-result program runs.
struct FlatWorkerScratch {
  VexprScratch vexpr;
  FlatBatch chunk;
  std::vector<double*> outs;

  size_t CapacityBytes() const {
    size_t bytes = vexpr.CapacityBytes() + outs.capacity() * sizeof(double*);
    for (const auto& column : chunk.columns) {
      bytes += column.capacity() * sizeof(double);
    }
    return bytes;
  }
};

/// One compiled pipeline step: a filter's gate program, or one program
/// for a maximal run of consecutive projections with a result per
/// projection, written to `out_columns` (empty for a filter).
struct CompiledStep {
  VProgram program;
  std::vector<size_t> out_columns;
};

/// One row group's partial state; a fresh one is also each file's
/// subtotal in the merge. GROUP BY event can be split per row group
/// because an event's flat rows all come from the one row group holding
/// the event.
struct GroupPartial {
  GroupPartial(const EventAggregator& proto,
               const std::vector<Histogram1D>& histo_specs)
      : aggregator(proto), histos(histo_specs) {}
  EventAggregator aggregator;
  std::vector<Histogram1D> histos;
  int64_t events = 0;
  int64_t groups = 0;
  uint64_t rows_materialized = 0;
  uint64_t cells_materialized = 0;
};

}  // namespace

Result<FlatQueryResult> FlatPipeline::Execute(const std::string& path,
                                              ReaderOptions reader_options,
                                              int num_threads) const {
  std::vector<Histogram1D> empty_histos;
  for (const auto& [spec, expr] : fills_) empty_histos.emplace_back(spec);
  const bool grouped = !aggregates_.empty();
  const bool compiled = expr_tier_ == ExprTier::kSimd;
  EventAggregator prototype(aggregates_);
  // Set by the plan step: the flat chunk layout (shared by every worker's
  // chunk), the compiled programs, the storage declarations, and each
  // row group's first global event id.
  FlatBatch layout;
  size_t base_columns = 0;
  std::vector<CompiledStep> step_programs;
  VProgram fill_program;
  std::vector<ListDecl> list_decls;
  std::vector<ScalarDecl> scalar_decls;
  std::vector<int64_t> event_base;

  exec::DatasetScan<GroupPartial> scan;
  scan.projection = Projection();
  scan.predicates = ScanPredicates();
  scan.plan = [&](const exec::DatasetLayout& dataset) -> Status {
    obs::ScopedSpan plan_span("flat_compile", obs::Stage::kPlan);

    // ---- layout of the flat chunk ----
    layout.names.push_back("__event");
    for (const UnnestList& u : unnests_) {
      layout.names.push_back(u.alias + ".idx");
      for (const std::string& member : u.members) {
        layout.names.push_back(u.alias + "." + member);
      }
    }
    for (const std::string& scalar : keep_scalars_) {
      layout.names.push_back(scalar);
    }
    base_columns = layout.names.size();
    // Projections extend the layout in step order.
    for (const Step& step : steps_) {
      if (!step.is_filter) layout.names.push_back(step.name);
    }
    layout.columns.resize(layout.names.size());

    // Resolve all flat-row expressions against the final layout. Resolve
    // mutates the shared expression nodes, so it must finish before the
    // parallel scan starts; Eval afterwards is const and thread-safe.
    for (const Step& step : steps_) {
      HEPQ_RETURN_NOT_OK(step.expr->Resolve(layout));
    }
    if (grouped) {
      HEPQ_RETURN_NOT_OK(prototype.Resolve(layout));
    }

    // HAVING and fills run over the aggregate output when grouped.
    FlatBatch agg_layout;
    if (grouped) {
      agg_layout.names.push_back("__event");
      for (const FlatAggSpec& spec : aggregates_) {
        agg_layout.names.push_back(spec.output);
      }
      agg_layout.columns.resize(agg_layout.names.size());
    }
    const FlatBatch& sink_layout = grouped ? agg_layout : layout;
    for (const FlatExprPtr& predicate : having_) {
      HEPQ_RETURN_NOT_OK(predicate->Resolve(sink_layout));
    }
    for (const auto& [spec, expr] : fills_) {
      HEPQ_RETURN_NOT_OK(expr->Resolve(sink_layout));
    }
    if (!grouped && !having_.empty()) {
      return Status::Invalid("HAVING requires aggregates");
    }

    // ---- compile the hot flat-row expressions to VM programs ----
    // Each filter is one gate program. Each maximal run of consecutive
    // projections is ONE program with a result per projection, so the
    // builder's CSE shares subexpressions across the run (Q6's mass_diff
    // and trijet_pt convert each jet to Cartesian components once), and a
    // projection that reads an earlier one of the same run takes its
    // register rather than a column load. When ungrouped, the fills are one
    // program too; HAVING and grouped fills run over the tiny per-event
    // aggregate output where batching buys nothing, so they stay on the
    // interpreter. Input slot ids are the chunk column indices, so a worker
    // binds a program by pointing VColumns at its chunk's columns through
    // its selection vector. Programs are immutable after this block and
    // shared by all workers; each worker brings its own VexprScratch.
    if (compiled) {
      size_t next_column = base_columns;
      for (size_t s = 0; s < steps_.size();) {
        VProgramBuilder builder;
        std::vector<int> results;
        CompiledStep step;
        if (steps_[s].is_filter) {
          int reg;
          HEPQ_ASSIGN_OR_RETURN(reg, steps_[s++].expr->Lower(&builder));
          results.push_back(reg);
        } else {
          for (; s < steps_.size() && !steps_[s].is_filter; ++s) {
            int reg;
            HEPQ_ASSIGN_OR_RETURN(reg, steps_[s].expr->Lower(&builder));
            builder.BindSlot(static_cast<int>(next_column), reg);
            results.push_back(reg);
            step.out_columns.push_back(next_column++);
          }
        }
        step.program = builder.Finish(results);
        step_programs.push_back(std::move(step));
      }
      if (!grouped && !fills_.empty()) {
        VProgramBuilder builder;
        std::vector<int> results;
        for (const auto& [spec, expr] : fills_) {
          int reg;
          HEPQ_ASSIGN_OR_RETURN(reg, expr->Lower(&builder));
          results.push_back(reg);
        }
        fill_program = builder.Finish(results);
      }
    }

    // ---- declarations for the storage bindings ----
    for (const UnnestList& u : unnests_) {
      list_decls.push_back(ListDecl{u.column, u.members, {}});
    }
    for (const std::string& s : keep_scalars_) {
      scalar_decls.push_back(ScalarDecl{s});
    }

    // Event ids are global row numbers across the whole dataset: per-group
    // bases accumulated over the layout's file-major group order.
    event_base.assign(dataset.groups.size() + 1, 0);
    for (size_t g = 0; g < dataset.groups.size(); ++g) {
      event_base[g + 1] = event_base[g] + dataset.groups[g].num_rows;
    }
    return Status::OK();
  };
  scan.make_partial = [&] { return GroupPartial(prototype, empty_histos); };
  scan.pruned = [](const exec::DatasetLayout::Group& loc, GroupPartial* p) {
    // No event in a pruned group can emit an output row, but the events
    // were still processed.
    p->events = loc.num_rows;
  };
  scan.process = [&](const exec::ScanGroup& group, const RecordBatch& batch,
                     GroupPartial* partial) -> Status {
    const int worker = group.worker;
    const int g = group.group;
    BatchBindings bindings;
    HEPQ_ASSIGN_OR_RETURN(
        bindings, BatchBindings::Bind(batch, list_decls, scalar_decls));
    GroupPartial& p = *partial;
    FlatWorkerScratch* ws = group.WorkerState<FlatWorkerScratch>();
    // The slot's chunk may come from an earlier run of another pipeline:
    // take this run's layout unless it already has it. Columns stay at
    // capacity; rows past num_rows are stale and never read.
    FlatBatch& chunk = ws->chunk;
    if (chunk.names != layout.names) {
      chunk = layout;
      for (auto& column : chunk.columns) column.resize(kChunkRows);
    }
    chunk.num_rows = 0;
    VexprScratch* vs = compiled ? &ws->vexpr : nullptr;

    auto flush_interpreted = [&]() -> Status {
      if (chunk.num_rows == 0) return Status::OK();
      obs::ScopedSpan flush_span("flat_flush", obs::Stage::kExpr);
      // Apply projections and filters in order. Filters compact all
      // columns materialized so far — the real cost of filtering flat
      // data.
      size_t live_columns = base_columns;
      for (const Step& step : steps_) {
        if (!step.is_filter) {
          auto& out = chunk.columns[live_columns];
          for (size_t row = 0; row < chunk.num_rows; ++row) {
            out[row] = step.expr->Eval(chunk, row);
          }
          ++live_columns;
          continue;
        }
        size_t kept = 0;
        for (size_t row = 0; row < chunk.num_rows; ++row) {
          if (!step.expr->EvalBool(chunk, row)) continue;
          if (kept != row) {
            for (size_t c = 0; c < live_columns; ++c) {
              chunk.columns[c][kept] = chunk.columns[c][row];
            }
          }
          ++kept;
        }
        chunk.num_rows = kept;
      }
      if (grouped) {
        p.aggregator.Consume(chunk, /*event_col=*/0);
      } else {
        for (size_t f = 0; f < fills_.size(); ++f) {
          for (size_t row = 0; row < chunk.num_rows; ++row) {
            p.histos[f].Fill(fills_[f].second->Eval(chunk, row));
          }
        }
      }
      chunk.num_rows = 0;
      return Status::OK();
    };

    // Compiled flush: run each step's program over the live lanes.
    // Filters narrow the selection vector instead of compacting every
    // materialized column, so downstream steps, fills, and the GROUP
    // BY consume shrink without the interpreter path's O(columns)
    // rewrite per filter. Lane order stays ascending, so group
    // insertion order and fill order match the compacting path and
    // results are bit-identical.
    auto flush_compiled = [&]() -> Status {
      if (chunk.num_rows == 0) return Status::OK();
      obs::ScopedSpan flush_span("flat_flush", obs::Stage::kExpr);
      VexprScratch::Scope scope(vs);
      std::vector<uint32_t>* sel = vs->AcquireU32();
      std::vector<uint32_t>* gate = vs->AcquireU32();
      std::vector<double>* vals = vs->AcquireF64();
      std::vector<VColumn>* cols = vs->AcquireCols();
      std::vector<double*>& outs = ws->outs;
      cols->assign(chunk.columns.size(), VColumn{});
      const uint32_t* sel_ptr = nullptr;  // null: all rows live
      size_t live = chunk.num_rows;
      auto bind_cols = [&]() {
        for (size_t c = 0; c < chunk.columns.size(); ++c) {
          (*cols)[c].type = TypeId::kFloat64;
          (*cols)[c].data = chunk.columns[c].data();
          (*cols)[c].index = sel_ptr;
        }
      };
      for (const CompiledStep& step : step_programs) {
        bind_cols();
        if (!step.out_columns.empty()) {
          // A projection run: one program pass, one output per
          // projection. Dense selections write straight into the
          // chunk columns; otherwise each result scatters through the
          // selection so later gathers see it at its row position
          // (dead rows stay unwritten, and unread).
          const size_t num_out = step.out_columns.size();
          outs.resize(num_out);
          if (sel_ptr == nullptr) {
            for (size_t k = 0; k < num_out; ++k) {
              outs[k] = chunk.columns[step.out_columns[k]].data();
            }
          } else {
            vals->resize(num_out * live);
            for (size_t k = 0; k < num_out; ++k) {
              outs[k] = vals->data() + k * live;
            }
          }
          step.program.Run(cols->data(), static_cast<int>(live),
                           &vs->vm, outs.data());
          if (sel_ptr != nullptr) {
            for (size_t k = 0; k < num_out; ++k) {
              double* out = chunk.columns[step.out_columns[k]].data();
              for (size_t i = 0; i < live; ++i) {
                out[sel_ptr[i]] = outs[k][i];
              }
            }
          }
          continue;
        }
        // Fused gate: the passing lane positions come out of the VM
        // directly (no 0/1 vector). When the selection is still dense
        // (sel_ptr null, the common first-filter case) lane positions
        // ARE row indices; otherwise remap through the old selection —
        // the gate output is ascending, so the rewrite is in-place.
        if (sel_ptr == nullptr) {
          sel->resize(live);
          const int kept = step.program.RunGate(
              cols->data(), static_cast<int>(live), &vs->vm,
              /*negate=*/false, sel->data());
          sel->resize(static_cast<size_t>(kept));
        } else {
          gate->resize(live);
          const int kept = step.program.RunGate(
              cols->data(), static_cast<int>(live), &vs->vm,
              /*negate=*/false, gate->data());
          for (int i = 0; i < kept; ++i) (*sel)[i] = (*sel)[(*gate)[i]];
          sel->resize(static_cast<size_t>(kept));
        }
        sel_ptr = sel->data();
        live = sel->size();
        if (live == 0) break;
      }
      if (live > 0) {
        if (grouped) {
          p.aggregator.Consume(chunk, /*event_col=*/0, sel_ptr, live);
        } else if (!fills_.empty()) {
          // All fills in one program pass, then each histogram fills
          // in lane order, as the per-fill interpreter loop does.
          vals->resize(fills_.size() * live);
          outs.resize(fills_.size());
          for (size_t f = 0; f < fills_.size(); ++f) {
            outs[f] = vals->data() + f * live;
          }
          bind_cols();
          fill_program.Run(cols->data(), static_cast<int>(live), &vs->vm,
                           outs.data());
          for (size_t f = 0; f < fills_.size(); ++f) {
            for (size_t i = 0; i < live; ++i) {
              p.histos[f].Fill(outs[f][i]);
            }
          }
        }
      }
      chunk.num_rows = 0;
      return Status::OK();
    };

    auto flush_chunk = [&]() -> Status {
      return compiled ? flush_compiled() : flush_interpreted();
    };

    obs::ScopedSpan loop_span("unnest_emit", obs::Stage::kEventLoop);
    if (loop_span.active()) {
      loop_span.set_worker(worker);
      loop_span.set_group(g);
    }
    // Full Cartesian product of the unnest lists, exactly like chained
    // CROSS JOIN UNNEST; symmetric dedup (idx1 < idx2) happens in
    // WHERE. An odometer walks the outer lists; for each position of
    // theirs the innermost list is one contiguous run of elements,
    // written column-at-a-time: event-constant and outer-alias columns
    // are fills, the inner ordinal an iota, each inner member one
    // converting copy. A run is cut wherever the chunk fills up.
    const size_t n_unnests = unnests_.size();
    std::vector<const ListBinding*> lists(n_unnests);
    for (size_t u = 0; u < n_unnests; ++u) {
      lists[u] = &bindings.list(static_cast<int>(u));
    }
    std::vector<double*> cols(base_columns);
    for (size_t c = 0; c < base_columns; ++c) {
      cols[c] = chunk.columns[c].data();
    }
    std::vector<uint32_t> begin(n_unnests), end(n_unnests),
        cursor(n_unnests);
    // Writes rows [at, at + n) with the inner list (if any) at
    // elements [first, first + n).
    auto write_run = [&](uint32_t row, double event_id, uint32_t first,
                         size_t n) {
      const size_t at = chunk.num_rows;
      size_t c = 0;
      std::fill_n(cols[c++] + at, n, event_id);
      for (size_t u = 0; u < n_unnests; ++u) {
        const std::vector<MemberAccessor>& members = lists[u]->members;
        if (u + 1 < n_unnests) {
          const uint32_t i = cursor[u];
          std::fill_n(cols[c++] + at, n,
                      static_cast<double>(i - begin[u]));
          for (const MemberAccessor& m : members) {
            std::fill_n(cols[c++] + at, n, m.Get(i));
          }
          continue;
        }
        double* idx = cols[c++] + at;
        for (size_t k = 0; k < n; ++k) {
          idx[k] = static_cast<double>(first - begin[u] + k);
        }
        for (const MemberAccessor& m : members) {
          m.GetRange(first, n, cols[c++] + at);
        }
      }
      for (size_t s = 0; s < keep_scalars_.size(); ++s) {
        std::fill_n(cols[c++] + at, n,
                    bindings.scalar(static_cast<int>(s)).Get(row));
      }
      chunk.num_rows += n;
      p.rows_materialized += n;
      p.cells_materialized += n * base_columns;
    };

    const int64_t rows = batch.num_rows();
    for (int64_t r = 0; r < rows; ++r) {
      const uint32_t row = static_cast<uint32_t>(r);
      const double event_id =
          static_cast<double>(event_base[static_cast<size_t>(g)] + r);
      bool empty = false;
      for (size_t u = 0; u < n_unnests; ++u) {
        begin[u] = cursor[u] = lists[u]->begin(row);
        end[u] = lists[u]->end(row);
        empty = empty || begin[u] == end[u];
      }
      if (empty) continue;
      const uint32_t inner_begin = n_unnests > 0 ? begin.back() : 0;
      const uint32_t inner_end = n_unnests > 0 ? end.back() : 1;
      while (true) {
        for (uint32_t i = inner_begin; i < inner_end;) {
          const size_t n = std::min<size_t>(inner_end - i,
                                            kChunkRows - chunk.num_rows);
          write_run(row, event_id, i, n);
          i += static_cast<uint32_t>(n);
          if (chunk.num_rows == kChunkRows) {
            HEPQ_RETURN_NOT_OK(flush_chunk());
          }
        }
        // Advance the outer lists' odometer; done when it wraps.
        size_t u = n_unnests > 0 ? n_unnests - 1 : 0;
        while (u > 0 && ++cursor[u - 1] == end[u - 1]) {
          cursor[u - 1] = begin[u - 1];
          --u;
        }
        if (u == 0) break;
      }
    }
    HEPQ_RETURN_NOT_OK(flush_chunk());
    p.events = rows;
    return Status::OK();
  };
  // One fold serves both merge levels. Grouped: the aggregates finish
  // into HAVING and the fills (event keys are disjoint across row groups,
  // so finishing them in group order reproduces the sequential scan's
  // group order; a file subtotal's aggregator never consumed a row and
  // finishes empty). The histograms then merge (a grouped row group's are
  // still empty, and adding empty accumulators is exact).
  scan.merge = [&](GroupPartial* from, GroupPartial* into) -> Status {
    into->events += from->events;
    into->groups += from->groups;
    into->rows_materialized += from->rows_materialized;
    into->cells_materialized += from->cells_materialized;
    if (grouped) {
      FlatBatch groups = from->aggregator.Finish();
      into->groups += static_cast<int64_t>(groups.num_rows);
      for (size_t row = 0; row < groups.num_rows; ++row) {
        bool pass = true;
        for (const FlatExprPtr& predicate : having_) {
          if (!predicate->EvalBool(groups, row)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        for (size_t f = 0; f < fills_.size(); ++f) {
          into->histos[f].Fill(fills_[f].second->Eval(groups, row));
        }
      }
    }
    for (size_t f = 0; f < fills_.size(); ++f) {
      HEPQ_RETURN_NOT_OK(into->histos[f].Merge(from->histos[f]));
    }
    return Status::OK();
  };

  GroupPartial total(prototype, empty_histos);
  exec::RunTotals totals;
  HEPQ_ASSIGN_OR_RETURN(totals, exec::ScanDataset(path, reader_options,
                                                  num_threads, scan, &total));
  FlatQueryResult result;
  result.histograms = std::move(total.histos);
  result.events_processed = total.events;
  result.rows_materialized = total.rows_materialized;
  result.cells_materialized = total.cells_materialized;
  result.groups = total.groups;
  result.wall_seconds = totals.wall_seconds;
  result.cpu_seconds = totals.cpu_seconds;
  result.scan = std::move(totals.scan);
  return result;
}

}  // namespace hepq::engine
