#include "engine/event_query.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "engine/vexpr.h"
#include "exec/exec.h"
#include "obs/trace.h"

namespace hepq::engine {

int EventQuery::DeclareList(const std::string& column,
                            std::vector<std::string> members) {
  lists_.push_back(ListDecl{column, std::move(members), {}});
  return static_cast<int>(lists_.size()) - 1;
}

int EventQuery::DeclareUnionList(const std::string& name,
                                 std::vector<std::string> members,
                                 std::vector<UnionSource> sources) {
  lists_.push_back(ListDecl{name, std::move(members), std::move(sources)});
  return static_cast<int>(lists_.size()) - 1;
}

int EventQuery::DeclareScalar(const std::string& leaf_path) {
  scalars_.push_back(ScalarDecl{leaf_path});
  return static_cast<int>(scalars_.size()) - 1;
}

void EventQuery::AddStage(ExprPtr guard) {
  stages_.push_back(std::move(guard));
}

int EventQuery::AddHistogram(HistogramSpec spec, ExprPtr value) {
  FillSpec fill;
  fill.spec = std::move(spec);
  fill.scalar = std::move(value);
  fills_.push_back(std::move(fill));
  return static_cast<int>(fills_.size()) - 1;
}

int EventQuery::AddPerElementHistogram(HistogramSpec spec, int list_slot,
                                       int iter_slot, ExprPtr filter,
                                       ExprPtr value) {
  FillSpec fill;
  fill.spec = std::move(spec);
  fill.per_element = true;
  fill.element =
      PerElementFill{list_slot, iter_slot, std::move(filter),
                     std::move(value)};
  fills_.push_back(std::move(fill));
  return static_cast<int>(fills_.size()) - 1;
}

int EventQuery::AddPerCombinationHistogram(HistogramSpec spec,
                                            std::vector<ComboLoop> loops,
                                            ExprPtr filter, ExprPtr value) {
  FillSpec fill;
  fill.spec = std::move(spec);
  fill.per_combination = true;
  fill.combo_loops = std::move(loops);
  fill.element.filter = std::move(filter);
  fill.element.value = std::move(value);
  fills_.push_back(std::move(fill));
  return static_cast<int>(fills_.size()) - 1;
}

namespace {

/// Iterates the (symmetric-deduplicated) Cartesian product of `loops`,
/// calling `visit` with the iterators bound — shared by the
/// per-combination fill; mirrors the recursion inside BestCombination.
template <typename Visit>
void ForEachCombination(const std::vector<ComboLoop>& loops,
                        EvalContext* ctx, size_t depth, const Visit& visit) {
  if (depth == loops.size()) {
    ++ctx->ops;
    visit();
    return;
  }
  const ComboLoop& loop = loops[depth];
  const ListBinding& list = ctx->bindings->list(loop.list_slot);
  uint32_t begin = list.begin(ctx->row);
  const uint32_t end = list.end(ctx->row);
  for (size_t d = 0; d < depth; ++d) {
    if (loops[d].list_slot == loop.list_slot) {
      begin = std::max(begin, ctx->iter_index[loops[d].iter_slot] + 1);
    }
  }
  for (uint32_t i = begin; i < end; ++i) {
    ctx->iter_index[loop.iter_slot] = i;
    ForEachCombination(loops, ctx, depth + 1, visit);
  }
}

}  // namespace

std::vector<std::string> EventQuery::Projection() const {
  std::vector<std::string> projection;
  for (const ListDecl& list : lists_) {
    if (!list.union_sources.empty()) {
      // Derived lists read their sources' leaves from storage.
      for (const UnionSource& source : list.union_sources) {
        for (const std::string& member : source.members) {
          projection.push_back(source.column + "." + member);
        }
      }
      continue;
    }
    for (const std::string& member : list.members) {
      projection.push_back(list.column + "." + member);
    }
    if (list.members.empty()) projection.push_back(list.column);
  }
  for (const ScalarDecl& scalar : scalars_) {
    projection.push_back(scalar.leaf_path);
  }
  return projection;
}

namespace {

/// Flattens nested kAnd nodes into their conjuncts. Every conjunct of a
/// stage gates all fills (an event must pass the whole stage before any
/// histogram fill runs), the soundness requirement of predicate.h.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  const ExprShape s = e->Shape();
  if (s.kind == ExprShape::Kind::kBin && s.bin_op == BinOp::kAnd) {
    SplitConjuncts(s.operands[0], out);
    SplitConjuncts(s.operands[1], out);
    return;
  }
  out->push_back(e);
}

/// Decomposes a conjunct of the form `var cmp literal` (either operand
/// order). Returns the variable side and the comparison normalized to
/// have the variable on the left.
const Expr* MatchCmpWithLit(const ExprShape& s, BinOp* op, double* lit) {
  if (s.kind != ExprShape::Kind::kBin) return nullptr;
  const ExprShape lhs = s.operands[0]->Shape();
  const ExprShape rhs = s.operands[1]->Shape();
  if (rhs.kind == ExprShape::Kind::kLit) {
    *op = s.bin_op;
    *lit = rhs.lit;
    return s.operands[0];
  }
  if (lhs.kind == ExprShape::Kind::kLit) {
    *op = MirrorCmp(s.bin_op);
    *lit = lhs.lit;
    return s.operands[1];
  }
  return nullptr;
}

}  // namespace

ScanPredicateSet EventQuery::ScanPredicates() const {
  ScanPredicateSet preds;
  std::vector<const Expr*> conjuncts;
  for (const ExprPtr& stage : stages_) {
    SplitConjuncts(stage.get(), &conjuncts);
  }
  auto plain_list = [&](int slot) {
    // Union lists concatenate several storage columns; there is no single
    // lengths leaf to bound, so they are never extracted as ranges.
    return slot >= 0 && slot < static_cast<int>(lists_.size()) &&
           lists_[static_cast<size_t>(slot)].union_sources.empty();
  };
  // For union lists, |union| = sum of the source list sizes, so minimum-
  // count gates become sum-of-lengths conditions instead.
  auto union_columns = [&](int slot) {
    std::vector<std::string> columns;
    if (slot >= 0 && slot < static_cast<int>(lists_.size())) {
      for (const UnionSource& source :
           lists_[static_cast<size_t>(slot)].union_sources) {
        columns.push_back(source.column);
      }
    }
    return columns;
  };
  for (const Expr* conjunct : conjuncts) {
    const ExprShape s = conjunct->Shape();
    if (s.kind == ExprShape::Kind::kAnyCombination ||
        s.kind == ExprShape::Kind::kBestCombination) {
      // The stage passes only if some combination exists, so each list
      // must carry at least as many elements as the loops over it.
      for (size_t i = 0; i < s.loops.size(); ++i) {
        const int slot = s.loops[i].list_slot;
        int64_t over_list = 0;
        for (const ComboLoop& loop : s.loops) {
          if (loop.list_slot == slot) ++over_list;
        }
        bool first = true;
        for (size_t j = 0; j < i; ++j) {
          if (s.loops[j].list_slot == slot) first = false;
        }
        if (!first) continue;
        if (plain_list(slot)) {
          preds.AddMinCount(lists_[static_cast<size_t>(slot)].column,
                            over_list);
        } else {
          preds.AddMinCountSum(union_columns(slot), over_list);
        }
      }
      continue;
    }
    BinOp op;
    double lit;
    const Expr* var = MatchCmpWithLit(s, &op, &lit);
    if (var == nullptr) continue;
    double lo, hi;
    const ExprShape v = var->Shape();
    if (v.kind == ExprShape::Kind::kScalarRef) {
      if (!CmpToRange(op, lit, &lo, &hi)) continue;
      preds.AddRange(scalars_[static_cast<size_t>(v.scalar_slot)].leaf_path,
                     lo, hi);
    } else if (v.kind == ExprShape::Kind::kListSize) {
      if (!CmpToRange(op, lit, &lo, &hi)) continue;
      if (plain_list(v.list_slot)) {
        preds.AddRange(
            lists_[static_cast<size_t>(v.list_slot)].column + "#lengths", lo,
            hi);
      } else if (lo > 0.0 && std::isfinite(lo)) {
        // Only the lower bound survives for a union: |union| >= lo means
        // the source lengths must sum to at least ceil(lo).
        preds.AddMinCountSum(union_columns(v.list_slot),
                             static_cast<int64_t>(std::ceil(lo)));
      }
    } else if (v.kind == ExprShape::Kind::kAgg &&
               v.agg_kind == AggKind::kCount) {
      // count(elements of list passing filter) >= n: the list must hold
      // at least ceil(n) elements, and (n >= 1) some element must pass
      // the filter when the filter is itself a sargable member range.
      if (op != BinOp::kGe && op != BinOp::kGt) continue;
      const double min_count =
          op == BinOp::kGe ? std::ceil(lit) : std::floor(lit) + 1.0;
      if (min_count < 1.0) continue;
      if (!plain_list(v.list_slot)) {
        // Unfiltered counts over a union bound the summed source lengths;
        // a filtered count still implies the unfiltered one.
        preds.AddMinCountSum(union_columns(v.list_slot),
                             static_cast<int64_t>(min_count));
        continue;
      }
      const ListDecl& list = lists_[static_cast<size_t>(v.list_slot)];
      preds.AddMinCount(list.column, static_cast<int64_t>(min_count));
      if (v.filter == nullptr) continue;
      const ExprShape f = v.filter->Shape();
      BinOp fop;
      double flit;
      const Expr* fvar = MatchCmpWithLit(f, &fop, &flit);
      if (fvar == nullptr) continue;
      const ExprShape m = fvar->Shape();
      if (m.kind != ExprShape::Kind::kIterMember ||
          m.list_slot != v.list_slot || m.iter_slot != v.iter_slot) {
        continue;
      }
      if (!CmpToRange(fop, flit, &lo, &hi)) continue;
      preds.AddItemRange(
          list.column + "." +
              list.members[static_cast<size_t>(m.member_slot)],
          lo, hi);
    }
  }
  return preds;
}

std::string EventQuery::Explain() const {
  std::string out = "EventQuery " + name_ + " (per-event expression plan)\n";
  for (size_t l = 0; l < lists_.size(); ++l) {
    out += "  list" + std::to_string(l) + " = " + lists_[l].column;
    if (!lists_[l].union_sources.empty()) {
      out += " (union of";
      for (const UnionSource& source : lists_[l].union_sources) {
        out += " " + source.column;
      }
      out += ")";
    }
    out += " {";
    for (size_t m = 0; m < lists_[l].members.size(); ++m) {
      if (m > 0) out += ", ";
      out += "m" + std::to_string(m) + "=" + lists_[l].members[m];
    }
    out += "}\n";
  }
  for (size_t c = 0; c < scalars_.size(); ++c) {
    out += "  scalar" + std::to_string(c) + " = " + scalars_[c].leaf_path +
           "\n";
  }
  for (size_t stage = 0; stage < stages_.size(); ++stage) {
    out += "  stage " + std::to_string(stage) + ": " +
           stages_[stage]->ToString() + "\n";
  }
  for (size_t f = 0; f < fills_.size(); ++f) {
    out += "  fill '" + fills_[f].spec.name + "': ";
    if (fills_[f].per_combination) {
      out += "per-combination";
      if (fills_[f].element.filter != nullptr) {
        out += " where " + fills_[f].element.filter->ToString();
      }
      out += " <- " + fills_[f].element.value->ToString();
    } else if (fills_[f].per_element) {
      out += "per-element(list" +
             std::to_string(fills_[f].element.list_slot) + ")";
      if (fills_[f].element.filter != nullptr) {
        out += " where " + fills_[f].element.filter->ToString();
      }
      out += " <- " + fills_[f].element.value->ToString();
    } else {
      out += fills_[f].scalar->ToString();
    }
    out += "\n";
  }
  return out;
}

EventQueryResult EventQuery::MakeResult() const {
  EventQueryResult result;
  result.histograms.reserve(fills_.size());
  for (const FillSpec& fill : fills_) {
    result.histograms.emplace_back(fill.spec);
  }
  return result;
}

Status EventQuery::EnsurePrepared() const {
  std::lock_guard<std::mutex> lock(*compile_mu_);
  if (!arity_checked_) {
    for (const ExprPtr& stage : stages_) {
      HEPQ_RETURN_NOT_OK(CheckCallArity(stage.get()));
    }
    for (const FillSpec& fill : fills_) {
      HEPQ_RETURN_NOT_OK(CheckCallArity(fill.scalar.get()));
      HEPQ_RETURN_NOT_OK(CheckCallArity(fill.element.filter.get()));
      HEPQ_RETURN_NOT_OK(CheckCallArity(fill.element.value.get()));
    }
    arity_checked_ = true;
  }
  if (expr_tier_ != ExprTier::kSimd || compiled_ != nullptr) {
    return Status::OK();
  }
  obs::ScopedSpan span("vexpr_compile", obs::Stage::kPlan);
  CompiledQuerySpec spec;
  spec.stages = stages_;
  spec.fills.reserve(fills_.size());
  for (const FillSpec& fill : fills_) {
    CompiledQuerySpec::Fill f;
    f.scalar = fill.scalar;
    f.list_slot = fill.element.list_slot;
    f.iter_slot = fill.element.iter_slot;
    f.filter = fill.element.filter;
    f.value = fill.element.value;
    f.loops = fill.combo_loops;
    f.per_element = fill.per_element;
    f.per_combination = fill.per_combination;
    spec.fills.push_back(std::move(f));
  }
  HEPQ_ASSIGN_OR_RETURN(compiled_,
                        CompiledEventQuery::Compile(std::move(spec)));
  return Status::OK();
}

Status EventQuery::ExecuteBatch(const RecordBatch& batch,
                                EventQueryResult* result) const {
  return ExecuteBatch(batch, result, nullptr);
}

Status EventQuery::ExecuteBatch(const RecordBatch& batch,
                                EventQueryResult* result,
                                VexprScratch* scratch) const {
  obs::ScopedSpan span("expr_batch", obs::Stage::kExpr);
  HEPQ_RETURN_NOT_OK(EnsurePrepared());
  if (expr_tier_ == ExprTier::kSimd) {
    if (scratch == nullptr) {
      thread_local VexprScratch tls_scratch;
      scratch = &tls_scratch;
    }
    BatchBindings bindings;
    HEPQ_ASSIGN_OR_RETURN(bindings,
                          BatchBindings::Bind(batch, lists_, scalars_));
    const int64_t rows = batch.num_rows();
    HEPQ_RETURN_NOT_OK(compiled_->ExecuteBatch(
        bindings, rows, scratch, &result->histograms,
        &result->events_selected, &result->ops));
    result->events_processed += rows;
    return Status::OK();
  }
  BatchBindings bindings;
  HEPQ_ASSIGN_OR_RETURN(bindings,
                        BatchBindings::Bind(batch, lists_, scalars_));
  EvalContext ctx;
  ctx.bindings = &bindings;
  const int64_t rows = batch.num_rows();
  for (int64_t row = 0; row < rows; ++row) {
    ctx.row = static_cast<uint32_t>(row);
    ++ctx.ops;  // the per-event base record access (Table 2's "+1")
    bool pass = true;
    for (const ExprPtr& stage : stages_) {
      if (!stage->EvalBool(&ctx)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    ++result->events_selected;
    for (size_t f = 0; f < fills_.size(); ++f) {
      const FillSpec& fill = fills_[f];
      Histogram1D& hist = result->histograms[f];
      if (fill.per_combination) {
        ForEachCombination(fill.combo_loops, &ctx, 0, [&] {
          if (fill.element.filter != nullptr &&
              !fill.element.filter->EvalBool(&ctx)) {
            return;
          }
          hist.Fill(fill.element.value->Eval(&ctx));
        });
        continue;
      }
      if (!fill.per_element) {
        hist.Fill(fill.scalar->Eval(&ctx));
        continue;
      }
      const ListBinding& list = bindings.list(fill.element.list_slot);
      const uint32_t begin = list.begin(ctx.row);
      const uint32_t end = list.end(ctx.row);
      for (uint32_t i = begin; i < end; ++i) {
        ctx.iter_index[fill.element.iter_slot] = i;
        ++ctx.ops;
        if (fill.element.filter != nullptr &&
            !fill.element.filter->EvalBool(&ctx)) {
          continue;
        }
        hist.Fill(fill.element.value->Eval(&ctx));
      }
    }
  }
  result->events_processed += rows;
  result->ops += ctx.ops;
  return Status::OK();
}

Status EventQueryResult::Merge(const EventQueryResult& other) {
  if (histograms.size() != other.histograms.size()) {
    return Status::Invalid("cannot merge results with different bookings");
  }
  for (size_t i = 0; i < histograms.size(); ++i) {
    HEPQ_RETURN_NOT_OK(histograms[i].Merge(other.histograms[i]));
  }
  events_processed += other.events_processed;
  events_selected += other.events_selected;
  ops += other.ops;
  return Status::OK();
}

Result<EventQueryResult> EventQuery::Execute(const std::string& path,
                                             ReaderOptions reader_options,
                                             int num_threads) const {
  EventQueryResult result = MakeResult();
  exec::DatasetScan<EventQueryResult> scan;
  scan.projection = Projection();
  scan.predicates = ScanPredicates();
  scan.plan = [&](const exec::DatasetLayout&) { return EnsurePrepared(); };
  scan.make_partial = [&] { return MakeResult(); };
  scan.process = [&](const exec::ScanGroup& group, const RecordBatch& batch,
                     EventQueryResult* partial) {
    return ExecuteBatch(batch, partial, group.WorkerState<VexprScratch>());
  };
  scan.pruned = [](const exec::DatasetLayout::Group& loc,
                   EventQueryResult* partial) {
    partial->events_processed += loc.num_rows;
  };
  scan.merge = [](EventQueryResult* from, EventQueryResult* into) {
    return into->Merge(*from);
  };
  exec::RunTotals totals;
  HEPQ_ASSIGN_OR_RETURN(totals, exec::ScanDataset(path, reader_options,
                                                  num_threads, scan, &result));
  result.wall_seconds = totals.wall_seconds;
  result.cpu_seconds = totals.cpu_seconds;
  result.scan = std::move(totals.scan);
  return result;
}

}  // namespace hepq::engine
