#ifndef HEPQUERY_ENGINE_FLAT_H_
#define HEPQUERY_ENGINE_FLAT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "engine/expr.h"
#include "fileio/reader.h"

namespace hepq::engine {

class VProgramBuilder;

/// A fully materialized flat (NF1) batch: named all-double columns. This is
/// what CROSS JOIN UNNEST produces in the Presto/Athena plan shape — every
/// event-level attribute is duplicated per emitted particle row, which is
/// exactly the cost the paper attributes to that shape. Rows [0, num_rows)
/// are live; a column may be longer (the pipeline's chunk keeps its
/// columns at capacity) and entries past num_rows are never read.
struct FlatBatch {
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  size_t num_rows = 0;

  int ColumnIndex(const std::string& name) const;
  void Clear();
  uint64_t NumCells() const { return num_rows * columns.size(); }
};

class FlatExpr;

/// Structural reflection of one flat-expression node, consumed by the
/// scan-predicate extraction (anything it cannot use reports kOther).
/// Child pointers stay owned by the reflected node.
struct FlatShape {
  enum class Kind { kLit, kCol, kBin, kOther };
  Kind kind = Kind::kOther;
  double lit = 0.0;
  std::string col;  // kCol: the referenced column name
  BinOp bin_op = BinOp::kAdd;
  const FlatExpr* lhs = nullptr;  // kBin
  const FlatExpr* rhs = nullptr;
};

/// Expression over one flat row.
class FlatExpr {
 public:
  virtual ~FlatExpr() = default;
  virtual double Eval(const FlatBatch& batch, size_t row) const = 0;
  bool EvalBool(const FlatBatch& batch, size_t row) const {
    return Eval(batch, row) != 0.0;
  }
  /// Resolves column references against the batch layout; called once per
  /// pipeline preparation.
  virtual Status Resolve(const FlatBatch& batch) = 0;
  /// Lowers the (resolved) expression into `builder`, returning the result
  /// register. Column references load the flat column as an input slot, so
  /// the compiled program evaluates a whole chunk per instruction.
  virtual Result<int> Lower(VProgramBuilder* builder) const = 0;
  /// Reflects the node for predicate extraction; defaults to opaque.
  virtual FlatShape Shape() const { return FlatShape{}; }
};

using FlatExprPtr = std::shared_ptr<FlatExpr>;

FlatExprPtr FlatLit(double value);
/// Named column reference; resolved at pipeline preparation.
FlatExprPtr FlatCol(std::string name);
FlatExprPtr FlatBin(BinOp op, FlatExprPtr lhs, FlatExprPtr rhs);
FlatExprPtr FlatCall(Fn fn, std::vector<FlatExprPtr> args);

inline FlatExprPtr FlatLt(FlatExprPtr a, FlatExprPtr b) {
  return FlatBin(BinOp::kLt, std::move(a), std::move(b));
}
inline FlatExprPtr FlatGt(FlatExprPtr a, FlatExprPtr b) {
  return FlatBin(BinOp::kGt, std::move(a), std::move(b));
}
inline FlatExprPtr FlatGe(FlatExprPtr a, FlatExprPtr b) {
  return FlatBin(BinOp::kGe, std::move(a), std::move(b));
}
inline FlatExprPtr FlatAnd(FlatExprPtr a, FlatExprPtr b) {
  return FlatBin(BinOp::kAnd, std::move(a), std::move(b));
}
inline FlatExprPtr FlatAbs(FlatExprPtr a) {
  return FlatCall(Fn::kAbs, {std::move(a)});
}

/// One UNNEST participant in the FROM clause. Each member `m` becomes the
/// flat column "<alias>.<m>"; WITH ORDINALITY adds "<alias>.idx".
struct UnnestList {
  std::string column;                // e.g. "Jet"
  std::vector<std::string> members;  // e.g. {"pt", "eta"}
  std::string alias;                 // e.g. "j1"
};

/// Grouped aggregation functions over the flat rows, keyed by event.
enum class FlatAggKind {
  kCount,   // COUNT(*)
  kSum,     // SUM(input)
  kMin,     // MIN(input)
  kMax,     // MAX(input)
  kFirst,   // ARBITRARY(input): event-constant columns carried as keys
  kMinBy,   // MIN_BY(input, key)
};

struct FlatAggSpec {
  FlatAggKind kind = FlatAggKind::kCount;
  std::string input;   // input column name (unused for kCount)
  std::string key;     // ordering column for kMinBy
  std::string output;  // output column name
};

struct FlatQueryResult {
  std::vector<Histogram1D> histograms;
  int64_t events_processed = 0;
  /// Flat rows materialized by the unnest (the plan-shape cost driver and
  /// the Table 2 ops proxy for this engine).
  uint64_t rows_materialized = 0;
  uint64_t cells_materialized = 0;
  int64_t groups = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  ScanStats scan;
};

/// The Presto/Athena plan shape (Listing 4b of the paper): CROSS JOIN
/// UNNEST flattens the particle arrays (duplicating event columns), WHERE
/// filters the flat rows, and GROUP BY event undoes the flattening for
/// per-event predicates (HAVING) before the final histogram aggregation.
///
/// Pipeline steps run in registration order and see columns added by
/// earlier projections. If any aggregate is registered, HAVING and
/// histogram fills run over the per-event aggregate output; otherwise they
/// run directly over the flat rows (Q2/Q3-style queries).
class FlatPipeline {
 public:
  explicit FlatPipeline(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// FROM events CROSS JOIN UNNEST(...) [CROSS JOIN UNNEST(...) ...].
  /// With no unnest list, rows are the events themselves (Q1).
  void AddUnnest(UnnestList list);
  /// Event-level scalar carried through the flattening ("MET.pt").
  void AddKeepScalar(const std::string& leaf_path);
  /// WHERE predicate over flat rows (and previously projected columns).
  void AddFilter(FlatExprPtr predicate);
  /// Computed column over flat rows.
  void AddProject(std::string name, FlatExprPtr value);
  /// GROUP BY event aggregate.
  void AddAggregate(FlatAggSpec spec);
  /// HAVING predicate over the aggregate output.
  void AddHaving(FlatExprPtr predicate);
  /// Final histogram: filled per aggregate-output row if aggregates exist,
  /// else per surviving flat row.
  int AddHistogram(HistogramSpec spec, FlatExprPtr value);

  /// Selects between the compiled simd tier (the default) and the per-row
  /// tree-walking interpreter. In compiled mode filters narrow a
  /// selection vector instead of physically compacting every materialized
  /// column; results are bit-identical either way, and the interpreter is
  /// kept for the interpreted-vs-compiled ablation.
  void set_expr_tier(ExprTier tier) { expr_tier_ = tier; }
  ExprTier expr_tier() const { return expr_tier_; }

  /// Scans `path` (a .laq file or a shard directory) through
  /// exec::ScanDataset with up to `num_threads` workers, with per-row-group
  /// aggregation state (sound because every event's rows live in exactly
  /// one row group). Results are bit-identical for any thread count.
  Result<FlatQueryResult> Execute(const std::string& path,
                                  ReaderOptions reader_options,
                                  int num_threads) const;

  std::vector<std::string> Projection() const;

  /// Sargable residue of the WHERE/HAVING steps and the unnest structure
  /// (an event only emits flat rows when every unnest list is non-empty;
  /// strict idx-order filters raise that bound). Only conditions every
  /// output row must satisfy are extracted — see fileio/predicate.h.
  ScanPredicateSet ScanPredicates() const;

  /// EXPLAIN-style plan rendering: unnests, steps, aggregates, having,
  /// fills (expressions are shown by name only; FlatExpr has no
  /// renderer).
  std::string Explain() const;

 private:
  struct Step {
    bool is_filter = false;
    std::string name;  // projection output column
    FlatExprPtr expr;
  };
  std::string name_;
  std::vector<UnnestList> unnests_;
  std::vector<std::string> keep_scalars_;
  std::vector<Step> steps_;
  std::vector<FlatAggSpec> aggregates_;
  std::vector<FlatExprPtr> having_;
  std::vector<std::pair<HistogramSpec, FlatExprPtr>> fills_;
  ExprTier expr_tier_ = ExprTier::kSimd;
};

}  // namespace hepq::engine

#endif  // HEPQUERY_ENGINE_FLAT_H_
