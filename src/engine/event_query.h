#ifndef HEPQUERY_ENGINE_EVENT_QUERY_H_
#define HEPQUERY_ENGINE_EVENT_QUERY_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "engine/expr.h"
#include "fileio/reader.h"

namespace hepq::engine {

class CompiledEventQuery;
class VexprScratch;

struct EventQueryResult {
  std::vector<Histogram1D> histograms;
  int64_t events_processed = 0;
  int64_t events_selected = 0;
  /// Elements and combinations explored (Table 2's "#ops/event" numerator).
  uint64_t ops = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  ScanStats scan;

  /// Folds another partial result into this one: histograms merge, event
  /// and op counters add. Timings and scan stats are left untouched (they
  /// are per-run, not per-partition).
  Status Merge(const EventQueryResult& other);
};

/// A compiled per-event query plan in the "BigQuery shape": the event table
/// is scanned once, nested-array logic runs as expressions inside the scan
/// (nested subqueries / array functions), and surviving events feed one or
/// more histogram aggregations. No flattening ever happens — contrast with
/// FlatPipeline (flat.h), the Presto/Athena shape.
class EventQuery {
 public:
  explicit EventQuery(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Declares a particle list with the members the query touches.
  /// Returns the list slot; member slots are the positions in `members`.
  int DeclareList(const std::string& column,
                  std::vector<std::string> members);

  /// Declares a derived list concatenating `sources` per event (Q7/Q8's
  /// light-lepton collection). See ListDecl for the member-mapping rules.
  int DeclareUnionList(const std::string& name,
                       std::vector<std::string> members,
                       std::vector<UnionSource> sources);

  /// Declares a scalar leaf ("MET.pt"). Returns the scalar slot.
  int DeclareScalar(const std::string& leaf_path);

  /// Appends a pipeline stage: the event is dropped unless `guard`
  /// evaluates truthy. BestCombination/AnyCombination guards leave their
  /// winning particles bound for later stages and fills.
  void AddStage(ExprPtr guard);

  /// Books a histogram filled once per surviving event.
  int AddHistogram(HistogramSpec spec, ExprPtr value);

  /// Books a histogram filled once per element of `list_slot` (bound to
  /// `iter_slot`) passing `filter` (optional), with `value` as fill value.
  int AddPerElementHistogram(HistogramSpec spec, int list_slot, int iter_slot,
                             ExprPtr filter, ExprPtr value);

  /// Books a histogram filled once per particle *combination* passing
  /// `filter` — the SQL "emit every qualifying pair" pattern (e.g. the
  /// full dimuon spectrum). Loops over the same list are restricted to
  /// strictly increasing ordinals, as in BestCombination.
  int AddPerCombinationHistogram(HistogramSpec spec,
                                 std::vector<ComboLoop> loops,
                                 ExprPtr filter, ExprPtr value);

  /// Selects between the compiled simd tier (the default) and the per-row
  /// tree-walking interpreter. Results are bit-identical; the interpreter
  /// is kept for the interpreted-vs-compiled ablation.
  void set_expr_tier(ExprTier tier) { expr_tier_ = tier; }
  ExprTier expr_tier() const { return expr_tier_; }

  /// Storage projection implied by the declarations.
  std::vector<std::string> Projection() const;

  /// Sargable residue of the stage predicates: per-event scalar
  /// comparisons, list-cardinality bounds (via the lengths leaf), and
  /// element-existence ranges, extracted from top-level conjuncts only —
  /// every extracted condition gates all fills, which is what makes
  /// zone-map pruning result-preserving (see fileio/predicate.h).
  ScanPredicateSet ScanPredicates() const;

  /// EXPLAIN-style plan rendering: declarations, stages, and fills.
  std::string Explain() const;

  /// Scans `path` (a .laq file or a shard directory) through
  /// exec::ScanDataset with up to `num_threads` workers of the shared
  /// pool. Results are bit-identical for any thread count.
  Result<EventQueryResult> Execute(const std::string& path,
                                   ReaderOptions reader_options,
                                   int num_threads) const;

  /// Runs the query over one in-memory batch, merging into `result`
  /// (histograms must already be sized; used by tests and benches). In
  /// compiled mode the VM buffers come from an exec::WorkerSlot leased
  /// for the call. Safe to call concurrently.
  Status ExecuteBatch(const RecordBatch& batch,
                      EventQueryResult* result) const;

  /// Same, with an explicit per-worker scratch: required in compiled
  /// mode, ignored (may be null) in interpreted mode.
  Status ExecuteBatch(const RecordBatch& batch, EventQueryResult* result,
                      VexprScratch* scratch) const;

  /// Creates an empty result with histograms initialized to the specs.
  EventQueryResult MakeResult() const;

 private:
  struct PerElementFill {
    int list_slot;
    int iter_slot;
    ExprPtr filter;
    ExprPtr value;
  };
  struct FillSpec {
    HistogramSpec spec;
    ExprPtr scalar;          // exactly one representation is active
    PerElementFill element;
    std::vector<ComboLoop> combo_loops;  // with element.filter/.value
    bool per_element = false;
    bool per_combination = false;
  };

  /// Checks every call's arity on first use (both tiers) and compiles the
  /// stages and fills to VM programs (simd tier only). Safe to race;
  /// Execute calls it before fanning out.
  Status EnsurePrepared() const;

  std::string name_;
  std::vector<ListDecl> lists_;
  std::vector<ScalarDecl> scalars_;
  std::vector<ExprPtr> stages_;
  std::vector<FillSpec> fills_;
  ExprTier expr_tier_ = ExprTier::kSimd;
  // Behind a pointer so EventQuery stays movable (builders return by
  // value); the compiled plan cache moves with the query.
  mutable std::unique_ptr<std::mutex> compile_mu_ =
      std::make_unique<std::mutex>();
  mutable std::shared_ptr<const CompiledEventQuery> compiled_;
  mutable bool arity_checked_ = false;
};

}  // namespace hepq::engine

#endif  // HEPQUERY_ENGINE_EVENT_QUERY_H_
