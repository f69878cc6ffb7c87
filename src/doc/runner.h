#ifndef HEPQUERY_DOC_RUNNER_H_
#define HEPQUERY_DOC_RUNNER_H_

#include <string>
#include <vector>

#include "core/histogram.h"
#include "doc/ast.h"
#include "fileio/reader.h"

namespace hepq::doc {

/// A per-event document query: `lets` are evaluated in order with $event
/// bound (so later bindings may use earlier ones — the FLWOR `let` chain of
/// the paper's Listing 7b); `guard` (optional) drops the event; each fill
/// expression produces the values added to its histogram.
struct DocQuery {
  std::string name;
  std::vector<std::pair<std::string, DocExprPtr>> lets;
  DocExprPtr guard;
  std::vector<std::pair<HistogramSpec, DocExprPtr>> fills;
  /// Columns to read. Empty = full-width scan. The paper observes that
  /// Rumble pushes projections into the scan only for the simplest
  /// queries (Figure 4b); builders set this for Q1/Q2 accordingly.
  std::vector<std::string> projection;
};

struct DocQueryResult {
  std::vector<Histogram1D> histograms;
  int64_t events_processed = 0;
  int64_t events_selected = 0;
  uint64_t interpreter_steps = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  ScanStats scan;
};

/// Executes a DocQuery the way Rumble executes JSONiq over Parquet in the
/// paper's setup: the scan reads the *entire* file (no projection
/// pushdown), every event is boxed into an item tree, and a tree-walking
/// interpreter evaluates the query per event. `path` is scanned through
/// exec::ScanDataset with up to `num_threads` workers, so results are
/// bit-identical for any thread count.
Result<DocQueryResult> RunDocQuery(const std::string& path,
                                   ReaderOptions reader_options,
                                   int num_threads, const DocQuery& query);

}  // namespace hepq::doc

#endif  // HEPQUERY_DOC_RUNNER_H_
