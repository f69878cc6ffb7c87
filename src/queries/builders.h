#ifndef HEPQUERY_QUERIES_BUILDERS_H_
#define HEPQUERY_QUERIES_BUILDERS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/status.h"
#include "doc/runner.h"
#include "engine/event_query.h"
#include "engine/flat.h"
#include "queries/adl.h"

namespace hepq::queries {

/// Builds ADL query `q` as a per-event expression plan (the BigQuery
/// shape: nested subqueries / array expressions inside the scan). Also
/// used by the Presto runner for the queries whose idiomatic Presto
/// implementation relies on array functions rather than UNNEST (Q7, Q8 —
/// see paper §3.4/§3.6).
Result<engine::EventQuery> BuildAdlEventQuery(int q);

/// Builds ADL query `q` as a CROSS JOIN UNNEST + GROUP BY plan (the
/// Presto/Athena shape, Listing 4b / 6b of the paper). Only defined for
/// the queries where that shape is idiomatic (1..6); returns
/// NotImplemented otherwise.
Result<engine::FlatPipeline> BuildAdlFlatPipeline(int q);

/// Builds ADL query `q` as a JSONiq-style FLWOR document query.
Result<doc::DocQuery> BuildAdlDocQuery(int q);

/// Runs BuildAdlEventQuery(q) with `reader_options`: the BigQuery shape,
/// and the Presto shape's array-function fallback.
Result<QueryRunOutput> RunAdlEventQuery(int q, const std::string& path,
                                        const ReaderOptions& reader_options,
                                        const RunOptions& options);

/// The engine-neutral output of a frontend's result, moved out of it;
/// `ops` is that engine's Table 2 counter.
template <typename EngineResult>
QueryRunOutput ToRunOutput(EngineResult& result, uint64_t ops) {
  QueryRunOutput out;
  out.histograms = std::move(result.histograms);
  out.events_processed = result.events_processed;
  out.wall_seconds = result.wall_seconds;
  out.cpu_seconds = result.cpu_seconds;
  out.ops = ops;
  out.scan = std::move(result.scan);
  return out;
}

}  // namespace hepq::queries

#endif  // HEPQUERY_QUERIES_BUILDERS_H_
