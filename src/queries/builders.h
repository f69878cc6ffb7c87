#ifndef HEPQUERY_QUERIES_BUILDERS_H_
#define HEPQUERY_QUERIES_BUILDERS_H_

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

}  // namespace hepq::queries

#endif  // HEPQUERY_QUERIES_BUILDERS_H_
