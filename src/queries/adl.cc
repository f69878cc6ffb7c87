#include "queries/adl.h"

#include <chrono>
#include <cstdio>

#include "cache/cache.h"
#include "fileio/dataset_reader.h"
#include "obs/trace.h"
#include "queries/builders.h"

namespace hepq::queries {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kRdf:
      return "rdataframe";
    case EngineKind::kBigQueryShape:
      return "bigquery-shape";
    case EngineKind::kPrestoShape:
      return "presto-shape";
    case EngineKind::kDoc:
      return "jsoniq-doc";
  }
  return "unknown";
}

std::vector<HistogramSpec> AdlHistogramSpecs(int q) {
  switch (q) {
    case 1:
      return {{"q1_met", "E_T^miss of all events", 100, 0.0, 200.0}};
    case 2:
      return {{"q2_jet_pt", "p_T of all jets", 100, 0.0, 200.0}};
    case 3:
      return {{"q3_jet_pt", "p_T of jets with |eta| < 1", 100, 0.0, 200.0}};
    case 4:
      return {{"q4_met", "E_T^miss, events with >=2 jets pt>40", 100, 0.0,
               200.0}};
    case 5:
      return {{"q5_met", "E_T^miss, events with OS dimuon 60<m<120", 100,
               0.0, 200.0}};
    case 6:
      return {{"q6a_trijet_pt", "p_T of trijet closest to 172.5", 100, 0.0,
               300.0},
              {"q6b_max_btag", "max b-tag in best trijet", 100, 0.0, 1.0}};
    case 7:
      return {{"q7_sum_pt", "scalar sum p_T of isolated jets pt>30", 100,
               0.0, 500.0}};
    case 8:
      return {{"q8_mt", "transverse mass of MET + best other lepton", 100,
               0.0, 250.0}};
    default:
      return {};
  }
}

const char* AdlQueryTitle(int q) {
  switch (q) {
    case 1:
      return "MET of all events";
    case 2:
      return "pt of all jets";
    case 3:
      return "pt of jets with |eta| < 1";
    case 4:
      return "MET of events with >=2 jets with pt > 40 GeV";
    case 5:
      return "MET of events with an opposite-charge dimuon, 60 < m < 120";
    case 6:
      return "trijet with mass closest to 172.5 GeV: pt and max b-tag";
    case 7:
      return "sum pt of jets (pt>30) isolated from light leptons (pt>10)";
    case 8:
      return "transverse mass of MET + hardest lepton outside best Z pair";
    default:
      return "unknown query";
  }
}

namespace {

/// The canonical plan text of (engine, q): what the engine would execute,
/// rendered independently of the expression tier, thread count, checksum
/// and pushdown toggles — every knob that is bit-identity-gated stays out
/// of the fingerprint, so e.g. an interpret-tier run hits a result cached
/// by a simd-tier run.
Result<std::string> CanonicalPlanText(EngineKind engine, int q) {
  switch (engine) {
    case EngineKind::kBigQueryShape: {
      engine::EventQuery query("");
      HEPQ_ASSIGN_OR_RETURN(query, BuildAdlEventQuery(q));
      return "expr:" + query.Explain();
    }
    case EngineKind::kPrestoShape: {
      auto flat = BuildAdlFlatPipeline(q);
      if (flat.ok()) return "flat:" + flat->Explain();
      if (flat.status().code() != StatusCode::kNotImplemented) {
        return flat.status();
      }
      // Array-function fallback (Q7/Q8): same plan tree as the BigQuery
      // shape, but fingerprinted under its own prefix because the engines
      // report different op counters.
      engine::EventQuery query("");
      HEPQ_ASSIGN_OR_RETURN(query, BuildAdlEventQuery(q));
      return "flat-fallback:" + query.Explain();
    }
    case EngineKind::kRdf:
    case EngineKind::kDoc:
      // Hand-built per-query event loops: the query id (plus its
      // documented semantics, for readable keys) is the whole plan.
      return "q" + std::to_string(q) + ":" + AdlQueryTitle(q);
  }
  return Status::Invalid("unknown engine kind");
}

}  // namespace

ReaderOptions ReaderOptionsFor(EngineKind engine, const RunOptions& options) {
  ReaderOptions reader;
  reader.struct_projection_pushdown = engine != EngineKind::kPrestoShape;
  reader.validate_checksums = options.validate_checksums;
  reader.scan_pushdown = options.scan_pushdown;
  reader.late_materialization = options.late_materialization;
  reader.footer_cache = options.footer_cache;
  reader.chunk_cache = options.chunk_cache;
  return reader;
}

Result<QueryRunOutput> RunAdlQuery(EngineKind engine, int q,
                                   const std::string& path,
                                   const RunOptions& options) {
  if (q < 1 || q > kNumAdlQueries) {
    return Status::Invalid("ADL query id must be in 1..8");
  }

  // Result-cache probe. The fingerprint is an exact string (never a bare
  // hash of the plan), so a hit cannot be a collision; the dataset
  // version folds every shard's footer CRC, so regenerated data misses.
  // Probe failures (unreadable dataset, unknown plan) fall through to the
  // engine, which reports its own canonical error.
  std::string fingerprint;
  if (options.result_cache != nullptr) {
    obs::ScopedSpan span("result_cache", obs::Stage::kCacheLookup);
    const auto lookup_start = std::chrono::steady_clock::now();
    const auto version = DatasetVersion(path);
    const auto plan = CanonicalPlanText(engine, q);
    if (version.ok() && plan.ok()) {
      char version_hex[24];
      std::snprintf(version_hex, sizeof(version_hex), "%016llx",
                    static_cast<unsigned long long>(*version));
      fingerprint = std::string(EngineKindName(engine)) + "|" + *plan +
                    "|dataset:" + version_hex;
      cache::CachedResult cached;
      if (options.result_cache->Get(fingerprint, &cached)) {
        QueryRunOutput out;
        out.histograms.reserve(cached.histograms.size());
        for (const HistogramParts& parts : cached.histograms) {
          Histogram1D h;
          HEPQ_ASSIGN_OR_RETURN(h, Histogram1D::FromParts(parts));
          out.histograms.push_back(std::move(h));
        }
        out.events_processed = cached.events_processed;
        out.ops = cached.ops;
        out.from_result_cache = true;
        out.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          lookup_start)
                .count();
        return out;
      }
    }
  }

  auto dispatch = [&]() -> Result<QueryRunOutput> {
    switch (engine) {
      case EngineKind::kRdf:
        return RunAdlQueryRdf(q, path, options);
      case EngineKind::kBigQueryShape:
        return RunAdlQueryBq(q, path, options);
      case EngineKind::kPrestoShape:
        return RunAdlQueryPresto(q, path, options);
      case EngineKind::kDoc:
        return RunAdlQueryDoc(q, path, options);
    }
    return Status::Invalid("unknown engine kind");
  };
  QueryRunOutput out;
  HEPQ_ASSIGN_OR_RETURN(out, dispatch());

  if (!fingerprint.empty()) {
    cache::CachedResult cached;
    cached.histograms.reserve(out.histograms.size());
    for (const Histogram1D& h : out.histograms) {
      cached.histograms.push_back(h.ToParts());
    }
    cached.events_processed = out.events_processed;
    cached.ops = out.ops;
    options.result_cache->Insert(fingerprint, std::move(cached));
  }
  return out;
}

}  // namespace hepq::queries
