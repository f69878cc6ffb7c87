// laq_optimize: rewrite a .laq dataset into a pruning-friendly copy —
// events reordered by a cluster key (trigger-skim style), dictionary /
// frame-of-reference encodings for low-cardinality integer leaves, and
// data-statistics-driven row-group and page sizing. Histograms computed
// over the copy are bit-identical to the original (reordering commutes
// with weight-1 fills under the deterministic merge); only the zone maps
// get sharper, so predicate pushdown finally skips real data.
//
// Usage: laq_optimize <input.laq | dataset-dir> <output.laq | output-dir>
//          [--key=leaf1,leaf2,...]  cluster key, most significant first
//                                   (default Muon#lengths,Jet#lengths,MET.pt)
//          [--row-group=N]          rows per output row group (default: derived)
//          [--page-values=N]        values per output page (default: derived)
//          [--codec=lz|none]        block codec for the copy (default lz)
//          [--no-advanced-encodings]  stick to the classic encoding set
//          [--report=run.json]      RunReport from `hepq_run --profile=`;
//                                   its hottest-decoded leaves are appended
//                                   to the cluster key as tiebreakers
//          [--verify]               after rewriting, run all 8 ADL queries
//                                   on all 4 frontends with pruning on and
//                                   off over input and output and require
//                                   bit-identical histograms (exit 1 if not)

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/json.h"
#include "fileio/dataset_reader.h"
#include "fileio/layout_optimizer.h"
#include "queries/adl.h"

using hepq::AnalyzeLaqFile;
using hepq::LayoutAnalysis;
using hepq::LeafLayoutSummary;
using hepq::OptimizeLaqFile;
using hepq::OptimizeOptions;

namespace {

/// The per-leaf decoded-byte ranking of a RunReport JSON (`per_leaf[]`
/// of `hepq_run --profile=`): leaf paths that decoded any bytes,
/// hottest first.
std::vector<std::string> HottestLeaves(const std::string& report_path) {
  auto report = hepq::json::ParseJsonFile(report_path);
  const hepq::json::JsonValue* per_leaf =
      report.ok() ? report->Find("per_leaf") : nullptr;
  if (per_leaf == nullptr || !per_leaf->is_array()) {
    std::fprintf(stderr, "warning: --report=%s has no per_leaf array (%s), "
                 "ignoring\n", report_path.c_str(),
                 report.ok() ? "not a RunReport"
                             : report.status().ToString().c_str());
    return {};
  }
  std::vector<std::pair<double, std::string>> ranked;
  for (const hepq::json::JsonValue& entry : per_leaf->array_items()) {
    const hepq::json::JsonValue* leaf = entry.Find("leaf");
    const hepq::json::JsonValue* bytes = entry.Find("decoded_bytes");
    if (leaf == nullptr || !leaf->is_string() || bytes == nullptr ||
        !bytes->is_number() || !(bytes->number_value() > 0)) {
      continue;
    }
    ranked.emplace_back(bytes->number_value(), leaf->string_value());
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> leaves;
  for (const auto& [bytes, leaf] : ranked) leaves.push_back(leaf);
  return leaves;
}

std::vector<std::string> SplitKeys(const std::string& csv) {
  std::vector<std::string> keys;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string key =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (!key.empty()) keys.push_back(key);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return keys;
}

const LeafLayoutSummary* FindLeaf(const LayoutAnalysis& analysis,
                                  const std::string& path) {
  for (const LeafLayoutSummary& leaf : analysis.leaves) {
    if (leaf.path == path) return &leaf;
  }
  return nullptr;
}

void PrintComparison(const LayoutAnalysis& before,
                     const LayoutAnalysis& after) {
  std::printf("%-24s %9s %9s %10s %10s %9s %9s\n", "leaf", "enc", "enc'",
              "prunable", "prunable'", "stored", "stored'");
  for (const LeafLayoutSummary& b : before.leaves) {
    const LeafLayoutSummary* a = FindLeaf(after, b.path);
    if (a == nullptr) continue;
    std::printf("%-24s %9s %9s %9.1f%% %9.1f%% %9llu %9llu\n",
                b.path.c_str(), EncodingName(b.encoding),
                EncodingName(a->encoding), 100.0 * b.prunable_fraction(),
                100.0 * a->prunable_fraction(),
                static_cast<unsigned long long>(b.storage_bytes),
                static_cast<unsigned long long>(a->storage_bytes));
  }
  std::printf("%-24s %9d %9d %10s %10s %9llu %9llu\n", "(row groups / bytes)",
              before.row_groups, after.row_groups, "", "",
              static_cast<unsigned long long>(before.storage_bytes),
              static_cast<unsigned long long>(after.storage_bytes));
}

/// Exact (bitwise) histogram equality — the contract the rewrite upholds.
bool BitIdentical(const hepq::Histogram1D& a, const hepq::Histogram1D& b) {
  if (a.num_entries() != b.num_entries()) return false;
  if (a.sum_weights() != b.sum_weights()) return false;
  if (a.underflow() != b.underflow() || a.overflow() != b.overflow()) {
    return false;
  }
  for (int i = 0; i < a.spec().num_bins; ++i) {
    if (a.BinContent(i) != b.BinContent(i)) return false;
  }
  return true;
}

/// Folds one shard's analysis into a dataset-wide total (leaf order is
/// schema order, identical across shards of one dataset; the aggregate
/// keeps the first shard's encoding labels).
void Accumulate(LayoutAnalysis* total, const LayoutAnalysis& shard) {
  total->total_rows += shard.total_rows;
  total->row_groups += shard.row_groups;
  total->storage_bytes += shard.storage_bytes;
  if (total->leaves.empty()) {
    total->leaves = shard.leaves;
    return;
  }
  for (size_t l = 0; l < shard.leaves.size() && l < total->leaves.size();
       ++l) {
    total->leaves[l].storage_bytes += shard.leaves[l].storage_bytes;
    total->leaves[l].pages += shard.leaves[l].pages;
    total->leaves[l].prunable_pages += shard.leaves[l].prunable_pages;
  }
}

int Verify(const std::string& input, const std::string& output) {
  using hepq::queries::EngineKind;
  using hepq::queries::EngineKindName;
  using hepq::queries::RunAdlQuery;
  int failures = 0;
  for (int q = 1; q <= hepq::queries::kNumAdlQueries; ++q) {
    for (EngineKind engine :
         {EngineKind::kRdf, EngineKind::kBigQueryShape,
          EngineKind::kPrestoShape, EngineKind::kDoc}) {
      for (const bool pushdown : {true, false}) {
        hepq::queries::RunOptions options;
        options.scan_pushdown = pushdown;
        auto original = RunAdlQuery(engine, q, input, options);
        original.status().Check();
        auto optimized = RunAdlQuery(engine, q, output, options);
        optimized.status().Check();
        bool identical =
            original->histograms.size() == optimized->histograms.size() &&
            original->events_processed == optimized->events_processed;
        for (size_t h = 0; identical && h < original->histograms.size();
             ++h) {
          identical = BitIdentical(original->histograms[h],
                                   optimized->histograms[h]);
        }
        if (!identical) {
          ++failures;
          std::fprintf(stderr,
                       "verify FAILED: Q%d %s pushdown=%s differs on the "
                       "optimized copy\n",
                       q, EngineKindName(engine), pushdown ? "on" : "off");
        }
      }
    }
  }
  if (failures == 0) {
    std::printf("verify: all 8 queries x 4 frontends x pruning on/off "
                "bit-identical\n");
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  OptimizeOptions options;
  bool verify = false;
  std::string report_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--key=", 6) == 0) {
      options.cluster_keys = SplitKeys(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--row-group=", 12) == 0) {
      options.row_group_size = std::atoll(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--page-values=", 14) == 0) {
      options.page_values = std::atoll(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--codec=", 8) == 0) {
      const std::string name = argv[i] + 8;
      if (name == "none") {
        options.codec = hepq::Codec::kNone;
      } else if (name == "lz") {
        options.codec = hepq::Codec::kLz;
      } else {
        std::fprintf(stderr, "--codec must be lz or none\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-advanced-encodings") == 0) {
      options.advanced_encodings = false;
    } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
      report_path = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s <input.laq> <output.laq> [--key=a,b,...]"
                 " [--row-group=N] [--page-values=N] [--codec=lz|none]"
                 " [--no-advanced-encodings] [--report=run.json]"
                 " [--verify]\n",
                 argv[0]);
    return 2;
  }
  const std::string input = positional[0];
  const std::string output = positional[1];

  if (!report_path.empty()) {
    // RunReport feedback: the hottest-decoded leaves are where sharper
    // zone maps pay most, so append them (deduplicated) as tiebreakers.
    for (const std::string& leaf : HottestLeaves(report_path)) {
      if (std::find(options.cluster_keys.begin(), options.cluster_keys.end(),
                    leaf) == options.cluster_keys.end()) {
        options.cluster_keys.push_back(leaf);
      }
      if (options.cluster_keys.size() >= 6) break;  // diminishing returns
    }
  }

  if (hepq::IsDirectory(input)) {
    // Dataset directory: optimize every shard into a mirrored directory.
    // Each shard is rewritten independently (same per-file bit-identity
    // contract), and --verify compares directory-level query results.
    auto files = hepq::ListLaqFiles(input);
    if (!files.ok()) {
      std::fprintf(stderr, "error: %s\n", files.status().ToString().c_str());
      return 1;
    }
    if (::mkdir(output.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "error: cannot create output directory '%s'\n",
                   output.c_str());
      return 1;
    }
    LayoutAnalysis total_before;
    LayoutAnalysis total_after;
    for (const std::string& shard : *files) {
      const size_t slash = shard.rfind('/');
      const std::string base =
          slash == std::string::npos ? shard : shard.substr(slash + 1);
      const std::string out_path = output + "/" + base;
      auto shard_before = AnalyzeLaqFile(shard);
      if (!shard_before.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     shard_before.status().ToString().c_str());
        return 1;
      }
      std::printf("optimizing %s -> %s\n", shard.c_str(), out_path.c_str());
      auto shard_after = OptimizeLaqFile(shard, out_path, options);
      if (!shard_after.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     shard_after.status().ToString().c_str());
        return 1;
      }
      Accumulate(&total_before, *shard_before);
      Accumulate(&total_after, *shard_after);
    }
    std::printf("\ndataset totals (%zu shards):\n", files->size());
    PrintComparison(total_before, total_after);
    if (verify) {
      return Verify(input, output) == 0 ? 0 : 1;
    }
    return 0;
  }

  auto before = AnalyzeLaqFile(input);
  if (!before.ok()) {
    std::fprintf(stderr, "error: %s\n", before.status().ToString().c_str());
    return 1;
  }

  std::printf("optimizing %s -> %s\n", input.c_str(), output.c_str());
  std::printf("cluster key:");
  for (const std::string& key : options.cluster_keys) {
    std::printf(" %s", key.c_str());
  }
  std::printf("\nrow group: %lld   page values: %lld (0 = derived)\n\n",
              static_cast<long long>(options.row_group_size),
              static_cast<long long>(options.page_values));

  auto after = OptimizeLaqFile(input, output, options);
  if (!after.ok()) {
    std::fprintf(stderr, "error: %s\n", after.status().ToString().c_str());
    return 1;
  }

  PrintComparison(*before, *after);

  if (verify) {
    return Verify(input, output) == 0 ? 0 : 1;
  }
  return 0;
}
