// laq_inspect: dump the metadata of a .laq columnar file — schema, row
// groups, per-chunk encodings/codecs/sizes/statistics, and page-level zone
// maps. The moral equivalent of parquet-tools for this repository's format.
//
// Usage: laq_inspect <file.laq | dataset-dir> [--chunks] [--pages] [--json]
//                    [--cache-stats]
//
// Any other argument prints "unknown flag: <arg>" plus the usage line and
// exits 2.
//
// --json replaces the human-readable dump with a machine-readable layout
// summary (per-leaf pages/prunable-fraction/encoding) for CI gating.
// Given a sharded dataset directory, both modes aggregate per-file
// analyses across every shard.
// --cache-stats walks the metadata a second time and prints the
// process-wide footer-cache hit/miss totals to stderr (stdout stays
// pipeable): the first walk banks every shard's validated footer, the
// second is served from the cache — observable from tooling, not just
// RunReports.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "fileio/dataset_reader.h"
#include "fileio/layout_optimizer.h"
#include "fileio/reader.h"

namespace {

/// The --cache-stats epilogue: one more metadata-only pass over every
/// shard (footer-cache-served, no data bytes), then the process totals.
void PrintFooterCacheStats(const std::vector<std::string>& files) {
  for (const std::string& file : files) {
    auto reopened = hepq::LaqReader::Open(file);
    (void)reopened;  // metadata pass only; errors already reported above
  }
  const hepq::cache::CacheCounters c =
      hepq::cache::FooterCache::Process().counters();
  std::fprintf(stderr,
               "footer cache: hits=%llu misses=%llu entries=%llu "
               "(second walk of %zu shard(s) served from cache)\n",
               static_cast<unsigned long long>(c.hits),
               static_cast<unsigned long long>(c.misses),
               static_cast<unsigned long long>(c.entries), files.size());
}

/// Dataset-directory inspection: per-shard analysis rows plus per-leaf
/// totals summed over every shard (JSON mirrors the single-file schema
/// with an extra "files" count; encodings that differ across shards
/// report as "mixed").
int InspectDirectory(const std::string& dir, bool json, bool cache_stats) {
  auto files_result = hepq::ListLaqFiles(dir);
  if (!files_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 files_result.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string>& files = *files_result;
  struct LeafTotal {
    std::string path;
    std::string encoding;
    uint64_t storage_bytes = 0;
    uint64_t pages = 0;
    uint64_t prunable_pages = 0;
  };
  std::vector<LeafTotal> leaves;
  long long total_rows = 0;
  int total_groups = 0;
  unsigned long long total_bytes = 0;
  if (!json) {
    std::printf("dataset:     %s\n", dir.c_str());
    std::printf("shards:      %zu\n\n", files.size());
    std::printf("%-44s %10s %8s %12s\n", "shard", "rows", "groups",
                "bytes");
  }
  for (const std::string& file : files) {
    auto analysis_result = hepq::AnalyzeLaqFile(file);
    if (!analysis_result.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", file.c_str(),
                   analysis_result.status().ToString().c_str());
      return 1;
    }
    const hepq::LayoutAnalysis& analysis = *analysis_result;
    total_rows += analysis.total_rows;
    total_groups += analysis.row_groups;
    total_bytes += analysis.storage_bytes;
    if (leaves.empty()) {
      for (const hepq::LeafLayoutSummary& leaf : analysis.leaves) {
        leaves.push_back(LeafTotal{leaf.path, EncodingName(leaf.encoding),
                                   0, 0, 0});
      }
    }
    for (size_t l = 0; l < analysis.leaves.size() && l < leaves.size();
         ++l) {
      const hepq::LeafLayoutSummary& leaf = analysis.leaves[l];
      if (leaves[l].encoding != EncodingName(leaf.encoding)) {
        leaves[l].encoding = "mixed";
      }
      leaves[l].storage_bytes += leaf.storage_bytes;
      leaves[l].pages += leaf.pages;
      leaves[l].prunable_pages += leaf.prunable_pages;
    }
    if (!json) {
      const size_t slash = file.rfind('/');
      std::printf("%-44s %10lld %8d %12llu\n",
                  (slash == std::string::npos ? file : file.substr(slash + 1))
                      .c_str(),
                  static_cast<long long>(analysis.total_rows),
                  analysis.row_groups,
                  static_cast<unsigned long long>(analysis.storage_bytes));
    }
  }
  if (json) {
    std::printf("{\"dataset\": \"%s\", \"files\": %zu, \"rows\": %lld, "
                "\"row_groups\": %d, \"storage_bytes\": %llu, \"leaves\": [",
                dir.c_str(), files.size(), total_rows, total_groups,
                total_bytes);
    for (size_t l = 0; l < leaves.size(); ++l) {
      const LeafTotal& leaf = leaves[l];
      std::printf("%s{\"path\": \"%s\", \"encoding\": \"%s\", "
                  "\"storage_bytes\": %llu, \"pages\": %llu, "
                  "\"prunable_pages\": %llu, \"prunable_fraction\": %.4f}",
                  l == 0 ? "" : ", ", leaf.path.c_str(),
                  leaf.encoding.c_str(),
                  static_cast<unsigned long long>(leaf.storage_bytes),
                  static_cast<unsigned long long>(leaf.pages),
                  static_cast<unsigned long long>(leaf.prunable_pages),
                  leaf.pages > 0 ? static_cast<double>(leaf.prunable_pages) /
                                       static_cast<double>(leaf.pages)
                                 : 0.0);
    }
    std::printf("]}\n");
    if (cache_stats) PrintFooterCacheStats(files);
    return 0;
  }
  std::printf("\ntotals: %lld rows, %d row groups, %llu bytes\n\n",
              total_rows, total_groups, total_bytes);
  std::printf("per-leaf totals across all shards:\n");
  std::printf("  %-24s %10s %8s %10s %9s\n", "leaf", "bytes", "enc",
              "pages", "prunable");
  for (const LeafTotal& leaf : leaves) {
    std::printf("  %-24s %10llu %8s %10llu %9llu\n", leaf.path.c_str(),
                static_cast<unsigned long long>(leaf.storage_bytes),
                leaf.encoding.c_str(),
                static_cast<unsigned long long>(leaf.pages),
                static_cast<unsigned long long>(leaf.prunable_pages));
  }
  if (cache_stats) PrintFooterCacheStats(files);
  return 0;
}

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <file.laq | dataset-dir> [--chunks] [--pages]"
               " [--json] [--cache-stats]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  bool show_chunks = false;
  bool show_pages = false;
  bool json = false;
  bool cache_stats = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chunks") == 0) {
      show_chunks = true;
    } else if (std::strcmp(argv[i], "--pages") == 0) {
      show_chunks = true;
      show_pages = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--cache-stats") == 0) {
      cache_stats = true;
    } else {
      // A typo must not print the default view and exit 0.
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    }
  }

  if (hepq::IsDirectory(path)) return InspectDirectory(path, json, cache_stats);

  if (json) {
    auto analysis_result = hepq::AnalyzeLaqFile(path);
    if (!analysis_result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   analysis_result.status().ToString().c_str());
      return 1;
    }
    const hepq::LayoutAnalysis& analysis = *analysis_result;
    std::printf("{\"file\": \"%s\", \"rows\": %lld, \"row_groups\": %d, "
                "\"storage_bytes\": %llu, \"leaves\": [",
                path.c_str(), static_cast<long long>(analysis.total_rows),
                analysis.row_groups,
                static_cast<unsigned long long>(analysis.storage_bytes));
    for (size_t l = 0; l < analysis.leaves.size(); ++l) {
      const hepq::LeafLayoutSummary& leaf = analysis.leaves[l];
      std::printf("%s{\"path\": \"%s\", \"encoding\": \"%s\", "
                  "\"storage_bytes\": %llu, \"pages\": %llu, "
                  "\"prunable_pages\": %llu, \"prunable_fraction\": %.4f}",
                  l == 0 ? "" : ", ", leaf.path.c_str(),
                  EncodingName(leaf.encoding),
                  static_cast<unsigned long long>(leaf.storage_bytes),
                  static_cast<unsigned long long>(leaf.pages),
                  static_cast<unsigned long long>(leaf.prunable_pages),
                  leaf.prunable_fraction());
    }
    std::printf("]}\n");
    if (cache_stats) PrintFooterCacheStats({path});
    return 0;
  }

  auto reader_result = hepq::LaqReader::Open(path);
  if (!reader_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 reader_result.status().ToString().c_str());
    return 1;
  }
  auto reader = std::move(*reader_result);
  const hepq::FileMetadata& meta = reader->metadata();

  std::printf("file:        %s\n", path.c_str());
  std::printf("version:     %u\n", meta.version);
  std::printf("rows:        %lld\n",
              static_cast<long long>(meta.total_rows));
  std::printf("row groups:  %d\n", reader->num_row_groups());
  std::printf("leaf columns: %d\n\n", meta.num_leaves());
  std::printf("%s\n\n", meta.schema.ToString().c_str());

  uint64_t total_compressed = 0, total_encoded = 0;
  for (const hepq::RowGroupMeta& rg : meta.row_groups) {
    for (const hepq::ChunkMeta& chunk : rg.chunks) {
      total_compressed += chunk.compressed_size;
      total_encoded += chunk.encoded_size;
    }
  }
  std::printf("data bytes:  %llu on storage, %llu encoded (ratio %.2fx)\n",
              static_cast<unsigned long long>(total_compressed),
              static_cast<unsigned long long>(total_encoded),
              total_compressed > 0
                  ? static_cast<double>(total_encoded) / total_compressed
                  : 0.0);

  for (int g = 0; g < reader->num_row_groups(); ++g) {
    const hepq::RowGroupMeta& rg =
        meta.row_groups[static_cast<size_t>(g)];
    std::printf("\nrow group %d: %lld rows\n", g,
                static_cast<long long>(rg.num_rows));
    if (!show_chunks) continue;
    std::printf("  %-24s %10s %10s %8s %8s %10s %22s\n", "leaf", "stored",
                "encoded", "enc", "codec", "values", "min..max");
    for (size_t c = 0; c < rg.chunks.size(); ++c) {
      const hepq::ChunkMeta& chunk = rg.chunks[c];
      const hepq::LeafDesc& leaf = meta.layout[c];
      char stats[64] = "-";
      if (chunk.has_stats) {
        std::snprintf(stats, sizeof(stats), "%.4g..%.4g", chunk.min_value,
                      chunk.max_value);
      }
      std::printf("  %-24s %10llu %10llu %8s %8s %10llu %22s\n",
                  leaf.path.c_str(),
                  static_cast<unsigned long long>(chunk.compressed_size),
                  static_cast<unsigned long long>(chunk.encoded_size),
                  EncodingName(chunk.encoding), CodecName(chunk.codec),
                  static_cast<unsigned long long>(chunk.num_values),
                  stats);
      if (!show_pages || chunk.pages.empty()) continue;
      for (size_t p = 0; p < chunk.pages.size(); ++p) {
        const hepq::PageMeta& page = chunk.pages[p];
        char zone[64] = "-";
        if (page.has_stats) {
          std::snprintf(zone, sizeof(zone), "%.4g..%.4g", page.min_value,
                        page.max_value);
        }
        std::printf("    page %-3zu %17llu %10llu %18llu %22s\n", p,
                    static_cast<unsigned long long>(page.compressed_size),
                    static_cast<unsigned long long>(page.encoded_size),
                    static_cast<unsigned long long>(page.num_values), zone);
      }
    }
  }

  // Per-column pruning potential: a page can be skipped by some range
  // predicate iff it carries a zone map strictly narrower than the
  // column's global value range (a page spanning the full range survives
  // every predicate any other page survives).
  struct ColumnPruning {
    uint64_t pages = 0;
    uint64_t with_stats = 0;
    uint64_t prunable = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  std::vector<ColumnPruning> columns(
      static_cast<size_t>(meta.num_leaves()));
  for (const hepq::RowGroupMeta& rg : meta.row_groups) {
    for (size_t c = 0; c < rg.chunks.size(); ++c) {
      for (const hepq::PageMeta& page : rg.chunks[c].pages) {
        if (!page.has_stats) continue;
        columns[c].min = std::min(columns[c].min, page.min_value);
        columns[c].max = std::max(columns[c].max, page.max_value);
      }
    }
  }
  for (const hepq::RowGroupMeta& rg : meta.row_groups) {
    for (size_t c = 0; c < rg.chunks.size(); ++c) {
      for (const hepq::PageMeta& page : rg.chunks[c].pages) {
        ++columns[c].pages;
        if (!page.has_stats) continue;
        ++columns[c].with_stats;
        if (page.min_value > columns[c].min ||
            page.max_value < columns[c].max) {
          ++columns[c].prunable;
        }
      }
    }
  }
  std::printf("\nzone-map pruning potential (per leaf, across all pages):\n");
  std::printf("  %-24s %8s %8s %9s %9s\n", "leaf", "pages", "stats",
              "prunable", "fraction");
  for (size_t c = 0; c < columns.size(); ++c) {
    const ColumnPruning& col = columns[c];
    if (col.pages == 0) continue;
    std::printf("  %-24s %8llu %8llu %9llu %8.1f%%\n",
                meta.layout[c].path.c_str(),
                static_cast<unsigned long long>(col.pages),
                static_cast<unsigned long long>(col.with_stats),
                static_cast<unsigned long long>(col.prunable),
                100.0 * static_cast<double>(col.prunable) /
                    static_cast<double>(col.pages));
  }
  if (cache_stats) PrintFooterCacheStats({path});
  return 0;
}
