#ifndef HEPQUERY_FILEIO_DATASET_READER_H_
#define HEPQUERY_FILEIO_DATASET_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "fileio/reader.h"

namespace hepq {

/// True if `path` names an existing directory (a sharded dataset root).
bool IsDirectory(const std::string& path);

/// Every "*.laq" file in `directory`, sorted by name — the canonical shard
/// order shared by DatasetReader, the exec dataset runtime, the
/// scatter/gather coordinator, and the dataset-aware tools (all of them
/// must agree on shard numbering). A missing or empty directory is an
/// Invalid error naming the path.
Result<std::vector<std::string>> ListLaqFiles(const std::string& directory);

/// The shards of the dataset at `path`: ListLaqFiles of a directory, or
/// the file itself.
Result<std::vector<std::string>> ShardFiles(const std::string& path);

/// Content version of the dataset at `path` (a .laq file or a directory
/// of "*.laq" shards): a hash over the sorted shard names and each
/// shard's stored footer CRC and sizes. The footer embeds every chunk's
/// CRC and statistics, so its CRC is effectively a content hash of the
/// whole shard — regenerating a dataset (even to the same row count)
/// changes the version and invalidates cached results. Deliberately
/// mtime-free: a byte-identical rewrite keeps its cached results. The
/// result cache keys on it.
Result<uint64_t> DatasetVersion(const std::string& path);

/// A partitioned data set: an ordered collection of .laq files exposed as
/// one logical table whose row groups are globally numbered across files.
/// This mirrors how the paper's systems see the benchmark data — external
/// tables over a directory of Parquet files, with files (and the row
/// groups inside them) as the parallelization units.
class DatasetReader {
 public:
  /// Opens every path as a .laq file; all schemas must match.
  static Result<std::unique_ptr<DatasetReader>> Open(
      const std::vector<std::string>& paths, ReaderOptions options = {});

  /// Opens every "*.laq" file in `directory`, sorted by name.
  static Result<std::unique_ptr<DatasetReader>> OpenDirectory(
      const std::string& directory, ReaderOptions options = {});

  const Schema& schema() const { return files_.front()->schema(); }
  int num_files() const { return static_cast<int>(files_.size()); }
  int num_row_groups() const { return total_row_groups_; }
  int64_t total_rows() const { return total_rows_; }

  /// Reads global row group `index` (spanning file boundaries) with a
  /// projection, as LaqReader::ReadRowGroup does.
  Result<RecordBatchPtr> ReadRowGroup(
      int index, const std::vector<std::string>& projection);
  Result<RecordBatchPtr> ReadRowGroup(int index);

  /// Aggregated IO accounting across all member files.
  ScanStats scan_stats() const;
  void ResetScanStats();

  /// The underlying reader of one file (for statistics-based pruning or
  /// metadata inspection).
  const LaqReader& file(int i) const { return *files_[static_cast<size_t>(i)]; }

 private:
  DatasetReader() = default;

  /// Maps a global group index to (file, local group).
  Result<std::pair<int, int>> Locate(int index) const;

  std::vector<std::unique_ptr<LaqReader>> files_;
  std::vector<int> group_offsets_;  // prefix sums; size = files + 1
  int total_row_groups_ = 0;
  int64_t total_rows_ = 0;
};

}  // namespace hepq

#endif  // HEPQUERY_FILEIO_DATASET_READER_H_
