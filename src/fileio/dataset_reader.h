#ifndef HEPQUERY_FILEIO_DATASET_READER_H_
#define HEPQUERY_FILEIO_DATASET_READER_H_

#include <string>
#include <vector>

#include "fileio/reader.h"

namespace hepq {

/// True if `path` names an existing directory (a sharded dataset root).
bool IsDirectory(const std::string& path);

/// Every "*.laq" file in `directory`, sorted by name — the canonical shard
/// order shared by the exec dataset runtime, the scatter/gather
/// coordinator, and the dataset-aware tools (all of them must agree on
/// shard numbering). A missing or empty directory is an
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

}  // namespace hepq

#endif  // HEPQUERY_FILEIO_DATASET_READER_H_
