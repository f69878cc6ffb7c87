#include "fileio/dataset_reader.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace hepq {

bool IsDirectory(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

Result<std::vector<std::string>> ListLaqFiles(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    return Status::Invalid("cannot open dataset directory '" + directory +
                           "'");
  }
  std::vector<std::string> paths;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".laq") == 0) {
      paths.push_back(directory + "/" + name);
    }
  }
  ::closedir(dir);
  if (paths.empty()) {
    return Status::Invalid("no .laq files in dataset directory '" +
                           directory + "'");
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<std::vector<std::string>> ShardFiles(const std::string& path) {
  if (IsDirectory(path)) return ListLaqFiles(path);
  return std::vector<std::string>{path};
}

namespace {

/// FNV-1a 64, the version-hash accumulator. Not used for any in-memory
/// table (those use exact keys); only for the dataset version stamp.
uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvMixU64(uint64_t h, uint64_t v) { return FnvMix(h, &v, sizeof(v)); }

/// The trailer fields of one shard, read without parsing the footer. The
/// stored CRC covers the footer bytes, which embed every chunk's CRC and
/// statistics — a content stamp for the whole shard.
struct ShardStamp {
  uint64_t size = 0;
  uint32_t footer_size = 0;
  uint32_t footer_crc = 0;
};

Result<ShardStamp> ReadShardStamp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  auto guard =
      std::unique_ptr<std::FILE, int (*)(std::FILE*)>(file, &std::fclose);
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IoError("seek failed");
  }
  const long size = std::ftell(file);
  if (size < 16) return Status::Corruption("file too small to be laq");
  uint8_t trailer[12];
  if (std::fseek(file, size - 12, SEEK_SET) != 0 ||
      std::fread(trailer, 1, 12, file) != 12) {
    return Status::IoError("cannot read trailer");
  }
  if (std::memcmp(trailer + 8, kLaqMagic, 4) != 0) {
    return Status::Corruption("bad trailing magic (not a laq file?)");
  }
  ShardStamp stamp;
  stamp.size = static_cast<uint64_t>(size);
  std::memcpy(&stamp.footer_size, trailer, 4);
  std::memcpy(&stamp.footer_crc, trailer + 4, 4);
  return stamp;
}

}  // namespace

Result<uint64_t> DatasetVersion(const std::string& path) {
  std::vector<std::string> shards;
  HEPQ_ASSIGN_OR_RETURN(shards, ShardFiles(path));
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  h = FnvMixU64(h, shards.size());
  for (const std::string& shard : shards) {
    // Basename only: the version describes content, not where the
    // directory happens to be mounted.
    const size_t slash = shard.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? shard : shard.substr(slash + 1);
    ShardStamp stamp;
    HEPQ_ASSIGN_OR_RETURN(stamp, ReadShardStamp(shard));
    h = FnvMix(h, base.data(), base.size());
    h = FnvMixU64(h, stamp.size);
    h = FnvMixU64(h, stamp.footer_size);
    h = FnvMixU64(h, stamp.footer_crc);
  }
  return h;
}

Result<std::unique_ptr<DatasetReader>> DatasetReader::Open(
    const std::vector<std::string>& paths, ReaderOptions options) {
  if (paths.empty()) {
    return Status::Invalid("data set needs at least one file");
  }
  auto dataset = std::unique_ptr<DatasetReader>(new DatasetReader());
  dataset->group_offsets_.push_back(0);
  for (const std::string& path : paths) {
    std::unique_ptr<LaqReader> reader;
    HEPQ_ASSIGN_OR_RETURN(reader, LaqReader::Open(path, options));
    if (!dataset->files_.empty() &&
        !reader->schema().Equals(dataset->files_.front()->schema())) {
      return Status::Invalid("file '" + path +
                             "' has a different schema than the first "
                             "file of the data set");
    }
    dataset->total_row_groups_ += reader->num_row_groups();
    dataset->total_rows_ += reader->total_rows();
    dataset->group_offsets_.push_back(dataset->total_row_groups_);
    dataset->files_.push_back(std::move(reader));
  }
  return dataset;
}

Result<std::unique_ptr<DatasetReader>> DatasetReader::OpenDirectory(
    const std::string& directory, ReaderOptions options) {
  std::vector<std::string> paths;
  HEPQ_ASSIGN_OR_RETURN(paths, ListLaqFiles(directory));
  return Open(paths, options);
}

Result<std::pair<int, int>> DatasetReader::Locate(int index) const {
  if (index < 0 || index >= total_row_groups_) {
    return Status::OutOfRange("row group index out of range");
  }
  // group_offsets_ is sorted; find the owning file.
  const auto it = std::upper_bound(group_offsets_.begin(),
                                   group_offsets_.end(), index);
  const int file = static_cast<int>(it - group_offsets_.begin()) - 1;
  return std::make_pair(file,
                        index - group_offsets_[static_cast<size_t>(file)]);
}

Result<RecordBatchPtr> DatasetReader::ReadRowGroup(
    int index, const std::vector<std::string>& projection) {
  std::pair<int, int> location;
  HEPQ_ASSIGN_OR_RETURN(location, Locate(index));
  return files_[static_cast<size_t>(location.first)]->ReadRowGroup(
      location.second, projection);
}

Result<RecordBatchPtr> DatasetReader::ReadRowGroup(int index) {
  std::pair<int, int> location;
  HEPQ_ASSIGN_OR_RETURN(location, Locate(index));
  return files_[static_cast<size_t>(location.first)]->ReadRowGroup(
      location.second);
}

ScanStats DatasetReader::scan_stats() const {
  ScanStats total;
  for (const auto& file : files_) {
    total.Add(file->scan_stats());
  }
  return total;
}

void DatasetReader::ResetScanStats() {
  for (auto& file : files_) {
    file->ResetScanStats();
  }
}

}  // namespace hepq
