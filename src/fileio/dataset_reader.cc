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

}  // namespace hepq
