#include "cache/cache.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"

namespace hepq::cache {

namespace metrics = hepq::obs::metrics;

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

}  // namespace

// ---------------------------------------------------------------- Footer

std::shared_ptr<const FooterCache::Entry> FooterCache::Find(
    const std::string& path, const FileIdentity& identity,
    uint64_t chunk_limit) {
  std::shared_ptr<const Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(path);
    if (it != entries_.end()) entry = it->second;
  }
  // A hit must have seen byte-identical footer bytes (size + mtime + CRC)
  // and have validated them under a limit at least as strict as the
  // caller's: metadata that passed a smaller limit passes a larger one,
  // never the other way around.
  static auto& hits = metrics::GetCounter("hepq_cache_footer_hits_total");
  static auto& misses = metrics::GetCounter("hepq_cache_footer_misses_total");
  if (entry != nullptr && entry->identity == identity &&
      entry->validated_chunk_limit <= chunk_limit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits.Add(1);
    return entry;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  misses.Add(1);
  return nullptr;
}

std::shared_ptr<const FooterCache::Entry> FooterCache::Insert(
    const std::string& path, const FileIdentity& identity,
    uint64_t validated_chunk_limit,
    std::shared_ptr<const FileMetadata> metadata) {
  // Generation ids start at 1: id 0 means "not cache-managed" to readers,
  // which then bypass the chunk cache entirely.
  static std::atomic<uint64_t> next_file_id{1};
  auto entry = std::make_shared<Entry>();
  entry->identity = identity;
  entry->validated_chunk_limit = validated_chunk_limit;
  entry->metadata = std::move(metadata);
  entry->file_id = next_file_id.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const Entry>& slot = entries_[path];
  if (slot != nullptr && slot->identity == identity &&
      slot->validated_chunk_limit <= validated_chunk_limit) {
    // Lost a race with another opener of the same bytes; keep the first
    // banked generation so both openers share one chunk-cache keyspace.
    return slot;
  }
  static auto& evictions =
      metrics::GetCounter("hepq_cache_footer_evictions_total");
  if (slot != nullptr) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions.Add(1);
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  slot = std::move(entry);
  return slot;
}

CacheCounters FooterCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  c.entries = entries_.size();
  return c;
}

FooterCache& FooterCache::Process() {
  static FooterCache* instance = new FooterCache();  // never destroyed
  return *instance;
}

// ----------------------------------------------------------------- Chunk

ChunkCache::ChunkCache(CacheOptions options) : options_(options) {
  stripe_budget_ = std::max<uint64_t>(1, options_.decoded_budget_bytes /
                                             static_cast<uint64_t>(kStripes));
}

bool ChunkCache::Get(const ChunkKey& key, std::vector<uint8_t>* out) {
  std::shared_ptr<const std::vector<uint8_t>> data;
  Stripe& stripe = StripeFor(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.index.find(key);
    if (it != stripe.index.end()) {
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
      data = it->second->data;
    }
  }
  static auto& hits = metrics::GetCounter("hepq_cache_chunk_hits_total");
  static auto& misses = metrics::GetCounter("hepq_cache_chunk_misses_total");
  static auto& served =
      metrics::GetCounter("hepq_cache_chunk_bytes_served_total");
  if (data == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses.Add(1);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hits.Add(1);
  bytes_served_.fetch_add(data->size(), std::memory_order_relaxed);
  served.Add(static_cast<int64_t>(data->size()));
  // Copy outside the lock: the shared_ptr keeps the bytes alive even if
  // another thread evicts the node meanwhile.
  out->resize(data->size());
  if (!data->empty()) std::memcpy(out->data(), data->data(), data->size());
  return true;
}

void ChunkCache::Insert(const ChunkKey& key, const uint8_t* data,
                        size_t size) {
  if (static_cast<uint64_t>(size) > stripe_budget_) return;
  Stripe& stripe = StripeFor(key);
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.index.find(key);
    if (it != stripe.index.end()) {
      // Same key => same decoded bytes (the file generation id pins the
      // source bytes); only the recency changes.
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
      return;
    }
    auto bytes = std::make_shared<std::vector<uint8_t>>(data, data + size);
    stripe.lru.push_front(Node{key, std::move(bytes)});
    stripe.index[key] = stripe.lru.begin();
    stripe.bytes += size;
    while (stripe.bytes > stripe_budget_ && stripe.lru.size() > 1) {
      const Node& victim = stripe.lru.back();
      stripe.bytes -= victim.data->size();
      stripe.index.erase(victim.key);
      stripe.lru.pop_back();
      ++evicted;
    }
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted != 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    static auto& evictions =
        metrics::GetCounter("hepq_cache_chunk_evictions_total");
    evictions.Add(static_cast<int64_t>(evicted));
  }
}

CacheCounters ChunkCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.bytes_served = bytes_served_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(const_cast<Stripe&>(stripe).mu);
    c.bytes_held += stripe.bytes;
    c.entries += stripe.lru.size();
  }
  return c;
}

// ---------------------------------------------------------------- Result

ResultCache::ResultCache(size_t max_entries)
    : max_entries_(std::max<size_t>(1, max_entries)) {}

bool ResultCache::Get(const std::string& key, CachedResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  static auto& hits = metrics::GetCounter("hepq_cache_result_hits_total");
  static auto& misses = metrics::GetCounter("hepq_cache_result_misses_total");
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses.Add(1);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->value;
  hits_.fetch_add(1, std::memory_order_relaxed);
  hits.Add(1);
  return true;
}

void ResultCache::Insert(const std::string& key, CachedResult value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->value = std::move(value);
    return;
  }
  lru_.push_front(Node{key, std::move(value)});
  index_[key] = lru_.begin();
  inserts_.fetch_add(1, std::memory_order_relaxed);
  static auto& evictions =
      metrics::GetCounter("hepq_cache_result_evictions_total");
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions.Add(1);
  }
}

CacheCounters ResultCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  c.entries = lru_.size();
  return c;
}

// --------------------------------------------------------------- Version

namespace {

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
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError("cannot stat '" + path + "'");
  }
  if (S_ISDIR(st.st_mode)) {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
      return Status::IoError("cannot open directory '" + path + "'");
    }
    for (struct dirent* e = ::readdir(dir); e != nullptr;
         e = ::readdir(dir)) {
      const std::string name = e->d_name;
      if (name.size() > 4 && name.substr(name.size() - 4) == ".laq") {
        shards.push_back(name);
      }
    }
    ::closedir(dir);
    if (shards.empty()) {
      return Status::Invalid("no .laq files in '" + path + "'");
    }
    // Sorted by name: the canonical shard order every dataset consumer
    // uses, so the version is independent of readdir order.
    std::sort(shards.begin(), shards.end());
    for (std::string& shard : shards) shard = path + "/" + shard;
  } else {
    shards.push_back(path);
  }

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

}  // namespace hepq::cache
