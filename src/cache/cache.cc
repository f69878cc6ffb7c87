#include "cache/cache.h"

#include <algorithm>
#include <cstring>

namespace hepq::cache {

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
  if (entry != nullptr && entry->identity == identity &&
      entry->validated_chunk_limit <= chunk_limit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return entry;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
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
  if (slot != nullptr) evictions_.fetch_add(1, std::memory_order_relaxed);
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
  if (data == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_served_.fetch_add(data->size(), std::memory_order_relaxed);
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
  if (evicted != 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
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
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->value;
  hits_.fetch_add(1, std::memory_order_relaxed);
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
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
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

}  // namespace hepq::cache
