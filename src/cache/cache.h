#ifndef HEPQUERY_CACHE_CACHE_H_
#define HEPQUERY_CACHE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/histogram.h"
#include "core/status.h"
#include "fileio/format.h"

namespace hepq::cache {

// Process-wide cache hierarchy for the laq read path, the warm-path
// machinery behind the hepqd service model (ROADMAP item 1): three
// independent levels that all key on *content identity*, never on wall
// time, so a hit is bit-identical to the cold computation by
// construction.
//
//   1. FooterCache  — path + (size, mtime, footer CRC) -> validated
//      FileMetadata. Always on; saves footer parse + validation, zero
//      data bytes. A hit requires the recomputed footer CRC of the
//      current bytes to equal the cached one, so a cached open behaves
//      exactly like a cold open for every corruption class.
//   2. ChunkCache   — (file generation id, leaf, row group) -> fully
//      decoded clean chunk bytes. Striped LRU under a byte budget.
//      Insertion happens only for chunks that decoded completely and
//      cleanly (no page skips, no errors), which preserves the
//      deterministic first-error contract of the corruption hardening
//      pass verbatim: corrupt chunks are never cached, so they decode —
//      and fail — cold on every run.
//   3. ResultCache  — canonical query fingerprint + dataset version ->
//      exploded Histogram1D state (HistogramParts round-trips raw
//      IEEE-754 bits, so a result-cache hit is bit-identical).

/// Byte budget knobs for the decoded-chunk LRU. The footer and result
/// caches are metadata-sized and not budgeted.
struct CacheOptions {
  /// Upper bound on the sum of decoded chunk bytes held by a ChunkCache.
  /// Split evenly across the lock stripes; a single chunk larger than a
  /// stripe's share is never admitted.
  uint64_t decoded_budget_bytes = 256ull << 20;
};

/// Monotonic counter snapshot of one cache level (all levels share this
/// shape so tools can print them uniformly).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t bytes_served = 0;  ///< decoded bytes returned by hits
  uint64_t bytes_held = 0;    ///< current resident decoded bytes
  uint64_t entries = 0;       ///< current resident entries
};

/// What makes a file "the same file as before": the stat identity plus
/// the CRC of the actual footer bytes read this open. Two opens with
/// equal FileIdentity saw byte-identical footers over an equally sized
/// file, so parse + validation are guaranteed to produce the same
/// metadata (validation also depends on the caller's chunk-size limit,
/// which the cache checks separately).
struct FileIdentity {
  uint64_t size = 0;
  int64_t mtime_ns = 0;
  uint32_t footer_crc = 0;

  bool operator==(const FileIdentity& o) const {
    return size == o.size && mtime_ns == o.mtime_ns &&
           footer_crc == o.footer_crc;
  }
};

/// Always-on footer/metadata cache. One entry per path; a changed
/// identity replaces the entry and allocates a fresh file generation id,
/// which transitively invalidates every ChunkCache entry of the old
/// bytes (their keys become unreachable).
class FooterCache {
 public:
  struct Entry {
    FileIdentity identity;
    /// The max_chunk_decoded_bytes limit the metadata was validated
    /// under. A lookup with a smaller (stricter) limit must revalidate.
    uint64_t validated_chunk_limit = 0;
    /// Process-unique generation id of (path, identity); the ChunkCache
    /// key component that makes stale decoded chunks unreachable.
    uint64_t file_id = 0;
    std::shared_ptr<const FileMetadata> metadata;
  };

  /// The banked entry for `path` if its identity matches and it was
  /// validated under a limit no looser than `chunk_limit`; else null.
  std::shared_ptr<const Entry> Find(const std::string& path,
                                    const FileIdentity& identity,
                                    uint64_t chunk_limit);

  /// Banks validated metadata, assigning a fresh file generation id. If
  /// another thread banked the same identity first, returns that entry
  /// (first writer wins; both validated the same bytes).
  std::shared_ptr<const Entry> Insert(
      const std::string& path, const FileIdentity& identity,
      uint64_t validated_chunk_limit,
      std::shared_ptr<const FileMetadata> metadata);

  CacheCounters counters() const;

  /// The process-wide instance every LaqReader::Open consults.
  static FooterCache& Process();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> entries_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// Decoded-chunk LRU key. `file_id` is a FooterCache generation id, so
/// the key pins the exact bytes (path + size + mtime + footer CRC) the
/// chunk was decoded from; leaf + group address the chunk within them.
/// Page ranges and decode options need no key component because only
/// complete clean decodes are inserted — a full decode is the same bytes
/// under every option set (fail-filled partial reads are never cached).
struct ChunkKey {
  uint64_t file_id = 0;
  int32_t leaf = 0;
  int32_t group = 0;

  bool operator==(const ChunkKey& o) const {
    return file_id == o.file_id && leaf == o.leaf && group == o.group;
  }
};

/// Thread-safe decoded-chunk LRU, striped to keep workers off each
/// other's locks: key -> stripe by hash, each stripe an independent LRU
/// under budget/stripes bytes.
class ChunkCache {
 public:
  explicit ChunkCache(CacheOptions options = {});

  /// On hit, resizes `*out` to the chunk's decoded size and copies the
  /// bytes in (the copy runs outside the stripe lock). Counts a miss
  /// otherwise.
  bool Get(const ChunkKey& key, std::vector<uint8_t>* out);

  /// Admits a fully decoded clean chunk. Oversized chunks (larger than a
  /// stripe's budget share) are ignored; re-inserting a resident key
  /// refreshes its LRU position without copying (same key => same bytes).
  void Insert(const ChunkKey& key, const uint8_t* data, size_t size);

  uint64_t budget_bytes() const { return options_.decoded_budget_bytes; }
  CacheCounters counters() const;

 private:
  struct Node {
    ChunkKey key;
    std::shared_ptr<const std::vector<uint8_t>> data;
  };
  struct KeyHash {
    size_t operator()(const ChunkKey& k) const {
      uint64_t h = k.file_id * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<uint64_t>(static_cast<uint32_t>(k.leaf)) << 32) |
           static_cast<uint32_t>(k.group);
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };
  struct Stripe {
    std::mutex mu;
    std::list<Node> lru;  // front = most recently used
    std::unordered_map<ChunkKey, std::list<Node>::iterator, KeyHash> index;
    uint64_t bytes = 0;
  };

  static constexpr int kStripes = 16;

  Stripe& StripeFor(const ChunkKey& key) {
    return stripes_[KeyHash{}(key) % kStripes];
  }

  CacheOptions options_;
  uint64_t stripe_budget_ = 0;
  Stripe stripes_[kStripes];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_served_{0};
};

/// One cached query result: everything QueryRunOutput carries that is a
/// function of (query, dataset) alone. Histograms are stored exploded
/// (HistogramParts) and rebuilt on hit, which reproduces the source
/// histograms bit for bit. Timings and scan stats are deliberately not
/// cached — a hit reports its own (near-zero) costs.
struct CachedResult {
  std::vector<HistogramParts> histograms;
  int64_t events_processed = 0;
  uint64_t ops = 0;
};

/// Exact-string-keyed LRU of query results. Keys are full canonical
/// fingerprints (engine + plan text + dataset version), not hashes, so
/// a hit can never be a collision.
class ResultCache {
 public:
  explicit ResultCache(size_t max_entries = 256);

  bool Get(const std::string& key, CachedResult* out);
  void Insert(const std::string& key, CachedResult value);

  CacheCounters counters() const;

 private:
  struct Node {
    std::string key;
    CachedResult value;
  };

  size_t max_entries_;
  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Node>::iterator> index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace hepq::cache

#endif  // HEPQUERY_CACHE_CACHE_H_
