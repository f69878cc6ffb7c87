#ifndef HEPQUERY_SCATTER_IPC_H_
#define HEPQUERY_SCATTER_IPC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/report.h"
#include "queries/adl.h"

namespace hepq::scatter {

// Wire protocol between scatter workers and the gather coordinator. A
// worker writes a stream of length-prefixed frames to its pipe:
//
//   magic(u32) version(u32) type(u32) payload_len(u64) payload crc32(u32)
//
// All integers little-endian; the CRC (fileio's IEEE polynomial) covers
// the payload bytes only. Doubles travel as raw IEEE-754 bits, so a
// decoded fragment reproduces the worker's accumulators exactly — the
// cross-process merge is bit-identical to an in-process one.
//
// A healthy worker emits one kFragment frame per shard file of its range,
// in shard order, then (when the coordinator asked for one) a kReport
// frame carrying its captured trace session, and exits; end of stream
// ends it. A worker that fails on shard k emits a kError frame naming k
// and exits; a crashed worker just stops mid-stream. The coordinator turns
// either into a deterministic error keyed by shard index (never by worker
// id), so the report is identical for any worker count. A lost or corrupt
// kReport frame is never fatal: every fragment precedes it, so the
// histograms still merge and only the merged RunReport is marked partial.
//
// kReport carries facts only the worker has — its session window, spans
// and counters. The coordinator builds the worker's
// RunReport itself (obs::MergeProcessReports) from those facts and the
// totals of the worker's fragments, which it already holds.
//
// Decoders append each element as it is read and never size a container
// from a count, so a forged count yields Corruption once the payload runs
// out rather than an allocation failure. A decoded capture's timestamps
// and durations are range-checked too (DecodeReportPayload), because the
// coordinator does int64 arithmetic on them.

inline constexpr uint32_t kFrameMagic = 0x48515346;  // "FSQH" on disk (LE)
/// v2: kReport frames; fragment ScanStats carry the cache-hierarchy
/// counters (footer/chunk hits+misses, cache_bytes_served, per-leaf
/// cache_bytes_served) so cross-process cache totals reconcile too.
/// v3: kReport carries the captured session instead of a built RunReport;
/// the end-of-stream kDone frame is gone.
/// v4: kReport drops its trailing metrics-registry section.
inline constexpr uint32_t kFrameVersion = 4;
/// Hard payload bound (1 GiB): a malformed length prefix must not make the
/// coordinator try to buffer arbitrary garbage.
inline constexpr uint64_t kMaxFramePayload = 1ull << 30;

enum class FrameType : uint32_t {
  kFragment = 1,
  kError = 3,
  kReport = 4,
};

struct Frame {
  FrameType type = FrameType::kFragment;
  std::vector<uint8_t> payload;
};

/// One shard's complete query result: the unit the gather merges. The
/// shard (= dataset file) index is global, assigned from the sorted shard
/// list every process resolves identically.
struct ShardFragment {
  int file_index = 0;
  queries::QueryRunOutput output;
};

/// Serializes one frame (header + payload + CRC).
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload);

/// Attempts to parse one frame from `data`. Returns true and fills
/// `frame`/`consumed` when a complete, well-formed frame is present;
/// false when more bytes are needed (nothing consumed). Malformed input
/// (bad magic, unsupported version, oversized length, CRC mismatch) is a
/// Corruption/Invalid error.
Result<bool> TryParseFrame(const uint8_t* data, size_t size, Frame* frame,
                           size_t* consumed);

/// Serializes a shard fragment (every QueryRunOutput accumulator,
/// histograms exploded via Histogram1D::ToParts, raw IEEE-754 doubles).
std::vector<uint8_t> EncodeFragmentPayload(const ShardFragment& fragment);
/// Inverse of EncodeFragmentPayload.
Result<ShardFragment> DecodeFragmentPayload(const std::vector<uint8_t>& payload);

/// kError payload: the failing global shard index and the error message.
std::vector<uint8_t> EncodeErrorPayload(int file_index,
                                        const std::string& message);
Status DecodeErrorPayload(const std::vector<uint8_t>& payload,
                          int* file_index, std::string* message);

/// 2^53 ns, 104 days of traced time: the bound on one decoded capture's
/// summed ns-valued fields. BuildRunReport sums subsets of them and
/// MergeProcessReports adds one capture per worker, so int64 cannot
/// overflow below 1024 workers.
inline constexpr int64_t kMaxCaptureNs = int64_t{1} << 53;

/// kReport payload: a worker's captured session —
///
///   session_start_ns(i64) session_stop_ns(i64)
///   name table: count(u32), then each name as a string
///   spans: count(u32), then each SpanRecord with its name as a table index
///   counters: count(u32), then each CounterRecord, name as a table index
///
/// Span and counter names share the payload-local table (one literal per
/// instrument site, so it stays tiny).
std::vector<uint8_t> EncodeReportPayload(const obs::SessionCapture& capture);
/// Inverse of EncodeReportPayload. Decoded span and counter names point
/// into the returned capture's name_pool. Corruption unless every
/// timestamp is non-negative, no span ends before it starts, and the
/// magnitudes of the capture's span durations, cpu and queue times and
/// counter times total less than kMaxCaptureNs.
Result<obs::SessionCapture> DecodeReportPayload(
    const std::vector<uint8_t>& payload);

}  // namespace hepq::scatter

#endif  // HEPQUERY_SCATTER_IPC_H_
