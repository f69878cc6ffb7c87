#include "scatter/ipc.h"

#include <cstring>
#include <memory>

#include "fileio/crc32.h"

namespace hepq::scatter {

namespace {

// ---- little-endian wire primitives -------------------------------------

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Bounds-checked cursor over a payload; every getter fails with
/// Corruption once the payload runs short.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU32(uint32_t* v) {
    HEPQ_RETURN_NOT_OK(Need(4));
    *v = ReadU32(data_ + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status GetU64(uint64_t* v) {
    HEPQ_RETURN_NOT_OK(Need(8));
    *v = ReadU64(data_ + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status GetI64(int64_t* v) {
    uint64_t u;
    HEPQ_RETURN_NOT_OK(GetU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status GetF64(double* v) {
    uint64_t bits;
    HEPQ_RETURN_NOT_OK(GetU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status GetString(std::string* s) {
    uint32_t len;
    HEPQ_RETURN_NOT_OK(GetU32(&len));
    HEPQ_RETURN_NOT_OK(Need(len));
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  Status Need(size_t n) {
    if (size_ - pos_ < n) {
      return Status::Corruption("truncated scatter frame payload");
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status GetI32(WireReader* in, int32_t* v) {
  uint32_t u;
  HEPQ_RETURN_NOT_OK(in->GetU32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status GetStage(WireReader* in, obs::Stage* stage) {
  uint32_t raw;
  HEPQ_RETURN_NOT_OK(in->GetU32(&raw));
  if (raw >= static_cast<uint32_t>(obs::kNumStages)) {
    return Status::Corruption("scatter report names an unknown stage");
  }
  *stage = static_cast<obs::Stage>(raw);
  return Status::OK();
}

constexpr size_t kHeaderSize = 4 + 4 + 4 + 8;  // magic version type len

void PutScanStats(std::vector<uint8_t>* out, const ScanStats& scan) {
  PutU64(out, scan.storage_bytes);
  PutU64(out, scan.encoded_bytes);
  PutU64(out, scan.logical_bytes_bq);
  PutU64(out, scan.ideal_bytes);
  PutU64(out, scan.chunks_read);
  PutU64(out, scan.values_read);
  PutU64(out, scan.decoded_bytes);
  PutU64(out, scan.pages_read);
  PutU64(out, scan.pages_pruned);
  PutU64(out, scan.rows_pruned);
  PutU64(out, scan.rows_read);
  PutU64(out, scan.lanes_pruned);
  PutU64(out, scan.groups_pruned);
  PutU64(out, scan.footer_cache_hits);
  PutU64(out, scan.footer_cache_misses);
  PutU64(out, scan.chunk_cache_hits);
  PutU64(out, scan.chunk_cache_misses);
  PutU64(out, scan.cache_bytes_served);
  PutU32(out, static_cast<uint32_t>(scan.leaves.size()));
  for (const LeafScanStats& leaf : scan.leaves) {
    PutString(out, leaf.path);
    PutU64(out, leaf.storage_bytes);
    PutU64(out, leaf.decoded_bytes);
    PutU64(out, leaf.chunks_read);
    PutU64(out, leaf.pages_read);
    PutU64(out, leaf.pages_pruned);
    PutU64(out, leaf.cache_bytes_served);
  }
}

Status GetScanStats(WireReader* in, ScanStats* scan) {
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->storage_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->encoded_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->logical_bytes_bq));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->ideal_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->chunks_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->values_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->decoded_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->pages_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->pages_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->rows_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->rows_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->lanes_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->groups_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->footer_cache_hits));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->footer_cache_misses));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->chunk_cache_hits));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->chunk_cache_misses));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->cache_bytes_served));
  uint32_t num_leaves;
  HEPQ_RETURN_NOT_OK(in->GetU32(&num_leaves));
  for (uint32_t i = 0; i < num_leaves; ++i) {
    LeafScanStats& leaf = scan->leaves.emplace_back();
    HEPQ_RETURN_NOT_OK(in->GetString(&leaf.path));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.storage_bytes));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.decoded_bytes));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.chunks_read));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.pages_read));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.pages_pruned));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.cache_bytes_served));
  }
  return Status::OK();
}

/// The range checks DecodeReportPayload documents: timestamps are
/// non-negative (so any difference of two fits in int64), and the
/// magnitudes of the capture's ns-valued amounts add up to less than
/// kMaxCaptureNs.
Status CheckCaptureRanges(const obs::SessionCapture& capture) {
  int64_t total = 0;
  auto add = [&](int64_t v) {
    if (v <= -kMaxCaptureNs || v >= kMaxCaptureNs) return false;
    total += v < 0 ? -v : v;
    return total < kMaxCaptureNs;
  };
  bool ok = capture.start_ns >= 0 && capture.stop_ns >= 0;
  for (const obs::SpanRecord& span : capture.spans) {
    ok = ok && span.start_ns >= 0 && span.end_ns >= span.start_ns &&
         add(span.duration_ns()) && add(span.cpu_ns) && add(span.queue_ns);
  }
  for (const obs::CounterRecord& counter : capture.counters) {
    ok = ok && add(counter.ns);
  }
  if (!ok) {
    return Status::Corruption(
        "scatter report carries a negative timestamp, a span ending before "
        "it starts, or durations beyond the capture bound");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + 4);
  PutU32(&out, kFrameMagic);
  PutU32(&out, kFrameVersion);
  PutU32(&out, static_cast<uint32_t>(type));
  PutU64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

Result<bool> TryParseFrame(const uint8_t* data, size_t size, Frame* frame,
                           size_t* consumed) {
  *consumed = 0;
  if (size < kHeaderSize) return false;
  const uint32_t magic = ReadU32(data);
  if (magic != kFrameMagic) {
    return Status::Corruption("bad scatter frame magic");
  }
  const uint32_t version = ReadU32(data + 4);
  if (version != kFrameVersion) {
    return Status::Invalid("scatter frame version " +
                           std::to_string(version) + ", expected " +
                           std::to_string(kFrameVersion));
  }
  const uint32_t type = ReadU32(data + 8);
  if (type != static_cast<uint32_t>(FrameType::kFragment) &&
      type != static_cast<uint32_t>(FrameType::kError) &&
      type != static_cast<uint32_t>(FrameType::kReport)) {
    return Status::Corruption("unknown scatter frame type " +
                              std::to_string(type));
  }
  const uint64_t payload_len = ReadU64(data + 12);
  if (payload_len > kMaxFramePayload) {
    return Status::Corruption("scatter frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the 1 GiB bound");
  }
  const size_t total = kHeaderSize + static_cast<size_t>(payload_len) + 4;
  if (size < total) return false;
  const uint8_t* payload = data + kHeaderSize;
  const uint32_t crc = ReadU32(payload + payload_len);
  if (crc != Crc32(payload, static_cast<size_t>(payload_len))) {
    return Status::Corruption("scatter frame CRC mismatch");
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(payload, payload + payload_len);
  *consumed = total;
  return true;
}

std::vector<uint8_t> EncodeFragmentPayload(const ShardFragment& fragment) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(fragment.file_index));
  const queries::QueryRunOutput& o = fragment.output;
  PutI64(&out, o.events_processed);
  PutF64(&out, o.wall_seconds);
  PutF64(&out, o.cpu_seconds);
  PutU64(&out, o.ops);
  PutScanStats(&out, o.scan);
  PutU32(&out, static_cast<uint32_t>(o.histograms.size()));
  for (const Histogram1D& h : o.histograms) {
    const HistogramParts parts = h.ToParts();
    PutString(&out, parts.spec.name);
    PutString(&out, parts.spec.title);
    PutU32(&out, static_cast<uint32_t>(parts.spec.num_bins));
    PutF64(&out, parts.spec.lo);
    PutF64(&out, parts.spec.hi);
    PutU32(&out, static_cast<uint32_t>(parts.bins.size()));
    for (double bin : parts.bins) PutF64(&out, bin);
    PutF64(&out, parts.underflow);
    PutF64(&out, parts.overflow);
    PutU64(&out, parts.num_entries);
    PutF64(&out, parts.sum_w);
    PutF64(&out, parts.sum_wx);
    PutF64(&out, parts.sum_wx2);
  }
  return out;
}

Result<ShardFragment> DecodeFragmentPayload(
    const std::vector<uint8_t>& payload) {
  WireReader in(payload.data(), payload.size());
  ShardFragment fragment;
  uint32_t file_index;
  HEPQ_RETURN_NOT_OK(in.GetU32(&file_index));
  fragment.file_index = static_cast<int>(file_index);
  queries::QueryRunOutput& o = fragment.output;
  HEPQ_RETURN_NOT_OK(in.GetI64(&o.events_processed));
  HEPQ_RETURN_NOT_OK(in.GetF64(&o.wall_seconds));
  HEPQ_RETURN_NOT_OK(in.GetF64(&o.cpu_seconds));
  HEPQ_RETURN_NOT_OK(in.GetU64(&o.ops));
  HEPQ_RETURN_NOT_OK(GetScanStats(&in, &o.scan));
  uint32_t num_histos;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_histos));
  for (uint32_t h = 0; h < num_histos; ++h) {
    HistogramParts parts;
    HEPQ_RETURN_NOT_OK(in.GetString(&parts.spec.name));
    HEPQ_RETURN_NOT_OK(in.GetString(&parts.spec.title));
    uint32_t num_bins;
    HEPQ_RETURN_NOT_OK(in.GetU32(&num_bins));
    parts.spec.num_bins = static_cast<int>(num_bins);
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.spec.lo));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.spec.hi));
    uint32_t bin_count;
    HEPQ_RETURN_NOT_OK(in.GetU32(&bin_count));
    if (bin_count != num_bins) {
      // FromParts would first size a histogram by the untrusted num_bins.
      return Status::Corruption(
          "scatter fragment histogram declares " + std::to_string(num_bins) +
          " bins but carries " + std::to_string(bin_count));
    }
    for (uint32_t b = 0; b < bin_count; ++b) {
      HEPQ_RETURN_NOT_OK(in.GetF64(&parts.bins.emplace_back()));
    }
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.underflow));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.overflow));
    HEPQ_RETURN_NOT_OK(in.GetU64(&parts.num_entries));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.sum_w));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.sum_wx));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.sum_wx2));
    Histogram1D histo;
    HEPQ_ASSIGN_OR_RETURN(histo, Histogram1D::FromParts(parts));
    o.histograms.push_back(std::move(histo));
  }
  if (!in.exhausted()) {
    return Status::Corruption("scatter fragment payload has trailing bytes");
  }
  return fragment;
}

std::vector<uint8_t> EncodeErrorPayload(int file_index,
                                        const std::string& message) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(file_index));
  PutString(&out, message);
  return out;
}

Status DecodeErrorPayload(const std::vector<uint8_t>& payload,
                          int* file_index, std::string* message) {
  WireReader in(payload.data(), payload.size());
  uint32_t index;
  HEPQ_RETURN_NOT_OK(in.GetU32(&index));
  *file_index = static_cast<int>(index);
  return in.GetString(message);
}

std::vector<uint8_t> EncodeReportPayload(const obs::SessionCapture& capture) {
  std::vector<const char*> names;
  auto name_index = [&names](const char* name) {
    uint32_t index = 0;
    while (index < names.size() && std::strcmp(names[index], name) != 0) {
      ++index;
    }
    if (index == names.size()) names.push_back(name);
    return index;
  };
  for (const obs::SpanRecord& span : capture.spans) name_index(span.name);
  for (const obs::CounterRecord& counter : capture.counters) {
    name_index(counter.name);
  }

  std::vector<uint8_t> out;
  PutI64(&out, capture.start_ns);
  PutI64(&out, capture.stop_ns);
  PutU32(&out, static_cast<uint32_t>(names.size()));
  for (const char* name : names) PutString(&out, name);
  PutU32(&out, static_cast<uint32_t>(capture.spans.size()));
  for (const obs::SpanRecord& span : capture.spans) {
    PutU32(&out, name_index(span.name));
    PutU32(&out, static_cast<uint32_t>(span.stage));
    PutU32(&out, span.depth);
    PutU32(&out, span.thread_index);
    PutU32(&out, span.seq);
    PutI64(&out, span.start_ns);
    PutI64(&out, span.end_ns);
    PutI64(&out, span.cpu_ns);
    PutI64(&out, span.queue_ns);
    PutU64(&out, span.bytes);
    PutU32(&out, static_cast<uint32_t>(span.worker));
    PutU32(&out, static_cast<uint32_t>(span.group));
    PutU32(&out, static_cast<uint32_t>(span.slot));
    PutU32(&out, static_cast<uint32_t>(span.leaf));
  }
  PutU32(&out, static_cast<uint32_t>(capture.counters.size()));
  for (const obs::CounterRecord& counter : capture.counters) {
    PutU32(&out, name_index(counter.name));
    PutU32(&out, static_cast<uint32_t>(counter.stage));
    PutI64(&out, counter.ns);
    PutU64(&out, counter.count);
    PutU64(&out, counter.bytes);
  }
  return out;
}

Result<obs::SessionCapture> DecodeReportPayload(
    const std::vector<uint8_t>& payload) {
  WireReader in(payload.data(), payload.size());
  obs::SessionCapture capture;
  HEPQ_RETURN_NOT_OK(in.GetI64(&capture.start_ns));
  HEPQ_RETURN_NOT_OK(in.GetI64(&capture.stop_ns));
  uint32_t num_names;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_names));
  std::vector<const char*> names;
  for (uint32_t i = 0; i < num_names; ++i) {
    auto name = std::make_unique<std::string>();
    HEPQ_RETURN_NOT_OK(in.GetString(name.get()));
    names.push_back(name->c_str());
    capture.name_pool.push_back(std::move(name));
  }
  auto get_name = [&](const char** name) {
    uint32_t index;
    HEPQ_RETURN_NOT_OK(in.GetU32(&index));
    if (index >= names.size()) {
      return Status::Corruption("scatter report names a bad name index");
    }
    *name = names[index];
    return Status::OK();
  };
  uint32_t num_spans;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_spans));
  for (uint32_t i = 0; i < num_spans; ++i) {
    obs::SpanRecord span;
    HEPQ_RETURN_NOT_OK(get_name(&span.name));
    HEPQ_RETURN_NOT_OK(GetStage(&in, &span.stage));
    uint32_t depth, thread_index;
    HEPQ_RETURN_NOT_OK(in.GetU32(&depth));
    span.depth = static_cast<uint8_t>(depth);
    HEPQ_RETURN_NOT_OK(in.GetU32(&thread_index));
    span.thread_index = static_cast<uint16_t>(thread_index);
    HEPQ_RETURN_NOT_OK(in.GetU32(&span.seq));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.start_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.end_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.cpu_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.queue_ns));
    HEPQ_RETURN_NOT_OK(in.GetU64(&span.bytes));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.worker));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.group));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.slot));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.leaf));
    capture.spans.push_back(span);
  }
  uint32_t num_counters;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_counters));
  for (uint32_t i = 0; i < num_counters; ++i) {
    obs::CounterRecord counter;
    HEPQ_RETURN_NOT_OK(get_name(&counter.name));
    HEPQ_RETURN_NOT_OK(GetStage(&in, &counter.stage));
    HEPQ_RETURN_NOT_OK(in.GetI64(&counter.ns));
    HEPQ_RETURN_NOT_OK(in.GetU64(&counter.count));
    HEPQ_RETURN_NOT_OK(in.GetU64(&counter.bytes));
    capture.counters.push_back(counter);
  }
  if (!in.exhausted()) {
    return Status::Corruption("scatter report payload has trailing bytes");
  }
  HEPQ_RETURN_NOT_OK(CheckCaptureRanges(capture));
  return capture;
}

}  // namespace hepq::scatter
