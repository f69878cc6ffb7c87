#include "scatter/ipc.h"

#include <cstring>
#include <memory>

#include "fileio/crc32.h"
#include "fileio/varint.h"

namespace hepq::scatter {

namespace {

Status GetStage(ByteReader* in, obs::Stage* stage) {
  uint32_t raw = 0;
  HEPQ_RETURN_NOT_OK(in->GetFixed32(&raw));
  if (raw >= static_cast<uint32_t>(obs::kNumStages)) {
    return Status::Corruption("scatter report names an unknown stage");
  }
  *stage = static_cast<obs::Stage>(raw);
  return Status::OK();
}

constexpr size_t kHeaderSize = 4 + 4 + 4 + 8;  // magic version type len

void PutScanStats(std::vector<uint8_t>* out, const ScanStats& scan) {
  PutFixed64(out, scan.storage_bytes);
  PutFixed64(out, scan.encoded_bytes);
  PutFixed64(out, scan.logical_bytes_bq);
  PutFixed64(out, scan.ideal_bytes);
  PutFixed64(out, scan.chunks_read);
  PutFixed64(out, scan.values_read);
  PutFixed64(out, scan.decoded_bytes);
  PutFixed64(out, scan.pages_read);
  PutFixed64(out, scan.pages_pruned);
  PutFixed64(out, scan.rows_pruned);
  PutFixed64(out, scan.rows_read);
  PutFixed64(out, scan.lanes_pruned);
  PutFixed64(out, scan.groups_pruned);
  PutFixed64(out, scan.footer_cache_hits);
  PutFixed64(out, scan.footer_cache_misses);
  PutFixed64(out, scan.chunk_cache_hits);
  PutFixed64(out, scan.chunk_cache_misses);
  PutFixed64(out, scan.cache_bytes_served);
  PutFixed32(out, static_cast<uint32_t>(scan.leaves.size()));
  for (const LeafScanStats& leaf : scan.leaves) {
    PutString(out, leaf.path);
    PutFixed64(out, leaf.storage_bytes);
    PutFixed64(out, leaf.decoded_bytes);
    PutFixed64(out, leaf.chunks_read);
    PutFixed64(out, leaf.pages_read);
    PutFixed64(out, leaf.pages_pruned);
    PutFixed64(out, leaf.cache_bytes_served);
  }
}

Status GetScanStats(ByteReader* in, ScanStats* scan) {
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->storage_bytes));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->encoded_bytes));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->logical_bytes_bq));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->ideal_bytes));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->chunks_read));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->values_read));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->decoded_bytes));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->pages_read));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->pages_pruned));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->rows_pruned));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->rows_read));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->lanes_pruned));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->groups_pruned));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->footer_cache_hits));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->footer_cache_misses));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->chunk_cache_hits));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->chunk_cache_misses));
  HEPQ_RETURN_NOT_OK(in->GetFixed64(&scan->cache_bytes_served));
  uint32_t num_leaves;
  HEPQ_RETURN_NOT_OK(in->GetFixed32(&num_leaves));
  for (uint32_t i = 0; i < num_leaves; ++i) {
    LeafScanStats& leaf = scan->leaves.emplace_back();
    HEPQ_RETURN_NOT_OK(in->GetString(&leaf.path));
    HEPQ_RETURN_NOT_OK(in->GetFixed64(&leaf.storage_bytes));
    HEPQ_RETURN_NOT_OK(in->GetFixed64(&leaf.decoded_bytes));
    HEPQ_RETURN_NOT_OK(in->GetFixed64(&leaf.chunks_read));
    HEPQ_RETURN_NOT_OK(in->GetFixed64(&leaf.pages_read));
    HEPQ_RETURN_NOT_OK(in->GetFixed64(&leaf.pages_pruned));
    HEPQ_RETURN_NOT_OK(in->GetFixed64(&leaf.cache_bytes_served));
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
  PutFixed32(&out, kFrameMagic);
  PutFixed32(&out, kFrameVersion);
  PutFixed32(&out, static_cast<uint32_t>(type));
  PutFixed64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  PutFixed32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

Result<bool> TryParseFrame(const uint8_t* data, size_t size, Frame* frame,
                           size_t* consumed) {
  *consumed = 0;
  if (size < kHeaderSize) return false;
  // The size check makes the header reads infallible.
  ByteReader header(data, kHeaderSize);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t type = 0;
  uint64_t payload_len = 0;
  HEPQ_RETURN_NOT_OK(header.GetFixed32(&magic));
  HEPQ_RETURN_NOT_OK(header.GetFixed32(&version));
  HEPQ_RETURN_NOT_OK(header.GetFixed32(&type));
  HEPQ_RETURN_NOT_OK(header.GetFixed64(&payload_len));
  if (magic != kFrameMagic) {
    return Status::Corruption("bad scatter frame magic");
  }
  if (version != kFrameVersion) {
    return Status::Invalid("scatter frame version " +
                           std::to_string(version) + ", expected " +
                           std::to_string(kFrameVersion));
  }
  if (type != static_cast<uint32_t>(FrameType::kFragment) &&
      type != static_cast<uint32_t>(FrameType::kError) &&
      type != static_cast<uint32_t>(FrameType::kReport)) {
    return Status::Corruption("unknown scatter frame type " +
                              std::to_string(type));
  }
  if (payload_len > kMaxFramePayload) {
    return Status::Corruption("scatter frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the 1 GiB bound");
  }
  const size_t total = kHeaderSize + static_cast<size_t>(payload_len) + 4;
  if (size < total) return false;
  const uint8_t* payload = data + kHeaderSize;
  ByteReader trailer(payload + payload_len, 4);
  uint32_t crc = 0;
  HEPQ_RETURN_NOT_OK(trailer.GetFixed32(&crc));
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
  PutFixed32(&out, static_cast<uint32_t>(fragment.file_index));
  const queries::QueryRunOutput& o = fragment.output;
  PutFixed64(&out, static_cast<uint64_t>(o.events_processed));
  PutDouble(&out, o.wall_seconds);
  PutDouble(&out, o.cpu_seconds);
  PutFixed64(&out, o.ops);
  PutScanStats(&out, o.scan);
  PutFixed32(&out, static_cast<uint32_t>(o.histograms.size()));
  for (const Histogram1D& h : o.histograms) {
    const HistogramParts parts = h.ToParts();
    PutString(&out, parts.spec.name);
    PutString(&out, parts.spec.title);
    PutFixed32(&out, static_cast<uint32_t>(parts.spec.num_bins));
    PutDouble(&out, parts.spec.lo);
    PutDouble(&out, parts.spec.hi);
    PutFixed32(&out, static_cast<uint32_t>(parts.bins.size()));
    for (double bin : parts.bins) PutDouble(&out, bin);
    PutDouble(&out, parts.underflow);
    PutDouble(&out, parts.overflow);
    PutFixed64(&out, parts.num_entries);
    PutDouble(&out, parts.sum_w);
    PutDouble(&out, parts.sum_wx);
    PutDouble(&out, parts.sum_wx2);
  }
  return out;
}

Result<ShardFragment> DecodeFragmentPayload(
    const std::vector<uint8_t>& payload) {
  ByteReader in(payload.data(), payload.size());
  ShardFragment fragment;
  uint32_t file_index;
  HEPQ_RETURN_NOT_OK(in.GetFixed32(&file_index));
  fragment.file_index = static_cast<int>(file_index);
  queries::QueryRunOutput& o = fragment.output;
  HEPQ_RETURN_NOT_OK(
      in.GetBytes(&o.events_processed, sizeof(o.events_processed)));
  HEPQ_RETURN_NOT_OK(in.GetDouble(&o.wall_seconds));
  HEPQ_RETURN_NOT_OK(in.GetDouble(&o.cpu_seconds));
  HEPQ_RETURN_NOT_OK(in.GetFixed64(&o.ops));
  HEPQ_RETURN_NOT_OK(GetScanStats(&in, &o.scan));
  uint32_t num_histos;
  HEPQ_RETURN_NOT_OK(in.GetFixed32(&num_histos));
  for (uint32_t h = 0; h < num_histos; ++h) {
    HistogramParts parts;
    HEPQ_RETURN_NOT_OK(in.GetString(&parts.spec.name));
    HEPQ_RETURN_NOT_OK(in.GetString(&parts.spec.title));
    uint32_t num_bins;
    HEPQ_RETURN_NOT_OK(in.GetFixed32(&num_bins));
    parts.spec.num_bins = static_cast<int>(num_bins);
    HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.spec.lo));
    HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.spec.hi));
    uint32_t bin_count;
    HEPQ_RETURN_NOT_OK(in.GetFixed32(&bin_count));
    if (bin_count != num_bins) {
      // FromParts would first size a histogram by the untrusted num_bins.
      return Status::Corruption(
          "scatter fragment histogram declares " + std::to_string(num_bins) +
          " bins but carries " + std::to_string(bin_count));
    }
    for (uint32_t b = 0; b < bin_count; ++b) {
      HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.bins.emplace_back()));
    }
    HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.underflow));
    HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.overflow));
    HEPQ_RETURN_NOT_OK(in.GetFixed64(&parts.num_entries));
    HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.sum_w));
    HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.sum_wx));
    HEPQ_RETURN_NOT_OK(in.GetDouble(&parts.sum_wx2));
    Histogram1D histo;
    HEPQ_ASSIGN_OR_RETURN(histo, Histogram1D::FromParts(parts));
    o.histograms.push_back(std::move(histo));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("scatter fragment payload has trailing bytes");
  }
  return fragment;
}

std::vector<uint8_t> EncodeErrorPayload(int file_index,
                                        const std::string& message) {
  std::vector<uint8_t> out;
  PutFixed32(&out, static_cast<uint32_t>(file_index));
  PutString(&out, message);
  return out;
}

Status DecodeErrorPayload(const std::vector<uint8_t>& payload,
                          int* file_index, std::string* message) {
  ByteReader in(payload.data(), payload.size());
  uint32_t index;
  HEPQ_RETURN_NOT_OK(in.GetFixed32(&index));
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
  PutFixed64(&out, static_cast<uint64_t>(capture.start_ns));
  PutFixed64(&out, static_cast<uint64_t>(capture.stop_ns));
  PutFixed32(&out, static_cast<uint32_t>(names.size()));
  for (const char* name : names) PutString(&out, name);
  PutFixed32(&out, static_cast<uint32_t>(capture.spans.size()));
  for (const obs::SpanRecord& span : capture.spans) {
    PutFixed32(&out, name_index(span.name));
    PutFixed32(&out, static_cast<uint32_t>(span.stage));
    PutFixed32(&out, span.depth);
    PutFixed32(&out, span.thread_index);
    PutFixed32(&out, span.seq);
    PutFixed64(&out, static_cast<uint64_t>(span.start_ns));
    PutFixed64(&out, static_cast<uint64_t>(span.end_ns));
    PutFixed64(&out, static_cast<uint64_t>(span.cpu_ns));
    PutFixed64(&out, static_cast<uint64_t>(span.queue_ns));
    PutFixed64(&out, span.bytes);
    PutFixed32(&out, static_cast<uint32_t>(span.worker));
    PutFixed32(&out, static_cast<uint32_t>(span.group));
    PutFixed32(&out, static_cast<uint32_t>(span.slot));
    PutFixed32(&out, static_cast<uint32_t>(span.leaf));
  }
  PutFixed32(&out, static_cast<uint32_t>(capture.counters.size()));
  for (const obs::CounterRecord& counter : capture.counters) {
    PutFixed32(&out, name_index(counter.name));
    PutFixed32(&out, static_cast<uint32_t>(counter.stage));
    PutFixed64(&out, static_cast<uint64_t>(counter.ns));
    PutFixed64(&out, counter.count);
    PutFixed64(&out, counter.bytes);
  }
  return out;
}

Result<obs::SessionCapture> DecodeReportPayload(
    const std::vector<uint8_t>& payload) {
  ByteReader in(payload.data(), payload.size());
  obs::SessionCapture capture;
  HEPQ_RETURN_NOT_OK(in.GetBytes(&capture.start_ns, sizeof(capture.start_ns)));
  HEPQ_RETURN_NOT_OK(in.GetBytes(&capture.stop_ns, sizeof(capture.stop_ns)));
  uint32_t num_names;
  HEPQ_RETURN_NOT_OK(in.GetFixed32(&num_names));
  std::vector<const char*> names;
  for (uint32_t i = 0; i < num_names; ++i) {
    auto name = std::make_unique<std::string>();
    HEPQ_RETURN_NOT_OK(in.GetString(name.get()));
    names.push_back(name->c_str());
    capture.name_pool.push_back(std::move(name));
  }
  auto get_name = [&](const char** name) {
    uint32_t index;
    HEPQ_RETURN_NOT_OK(in.GetFixed32(&index));
    if (index >= names.size()) {
      return Status::Corruption("scatter report names a bad name index");
    }
    *name = names[index];
    return Status::OK();
  };
  uint32_t num_spans;
  HEPQ_RETURN_NOT_OK(in.GetFixed32(&num_spans));
  for (uint32_t i = 0; i < num_spans; ++i) {
    obs::SpanRecord span;
    HEPQ_RETURN_NOT_OK(get_name(&span.name));
    HEPQ_RETURN_NOT_OK(GetStage(&in, &span.stage));
    uint32_t depth, thread_index;
    HEPQ_RETURN_NOT_OK(in.GetFixed32(&depth));
    span.depth = static_cast<uint8_t>(depth);
    HEPQ_RETURN_NOT_OK(in.GetFixed32(&thread_index));
    span.thread_index = static_cast<uint16_t>(thread_index);
    HEPQ_RETURN_NOT_OK(in.GetFixed32(&span.seq));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.start_ns, sizeof(span.start_ns)));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.end_ns, sizeof(span.end_ns)));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.cpu_ns, sizeof(span.cpu_ns)));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.queue_ns, sizeof(span.queue_ns)));
    HEPQ_RETURN_NOT_OK(in.GetFixed64(&span.bytes));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.worker, sizeof(span.worker)));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.group, sizeof(span.group)));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.slot, sizeof(span.slot)));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&span.leaf, sizeof(span.leaf)));
    capture.spans.push_back(span);
  }
  uint32_t num_counters;
  HEPQ_RETURN_NOT_OK(in.GetFixed32(&num_counters));
  for (uint32_t i = 0; i < num_counters; ++i) {
    obs::CounterRecord counter;
    HEPQ_RETURN_NOT_OK(get_name(&counter.name));
    HEPQ_RETURN_NOT_OK(GetStage(&in, &counter.stage));
    HEPQ_RETURN_NOT_OK(in.GetBytes(&counter.ns, sizeof(counter.ns)));
    HEPQ_RETURN_NOT_OK(in.GetFixed64(&counter.count));
    HEPQ_RETURN_NOT_OK(in.GetFixed64(&counter.bytes));
    capture.counters.push_back(counter);
  }
  if (!in.AtEnd()) {
    return Status::Corruption("scatter report payload has trailing bytes");
  }
  HEPQ_RETURN_NOT_OK(CheckCaptureRanges(capture));
  return capture;
}

}  // namespace hepq::scatter
