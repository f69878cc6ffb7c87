#include "fileio/reader.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>

#include "cache/cache.h"
#include "fileio/crc32.h"
#include "fileio/varint.h"
#include "obs/trace.h"

namespace hepq {

namespace {

Result<ArrayPtr> BuildPrimitiveArray(TypeId type,
                                     const std::vector<uint8_t>& bytes,
                                     size_t count) {
  // `bytes` holds the decoded chunk; a corrupt file can make the caller's
  // expected count (derived from row counts or list lengths) exceed what
  // the chunk actually decoded to, so the copies below must never trust
  // `count` alone.
  const int width = PrimitiveWidth(type);
  if (width <= 0) return Status::Invalid("not a primitive leaf type");
  if (count > bytes.size() / static_cast<size_t>(width)) {
    return Status::Corruption("leaf chunk holds fewer values than expected");
  }
  switch (type) {
    case TypeId::kFloat32: {
      std::vector<float> v(count);
      if (count != 0) std::memcpy(v.data(), bytes.data(), count * sizeof(float));
      return ArrayPtr(std::make_shared<Float32Array>(DataType::Float32(),
                                                     std::move(v)));
    }
    case TypeId::kFloat64: {
      std::vector<double> v(count);
      if (count != 0) std::memcpy(v.data(), bytes.data(), count * sizeof(double));
      return ArrayPtr(std::make_shared<Float64Array>(DataType::Float64(),
                                                     std::move(v)));
    }
    case TypeId::kInt32: {
      std::vector<int32_t> v(count);
      if (count != 0) std::memcpy(v.data(), bytes.data(), count * sizeof(int32_t));
      return ArrayPtr(
          std::make_shared<Int32Array>(DataType::Int32(), std::move(v)));
    }
    case TypeId::kInt64: {
      std::vector<int64_t> v(count);
      if (count != 0) std::memcpy(v.data(), bytes.data(), count * sizeof(int64_t));
      return ArrayPtr(
          std::make_shared<Int64Array>(DataType::Int64(), std::move(v)));
    }
    case TypeId::kBool: {
      std::vector<uint8_t> v(count);
      if (count != 0) std::memcpy(v.data(), bytes.data(), count);
      return ArrayPtr(
          std::make_shared<BoolArray>(DataType::Bool(), std::move(v)));
    }
    default:
      return Status::Invalid("not a primitive leaf type");
  }
}

/// Folds a row group's decoded per-row list lengths into offsets. Lengths
/// are data, not metadata: the footer CRC and the Open()-time validation
/// pass cannot vouch for them, and a crafted or bit-flipped chunk (or one
/// read with validate_checksums off) can decode to negative or absurd
/// values. Each length is range-checked before it becomes an array offset;
/// the summed item count is returned for cross-checking against the values
/// leaf.
Status FoldLengthsToOffsets(const std::vector<uint8_t>& values, int64_t rows,
                            std::vector<uint32_t>* offsets,
                            size_t* num_items) {
  if (values.size() / sizeof(int32_t) < static_cast<size_t>(rows)) {
    return Status::Corruption("lengths chunk shorter than row count");
  }
  offsets->assign(static_cast<size_t>(rows) + 1, 0);
  const auto* lengths = reinterpret_cast<const int32_t*>(values.data());
  uint64_t total = 0;
  for (int64_t i = 0; i < rows; ++i) {
    const int32_t length = lengths[i];
    if (length < 0) {
      return Status::Corruption("negative list length in lengths chunk");
    }
    total += static_cast<uint64_t>(length);
    if (total > UINT32_MAX) {
      return Status::Corruption("list lengths overflow 32-bit offsets");
    }
    (*offsets)[static_cast<size_t>(i) + 1] = static_cast<uint32_t>(total);
  }
  *num_items = static_cast<size_t>(total);
  return Status::OK();
}

/// Writes `n` lanes of `value` (converted to the leaf's physical type) —
/// the fail-fill for a zone-map-skipped page. The fill is the page's
/// recorded minimum, which lies outside the predicate's range, so the
/// query's own gate rejects these lanes exactly as it would the true
/// values. Integer casts clamp so an extreme double can never overflow
/// into UB; clamping keeps the value on the same (failing) side of the
/// range boundary.
void FillLanes(TypeId type, double value, size_t n, uint8_t* out) {
  switch (type) {
    case TypeId::kFloat32:
      std::fill_n(reinterpret_cast<float*>(out), n,
                  static_cast<float>(value));
      break;
    case TypeId::kFloat64:
      std::fill_n(reinterpret_cast<double*>(out), n, value);
      break;
    case TypeId::kInt32: {
      const double c = std::clamp(value, -2147483648.0, 2147483647.0);
      std::fill_n(reinterpret_cast<int32_t*>(out), n,
                  static_cast<int32_t>(c));
      break;
    }
    case TypeId::kInt64: {
      int64_t v;
      if (value >= 9223372036854775808.0) {
        v = std::numeric_limits<int64_t>::max();
      } else if (value <= -9223372036854775808.0) {
        v = std::numeric_limits<int64_t>::min();
      } else {
        v = static_cast<int64_t>(value);
      }
      std::fill_n(reinterpret_cast<int64_t*>(out), n, v);
      break;
    }
    case TypeId::kBool:
      std::fill_n(out, n, static_cast<uint8_t>(value != 0.0 ? 1 : 0));
      break;
    default:
      break;  // non-primitive leaves cannot occur (layout is validated)
  }
}

/// Clears `alive[r]` for every row whose value falls outside the
/// predicate's range (NaN counts as outside, matching how a comparison
/// gate evaluates it).
template <typename T>
void MarkDeadTyped(const T* values, size_t rows,
                   const BoundScanPredicate& pred, uint8_t* alive) {
  for (size_t r = 0; r < rows; ++r) {
    const double d = static_cast<double>(values[r]);
    if (!(d >= pred.min_value && d <= pred.max_value)) alive[r] = 0;
  }
}

void MarkDead(TypeId type, const std::vector<uint8_t>& values, size_t rows,
              const BoundScanPredicate& pred, uint8_t* alive) {
  switch (type) {
    case TypeId::kFloat32:
      MarkDeadTyped(reinterpret_cast<const float*>(values.data()), rows,
                    pred, alive);
      break;
    case TypeId::kFloat64:
      MarkDeadTyped(reinterpret_cast<const double*>(values.data()), rows,
                    pred, alive);
      break;
    case TypeId::kInt32:
      MarkDeadTyped(reinterpret_cast<const int32_t*>(values.data()), rows,
                    pred, alive);
      break;
    case TypeId::kInt64:
      MarkDeadTyped(reinterpret_cast<const int64_t*>(values.data()), rows,
                    pred, alive);
      break;
    case TypeId::kBool:
      MarkDeadTyped(values.data(), rows, pred, alive);
      break;
    default:
      break;
  }
}

}  // namespace

struct LaqReader::FilterState {
  /// Per-row predicates (at most one per leaf: ranges intersect).
  std::vector<BoundScanPredicate> per_row;
  /// Leaf values decoded by the late-materialization pre-pass, consumed
  /// (moved out) when the projection loop reaches the leaf.
  std::map<int, std::vector<uint8_t>> cache;
};

LaqReader::~LaqReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<LaqReader>> LaqReader::Open(const std::string& path,
                                                   ReaderOptions options) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  // RAII guard until ownership is transferred to the reader.
  auto guard = std::unique_ptr<std::FILE, int (*)(std::FILE*)>(file,
                                                               &std::fclose);
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IoError("seek failed");
  }
  const long file_size = std::ftell(file);
  if (file_size < 0) return Status::IoError("cannot determine file size");
  if (file_size < 16) return Status::Corruption("file too small to be laq");

  uint8_t magic[4];
  if (std::fseek(file, 0, SEEK_SET) != 0 ||
      std::fread(magic, 1, 4, file) != 4) {
    return Status::IoError("cannot read file header");
  }
  if (std::memcmp(magic, kLaqMagic, 4) != 0) {
    return Status::Corruption("bad leading magic (not a laq file?)");
  }

  uint8_t trailer[12];
  if (std::fseek(file, file_size - 12, SEEK_SET) != 0 ||
      std::fread(trailer, 1, 12, file) != 12) {
    return Status::IoError("cannot read trailer");
  }
  if (std::memcmp(trailer + 8, kLaqMagic, 4) != 0) {
    return Status::Corruption("bad trailing magic (not a laq file?)");
  }
  uint32_t footer_size = 0, footer_crc = 0;
  std::memcpy(&footer_size, trailer, 4);
  std::memcpy(&footer_crc, trailer + 4, 4);
  if (static_cast<long>(footer_size) + 16 > file_size) {
    return Status::Corruption("footer size exceeds file size");
  }
  std::vector<uint8_t> footer(footer_size);
  if (std::fseek(file, file_size - 12 - static_cast<long>(footer_size),
                 SEEK_SET) != 0 ||
      std::fread(footer.data(), 1, footer_size, file) != footer_size) {
    return Status::IoError("cannot read footer");
  }
  if (Crc32(footer.data(), footer.size()) != footer_crc) {
    return Status::Corruption("footer checksum mismatch");
  }

  // Footer/metadata cache: everything above — magics, trailer, footer
  // read, CRC recompute over the *current* bytes — ran unconditionally,
  // so any corruption a cold open would report has already been reported.
  // What a hit skips is only the parse + validation of footer bytes
  // proven byte-identical (same recomputed CRC over the same size) to a
  // previously validated open, which is deterministic: same bytes, same
  // outcome.
  cache::FileIdentity identity;
  identity.size = static_cast<uint64_t>(file_size);
  struct stat st;
  if (::fstat(fileno(file), &st) == 0) {
    identity.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                        st.st_mtim.tv_nsec;
  }
  identity.footer_crc = footer_crc;

  std::shared_ptr<const FileMetadata> metadata;
  uint64_t file_id = 0;
  bool footer_hit = false;
  if (options.footer_cache) {
    obs::ScopedSpan span("footer_cache", obs::Stage::kCacheLookup);
    if (auto entry = cache::FooterCache::Process().Find(
            path, identity, options.max_chunk_decoded_bytes)) {
      metadata = entry->metadata;
      file_id = entry->file_id;
      footer_hit = true;
    }
  }
  if (metadata == nullptr) {
    auto parsed = std::make_shared<FileMetadata>();
    HEPQ_RETURN_NOT_OK(ParseFileMetadata(footer.data(), footer.size(),
                                         parsed.get()));
    // A CRC-valid footer can still describe an impossible file (crafted
    // input, or a correct footer over truncated data). Validate every
    // metadata-derived integer once, here, so the read path below never
    // has to re-check offsets, sizes, or counts against the file.
    const uint64_t data_end = static_cast<uint64_t>(file_size) - 12 -
                              static_cast<uint64_t>(footer_size);
    HEPQ_RETURN_NOT_OK(ValidateFileMetadata(*parsed, /*data_begin=*/4,
                                            data_end,
                                            options.max_chunk_decoded_bytes));
    metadata = std::move(parsed);
    if (options.footer_cache) {
      file_id = cache::FooterCache::Process()
                    .Insert(path, identity, options.max_chunk_decoded_bytes,
                            metadata)
                    ->file_id;
    }
  }
  guard.release();
  auto reader = std::unique_ptr<LaqReader>(
      new LaqReader(file, std::move(metadata), std::move(options), file_id));
  if (reader->options_.footer_cache) {
    reader->stats_.footer_cache_hits = footer_hit ? 1 : 0;
    reader->stats_.footer_cache_misses = footer_hit ? 0 : 1;
  }
  // One per-leaf stats slot per layout leaf, sized here once so the
  // decode path updates them by index with zero allocations.
  reader->stats_.leaves.resize(reader->meta().layout.size());
  for (size_t i = 0; i < reader->meta().layout.size(); ++i) {
    reader->stats_.leaves[i].path = reader->meta().layout[i].path;
  }
  return reader;
}

void LaqReader::BillLeaf(const ChunkMeta& chunk, const LeafDesc& leaf) {
  if (leaf.is_lengths) {
    // Offsets are physically read but not billed by BigQuery's
    // logical-column accounting; they do count toward the ideal bytes a
    // C++ Parquet reader must fetch.
    stats_.ideal_bytes += chunk.num_values * 4;
  } else {
    stats_.logical_bytes_bq += chunk.num_values * 8;
    stats_.ideal_bytes +=
        chunk.num_values *
        static_cast<uint64_t>(PrimitiveWidth(leaf.physical));
  }
}

Status LaqReader::ReadLeaf(int group, int leaf_index, bool billed,
                           ScratchBuffers* scratch,
                           const BoundScanPredicate* pred) {
  const RowGroupMeta& rg = meta().row_groups[static_cast<size_t>(group)];
  const ChunkMeta& chunk = rg.chunks[static_cast<size_t>(leaf_index)];
  const LeafDesc& leaf = meta().layout[static_cast<size_t>(leaf_index)];
  const size_t width = static_cast<size_t>(PrimitiveWidth(leaf.physical));

  // The decode span's byte payload is the delta of the decoded-bytes
  // counter across this call, so the sum of decode-span bytes in a trace
  // bit-matches ScanStats::decoded_bytes by construction.
  obs::ScopedSpan span("decode_leaf", obs::Stage::kDecode);
  if (span.active()) {
    span.set_group(group);
    span.set_leaf(leaf_index);
  }
  LeafScanStats& leaf_stats = stats_.leaves[static_cast<size_t>(leaf_index)];
  const uint64_t decoded_before = stats_.decoded_bytes;
  const uint64_t pages_before = stats_.pages_read;
  const uint64_t pruned_before = stats_.pages_pruned;

  // Decoded-chunk cache. The key's file generation id pins the exact
  // bytes (path + size + mtime + footer CRC) the cached decode came
  // from, so a hit is the same buffer a full cold decode would produce —
  // including under a predicate: serving the complete chunk where a cold
  // read would fail-fill skipped pages is the bit-identity-safe direction
  // (the true values of a zone-disjoint page fail the gating predicate
  // too, by the zone-map invariant). Only fully decoded clean chunks are
  // inserted below, so corrupt chunks always decode — and fail — cold.
  cache::ChunkCache* chunk_cache =
      file_id_ != 0 ? options_.chunk_cache.get() : nullptr;
  const cache::ChunkKey cache_key{file_id_, leaf_index, group};
  if (chunk_cache != nullptr) {
    obs::ScopedSpan lookup("chunk_cache", obs::Stage::kCacheLookup);
    if (chunk_cache->Get(cache_key, &scratch->values)) {
      const uint64_t served = scratch->values.size();
      if (lookup.active()) lookup.set_bytes(served);
      stats_.values_read += chunk.num_values;
      stats_.chunk_cache_hits += 1;
      stats_.cache_bytes_served += served;
      leaf_stats.cache_bytes_served += served;
      if (billed) BillLeaf(chunk, leaf);
      return Status::OK();
    }
    stats_.chunk_cache_misses += 1;
  }

  // Every buffer is resized, never recreated: past its high-water mark the
  // scratch pool makes this whole path allocation-free.
  std::vector<uint8_t>& compressed = scratch->compressed;
  compressed.resize(chunk.compressed_size);
  if (std::fseek(file_, static_cast<long>(chunk.file_offset), SEEK_SET) != 0) {
    return Status::IoError("seek to chunk failed");
  }
  if (!compressed.empty() &&
      std::fread(compressed.data(), 1, compressed.size(), file_) !=
          compressed.size()) {
    return Status::IoError("short read of chunk " + leaf.path);
  }

  // Which pages can zone-map skipping rule out? Lengths leaves are never
  // skipped: their exact values become array offsets and cross-checks.
  size_t dead_pages = 0;
  if (pred != nullptr && options_.scan_pushdown && !leaf.is_lengths) {
    obs::ScopedSpan prune_span("page_zone_scan", obs::Stage::kPagePrune);
    if (prune_span.active()) {
      prune_span.set_group(group);
      prune_span.set_leaf(leaf_index);
    }
    for (const PageMeta& page : chunk.pages) {
      if (page.has_stats &&
          ZoneDisjoint(page.min_value, page.max_value, *pred)) {
        ++dead_pages;
      }
    }
  }

  const size_t count = static_cast<size_t>(chunk.num_values);
  scratch->values.resize(count * width);

  if (dead_pages == 0) {
    // Full read: the chunk-level checksum covers the concatenated page
    // bytes, so one pass verifies everything exactly as in v1.
    if (options_.validate_checksums &&
        Crc32(compressed.data(), compressed.size()) != chunk.crc32) {
      return Status::Corruption("checksum mismatch in chunk " + leaf.path);
    }
    if (chunk.pages.empty()) {
      HEPQ_RETURN_NOT_OK(Decompress(chunk.codec, compressed.data(),
                                    compressed.size(), chunk.encoded_size,
                                    &scratch->encoded));
      HEPQ_RETURN_NOT_OK(DecodeValues(leaf.physical, chunk.encoding,
                                      scratch->encoded.data(),
                                      scratch->encoded.size(), count,
                                      scratch->values.data()));
    } else {
      // Encodings restart per page (delta chains do not cross pages), so
      // paged chunks always decode page by page.
      size_t byte_offset = 0, value_offset = 0;
      for (const PageMeta& page : chunk.pages) {
        HEPQ_RETURN_NOT_OK(Decompress(chunk.codec,
                                      compressed.data() + byte_offset,
                                      page.compressed_size,
                                      page.encoded_size, &scratch->encoded));
        HEPQ_RETURN_NOT_OK(DecodeValues(
            leaf.physical, chunk.encoding, scratch->encoded.data(),
            scratch->encoded.size(), static_cast<size_t>(page.num_values),
            scratch->values.data() + value_offset * width));
        byte_offset += page.compressed_size;
        value_offset += static_cast<size_t>(page.num_values);
      }
      stats_.pages_read += chunk.pages.size();
    }
    stats_.encoded_bytes += chunk.encoded_size;
    stats_.decoded_bytes += count * width;
  } else {
    // Partial read: live pages verify their own checksums; dead pages skip
    // checksum + decompress + decode entirely and fail-fill their lanes.
    size_t byte_offset = 0, value_offset = 0;
    for (const PageMeta& page : chunk.pages) {
      const size_t n = static_cast<size_t>(page.num_values);
      if (page.has_stats &&
          ZoneDisjoint(page.min_value, page.max_value, *pred)) {
        FillLanes(leaf.physical, page.min_value, n,
                  scratch->values.data() + value_offset * width);
        stats_.pages_pruned += 1;
        stats_.lanes_pruned += page.num_values;
      } else {
        if (options_.validate_checksums &&
            Crc32(compressed.data() + byte_offset, page.compressed_size) !=
                page.crc32) {
          return Status::Corruption("checksum mismatch in page of chunk " +
                                    leaf.path);
        }
        HEPQ_RETURN_NOT_OK(Decompress(chunk.codec,
                                      compressed.data() + byte_offset,
                                      page.compressed_size,
                                      page.encoded_size, &scratch->encoded));
        HEPQ_RETURN_NOT_OK(DecodeValues(
            leaf.physical, chunk.encoding, scratch->encoded.data(),
            scratch->encoded.size(), n,
            scratch->values.data() + value_offset * width));
        stats_.pages_read += 1;
        stats_.encoded_bytes += page.encoded_size;
        stats_.decoded_bytes += n * width;
      }
      byte_offset += page.compressed_size;
      value_offset += n;
    }
  }

  stats_.storage_bytes += chunk.compressed_size;
  stats_.chunks_read += 1;
  stats_.values_read += chunk.num_values;
  leaf_stats.storage_bytes += chunk.compressed_size;
  leaf_stats.chunks_read += 1;
  leaf_stats.decoded_bytes += stats_.decoded_bytes - decoded_before;
  leaf_stats.pages_read += stats_.pages_read - pages_before;
  leaf_stats.pages_pruned += stats_.pages_pruned - pruned_before;
  if (span.active()) span.set_bytes(stats_.decoded_bytes - decoded_before);
  if (billed) BillLeaf(chunk, leaf);
  // Admit only complete clean decodes: a partial (fail-filled) buffer is
  // option-dependent, and an errored decode never reaches this line —
  // both properties the corruption-determinism argument relies on.
  if (chunk_cache != nullptr && dead_pages == 0) {
    chunk_cache->Insert(cache_key, scratch->values.data(),
                        scratch->values.size());
  }
  return Status::OK();
}

Status LaqReader::ReadProjectedLeaf(int group, int leaf_index, bool billed,
                                    ScratchBuffers* scratch,
                                    FilterState* filter) {
  if (filter != nullptr) {
    const auto it = filter->cache.find(leaf_index);
    if (it != filter->cache.end()) {
      // Pre-decoded by the late-materialization pass (unbilled there);
      // only the requested-column accounting remains to be added.
      scratch->values = std::move(it->second);
      filter->cache.erase(it);
      if (billed) {
        BillLeaf(meta().row_groups[static_cast<size_t>(group)]
                     .chunks[static_cast<size_t>(leaf_index)],
                 meta().layout[static_cast<size_t>(leaf_index)]);
      }
      return Status::OK();
    }
    for (const BoundScanPredicate& p : filter->per_row) {
      if (p.leaf_index == leaf_index) {
        return ReadLeaf(group, leaf_index, billed, scratch, &p);
      }
    }
  }
  return ReadLeaf(group, leaf_index, billed, scratch);
}

Status LaqReader::ReadLeafValues(int group_index, const std::string& leaf_path,
                                 ScratchBuffers* scratch) {
  if (group_index < 0 || group_index >= num_row_groups()) {
    return Status::OutOfRange("row group index out of range");
  }
  const int leaf = meta().LeafIndex(leaf_path);
  if (leaf < 0) {
    return Status::KeyError("no leaf column '" + leaf_path + "'");
  }
  return ReadLeaf(group_index, leaf, /*billed=*/true, scratch);
}

Status LaqReader::ResolveProjection(
    const std::vector<std::string>& projection,
    std::vector<ResolvedColumn>* out) const {
  const Schema& schema = meta().schema;
  std::map<int, ResolvedColumn> by_field;
  for (const std::string& entry : projection) {
    const size_t dot = entry.find('.');
    const std::string column_name =
        dot == std::string::npos ? entry : entry.substr(0, dot);
    const int field_index = schema.FieldIndex(column_name);
    if (field_index < 0) {
      return Status::KeyError("projection references unknown column '" +
                              column_name + "'");
    }
    ResolvedColumn& rc =
        by_field.emplace(field_index, ResolvedColumn{field_index, {}, false})
            .first->second;
    if (dot == std::string::npos) {
      rc.whole_column = true;
      continue;
    }
    const std::string member_name = entry.substr(dot + 1);
    const DataType& type = *schema.field(field_index).type;
    const DataType* struct_type = nullptr;
    if (type.id() == TypeId::kStruct) {
      struct_type = &type;
    } else if (type.id() == TypeId::kList &&
               type.item_type()->id() == TypeId::kStruct) {
      struct_type = type.item_type().get();
    } else {
      return Status::Invalid("column '" + column_name +
                             "' has no member '" + member_name + "'");
    }
    const int member = struct_type->FieldIndex(member_name);
    if (member < 0) {
      return Status::KeyError("no member '" + member_name + "' in column '" +
                              column_name + "'");
    }
    if (std::find(rc.member_indices.begin(), rc.member_indices.end(),
                  member) == rc.member_indices.end()) {
      rc.member_indices.push_back(member);
    }
  }
  out->clear();
  for (auto& [field_index, rc] : by_field) {
    std::sort(rc.member_indices.begin(), rc.member_indices.end());
    out->push_back(std::move(rc));
  }
  return Status::OK();
}

Result<RecordBatchPtr> LaqReader::ReadRowGroup(
    int group_index, const std::vector<std::string>& projection) {
  ScratchBuffers transient;
  return ReadRowGroup(group_index, projection, &transient);
}

Result<RecordBatchPtr> LaqReader::ReadRowGroup(
    int group_index, const std::vector<std::string>& projection,
    ScratchBuffers* scratch) {
  ScratchBuffers transient;
  if (scratch == nullptr) scratch = &transient;
  if (group_index < 0 || group_index >= num_row_groups()) {
    return Status::OutOfRange("row group index out of range");
  }
  return ReadRowGroupImpl(group_index, projection, scratch, nullptr);
}

Result<RecordBatchPtr> LaqReader::ReadRowGroupImpl(
    int group_index, const std::vector<std::string>& projection,
    ScratchBuffers* scratch, FilterState* filter) {
  std::vector<ResolvedColumn> resolved;
  HEPQ_RETURN_NOT_OK(ResolveProjection(projection, &resolved));
  if (resolved.empty()) {
    return Status::Invalid("empty projection");
  }
  const Schema& schema = meta().schema;
  const int64_t rows =
      meta().row_groups[static_cast<size_t>(group_index)].num_rows;
  // Every group reaches here at most once per scan (pruned groups return
  // before this point), so rows_pruned + rows_read == total rows.
  stats_.rows_read += static_cast<uint64_t>(rows);

  std::vector<Field> out_fields;
  std::vector<ArrayPtr> out_columns;

  for (const ResolvedColumn& rc : resolved) {
    const Field& field = schema.field(rc.field_index);
    const DataType& type = *field.type;

    // Determine which struct members to materialize and which the storage
    // layer is forced to read anyway.
    const DataType* struct_type = nullptr;
    if (type.id() == TypeId::kStruct) {
      struct_type = &type;
    } else if (type.id() == TypeId::kList &&
               type.item_type()->id() == TypeId::kStruct) {
      struct_type = type.item_type().get();
    }

    std::vector<int> selected = rc.member_indices;
    if (rc.whole_column && struct_type != nullptr) {
      selected.clear();
      for (int m = 0; m < struct_type->num_fields(); ++m) {
        selected.push_back(m);
      }
    }

    if (struct_type == nullptr) {
      // Primitive or list-of-primitive column: read its value leaf (and
      // lengths leaf for lists).
      if (type.is_primitive()) {
        const int leaf = meta().LeafIndex(field.name);
        HEPQ_RETURN_NOT_OK(ReadProjectedLeaf(group_index, leaf,
                                             /*billed=*/true, scratch,
                                             filter));
        ArrayPtr array;
        HEPQ_ASSIGN_OR_RETURN(
            array, BuildPrimitiveArray(type.id(), scratch->values,
                                       static_cast<size_t>(rows)));
        out_fields.push_back(field);
        out_columns.push_back(std::move(array));
      } else {
        const int lengths_leaf = meta().LeafIndex(field.name + "#lengths");
        const int values_leaf = meta().LeafIndex(field.name + ".item");
        // Lengths are read first and immediately folded into offsets, so
        // the values read below may reuse the same scratch buffer.
        HEPQ_RETURN_NOT_OK(ReadProjectedLeaf(group_index, lengths_leaf,
                                             /*billed=*/true, scratch,
                                             filter));
        std::vector<uint32_t> offsets;
        size_t num_items = 0;
        HEPQ_RETURN_NOT_OK(
            FoldLengthsToOffsets(scratch->values, rows, &offsets, &num_items));
        const ChunkMeta& values_chunk =
            meta().row_groups[static_cast<size_t>(group_index)]
                .chunks[static_cast<size_t>(values_leaf)];
        if (num_items != static_cast<size_t>(values_chunk.num_values)) {
          return Status::Corruption("list lengths of '" + field.name +
                                    "' do not sum to the values leaf count");
        }
        HEPQ_RETURN_NOT_OK(ReadProjectedLeaf(group_index, values_leaf,
                                             /*billed=*/true, scratch,
                                             filter));
        ArrayPtr child;
        HEPQ_ASSIGN_OR_RETURN(
            child, BuildPrimitiveArray(type.item_type()->id(), scratch->values,
                                       num_items));
        std::shared_ptr<ListArray> list;
        HEPQ_ASSIGN_OR_RETURN(list,
                              ListArray::Make(std::move(offsets), child));
        out_fields.push_back(field);
        out_columns.push_back(std::move(list));
      }
      continue;
    }

    // Struct-bearing column. Without struct projection pushdown the storage
    // layer reads every member leaf; only the selected ones are returned.
    std::vector<int> to_read = selected;
    if (!options_.struct_projection_pushdown) {
      to_read.clear();
      for (int m = 0; m < struct_type->num_fields(); ++m) {
        to_read.push_back(m);
      }
    }

    // Lengths/offsets for list columns.
    std::vector<uint32_t> offsets;
    size_t num_items = static_cast<size_t>(rows);
    if (type.id() == TypeId::kList) {
      const int lengths_leaf = meta().LeafIndex(field.name + "#lengths");
      HEPQ_RETURN_NOT_OK(ReadProjectedLeaf(group_index, lengths_leaf,
                                           /*billed=*/true, scratch,
                                           filter));
      HEPQ_RETURN_NOT_OK(
          FoldLengthsToOffsets(scratch->values, rows, &offsets, &num_items));
      // All member leaves of one list column carry the same value count
      // (enforced at Open); the decoded lengths must agree with it.
      if (!to_read.empty()) {
        const int first_leaf = meta().LeafIndex(
            field.name + "." +
            struct_type->fields()[static_cast<size_t>(to_read.front())].name);
        if (first_leaf >= 0) {
          const ChunkMeta& member_chunk =
              meta().row_groups[static_cast<size_t>(group_index)]
                  .chunks[static_cast<size_t>(first_leaf)];
          if (num_items != static_cast<size_t>(member_chunk.num_values)) {
            return Status::Corruption(
                "list lengths of '" + field.name +
                "' do not sum to the member leaf count");
          }
        }
      }
    }

    std::vector<Field> member_fields;
    std::vector<ArrayPtr> member_arrays;
    for (int m : to_read) {
      const Field& member = struct_type->fields()[static_cast<size_t>(m)];
      const int leaf = meta().LeafIndex(field.name + "." + member.name);
      if (leaf < 0) {
        return Status::Corruption("missing leaf for " + field.name + "." +
                                  member.name);
      }
      const bool wanted =
          std::find(selected.begin(), selected.end(), m) != selected.end();
      HEPQ_RETURN_NOT_OK(ReadProjectedLeaf(group_index, leaf,
                                           /*billed=*/wanted, scratch,
                                           filter));
      if (!wanted) continue;  // physically read, logically discarded
      ArrayPtr array;
      HEPQ_ASSIGN_OR_RETURN(
          array, BuildPrimitiveArray(member.type->id(), scratch->values,
                                     num_items));
      member_fields.push_back(member);
      member_arrays.push_back(std::move(array));
    }
    std::shared_ptr<StructArray> struct_array;
    HEPQ_ASSIGN_OR_RETURN(struct_array,
                          StructArray::Make(std::move(member_fields),
                                            std::move(member_arrays)));
    if (type.id() == TypeId::kList) {
      std::shared_ptr<ListArray> list;
      HEPQ_ASSIGN_OR_RETURN(
          list, ListArray::Make(std::move(offsets), struct_array));
      out_fields.push_back(Field{field.name, list->type()});
      out_columns.push_back(std::move(list));
    } else {
      out_fields.push_back(Field{field.name, struct_array->type()});
      out_columns.push_back(std::move(struct_array));
    }
  }

  auto out_schema = std::make_shared<Schema>(std::move(out_fields));
  std::shared_ptr<RecordBatch> batch;
  HEPQ_ASSIGN_OR_RETURN(batch,
                        RecordBatch::Make(out_schema, std::move(out_columns)));
  return RecordBatchPtr(batch);
}

Result<RecordBatchPtr> LaqReader::ReadRowGroup(int group_index) {
  std::vector<std::string> all;
  for (const Field& f : meta().schema.fields()) all.push_back(f.name);
  return ReadRowGroup(group_index, all);
}

Result<RecordBatchPtr> LaqReader::ReadRowGroupFiltered(
    int group_index, const std::vector<std::string>& projection,
    const ScanPredicateSet& predicates, ScratchBuffers* scratch) {
  if (!options_.scan_pushdown || predicates.empty()) {
    return ReadRowGroup(group_index, projection, scratch);
  }
  ScratchBuffers transient;
  if (scratch == nullptr) scratch = &transient;
  if (group_index < 0 || group_index >= num_row_groups()) {
    return Status::OutOfRange("row group index out of range");
  }
  const RowGroupMeta& rg =
      meta().row_groups[static_cast<size_t>(group_index)];
  const std::vector<BoundScanPredicate> bound =
      BindScanPredicates(predicates, meta());

  // Level 1: row-group pruning on the chunk zone maps. Any one violated
  // necessary condition rules out every row of the group; nothing is read.
  {
    obs::ScopedSpan zone_span("group_zone_check", obs::Stage::kPagePrune);
    if (zone_span.active()) zone_span.set_group(group_index);
    for (const BoundScanPredicate& b : bound) {
      const ChunkMeta& chunk = rg.chunks[static_cast<size_t>(b.leaf_index)];
      if (chunk.has_stats &&
          ZoneDisjoint(chunk.min_value, chunk.max_value, b)) {
        stats_.groups_pruned += 1;
        stats_.rows_pruned += static_cast<uint64_t>(rg.num_rows);
        return RecordBatchPtr();
      }
    }
    // Union min-counts: a row's combined list size is bounded above by
    // the sum of the per-leaf zone maxima, so if even that bound misses
    // the threshold, no row in the group can pass.
    for (const BoundSumPredicate& s :
         BindSumPredicates(predicates, meta())) {
      double max_total = 0.0;
      bool all_stats = true;
      for (const int leaf : s.leaf_indices) {
        const ChunkMeta& chunk = rg.chunks[static_cast<size_t>(leaf)];
        if (!chunk.has_stats) {
          all_stats = false;
          break;
        }
        max_total += chunk.max_value;
      }
      if (all_stats && max_total < static_cast<double>(s.min_total)) {
        stats_.groups_pruned += 1;
        stats_.rows_pruned += static_cast<uint64_t>(rg.num_rows);
        return RecordBatchPtr();
      }
    }
  }

  FilterState filter;
  for (const BoundScanPredicate& b : bound) {
    if (b.per_row) filter.per_row.push_back(b);
  }

  // Level 3 (late materialization): decode the predicate-bearing leaves
  // first — with level-2 page skipping applied — and evaluate the per-row
  // conjunction over them. A group with no surviving row is dead before
  // any other projected column is touched. Fail-filled lanes of skipped
  // pages fall outside their own predicate's range, so they can never
  // resurrect a row here.
  if (options_.late_materialization && !filter.per_row.empty()) {
    obs::ScopedSpan latemat_span("late_materialization",
                                 obs::Stage::kLateMat);
    if (latemat_span.active()) latemat_span.set_group(group_index);
    const size_t rows = static_cast<size_t>(rg.num_rows);
    std::vector<uint8_t> alive(rows, 1);
    for (const BoundScanPredicate& p : filter.per_row) {
      HEPQ_RETURN_NOT_OK(ReadLeaf(group_index, p.leaf_index,
                                  /*billed=*/false, scratch, &p));
      // Per-row leaves hold exactly num_rows values (validated at Open).
      MarkDead(meta().layout[static_cast<size_t>(p.leaf_index)].physical,
               scratch->values, rows, p, alive.data());
      filter.cache[p.leaf_index] = std::move(scratch->values);
    }
    if (std::find(alive.begin(), alive.end(), uint8_t{1}) == alive.end()) {
      stats_.groups_pruned += 1;
      stats_.rows_pruned += static_cast<uint64_t>(rg.num_rows);
      return RecordBatchPtr();
    }
  }

  return ReadRowGroupImpl(group_index, projection, scratch, &filter);
}

Result<std::vector<int>> LaqReader::SelectRowGroups(
    const std::string& leaf_path, double min_value,
    double max_value) const {
  const int leaf = meta().LeafIndex(leaf_path);
  if (leaf < 0) {
    return Status::KeyError("no leaf column '" + leaf_path + "'");
  }
  if (min_value > max_value) {
    return Status::Invalid("empty statistics range");
  }
  std::vector<int> groups;
  for (int g = 0; g < num_row_groups(); ++g) {
    const ChunkMeta& chunk =
        meta().row_groups[static_cast<size_t>(g)]
            .chunks[static_cast<size_t>(leaf)];
    if (!chunk.has_stats || (chunk.min_value <= max_value &&
                             chunk.max_value >= min_value)) {
      groups.push_back(g);
    }
  }
  return groups;
}

Result<uint64_t> LaqReader::IdealBytesForProjection(
    const std::vector<std::string>& projection) const {
  std::vector<ResolvedColumn> resolved;
  HEPQ_RETURN_NOT_OK(ResolveProjection(projection, &resolved));
  uint64_t total = 0;
  for (const RowGroupMeta& rg : meta().row_groups) {
    for (const ResolvedColumn& rc : resolved) {
      const Field& field = meta().schema.field(rc.field_index);
      const DataType& type = *field.type;
      auto leaf_bytes = [&](const std::string& path) -> uint64_t {
        const int leaf = meta().LeafIndex(path);
        if (leaf < 0) return 0;
        const ChunkMeta& c = rg.chunks[static_cast<size_t>(leaf)];
        const LeafDesc& d = meta().layout[static_cast<size_t>(leaf)];
        return c.num_values * static_cast<uint64_t>(PrimitiveWidth(d.physical));
      };
      if (type.is_primitive()) {
        total += leaf_bytes(field.name);
        continue;
      }
      const DataType* struct_type = nullptr;
      if (type.id() == TypeId::kStruct) {
        struct_type = &type;
      } else {
        total += leaf_bytes(field.name + "#lengths");
        if (type.item_type()->is_primitive()) {
          total += leaf_bytes(field.name + ".item");
          continue;
        }
        struct_type = type.item_type().get();
      }
      std::vector<int> selected = rc.member_indices;
      if (rc.whole_column) {
        selected.clear();
        for (int m = 0; m < struct_type->num_fields(); ++m) {
          selected.push_back(m);
        }
      }
      for (int m : selected) {
        total += leaf_bytes(field.name + "." +
                            struct_type->fields()[static_cast<size_t>(m)].name);
      }
    }
  }
  return total;
}

}  // namespace hepq
