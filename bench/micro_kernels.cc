// Micro-benchmarks (google-benchmark) for the building blocks whose costs
// explain the end-to-end differences between the engines, plus the
// ablations called out in DESIGN.md: compression codec choice, struct
// projection pushdown, and interpreted vs compiled per-event execution.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include <chrono>

#include "bench/bench_util.h"
#include "columnar/builder.h"
#include "core/fourvector.h"
#include "core/histogram.h"
#include "core/physics.h"
#include "core/rng.h"
#include "datagen/dataset.h"
#include "doc/convert.h"
#include "engine/event_query.h"
#include "engine/vexpr.h"
#include "engine/vexpr_fuse.h"
#include "exec/exec.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "fileio/compression.h"
#include "fileio/crc32.h"
#include "fileio/encoding.h"
#include "fileio/reader.h"
#include "fileio/writer.h"

// ---------------------------------------------------------------------------
// Allocation-counting hook: every global operator new bumps a counter, so
// benchmarks can report heap allocations per unit of work. The pooled
// decode path (BM_DecodeRowGroupScratch below) must show zero per row
// group in steady state.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// The replacement pair below intentionally backs operator new with malloc
// and operator delete with free; GCC cannot see that they match once it
// inlines them into callers and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hepq {
namespace {

/// Worker count for the parallel-runtime benchmark; set by --threads=N
/// (stripped from argv in main, google-benchmark rejects unknown flags).
int g_bench_threads = 1;

std::vector<uint8_t> MakeCompressibleBuffer(size_t n) {
  Rng rng(11);
  std::vector<uint8_t> data(n);
  size_t i = 0;
  while (i < n) {
    const uint8_t v = static_cast<uint8_t>(rng.NextBelow(16));
    const size_t run = 1 + rng.NextBelow(24);
    for (size_t k = 0; k < run && i < n; ++k) data[i++] = v;
  }
  return data;
}

void BM_Crc32(benchmark::State& state) {
  const auto data = MakeCompressibleBuffer(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32);

void BM_LzCompress(benchmark::State& state) {
  const auto data = MakeCompressibleBuffer(1 << 20);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    Compress(Codec::kLz, data.data(), data.size(), &out).Check();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.counters["ratio"] =
      static_cast<double>(data.size()) / static_cast<double>(out.size());
}
BENCHMARK(BM_LzCompress);

void BM_LzDecompress(benchmark::State& state) {
  const auto data = MakeCompressibleBuffer(1 << 20);
  std::vector<uint8_t> compressed, out;
  Compress(Codec::kLz, data.data(), data.size(), &compressed).Check();
  for (auto _ : state) {
    Decompress(Codec::kLz, compressed.data(), compressed.size(),
               data.size(), &out)
        .Check();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzDecompress);

void BM_RleEncodeInt32(benchmark::State& state) {
  Rng rng(13);
  std::vector<int32_t> values(1 << 18);
  for (size_t i = 0; i < values.size();) {
    const int32_t v = static_cast<int32_t>(rng.NextBelow(5));
    const size_t run = 1 + rng.NextBelow(50);
    for (size_t k = 0; k < run && i < values.size(); ++k) values[i++] = v;
  }
  std::vector<uint8_t> out;
  for (auto _ : state) {
    EncodeValues(TypeId::kInt32, Encoding::kRleVarint, values.data(),
                 values.size(), &out)
        .Check();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size() * 4));
}
BENCHMARK(BM_RleEncodeInt32);

/// Decode side of RLE: long runs hit the std::fill_n fast path (one wide
/// fill per run instead of a per-element store loop).
void BM_RleDecodeInt32(benchmark::State& state) {
  Rng rng(13);
  std::vector<int32_t> values(1 << 18);
  for (size_t i = 0; i < values.size();) {
    const int32_t v = static_cast<int32_t>(rng.NextBelow(5));
    const size_t run = 1 + rng.NextBelow(50);
    for (size_t k = 0; k < run && i < values.size(); ++k) values[i++] = v;
  }
  std::vector<uint8_t> encoded;
  EncodeValues(TypeId::kInt32, Encoding::kRleVarint, values.data(),
               values.size(), &encoded)
      .Check();
  std::vector<int32_t> out(values.size());
  for (auto _ : state) {
    DecodeValues(TypeId::kInt32, Encoding::kRleVarint, encoded.data(),
                 encoded.size(), values.size(), out.data())
        .Check();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size() * 4));
}
BENCHMARK(BM_RleDecodeInt32);

/// Decode side of delta-varint on near-monotonic event ids — the case the
/// writer picks delta for. Exercises the hoisted-bounds-check fast path
/// (per-byte truncation checks only in the final 10 bytes of the buffer).
void BM_DeltaDecodeInt64(benchmark::State& state) {
  Rng rng(23);
  std::vector<int64_t> values(1 << 18);
  int64_t next = 0;
  for (auto& v : values) {
    next += 1 + static_cast<int64_t>(rng.NextBelow(3));
    v = next;
  }
  std::vector<uint8_t> encoded;
  EncodeValues(TypeId::kInt64, Encoding::kDeltaVarint, values.data(),
               values.size(), &encoded)
      .Check();
  std::vector<int64_t> out(values.size());
  for (auto _ : state) {
    DecodeValues(TypeId::kInt64, Encoding::kDeltaVarint, encoded.data(),
                 encoded.size(), values.size(), out.data())
        .Check();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size() * 8));
}
BENCHMARK(BM_DeltaDecodeInt64);

void BM_HistogramFill(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> values(1 << 16);
  for (auto& v : values) v = rng.Uniform(-10.0, 210.0);
  for (auto _ : state) {
    Histogram1D h({"h", "", 100, 0, 200});
    for (double v : values) h.Fill(v);
    benchmark::DoNotOptimize(h.sum_weights());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_HistogramFill);

void BM_InvariantMass3(benchmark::State& state) {
  Rng rng(19);
  std::vector<PtEtaPhiM> particles(512);
  for (auto& p : particles) {
    p = {rng.Uniform(15, 100), rng.Gaussian(0, 1.5), rng.Uniform(-3, 3),
         rng.Uniform(0, 10)};
  }
  for (auto _ : state) {
    double sum = 0;
    for (size_t i = 0; i + 2 < particles.size(); i += 3) {
      sum += InvariantMass3(particles[i], particles[i + 1],
                            particles[i + 2]);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(particles.size() / 3));
}
BENCHMARK(BM_InvariantMass3);

// ---------------------------------------------------------------------------
// End-to-end kernel ablations on a shared small data set.
// ---------------------------------------------------------------------------

const std::string& AblationDataset(Codec codec) {
  static auto& lz_path = *new std::string;
  static auto& none_path = *new std::string;
  std::string& path = codec == Codec::kLz ? lz_path : none_path;
  if (path.empty()) {
    DatasetSpec spec;
    spec.num_events = 8000;
    spec.row_group_size = 4000;
    spec.codec = codec;
    path = EnsureDataset(DefaultDataDir(), spec).ValueOrDie();
  }
  return path;
}

/// Ablation: scan cost with struct projection pushdown on vs off (the
/// Athena/Presto limitation of Figure 4b).
void BM_ScanMetPt(benchmark::State& state) {
  ReaderOptions options;
  options.struct_projection_pushdown = state.range(0) != 0;
  const std::string& path = AblationDataset(Codec::kLz);
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto reader = LaqReader::Open(path, options).ValueOrDie();
    for (int g = 0; g < reader->num_row_groups(); ++g) {
      auto batch = reader->ReadRowGroup(g, {"MET.pt"});
      batch.status().Check();
      benchmark::DoNotOptimize((*batch)->num_rows());
    }
    bytes = reader->scan_stats().storage_bytes;
  }
  state.counters["storage_bytes"] = static_cast<double>(bytes);
  state.SetLabel(options.struct_projection_pushdown ? "pushdown"
                                                    : "no-pushdown");
}
BENCHMARK(BM_ScanMetPt)->Arg(1)->Arg(0);

/// Ablation: codec choice for full-width scans.
void BM_ScanFullWidth(benchmark::State& state) {
  const Codec codec = state.range(0) != 0 ? Codec::kLz : Codec::kNone;
  const std::string& path = AblationDataset(codec);
  for (auto _ : state) {
    auto reader = LaqReader::Open(path).ValueOrDie();
    for (int g = 0; g < reader->num_row_groups(); ++g) {
      auto batch = reader->ReadRowGroup(g);
      batch.status().Check();
      benchmark::DoNotOptimize((*batch)->num_rows());
    }
  }
  state.SetLabel(codec == Codec::kLz ? "lz" : "uncompressed");
}
BENCHMARK(BM_ScanFullWidth)->Arg(1)->Arg(0);

/// The zero-allocation decode path: read + checksum + decompress + decode
/// every leaf of every row group through one set of scratch buffers,
/// without materializing arrays. Arg 1 keeps the buffers warm between
/// iterations (the pooled path used by the engines); arg 0 releases their
/// capacity before every iteration (the pre-pool behaviour, one
/// allocation high-water per buffer). The allocs_per_group counter is the
/// acceptance check: it must be 0 for the pooled variant.
void BM_DecodeRowGroupScratch(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  auto reader = LaqReader::Open(AblationDataset(Codec::kLz)).ValueOrDie();
  std::vector<std::string> leaves;
  for (const LeafDesc& leaf : reader->metadata().layout) {
    leaves.push_back(leaf.path);
  }
  const int groups = reader->num_row_groups();
  ScratchBuffers scratch;
  for (int g = 0; g < groups; ++g) {  // warm-up to high-water capacity
    for (const std::string& leaf : leaves) {
      reader->ReadLeafValues(g, leaf, &scratch).Check();
    }
  }
  uint64_t allocations = 0;
  uint64_t groups_decoded = 0;
  uint64_t decoded_bytes = 0;
  for (auto _ : state) {
    if (!pooled) scratch.Release();
    const uint64_t allocs_before =
        g_heap_allocations.load(std::memory_order_relaxed);
    const uint64_t bytes_before = reader->scan_stats().encoded_bytes;
    for (int g = 0; g < groups; ++g) {
      for (const std::string& leaf : leaves) {
        reader->ReadLeafValues(g, leaf, &scratch).Check();
      }
    }
    allocations +=
        g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
    groups_decoded += static_cast<uint64_t>(groups);
    decoded_bytes += reader->scan_stats().encoded_bytes - bytes_before;
  }
  state.counters["allocs_per_group"] =
      static_cast<double>(allocations) / static_cast<double>(groups_decoded);
  state.SetBytesProcessed(static_cast<int64_t>(decoded_bytes));
  state.SetLabel(pooled ? "pooled" : "cold-scratch");
}
BENCHMARK(BM_DecodeRowGroupScratch)->Arg(1)->Arg(0);

/// The shared execution runtime end to end: scan Jet.pt over all row
/// groups with --threads workers (default 1; per-worker readers and
/// scratch, LPT order, deterministic merge elided since the benchmark
/// only counts rows). On the 4-core bench host values up to 4 measure
/// speedup; larger values measure scheduling overhead.
void BM_ParallelScanRowGroups(benchmark::State& state) {
  const std::string& path = AblationDataset(Codec::kLz);
  const std::vector<std::string> projection = {"Jet.pt"};
  for (auto _ : state) {
    exec::WorkerReaders readers(path, ReaderOptions{}, g_bench_threads);
    const FileMetadata* metadata = readers.metadata().ValueOrDie();
    std::vector<exec::RowGroupTask> tasks =
        exec::MakeRowGroupTasks(*metadata);
    const int workers = exec::EffectiveWorkers(g_bench_threads, tasks.size());
    std::atomic<int64_t> rows{0};
    exec::RunRowGroups(
        workers, std::move(tasks),
        [&](int worker, int g) -> Status {
          LaqReader* reader;
          HEPQ_ASSIGN_OR_RETURN(reader, readers.reader(worker));
          RecordBatchPtr batch;
          HEPQ_ASSIGN_OR_RETURN(
              batch,
              reader->ReadRowGroup(g, projection, readers.scratch(worker)));
          rows.fetch_add(batch->num_rows(), std::memory_order_relaxed);
          return Status::OK();
        })
        .Check();
    benchmark::DoNotOptimize(rows.load(std::memory_order_relaxed));
  }
  state.SetLabel("threads=" + std::to_string(g_bench_threads));
}
BENCHMARK(BM_ParallelScanRowGroups);

/// Ablation: compiled-style native loop vs interpreted expression tree vs
/// boxed items for the same per-event computation (count jets pt > 40) —
/// the execution-model spectrum RDataFrame / BigQuery-shape / Rumble.
void BM_CountJetsNative(benchmark::State& state) {
  auto reader = LaqReader::Open(AblationDataset(Codec::kLz)).ValueOrDie();
  auto batch = reader->ReadRowGroup(0, {"Jet.pt"}).ValueOrDie();
  const auto& list = static_cast<const ListArray&>(*batch->column(0));
  const auto& pt = static_cast<const Float32Array&>(
      *static_cast<const StructArray&>(*list.child()).child(0));
  for (auto _ : state) {
    int64_t selected = 0;
    for (int64_t row = 0; row < batch->num_rows(); ++row) {
      const uint32_t begin = list.list_offset(row);
      const uint32_t end = begin + list.list_length(row);
      int n = 0;
      for (uint32_t i = begin; i < end; ++i) {
        if (pt.Value(i) > 40.0f) ++n;
      }
      if (n >= 2) ++selected;
    }
    benchmark::DoNotOptimize(selected);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch->num_rows());
}
BENCHMARK(BM_CountJetsNative);

/// The expression benchmarks' argument is the engine::ExprTier value:
/// 0 = interpret (per-row tree walk), 1 = simd (fused strip-mined kernels).
constexpr int kNumExprTiers = 2;

engine::ExprTier TierArg(const benchmark::State& state) {
  return static_cast<engine::ExprTier>(state.range(0));
}

void BM_CountJetsExprTree(benchmark::State& state) {
  const engine::ExprTier tier = TierArg(state);
  auto reader = LaqReader::Open(AblationDataset(Codec::kLz)).ValueOrDie();
  auto batch = reader->ReadRowGroup(0, {"Jet.pt"}).ValueOrDie();
  engine::EventQuery query("bench");
  const int jets = query.DeclareList("Jet", {"pt"});
  query.AddStage(engine::Ge(
      engine::AggOverList(engine::AggKind::kCount, jets, 0,
                          engine::Gt(engine::IterMember(jets, 0, 0),
                                     engine::Lit(40.0)),
                          nullptr),
      engine::Lit(2.0)));
  query.AddHistogram({"h", "", 10, 0, 10}, engine::Lit(1.0));
  query.set_expr_tier(tier);
  for (auto _ : state) {
    auto result = query.MakeResult();
    query.ExecuteBatch(*batch, &result).Check();
    benchmark::DoNotOptimize(result.events_selected);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch->num_rows());
  state.SetLabel(engine::ExprTierName(tier));
}
BENCHMARK(BM_CountJetsExprTree)->DenseRange(0, kNumExprTiers - 1);

void BM_CountJetsBoxedItems(benchmark::State& state) {
  auto reader = LaqReader::Open(AblationDataset(Codec::kLz)).ValueOrDie();
  auto batch = reader->ReadRowGroup(0).ValueOrDie();
  for (auto _ : state) {
    int64_t selected = 0;
    for (int64_t row = 0; row < batch->num_rows(); ++row) {
      const doc::ItemPtr event = doc::EventToItem(*batch, row);
      const doc::ItemPtr jets = event->Member("Jet");
      int n = 0;
      for (const doc::ItemPtr& jet : jets->Elements()) {
        if (jet->Member("pt")->AsDouble() > 40.0) ++n;
      }
      if (n >= 2) ++selected;
    }
    benchmark::DoNotOptimize(selected);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch->num_rows());
}
BENCHMARK(BM_CountJetsBoxedItems);

// ---------------------------------------------------------------------------
// Predicate pushdown + late materialization on a selectivity-friendly
// layout. The shared AblationDataset is deliberately unsorted (generator
// output), so its zone maps span the full value range and prune nothing;
// this benchmark writes its own clustered file — MET.pt monotone across
// row groups, as a time- or trigger-sorted skim would be — where a
// selective cut can skip most groups and pages. The acceptance bar for
// the pruned scan is >= 2x end to end.
// ---------------------------------------------------------------------------

/// Measured output of BM_SelectiveScan (index 0 = full scan, 1 = pruned),
/// exported to BENCH_micro_kernels.json by main().
struct SelectiveScanRecord {
  bool set = false;
  double cpu_s = 0;
  uint64_t bytes_scanned = 0;
  uint64_t bytes_decoded = 0;
  uint64_t rows_pruned = 0;
};
SelectiveScanRecord g_selective_scan[2];

/// 8 row groups x 4000 events, MET.pt in [100g, 100(g+1)) sorted within
/// each group, 3 jets/event with 4 leaves each. A > 700 cut touches only
/// the last group.
const std::string& SelectiveScanDataset() {
  static const auto& path = *new std::string([] {
    const std::vector<Field> jet_fields = {{"pt", DataType::Float32()},
                                           {"eta", DataType::Float32()},
                                           {"phi", DataType::Float32()},
                                           {"mass", DataType::Float32()}};
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"MET", DataType::Struct({{"pt", DataType::Float32()}})},
        {"Jet", DataType::List(DataType::Struct(jet_fields))},
    });
    constexpr int kGroups = 8;
    constexpr int kRows = 4000;
    Rng rng(29);
    std::vector<RecordBatchPtr> batches;
    for (int g = 0; g < kGroups; ++g) {
      std::vector<float> met(kRows);
      std::vector<uint32_t> offsets(kRows + 1, 0);
      std::vector<float> pt, eta, phi, mass;
      for (int i = 0; i < kRows; ++i) {
        met[static_cast<size_t>(i)] =
            100.0f * g + 100.0f * static_cast<float>(i) / kRows;
        for (int j = 0; j < 3; ++j) {
          pt.push_back(static_cast<float>(rng.Uniform(15, 80)));
          eta.push_back(static_cast<float>(rng.Gaussian(0, 1.5)));
          phi.push_back(static_cast<float>(rng.Uniform(-3.14, 3.14)));
          mass.push_back(static_cast<float>(rng.Uniform(0, 12)));
        }
        offsets[static_cast<size_t>(i) + 1] =
            static_cast<uint32_t>(pt.size());
      }
      auto met_col = StructArray::Make({{"pt", DataType::Float32()}},
                                       {MakeFloat32Array(met)})
                         .ValueOrDie();
      auto jets =
          MakeListOfStructArray(jet_fields, offsets,
                                {MakeFloat32Array(pt), MakeFloat32Array(eta),
                                 MakeFloat32Array(phi),
                                 MakeFloat32Array(mass)})
              .ValueOrDie();
      batches.push_back(
          RecordBatch::Make(schema, {met_col, jets}).ValueOrDie());
    }
    const std::string path =
        DefaultDataDir() + "/selective_scan_clustered.laq";
    WriterOptions options;
    options.row_group_size = kRows;
    options.page_values = 512;
    WriteLaqFile(path, schema, batches, options).Check();
    return path;
  }());
  return path;
}

/// A Q2-style selective query (MET.pt > 700 keeps ~1% of events) that
/// also projects all four jet leaves. Arg 1 = pushdown + late
/// materialization on, arg 0 = full scan; histograms are bit-identical.
void BM_SelectiveScan(benchmark::State& state) {
  const bool pruning = state.range(0) != 0;
  const std::string& path = SelectiveScanDataset();
  using namespace hepq::engine;  // NOLINT(build/namespaces)
  EventQuery query("selective_scan");
  const int met = query.DeclareScalar("MET.pt");
  const int jets = query.DeclareList("Jet", {"pt", "eta", "phi", "mass"});
  query.AddStage(Gt(ScalarRef(met), Lit(700.0)));
  query.AddHistogram({"njet40", "", 10, 0, 10},
                     AggOverList(AggKind::kCount, jets, 0,
                                 Gt(IterMember(jets, 0, 0), Lit(40.0)),
                                 nullptr));
  ReaderOptions options;
  options.scan_pushdown = pruning;
  options.late_materialization = pruning;
  int64_t events = 0;
  SelectiveScanRecord record;
  for (auto _ : state) {
    auto result = query.Execute(path, options, 1);
    result.status().Check();
    benchmark::DoNotOptimize(result->events_selected);
    events += result->events_processed;
    record.set = true;
    record.cpu_s = result->cpu_seconds;
    record.bytes_scanned = result->scan.storage_bytes;
    record.bytes_decoded = result->scan.decoded_bytes;
    record.rows_pruned = result->scan.rows_pruned;
  }
  g_selective_scan[pruning ? 1 : 0] = record;
  state.SetItemsProcessed(events);
  state.counters["decoded_bytes"] =
      static_cast<double>(record.bytes_decoded);
  state.counters["rows_pruned"] = static_cast<double>(record.rows_pruned);
  state.SetLabel(pruning ? "pruned" : "full-scan");
}
BENCHMARK(BM_SelectiveScan)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Expression evaluation: per-row virtual tree walk vs compiled, fused
// strip-mined kernels (engine/vexpr + engine/vexpr_fuse). Same Expr
// trees, same bindings, bit-identical outputs — only the execution model
// differs. These are the micro-scale version of the paper's
// Rumble-vs-BigQuery interpretation-overhead axis. Per-tier costs are
// exported to BENCH_micro_kernels.json so CI can gate the interpret/simd
// ratio against bench/baselines/micro_kernels_tiers.json.
// ---------------------------------------------------------------------------

/// Measured per-tier cost of one expression kernel (index = ExprTier
/// value), exported to BENCH_micro_kernels.json by main().
struct ExprTierRecord {
  bool set = false;
  double ns_per_row = 0;
  double vops_per_row = 0;
  double fused_coverage = 0;
};
constexpr int kNumExprKernels = 2;
const char* const kExprKernelNames[kNumExprKernels] = {"expr_simple_cut",
                                                       "expr_trijet_body"};
ExprTierRecord g_expr_tiers[kNumExprKernels][kNumExprTiers];

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A simple event-level cut over MET scalars (pure arithmetic, one shared
/// subexpression for the CSE pass to merge). Arg 0 walks the shared_ptr
/// tree once per row; arg 1 runs the fused strip-mined kernels over the
/// whole batch and reports allocs_per_eval, which must drop to 0 in steady
/// state: program, bindings, and scratch are all reused. It also reports
/// the fusion pass's coverage (fraction of source VOps absorbed into
/// superinstructions).
void BM_ExprSimpleCut(benchmark::State& state) {
  const engine::ExprTier tier = TierArg(state);
  const bool compiled = tier == engine::ExprTier::kSimd;
  auto reader = LaqReader::Open(AblationDataset(Codec::kLz)).ValueOrDie();
  auto batch = reader->ReadRowGroup(0, {"MET.pt", "MET.phi"}).ValueOrDie();
  auto bindings = engine::BatchBindings::Bind(
                      *batch, {}, {{"MET.pt"}, {"MET.phi"}})
                      .ValueOrDie();
  using namespace hepq::engine;  // NOLINT(build/namespaces)
  const ExprPtr met = ScalarRef(0);
  const ExprPtr dphi = Call(Fn::kDeltaPhi, {ScalarRef(1), Lit(0.4)});
  const ExprPtr cut =
      And(Gt(met, Lit(25.0)),
          Or(Gt(Call(Fn::kSqrt, {Add(Mul(met, met), Mul(met, met))}),
                Mul(Lit(1.3), met)),
             Lt(Call(Fn::kAbs, {dphi}), Lit(1.0))));
  const int64_t rows = batch->num_rows();
  std::vector<double> out(static_cast<size_t>(rows));
  auto kernel = CompiledExprKernel::Compile(cut).ValueOrDie();
  VexprScratch scratch;
  if (compiled) {  // warm the strip/lane pools to high-water capacity
    kernel.Eval(bindings, rows, &scratch, out.data(), nullptr).Check();
  }
  uint64_t allocations = 0;
  int64_t kernel_ns = 0;
  for (auto _ : state) {
    const uint64_t allocs_before =
        g_heap_allocations.load(std::memory_order_relaxed);
    const int64_t t0 = SteadyNowNs();
    if (compiled) {
      kernel.Eval(bindings, rows, &scratch, out.data(), nullptr).Check();
    } else {
      for (int64_t row = 0; row < rows; ++row) {
        EvalContext ctx;
        ctx.bindings = &bindings;
        ctx.row = static_cast<uint32_t>(row);
        out[static_cast<size_t>(row)] = cut->Eval(&ctx);
      }
    }
    kernel_ns += SteadyNowNs() - t0;
    allocations +=
        g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
    benchmark::DoNotOptimize(out.data());
  }
  if (compiled) {
    state.counters["allocs_per_eval"] =
        static_cast<double>(allocations) /
        static_cast<double>(state.iterations());
  }
  const VFusedPlan* fused = kernel.program().fused();
  ExprTierRecord record;
  record.set = true;
  record.ns_per_row =
      static_cast<double>(kernel_ns) /
      static_cast<double>(std::max<int64_t>(
          1, static_cast<int64_t>(state.iterations()) * rows));
  record.vops_per_row =
      fused != nullptr ? static_cast<double>(fused->num_source_ops()) : 0.0;
  record.fused_coverage =
      compiled && fused != nullptr ? fused->fused_coverage() : 0.0;
  g_expr_tiers[0][static_cast<int>(tier)] = record;
  if (compiled && fused != nullptr) {
    state.counters["fused_coverage"] = fused->fused_coverage();
    state.counters["vops_per_row"] =
        static_cast<double>(fused->num_source_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
  state.SetLabel(engine::ExprTierName(tier));
}
BENCHMARK(BM_ExprSimpleCut)->DenseRange(0, kNumExprTiers - 1);

/// The fused gate+fill against the two-pass filter shape it replaces:
/// arg 0 evaluates the predicate's 0/1 vector (fused Eval) and compacts
/// the passing row indices in a second pass; arg 1 runs the
/// fused RunGate, which emits the indices directly from the last strip
/// temporaries without materializing the value vector. Selections are
/// bit-identical (asserted at setup).
void BM_ExprFusedGateFill(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  auto reader = LaqReader::Open(AblationDataset(Codec::kLz)).ValueOrDie();
  auto batch = reader->ReadRowGroup(0, {"MET.pt", "MET.phi"}).ValueOrDie();
  auto bindings = engine::BatchBindings::Bind(
                      *batch, {}, {{"MET.pt"}, {"MET.phi"}})
                      .ValueOrDie();
  using namespace hepq::engine;  // NOLINT(build/namespaces)
  const ExprPtr met = ScalarRef(0);
  const ExprPtr cut =
      And(Gt(met, Lit(25.0)),
          Lt(Call(Fn::kAbs,
                  {Call(Fn::kDeltaPhi, {ScalarRef(1), Lit(0.4)})}),
             Lit(1.5)));
  const int64_t rows = batch->num_rows();
  auto kernel = CompiledExprKernel::Compile(cut).ValueOrDie();
  VexprScratch scratch;
  std::vector<double> out(static_cast<size_t>(rows));
  std::vector<uint32_t> sel(static_cast<size_t>(rows));
  {  // warm-up + cross-check: both shapes select the same rows
    std::vector<uint32_t> ref(static_cast<size_t>(rows));
    kernel.Eval(bindings, rows, &scratch, out.data(), nullptr).Check();
    int ref_kept = 0;
    for (int64_t i = 0; i < rows; ++i) {
      if (out[static_cast<size_t>(i)] != 0.0) {
        ref[static_cast<size_t>(ref_kept++)] = static_cast<uint32_t>(i);
      }
    }
    const int kept =
        kernel.Gate(bindings, rows, &scratch, sel.data(), nullptr)
            .ValueOrDie();
    if (kept != ref_kept ||
        std::memcmp(sel.data(), ref.data(),
                    static_cast<size_t>(kept) * sizeof(uint32_t)) != 0) {
      state.SkipWithError("fused gate selection mismatch");
      return;
    }
  }
  int kept = 0;
  for (auto _ : state) {
    if (fused) {
      kept = kernel.Gate(bindings, rows, &scratch, sel.data(), nullptr)
                 .ValueOrDie();
    } else {
      kernel.Eval(bindings, rows, &scratch, out.data(), nullptr).Check();
      kept = 0;
      for (int64_t i = 0; i < rows; ++i) {
        if (out[static_cast<size_t>(i)] != 0.0) {
          sel[static_cast<size_t>(kept++)] = static_cast<uint32_t>(i);
        }
      }
    }
    benchmark::DoNotOptimize(sel.data());
  }
  state.counters["kept"] = static_cast<double>(kept);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
  state.SetLabel(fused ? "fused-gate" : "eval+compact");
}
BENCHMARK(BM_ExprFusedGateFill)->Arg(0)->Arg(1);

/// The Q6-style trijet combination body: require >= 3 jets, find the
/// trijet minimizing |m(3j) - 172.5|, fill pT of the winning system and
/// the max b-tag of its jets. The inner key runs over every C(J,3)
/// combination, so this is where batching the combination frame pays the
/// most — the acceptance bar for the compiled path is >= 2x over the
/// interpreter. Args are ExprTier values as in TierArg. The dispatch
/// counters (VOps retired/row, fused coverage) come from one traced
/// warm-up run's vops_retired / vops_fused counters — the same numbers a
/// profiled run reports under the vexpr_kernel stage.
void BM_ExprTrijetBody(benchmark::State& state) {
  const engine::ExprTier tier = TierArg(state);
  const bool compiled = tier == engine::ExprTier::kSimd;
  auto reader = LaqReader::Open(AblationDataset(Codec::kLz)).ValueOrDie();
  auto batch =
      reader
          ->ReadRowGroup(
              0, {"Jet.pt", "Jet.eta", "Jet.phi", "Jet.mass", "Jet.btag"})
          .ValueOrDie();
  using namespace hepq::engine;  // NOLINT(build/namespaces)
  EventQuery query("trijet");
  const int jets = query.DeclareList("Jet",
                                     {"pt", "eta", "phi", "mass", "btag"});
  std::vector<ExprPtr> trijet;
  for (int it = 0; it < 3; ++it) {
    for (int m = 0; m < 4; ++m) trijet.push_back(IterMember(jets, it, m));
  }
  query.AddStage(Ge(ListSize(jets), Lit(3.0)));
  query.AddStage(BestCombination(
      {ComboLoop{jets, 0}, ComboLoop{jets, 1}, ComboLoop{jets, 2}},
      /*filter=*/nullptr,
      Abs(Sub(Call(Fn::kInvMass3, trijet), Lit(172.5)))));
  query.AddHistogram({"pt3", "", 100, 15, 40}, Call(Fn::kSumPt3, trijet));
  constexpr int kBtag = 4;
  query.AddHistogram(
      {"btag", "", 100, 0, 1},
      Call(Fn::kMax2, {Call(Fn::kMax2, {IterMember(jets, 0, kBtag),
                                        IterMember(jets, 1, kBtag)}),
                       IterMember(jets, 2, kBtag)}));
  query.set_expr_tier(tier);
  double vops_per_row = 0.0;
  double fused_coverage = 0.0;
  if (compiled) {  // traced warm-up: pull the dispatch counters
    obs::TraceSession session;
    session.Start();
    auto result = query.MakeResult();
    query.ExecuteBatch(*batch, &result).Check();
    session.Stop();
    const obs::RunReport report =
        obs::BuildRunReport(session, obs::RunInfo{}, ScanStats{});
    uint64_t retired = 0;
    uint64_t fused = 0;
    for (const obs::CounterSummary& c : report.counters) {
      if (c.name == "vops_retired") retired += c.count;
      if (c.name == "vops_fused") fused += c.count;
    }
    vops_per_row = static_cast<double>(retired) /
                   static_cast<double>(std::max<int64_t>(1,
                                                         batch->num_rows()));
    if (retired > 0) {
      fused_coverage =
          static_cast<double>(fused) / static_cast<double>(retired);
    }
  }
  int64_t kernel_ns = 0;
  for (auto _ : state) {
    const int64_t t0 = SteadyNowNs();
    auto result = query.MakeResult();
    query.ExecuteBatch(*batch, &result).Check();
    kernel_ns += SteadyNowNs() - t0;
    benchmark::DoNotOptimize(result.events_selected);
  }
  ExprTierRecord record;
  record.set = true;
  record.ns_per_row =
      static_cast<double>(kernel_ns) /
      static_cast<double>(std::max<int64_t>(
          1, static_cast<int64_t>(state.iterations()) * batch->num_rows()));
  record.vops_per_row = vops_per_row;
  record.fused_coverage = fused_coverage;
  g_expr_tiers[1][static_cast<int>(tier)] = record;
  if (compiled) {
    state.counters["fused_coverage"] = fused_coverage;
    state.counters["vops_per_row"] = vops_per_row;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch->num_rows());
  state.SetLabel(engine::ExprTierName(tier));
}
BENCHMARK(BM_ExprTrijetBody)->DenseRange(0, kNumExprTiers - 1);

}  // namespace
}  // namespace hepq

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags
// it does not know, so --threads=N (consumed by BM_ParallelScanRowGroups)
// is stripped from argv before Initialize sees it.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const int v = std::atoi(argv[i] + 10);
      if (v > 0) hepq::g_bench_threads = v;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Machine-readable companion for the selective-scan ablation and the
  // expression-tier measurements (consumed by CI as an artifact; the
  // tier records feed the tier-ratio regression gate). Only written when the
  // producing benchmarks ran, so --benchmark_filter on other kernels
  // stays file-free.
  bool any_tier = false;
  for (int k = 0; k < hepq::kNumExprKernels; ++k) {
    for (int t = 0; t < hepq::kNumExprTiers; ++t) {
      any_tier |= hepq::g_expr_tiers[k][t].set;
    }
  }
  if (hepq::g_selective_scan[0].set || hepq::g_selective_scan[1].set ||
      any_tier) {
    hepq::bench::BenchJson json("micro_kernels");
    const char* labels[2] = {"full-scan", "pruned"};
    for (int i = 0; i < 2; ++i) {
      const auto& r = hepq::g_selective_scan[i];
      if (!r.set) continue;
      json.Record()
          .Str("query", "selective_scan")
          .Str("engine", labels[i])
          .Num("cpu_s", r.cpu_s)
          .UInt("bytes_scanned", r.bytes_scanned)
          .UInt("bytes_decoded", r.bytes_decoded)
          .UInt("rows_pruned", r.rows_pruned);
    }
    for (int k = 0; k < hepq::kNumExprKernels; ++k) {
      for (int t = 0; t < hepq::kNumExprTiers; ++t) {
        const auto& r = hepq::g_expr_tiers[k][t];
        if (!r.set) continue;
        // ns_per_row is the normalized cost; fused_coverage the fraction
        // of source VOps absorbed into superinstructions (simd tier only).
        // bench_diff compares the interpret/simd ns_per_row ratio against
        // bench/baselines/micro_kernels_tiers.json.
        json.Record()
            .Str("kernel", hepq::kExprKernelNames[k])
            .Str("tier", hepq::engine::ExprTierName(
                             static_cast<hepq::engine::ExprTier>(t)))
            .Num("ns_per_row", r.ns_per_row)
            .Num("vops_per_row", r.vops_per_row)
            .Num("fused_coverage", r.fused_coverage);
      }
    }
    json.Write();
  }
  return 0;
}
