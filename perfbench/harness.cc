// hepq_perfbench: the measurement harness behind perfbench/run.py.
//
// One process, one closed-loop client. It generates the CMS-schema data
// set from --seed into a fresh directory (several times, so set-up time
// has a median), runs an untimed reference pass over the workload's
// (query, engine) cells, then repeats timed passes over the same cells in
// a fixed order until --seconds have elapsed. Every timed run must be
// bit-identical to its cell's reference run, and at set-up every engine
// must agree with rdataframe to 1e-6 (queries_test CrossEngineAgreement).
//
// With --trace 1 the timed passes alternate between untraced and traced
// (one obs::TraceSession per run, read back through BuildRunReport), and
// the harness then times direct calls into the fileio, cache, exec and
// engine layers. Those probes record their own spans; every span and the
// per-layer table are written under --out at the end.
//
// The last stdout line is one JSON document of raw samples; run.py turns
// it into the benchmark's metrics. Everything else goes to stderr.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "core/histogram.h"
#include "core/status.h"
#include "core/stopwatch.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "engine/event_query.h"
#include "engine/flat.h"
#include "exec/exec.h"
#include "fileio/compression.h"
#include "fileio/crc32.h"
#include "fileio/reader.h"
#include "fileio/writer.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/adl.h"
#include "queries/builders.h"

namespace {

namespace fs = std::filesystem;

using hepq::Histogram1D;
using hepq::HistogramParts;
using hepq::LaqReader;
using hepq::ReaderOptions;
using hepq::Result;
using hepq::ScanStats;
using hepq::Status;
using hepq::obs::ScopedSpan;
using hepq::obs::Stage;
using hepq::queries::EngineKind;
using hepq::queries::QueryRunOutput;
using hepq::queries::RunOptions;

constexpr uint64_t kDefaultSeed = 20120601;
constexpr int64_t kDefaultEvents = 200000;
// 8 row groups at the default scale: two per worker on a 4-thread run, so
// LPT scheduling and per-worker reader reuse are both exercised.
constexpr int64_t kRowGroupEvents = 25000;
constexpr double kCrossEngineTolerance = 1e-6;
// Data-set writes per run, each into a fresh directory; set-up time takes
// their median.
constexpr int kSetupReps = 3;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- workloads ------------------------------------------------------------

struct Cell {
  int q = 0;
  EngineKind engine = EngineKind::kRdf;
};

/// Short frontend key used in metric names (events_per_s.<key>).
const char* FrontendKey(EngineKind engine) {
  switch (engine) {
    case EngineKind::kRdf:
      return "rdf";
    case EngineKind::kBigQueryShape:
      return "bigquery";
    case EngineKind::kPrestoShape:
      return "presto";
    case EngineKind::kDoc:
      return "doc";
  }
  return "unknown";
}

std::string CellName(const Cell& cell) {
  return "Q" + std::to_string(cell.q) + "/" + FrontendKey(cell.engine);
}

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// Queries whose rdataframe histograms the set-up check needs although
  /// no rdf cell of the workload runs them (doc Q3-Q5 on `compute`).
  std::vector<int> extra_references;
  /// Shared decoded-chunk cache, filled by the reference pass (`warm`).
  bool chunk_cache = false;
};

Result<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  constexpr EngineKind kSql[] = {EngineKind::kRdf, EngineKind::kBigQueryShape,
                                 EngineKind::kPrestoShape};
  if (name == "scan" || name == "warm") {
    // Decode-bound queries. doc Q3-Q5 spend their time in the FLWOR
    // interpreter, not in decode, so they belong to `compute`.
    for (int q : {1, 2, 3, 4, 5, 7, 8}) {
      for (EngineKind e : kSql) w.cells.push_back({q, e});
      if (q <= 2) w.cells.push_back({q, EngineKind::kDoc});
    }
    w.chunk_cache = name == "warm";
    return w;
  }
  if (name == "compute") {
    // Q6's trijet combinatorics on the three SQL-ish frontends plus the
    // FLWOR interpreter on Q3-Q5; doc Q6 (~27 s) is too long to repeat.
    for (EngineKind e : kSql) w.cells.push_back({6, e});
    for (int q : {3, 4, 5}) w.cells.push_back({q, EngineKind::kDoc});
    w.extra_references = {3, 4, 5};
    return w;
  }
  return Status::Invalid("unknown workload '" + name +
                         "' (want scan, compute or warm)");
}

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  int64_t events = kDefaultEvents;
  /// Test hook: perturbs one reference histogram by one ulp after set-up,
  /// so every timed run of that cell must be reported as a mismatch.
  bool inject_mismatch = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: hepq_perfbench --workload scan|compute|warm --out DIR "
               "[--seed N] [--seconds S] [--trace 0|1]\n"
               "                      [--events N] [--inject-mismatch]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) Usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  auto number = [&](int& i) -> double {
    const std::string flag = argv[i];
    const std::string v = value(i);
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d) || d < 0) {
      Usage(flag + " wants a non-negative number, got '" + v + "'");
    }
    return d;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.workload = value(i);
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(number(i));
    } else if (flag == "--seconds") {
      args.seconds = number(i);
    } else if (flag == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") Usage("--trace wants 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--out") {
      args.out = value(i);
    } else if (flag == "--events") {
      args.events = static_cast<int64_t>(number(i));
      if (args.events < 1) Usage("--events must be at least 1");
    } else if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.out.empty()) Usage("--out is required");
  return args;
}

// ---- JSON output ------------------------------------------------------------

/// Appends JSON by hand; numbers keep all 17 significant digits.
class Json {
 public:
  Json& Key(const std::string& key) {
    Str(key);
    text_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    text_ += buf;
    return *this;
  }
  Json& Int(int64_t v) {
    Sep();
    text_ += std::to_string(v);
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    text_ += v ? "true" : "false";
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    text_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        text_ += buf;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
    return *this;
  }
  Json& Open(char c) {
    Sep();
    text_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    text_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return text_; }

 private:
  void Sep() {
    if (!fresh_ && !text_.empty()) text_ += ',';
    fresh_ = false;
  }
  std::string text_;
  bool fresh_ = true;
};

// ---- histogram checks -------------------------------------------------------

bool SameDoubleBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True when both histogram sets hold exactly the same bits: the
/// threads/cache/pruning contract every timed run is held to.
bool SameBits(const std::vector<Histogram1D>& a,
              const std::vector<Histogram1D>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const HistogramParts pa = a[i].ToParts();
    const HistogramParts pb = b[i].ToParts();
    if (!(pa.spec == pb.spec) || pa.bins.size() != pb.bins.size() ||
        pa.num_entries != pb.num_entries ||
        !SameDoubleBits(pa.underflow, pb.underflow) ||
        !SameDoubleBits(pa.overflow, pb.overflow) ||
        !SameDoubleBits(pa.sum_w, pb.sum_w) ||
        !SameDoubleBits(pa.sum_wx, pb.sum_wx) ||
        !SameDoubleBits(pa.sum_wx2, pb.sum_wx2)) {
      return false;
    }
    for (size_t k = 0; k < pa.bins.size(); ++k) {
      if (!SameDoubleBits(pa.bins[k], pb.bins[k])) return false;
    }
  }
  return true;
}

bool Agree(const std::vector<Histogram1D>& a,
           const std::vector<Histogram1D>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].ApproxEquals(b[i], kCrossEngineTolerance)) return false;
  }
  return true;
}

/// The test hook's perturbation: first bin moved by one ulp.
Histogram1D PerturbOneUlp(const Histogram1D& h) {
  HistogramParts parts = h.ToParts();
  if (!parts.bins.empty()) {
    parts.bins[0] = std::nextafter(parts.bins[0], HUGE_VAL);
  }
  auto rebuilt = Histogram1D::FromParts(parts);
  rebuilt.status().Check();
  return *rebuilt;
}

// ---- set-up -----------------------------------------------------------------

struct DatasetTiming {
  double generate_s = 0.0;  ///< EventGenerator::GenerateBatch
  double write_s = 0.0;     ///< LaqWriter::WriteBatch + Close
  double total_s = 0.0;     ///< whole write incl. open
  uint64_t file_bytes = 0;
  int64_t events = 0;
};

/// Writes the data set exactly as datagen's EnsureDataset does (same
/// generator config, writer options and batch sizes), timing the
/// generator and writer calls separately.
Result<DatasetTiming> WriteDataset(const std::string& path, uint64_t seed,
                                   int64_t events) {
  DatasetTiming timing;
  const double t0 = NowS();
  hepq::GeneratorConfig config;
  config.seed = seed;
  hepq::EventGenerator generator(config);
  hepq::WriterOptions options;
  options.row_group_size = kRowGroupEvents;
  options.codec = hepq::Codec::kLz;
  std::unique_ptr<hepq::LaqWriter> writer;
  HEPQ_ASSIGN_OR_RETURN(
      writer,
      hepq::LaqWriter::Open(path, hepq::EventGenerator::CmsSchema(), options));
  for (int64_t remaining = events; remaining > 0;) {
    const int64_t n = std::min(remaining, kRowGroupEvents);
    double t = NowS();
    hepq::RecordBatchPtr batch;
    {
      ScopedSpan span("datagen.generate_batch", Stage::kOther);
      batch = generator.GenerateBatch(n);
    }
    timing.generate_s += NowS() - t;
    t = NowS();
    {
      ScopedSpan span("fileio.write_batch", Stage::kOther);
      HEPQ_RETURN_NOT_OK(writer->WriteBatch(*batch));
    }
    timing.write_s += NowS() - t;
    remaining -= n;
  }
  const double t = NowS();
  {
    ScopedSpan span("fileio.close", Stage::kOther);
    HEPQ_RETURN_NOT_OK(writer->Close());
  }
  timing.write_s += NowS() - t;
  timing.total_s = NowS() - t0;
  timing.events = events;
  std::error_code ec;
  timing.file_bytes = static_cast<uint64_t>(fs::file_size(path, ec));
  return timing;
}

// ---- running cells ----------------------------------------------------------

struct CellRun {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU: the sum over the query's threads
  QueryRunOutput out;
};

CellRun RunCell(const Cell& cell, const std::string& path,
                const RunOptions& options) {
  CellRun run;
  const double cpu0 = hepq::ProcessCpuSeconds();
  const double t0 = NowS();
  auto result = hepq::queries::RunAdlQuery(cell.engine, cell.q, path, options);
  run.wall_s = NowS() - t0;
  run.cpu_s = hepq::ProcessCpuSeconds() - cpu0;
  if (!result.ok()) {
    run.error = CellName(cell) + ": " + result.status().ToString();
    return run;
  }
  run.ok = true;
  run.out = std::move(*result);
  return run;
}

/// One timed run as emitted: [pass, cell, wall_s, cpu_s, events, good, traced].
struct RunRecord {
  int pass = 0;
  int cell = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t events = 0;
  bool good = false;
  bool traced = false;
};

/// Aggregates of the traced runs, per frontend.
struct TracedTotals {
  int64_t events = 0;
  int64_t event_loop_cpu_ns = 0;
  int64_t expr_cpu_ns = 0;
  double vops = 0.0;
  double fused_vops = 0.0;
  uint64_t ops = 0;
};

struct Bench {
  Args args;
  Workload workload;
  int threads = 1;
  std::string path;
  RunOptions options;
  std::vector<std::vector<Histogram1D>> reference;  // per cell
  std::vector<bool> reference_ok;                   // per cell
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<RunRecord> runs;

  void Fail(const std::string& message) {
    failed += 1;
    if (errors.size() < 20) errors.push_back(message);
    std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  }

  /// Runs a cell in a timed pass and checks it against its reference.
  CellRun Timed(int pass, int c, bool traced) {
    const Cell& cell = workload.cells[static_cast<size_t>(c)];
    CellRun run = RunCell(cell, path, options);
    attempted += 1;
    bool good = run.ok;
    if (!run.ok) {
      Fail(run.error);
    } else if (!reference_ok[static_cast<size_t>(c)] ||
               !SameBits(run.out.histograms,
                         reference[static_cast<size_t>(c)])) {
      good = false;
      Fail(CellName(cell) + ": histograms differ from the reference run");
    }
    runs.push_back({pass, c, run.wall_s, run.cpu_s, run.out.events_processed,
                    good, traced});
    return run;
  }
};

/// The untimed reference pass: every cell once, cross-engine agreement
/// with rdataframe to 1e-6. Fills the chunk cache on `warm`.
void ReferencePass(Bench* b) {
  const Workload& w = b->workload;
  std::map<int, std::vector<Histogram1D>> rdf;
  for (int q : w.extra_references) {
    CellRun run = RunCell({q, EngineKind::kRdf}, b->path, b->options);
    b->attempted += 1;
    if (!run.ok) {
      b->Fail(run.error);
      continue;
    }
    rdf[q] = std::move(run.out.histograms);
  }
  b->reference.assign(w.cells.size(), {});
  b->reference_ok.assign(w.cells.size(), false);
  for (size_t c = 0; c < w.cells.size(); ++c) {
    CellRun run = RunCell(w.cells[c], b->path, b->options);
    b->attempted += 1;
    if (!run.ok) {
      b->Fail(run.error);
      continue;
    }
    b->reference[c] = std::move(run.out.histograms);
    b->reference_ok[c] = true;
    if (w.cells[c].engine == EngineKind::kRdf) rdf[w.cells[c].q] = b->reference[c];
  }
  for (size_t c = 0; c < w.cells.size(); ++c) {
    if (!b->reference_ok[c]) continue;
    auto it = rdf.find(w.cells[c].q);
    if (it == rdf.end() || !Agree(b->reference[c], it->second)) {
      b->reference_ok[c] = false;
      b->Fail(CellName(w.cells[c]) +
              ": histograms disagree with rdataframe beyond 1e-6");
    }
  }
}

// ---- per-layer probes (trace 1) ---------------------------------------------

/// A cell whose storage access the benchmark can replay from outside: the
/// BigQuery and Presto shapes, whose builders expose Projection() and
/// ScanPredicates(). rdataframe and doc plans are internal to their runners.
struct ScanPlan {
  std::vector<std::string> projection;
  hepq::ScanPredicateSet predicates;
  bool struct_pushdown = true;
  std::shared_ptr<hepq::engine::EventQuery> event_query;  // bigquery only
};

Result<std::vector<ScanPlan>> MakeScanPlans(const Workload& w) {
  std::vector<ScanPlan> plans;
  for (const Cell& cell : w.cells) {
    ScanPlan plan;
    if (cell.engine == EngineKind::kBigQueryShape) {
      hepq::engine::EventQuery query("");
      HEPQ_ASSIGN_OR_RETURN(query, hepq::queries::BuildAdlEventQuery(cell.q));
      plan.projection = query.Projection();
      plan.predicates = query.ScanPredicates();
      plan.event_query =
          std::make_shared<hepq::engine::EventQuery>(std::move(query));
    } else if (cell.engine == EngineKind::kPrestoShape) {
      plan.struct_pushdown = false;
      auto flat = hepq::queries::BuildAdlFlatPipeline(cell.q);
      if (flat.ok()) {
        plan.projection = flat->Projection();
        plan.predicates = flat->ScanPredicates();
      } else {
        hepq::engine::EventQuery query("");
        HEPQ_ASSIGN_OR_RETURN(query,
                              hepq::queries::BuildAdlEventQuery(cell.q));
        plan.projection = query.Projection();
        plan.predicates = query.ScanPredicates();
      }
    } else {
      continue;
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Leaf paths a projection reads from storage: a whole column, or the
/// named members plus the list's lengths leaf (all members of the struct
/// when struct pushdown is off, as the Presto shape reads).
std::vector<std::string> ProjectedLeaves(const hepq::FileMetadata& meta,
                                         const ScanPlan& plan) {
  std::vector<std::string> leaves;
  auto add = [&](const std::string& p) {
    if (std::find(leaves.begin(), leaves.end(), p) == leaves.end()) {
      leaves.push_back(p);
    }
  };
  for (const std::string& entry : plan.projection) {
    const size_t dot = entry.find('.');
    const std::string column = entry.substr(0, dot);
    const int field = meta.schema.FieldIndex(column);
    for (const hepq::LeafDesc& leaf : meta.layout) {
      if (leaf.field_index != field) continue;
      if (dot == std::string::npos || !plan.struct_pushdown ||
          leaf.is_lengths || leaf.path == entry) {
        add(leaf.path);
      }
    }
  }
  return leaves;
}

ReaderOptions PlanReaderOptions(const ScanPlan& plan,
                                const RunOptions& options, bool use_cache) {
  ReaderOptions r;
  r.struct_projection_pushdown = plan.struct_pushdown;
  r.validate_checksums = options.validate_checksums;
  r.scan_pushdown = options.scan_pushdown;
  r.late_materialization = options.late_materialization;
  r.footer_cache = options.footer_cache;
  if (use_cache) r.chunk_cache = options.chunk_cache;
  return r;
}

/// Median seconds of `reps` calls of `fn` (which returns false on error).
double TimeMedian(int reps, const std::function<bool()>& fn, bool* ok) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowS();
    if (!fn()) *ok = false;
    times.push_back(NowS() - t0);
  }
  return Median(times);
}

using Layers = std::vector<std::pair<std::string, double>>;

/// Direct timings of the storage layer: open, CRC, decompress, leaf
/// decode, filtered scan and what materialization adds on top.
Status ProbeFileio(Bench* b, const std::vector<ScanPlan>& plans,
                   Layers* layers) {
  constexpr int kReps = 3;
  bool ok = true;
  std::unique_ptr<LaqReader> meta_reader;
  HEPQ_ASSIGN_OR_RETURN(meta_reader, LaqReader::Open(b->path));
  const hepq::FileMetadata& meta = meta_reader->metadata();

  // Open: a footer-cache hit that still re-reads and re-CRCs the footer.
  std::vector<double> open_s;
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span("fileio.open", Stage::kOpen);
    const double t0 = NowS();
    auto reader = LaqReader::Open(b->path);
    open_s.push_back(NowS() - t0);
    if (!reader.ok()) return reader.status();
  }
  layers->push_back({"fileio.open_ms", Median(open_s) * 1e3});

  // The file's own page byte ranges, loaded once.
  struct Page {
    size_t offset;  // into `bytes`
    size_t size;
    size_t decoded;
    uint32_t crc;
    hepq::Codec codec;
  };
  std::vector<uint8_t> bytes;
  std::vector<Page> pages;
  {
    std::FILE* f = std::fopen(b->path.c_str(), "rb");
    if (f == nullptr) return Status::IoError("cannot open " + b->path);
    for (const hepq::RowGroupMeta& rg : meta.row_groups) {
      for (const hepq::ChunkMeta& chunk : rg.chunks) {
        const size_t base = bytes.size();
        bytes.resize(base + chunk.compressed_size);
        if (std::fseek(f, static_cast<long>(chunk.file_offset), SEEK_SET) != 0 ||
            std::fread(bytes.data() + base, 1, chunk.compressed_size, f) !=
                chunk.compressed_size) {
          std::fclose(f);
          return Status::IoError("short read of chunk bytes");
        }
        if (chunk.pages.empty()) {
          pages.push_back({base, chunk.compressed_size, chunk.encoded_size,
                           chunk.crc32, chunk.codec});
        }
        size_t off = base;
        for (const hepq::PageMeta& page : chunk.pages) {
          pages.push_back({off, page.compressed_size, page.encoded_size,
                           page.crc32, chunk.codec});
          off += page.compressed_size;
        }
      }
    }
    std::fclose(f);
  }
  const double crc_s = TimeMedian(kReps, [&] {
    ScopedSpan span("fileio.crc32", Stage::kDecode);
    bool match = true;
    for (const Page& p : pages) {
      match &= hepq::Crc32(bytes.data() + p.offset, p.size) == p.crc;
    }
    return match;
  }, &ok);
  if (!ok) return Status::Corruption("page CRC mismatch in the probe");
  layers->push_back({"fileio.crc_mb_per_s", Ratio(bytes.size() / 1e6, crc_s)});

  std::vector<uint8_t> scratch_out;
  uint64_t decompressed = 0;
  const double lz_s = TimeMedian(kReps, [&] {
    ScopedSpan span("fileio.decompress", Stage::kDecode);
    decompressed = 0;
    for (const Page& p : pages) {
      if (p.codec != hepq::Codec::kLz) continue;
      if (!hepq::Decompress(p.codec, bytes.data() + p.offset, p.size,
                            p.decoded, &scratch_out)
               .ok()) {
        return false;
      }
      decompressed += p.decoded;
    }
    return true;
  }, &ok);
  if (!ok) return Status::Corruption("decompression failed in the probe");
  layers->push_back(
      {"fileio.decompress_mb_per_s", Ratio(decompressed / 1e6, lz_s)});

  // Leaf decode (storage path, no chunk cache), the filtered scan with the
  // workload's reader configuration, and materialization: a predicate-free
  // ReadRowGroup minus ReadLeafValues over the same leaves and options.
  double leaf_decode_s = 0.0, leaf_same_s = 0.0, scan_s = 0.0, read_s = 0.0;
  uint64_t decoded_bytes = 0, scan_bytes = 0;
  int64_t read_rows = 0;
  const bool cached = b->options.chunk_cache != nullptr;
  for (const ScanPlan& plan : plans) {
    const std::vector<std::string> leaves = ProjectedLeaves(meta, plan);
    auto leaf_pass = [&](bool use_cache, double* seconds, uint64_t* bytes_out) {
      std::unique_ptr<LaqReader> reader;
      HEPQ_ASSIGN_OR_RETURN(
          reader, LaqReader::Open(b->path,
                                  PlanReaderOptions(plan, b->options, use_cache)));
      hepq::ScratchBuffers scratch;
      Status status = Status::OK();
      *seconds += TimeMedian(kReps, [&] {
        ScopedSpan span("fileio.leaf_decode", Stage::kDecode);
        for (int g = 0; g < reader->num_row_groups(); ++g) {
          for (const std::string& leaf : leaves) {
            status = reader->ReadLeafValues(g, leaf, &scratch);
            if (!status.ok()) return false;
          }
        }
        return true;
      }, &ok);
      if (bytes_out != nullptr) {
        *bytes_out += reader->scan_stats().decoded_bytes / kReps;
      }
      return status;
    };
    HEPQ_RETURN_NOT_OK(leaf_pass(false, &leaf_decode_s, &decoded_bytes));
    HEPQ_RETURN_NOT_OK(leaf_pass(cached, &leaf_same_s, nullptr));

    std::unique_ptr<LaqReader> reader;
    HEPQ_ASSIGN_OR_RETURN(
        reader,
        LaqReader::Open(b->path, PlanReaderOptions(plan, b->options, cached)));
    hepq::ScratchBuffers scratch;
    Status status = Status::OK();
    scan_s += TimeMedian(kReps, [&] {
      ScopedSpan span("fileio.scan", Stage::kDecode);
      for (int g = 0; g < reader->num_row_groups(); ++g) {
        auto batch = reader->ReadRowGroupFiltered(g, plan.projection,
                                                  plan.predicates, &scratch);
        if (!batch.ok()) {
          status = batch.status();
          return false;
        }
      }
      return true;
    }, &ok);
    HEPQ_RETURN_NOT_OK(status);
    const ScanStats& s = reader->scan_stats();
    scan_bytes += (s.decoded_bytes + s.cache_bytes_served) / kReps;

    int64_t rows = 0;
    read_s += TimeMedian(kReps, [&] {
      ScopedSpan span("fileio.read_row_group", Stage::kDecode);
      rows = 0;
      for (int g = 0; g < reader->num_row_groups(); ++g) {
        auto batch = reader->ReadRowGroup(g, plan.projection, &scratch);
        if (!batch.ok()) {
          status = batch.status();
          return false;
        }
        if (*batch != nullptr) rows += (*batch)->num_rows();
      }
      return true;
    }, &ok);
    HEPQ_RETURN_NOT_OK(status);
    read_rows += rows;
  }
  if (!ok) return Status::Invalid("a storage probe failed");
  layers->push_back({"fileio.leaf_decode_mb_per_s",
                     Ratio(decoded_bytes / 1e6, leaf_decode_s)});
  layers->push_back({"fileio.scan_mb_per_s", Ratio(scan_bytes / 1e6, scan_s)});
  layers->push_back({"columnar.materialize_ns_per_event",
                     Ratio((read_s - leaf_same_s) * 1e9,
                           static_cast<double>(read_rows))});
  return Status::OK();
}

/// exec: RunRowGroups with the benchmark's own process function (read the
/// group filtered, run the BigQuery-shape plan on it), timing each task's
/// wait from RunRowGroups entry and its busy time. engine: the same plans'
/// ExecuteBatch over batches read up front and replayed.
Status ProbeExecAndEngine(Bench* b, const std::vector<ScanPlan>& plans,
                          Layers* layers) {
  constexpr int kReps = 3;
  std::vector<double> wait_us, busy_frac;
  double expr_s = 0.0;
  int64_t expr_events = 0;
  for (const ScanPlan& plan : plans) {
    if (plan.event_query == nullptr) continue;
    const hepq::engine::EventQuery& query = *plan.event_query;
    const ReaderOptions ropts =
        PlanReaderOptions(plan, b->options, b->options.chunk_cache != nullptr);
    for (int rep = 0; rep < kReps; ++rep) {
      hepq::exec::WorkerReaders readers(b->path, ropts, b->threads);
      const hepq::FileMetadata* meta;
      HEPQ_ASSIGN_OR_RETURN(meta, readers.metadata());
      std::vector<hepq::exec::RowGroupTask> tasks =
          hepq::exec::MakeRowGroupTasks(*meta);
      const int workers =
          hepq::exec::EffectiveWorkers(b->threads, tasks.size());
      std::vector<hepq::engine::EventQueryResult> partials(tasks.size());
      for (auto& p : partials) p = query.MakeResult();
      std::vector<double> start(tasks.size()), end(tasks.size());
      ScopedSpan span("exec.run_row_groups", Stage::kRowGroup);
      const double entry = NowS();
      HEPQ_RETURN_NOT_OK(hepq::exec::RunRowGroups(
          b->threads, tasks, [&](int worker, int g) -> Status {
            const size_t i = static_cast<size_t>(g);
            start[i] = NowS();
            LaqReader* reader;
            HEPQ_ASSIGN_OR_RETURN(reader, readers.reader(worker));
            hepq::RecordBatchPtr batch;
            HEPQ_ASSIGN_OR_RETURN(
                batch, reader->ReadRowGroupFiltered(g, plan.projection,
                                                    plan.predicates,
                                                    readers.scratch(worker)));
            Status status = Status::OK();
            if (batch != nullptr) status = query.ExecuteBatch(*batch, &partials[i]);
            end[i] = NowS();
            return status;
          }));
      const double wall = NowS() - entry;
      span.End();
      double busy = 0.0;
      for (size_t i = 0; i < tasks.size(); ++i) {
        wait_us.push_back((start[i] - entry) * 1e6);
        busy += end[i] - start[i];
      }
      busy_frac.push_back(Ratio(busy, workers * wall));
    }

    // Replay: batches read once, then ExecuteBatch timed on one thread.
    std::unique_ptr<LaqReader> reader;
    HEPQ_ASSIGN_OR_RETURN(reader, LaqReader::Open(b->path, ropts));
    std::vector<hepq::RecordBatchPtr> batches;
    hepq::ScratchBuffers scratch;
    for (int g = 0; g < reader->num_row_groups(); ++g) {
      hepq::RecordBatchPtr batch;
      HEPQ_ASSIGN_OR_RETURN(batch,
                            reader->ReadRowGroupFiltered(g, plan.projection,
                                                         plan.predicates,
                                                         &scratch));
      if (batch != nullptr) {
        expr_events += batch->num_rows();
        batches.push_back(std::move(batch));
      }
    }
    bool ok = true;
    expr_s += TimeMedian(kReps, [&] {
      ScopedSpan span("engine.execute_batch", Stage::kExpr);
      auto result = query.MakeResult();
      for (const auto& batch : batches) {
        if (!query.ExecuteBatch(*batch, &result).ok()) return false;
      }
      return true;
    }, &ok);
    if (!ok) return Status::Invalid("ExecuteBatch failed in the replay probe");
  }
  double wait_mean = 0.0;
  for (double w : wait_us) wait_mean += w;
  layers->push_back(
      {"exec.queue_wait_us", Ratio(wait_mean, static_cast<double>(wait_us.size()))});
  layers->push_back({"exec.worker_busy_frac", Median(busy_frac)});
  layers->push_back({"engine.expr_ns_per_event",
                     Ratio(expr_s * 1e9, static_cast<double>(expr_events))});
  return Status::OK();
}

/// cache: ChunkCache::Get over every resident key of the workload file.
void ProbeChunkServe(Bench* b, Layers* layers) {
  hepq::cache::ChunkCache* cache = b->options.chunk_cache.get();
  double mb_per_s = 0.0;
  if (cache != nullptr) {
    auto reader = LaqReader::Open(b->path);
    if (reader.ok()) {
      const int leaves = (*reader)->metadata().num_leaves();
      const int groups = (*reader)->num_row_groups();
      std::vector<uint8_t> out;
      std::vector<double> rates;
      for (int rep = 0; rep < 3; ++rep) {
        ScopedSpan span("cache.chunk_get", Stage::kCacheLookup);
        uint64_t served = 0;
        const double t0 = NowS();
        for (int g = 0; g < groups; ++g) {
          for (int l = 0; l < leaves; ++l) {
            if (cache->Get({(*reader)->file_id(), l, g}, &out)) {
              served += out.size();
            }
          }
        }
        rates.push_back(Ratio(served / 1e6, NowS() - t0));
      }
      mb_per_s = Median(rates);
    }
  }
  layers->push_back({"cache.chunk_served_mb_per_s", mb_per_s});
}

// ---- main -------------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CRC-32 of the whole data-set file: its content identity, which the
/// seed must change (the file name alone would differ either way).
Result<uint32_t> FileCrc32(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::vector<uint8_t> buf(1 << 20);
  uint32_t crc = 0;
  size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    crc = hepq::Crc32(buf.data(), n, crc);
  }
  std::fclose(f);
  return crc;
}

void EmitContext(Json* j, const Bench& b, const hepq::FileMetadata& meta,
                 uint32_t dataset_crc, const ScanStats& pass_scan) {
  j->Key("context").Open('{');
  j->Key("workload").Str(b.workload.name);
  j->Key("seed").Int(static_cast<int64_t>(b.args.seed));
  j->Key("events").Int(meta.total_rows);
  j->Key("row_groups").Int(static_cast<int64_t>(meta.row_groups.size()));
  j->Key("threads").Int(b.threads);
  j->Key("nproc").Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  j->Key("build_type").Str(HEPQ_PERFBENCH_BUILD_TYPE);
  j->Key("build_flags").Str(HEPQ_PERFBENCH_BUILD_FLAGS);
  j->Key("compiler").Str(HEPQ_PERFBENCH_COMPILER);
  j->Key("chunk_cache_budget_mb")
      .Num(b.options.chunk_cache != nullptr
               ? b.options.chunk_cache->budget_bytes() / 1e6
               : 0.0);
  // The working set next to the budget: bytes one untraced pass consumed
  // (decoded from storage or served by the chunk cache) and what stays
  // resident in the cache after it.
  j->Key("pass_consumed_mb")
      .Num((pass_scan.decoded_bytes + pass_scan.cache_bytes_served) / 1e6);
  j->Key("chunk_cache_resident_mb")
      .Num(b.options.chunk_cache != nullptr
               ? b.options.chunk_cache->counters().bytes_held / 1e6
               : 0.0);
  j->Key("result_cache").Bool(false);
  j->Key("seconds").Num(b.args.seconds);
  j->Key("trace").Bool(b.args.trace);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", dataset_crc);
  j->Key("dataset_crc32").Str(crc);
  j->Key("load").Str("closed loop, 1 client, cells back to back");
  j->Close('}');
}

/// Writes the data set kSetupReps times, each into a fresh directory; the
/// last copy is the one the workload reads. Returns the last timing.
Result<DatasetTiming> WriteDatasets(Bench* b, std::vector<double>* reps_s) {
  std::error_code ec;
  DatasetTiming timing;
  std::string previous_dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string dir = b->args.out + "/data_" +
                            std::to_string(getpid()) + "_" +
                            std::to_string(rep);
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    hepq::DatasetSpec spec;
    spec.num_events = b->args.events;
    spec.row_group_size = kRowGroupEvents;
    spec.seed = b->args.seed;
    b->path = dir + "/" + spec.FileName();
    HEPQ_ASSIGN_OR_RETURN(timing,
                          WriteDataset(b->path, b->args.seed, b->args.events));
    reps_s->push_back(timing.total_s);
    if (!previous_dir.empty()) fs::remove_all(previous_dir, ec);
    previous_dir = dir;
  }
  return timing;
}

/// What the timed passes leave behind besides the run records.
struct Passes {
  std::vector<double> untraced_s, traced_s;  ///< pass wall times
  std::map<std::string, TracedTotals> traced;  ///< by frontend key
  /// (file name, JSON) of the last traced pass: Chrome traces + reports.
  std::vector<std::pair<std::string, std::string>> last_traces;
  /// Scan stats and cache-counter deltas of the last untraced pass.
  ScanStats scan;
  hepq::cache::CacheCounters chunk, footer;
  std::vector<std::vector<double>> cpu_s;  ///< per cell, untraced runs
};

hepq::cache::CacheCounters Delta(hepq::cache::CacheCounters after,
                                 const hepq::cache::CacheCounters& before) {
  after.hits -= before.hits;
  after.misses -= before.misses;
  after.evictions -= before.evictions;
  return after;
}

void AddTraced(const Cell& cell, const CellRun& run,
               const hepq::obs::TraceSession& session, int threads,
               Passes* passes) {
  hepq::obs::RunInfo info;
  info.query = "Q" + std::to_string(cell.q);
  info.engine = hepq::queries::EngineKindName(cell.engine);
  info.threads = threads;
  info.events_processed = run.out.events_processed;
  info.wall_seconds = run.out.wall_seconds;
  info.cpu_seconds = run.out.cpu_seconds;
  const hepq::obs::RunReport report =
      hepq::obs::BuildRunReport(session, info, run.out.scan);
  TracedTotals& t = passes->traced[FrontendKey(cell.engine)];
  t.events += run.out.events_processed;
  t.ops += run.out.ops;
  for (const hepq::obs::StageSummary& s : report.stages) {
    if (s.stage == Stage::kEventLoop) t.event_loop_cpu_ns += s.cpu_ns;
    if (s.stage == Stage::kExpr) t.expr_cpu_ns += s.cpu_ns;
  }
  const double vops = report.vops_per_event() * info.events_processed;
  t.vops += vops;
  t.fused_vops += report.vexpr_fused_coverage() * vops;
  std::string name = CellName(cell);
  std::replace(name.begin(), name.end(), '/', '_');
  passes->last_traces.push_back(
      {name + ".trace.json", hepq::obs::ChromeTraceJson(session)});
  passes->last_traces.push_back(
      {name + ".report.json", hepq::obs::ReportToJson(report)});
}

/// Whole passes over the cells until --seconds have elapsed. With tracing,
/// passes alternate untraced / traced (at least one of each); end-to-end
/// numbers only ever come from untraced passes.
Passes TimedPasses(Bench* b) {
  auto chunk_counters = [b] {
    return b->options.chunk_cache != nullptr
               ? b->options.chunk_cache->counters()
               : hepq::cache::CacheCounters{};
  };
  auto& footer_cache = hepq::cache::FooterCache::Process();
  const size_t n_cells = b->workload.cells.size();
  Passes passes;
  passes.cpu_s.resize(n_cells);
  const double t0 = NowS();
  for (int pass = 0;; ++pass) {
    const bool traced = b->args.trace && pass % 2 == 1;
    const auto chunk0 = chunk_counters();
    const auto footer0 = footer_cache.counters();
    ScanStats scan;
    double pass_s = 0.0;
    if (traced) passes.last_traces.clear();
    for (size_t c = 0; c < n_cells; ++c) {
      hepq::obs::TraceSession session;
      if (traced) session.Start();
      CellRun run = b->Timed(pass, static_cast<int>(c), traced);
      session.Stop();
      pass_s += run.wall_s;
      if (!run.ok) continue;
      scan.Add(run.out.scan);
      if (traced) {
        AddTraced(b->workload.cells[c], run, session, b->threads, &passes);
      } else {
        passes.cpu_s[c].push_back(run.cpu_s);
      }
    }
    const hepq::cache::CacheCounters chunk = Delta(chunk_counters(), chunk0);
    // What makes `warm` warm: the reference pass left every chunk a pass
    // reads resident, so no pass decodes from storage or misses the cache.
    if (b->workload.chunk_cache &&
        (scan.decoded_bytes != 0 || chunk.misses != 0)) {
      b->Fail("pass " + std::to_string(pass) + " decoded " +
              std::to_string(scan.decoded_bytes) + " bytes from storage with " +
              std::to_string(chunk.misses) +
              " chunk-cache misses; the cache no longer holds the working set");
    }
    if (traced) {
      passes.traced_s.push_back(pass_s);
    } else {
      passes.untraced_s.push_back(pass_s);
      passes.scan = scan;
      passes.chunk = chunk;
      passes.footer = Delta(footer_cache.counters(), footer0);
    }
    const bool enough = !b->args.trace || pass >= 1;
    if (enough && NowS() - t0 >= b->args.seconds) break;
  }
  return passes;
}

/// The per-layer metrics of a traced run: the timed passes' counters and
/// stage tables, a 1-thread pass for CPU inflation, and the direct probes
/// (run under `probe_session`).
Layers PerLayer(Bench* b, const DatasetTiming& timing, Passes& passes,
                hepq::obs::TraceSession* probe_session) {
  // 1-thread pass of the same cells for the CPU-inflation ratio.
  RunOptions one = b->options;
  one.num_threads = 1;
  double cpu1 = 0.0, cpu4 = 0.0;
  for (size_t c = 0; c < b->workload.cells.size(); ++c) {
    CellRun run = RunCell(b->workload.cells[c], b->path, one);
    b->attempted += 1;
    if (!run.ok) {
      b->Fail(run.error);
      continue;
    }
    if (!SameBits(run.out.histograms, b->reference[c])) {
      b->Fail(CellName(b->workload.cells[c]) +
              ": 1-thread histograms differ from the reference run");
    }
    cpu1 += run.cpu_s;
    cpu4 += Median(passes.cpu_s[c]);
  }

  probe_session->Start();
  Layers layers;
  layers.push_back({"datagen.events_per_s",
                    Ratio(timing.events, timing.generate_s)});
  layers.push_back({"fileio.write_mb_per_s",
                    Ratio(timing.file_bytes / 1e6, timing.write_s)});
  int64_t events = 0;  // of one pass: pass 0 is always untraced
  for (const RunRecord& r : b->runs) {
    if (r.pass == 0) events += r.events;
  }
  const ScanStats& scan = passes.scan;
  layers.push_back({"fileio.decoded_bytes_per_event",
                    Ratio(scan.decoded_bytes, events)});
  layers.push_back({"fileio.storage_bytes_per_event",
                    Ratio(scan.storage_bytes, events)});
  layers.push_back({"fileio.pages_pruned_frac",
                    Ratio(scan.pages_pruned,
                          scan.pages_read + scan.pages_pruned)});
  auto plans = MakeScanPlans(b->workload);
  Status status = plans.status();
  if (status.ok()) status = ProbeFileio(b, *plans, &layers);
  if (status.ok()) status = ProbeExecAndEngine(b, *plans, &layers);
  if (!status.ok()) b->Fail("layer probe: " + status.ToString());
  const hepq::cache::CacheCounters& chunk = passes.chunk;
  layers.push_back({"cache.chunk_hit_rate",
                    Ratio(chunk.hits, chunk.hits + chunk.misses)});
  layers.push_back({"cache.chunk_evictions",
                    static_cast<double>(chunk.evictions)});
  layers.push_back({"cache.resident_mb", chunk.bytes_held / 1e6});
  ProbeChunkServe(b, &layers);
  const hepq::cache::CacheCounters& footer = passes.footer;
  layers.push_back({"cache.footer_hit_rate",
                    Ratio(footer.hits, footer.hits + footer.misses)});
  layers.push_back({"exec.cpu_inflation", Ratio(cpu4, cpu1)});
  const TracedTotals& presto = passes.traced["presto"];
  layers.push_back({"engine.flat_ns_per_event",
                    Ratio(presto.expr_cpu_ns + presto.event_loop_cpu_ns,
                          presto.events)});
  const TracedTotals& bq = passes.traced["bigquery"];
  layers.push_back({"engine.vops_per_event", Ratio(bq.vops, bq.events)});
  layers.push_back({"engine.fused_coverage", Ratio(bq.fused_vops, bq.vops)});
  layers.push_back({"engine.combinations_per_event", Ratio(bq.ops, bq.events)});
  const TracedTotals& rdf = passes.traced["rdf"];
  layers.push_back({"rdf.event_loop_ns_per_event",
                    Ratio(rdf.event_loop_cpu_ns, rdf.events)});
  const TracedTotals& doc = passes.traced["doc"];
  layers.push_back({"doc.flwor_ns_per_event",
                    Ratio(doc.event_loop_cpu_ns, doc.events)});
  layers.push_back({"doc.steps_per_event", Ratio(doc.ops, doc.events)});
  layers.push_back(
      {"obs.trace_overhead_pct",
       (Ratio(Median(passes.traced_s), Median(passes.untraced_s)) - 1.0) *
           100.0});
  probe_session->Stop();
  return layers;
}

/// Writes every span, the per-cell reports and the per-layer table under
/// --out, and echoes the table to stderr.
void WriteTraceOutputs(const Bench& b, const Passes& passes,
                       const hepq::obs::TraceSession& setup_session,
                       const hepq::obs::TraceSession& probe_session,
                       const Layers& layers) {
  const std::string label =
      b.workload.name + "_s" + std::to_string(b.args.seed);
  const std::string dir = b.args.out + "/trace_" + label;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir + "/cells", ec);
  for (const auto& [name, text] : passes.last_traces) {
    hepq::obs::WriteTextFile(dir + "/cells/" + name, text).Check();
  }
  hepq::obs::WriteTextFile(dir + "/setup.trace.json",
                           hepq::obs::ChromeTraceJson(setup_session))
      .Check();
  hepq::obs::WriteTextFile(dir + "/probes.trace.json",
                           hepq::obs::ChromeTraceJson(probe_session))
      .Check();
  std::string table =
      "per-layer metrics (" + label +
      "); *_ns_per_event from stage tables are thread-CPU sums, not a "
      "partition of wall time\n";
  for (const auto& [name, value] : layers) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %16.6g\n", name.c_str(), value);
    table += line;
  }
  hepq::obs::WriteTextFile(dir + "/per_layer.txt", table).Check();
  std::fputs(table.c_str(), stderr);
  std::fprintf(stderr, "spans and per-layer table: %s\n", dir.c_str());
}

int Main(int argc, char** argv) {
  const double t_start = NowS();
  Bench b;
  b.args = ParseArgs(argc, argv);
  {
    auto workload = MakeWorkload(b.args.workload);
    if (!workload.ok()) Usage(workload.status().ToString());
    b.workload = std::move(*workload);
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  b.threads = static_cast<int>(std::min(4u, nproc));
  b.options.num_threads = b.threads;
  if (b.workload.chunk_cache) {
    b.options.chunk_cache = std::make_shared<hepq::cache::ChunkCache>();
  }
  std::error_code ec;
  fs::create_directories(b.args.out, ec);
  if (ec) Usage("cannot create --out directory " + b.args.out);

  // Set-up: the data set from the seed, then the reference pass.
  hepq::obs::TraceSession setup_session;
  if (b.args.trace) setup_session.Start();
  std::vector<double> write_reps_s;
  auto timing = WriteDatasets(&b, &write_reps_s);
  if (!timing.ok()) {
    std::fprintf(stderr, "error: %s\n", timing.status().ToString().c_str());
    return 1;
  }
  const double t_ref = NowS();
  ReferencePass(&b);
  const double reference_s = NowS() - t_ref;
  setup_session.Stop();
  const double setup_s = Median(write_reps_s) + reference_s;
  if (b.args.inject_mismatch && !b.reference.empty() &&
      !b.reference[0].empty()) {
    b.reference[0][0] = PerturbOneUlp(b.reference[0][0]);
  }

  Passes passes = TimedPasses(&b);
  Layers layers;
  if (b.args.trace) {
    hepq::obs::TraceSession probe_session;
    layers = PerLayer(&b, *timing, passes, &probe_session);
    WriteTraceOutputs(b, passes, setup_session, probe_session, layers);
  }

  auto dataset_crc = FileCrc32(b.path);
  auto reader = LaqReader::Open(b.path);
  if (!dataset_crc.ok() || !reader.ok()) {
    std::fprintf(stderr, "error: cannot re-read the data set %s\n",
                 b.path.c_str());
    return 1;
  }
  Json j;
  j.Open('{');
  EmitContext(&j, b, (*reader)->metadata(), *dataset_crc, passes.scan);
  j.Key("setup").Open('{');
  j.Key("setup_s").Num(setup_s);
  j.Key("write_reps_s").Open('[');
  for (double s : write_reps_s) j.Num(s);
  j.Close(']');
  j.Key("reference_pass_s").Num(reference_s);
  j.Key("file_bytes").Int(static_cast<int64_t>(timing->file_bytes));
  j.Close('}');
  j.Key("cells").Open('[');
  for (const Cell& cell : b.workload.cells) {
    j.Open('{');
    j.Key("name").Str(CellName(cell));
    j.Key("frontend").Str(FrontendKey(cell.engine));
    j.Key("query").Int(cell.q);
    j.Close('}');
  }
  j.Close(']');
  j.Key("runs").Open('[');
  for (const RunRecord& r : b.runs) {
    j.Open('[');
    j.Int(r.pass).Int(r.cell).Num(r.wall_s).Num(r.cpu_s).Int(r.events);
    j.Bool(r.good).Bool(r.traced);
    j.Close(']');
  }
  j.Close(']');
  j.Key("attempted").Int(b.attempted);
  j.Key("failed").Int(b.failed);
  j.Key("errors").Open('[');
  for (const std::string& e : b.errors) j.Str(e);
  j.Close(']');
  j.Key("peak_rss_mb").Num(PeakRssMb());
  j.Key("layers").Open('{');
  for (const auto& [name, value] : layers) j.Key(name).Num(value);
  j.Close('}');
  j.Key("elapsed_s").Num(NowS() - t_start);
  j.Close('}');

  reader->reset();
  fs::remove_all(fs::path(b.path).parent_path(), ec);
  std::printf("%s\n", j.text().c_str());
  return b.failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
