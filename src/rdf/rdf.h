#ifndef HEPQUERY_RDF_RDF_H_
#define HEPQUERY_RDF_RDF_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "columnar/array.h"
#include "core/histogram.h"
#include "core/status.h"
#include "exec/exec.h"
#include "fileio/reader.h"
#include "rdf/rvec.h"

namespace hepq::rdf {

// A miniature re-implementation of ROOT's RDataFrame programming model
// (Guiraud, Naumann, Piparo 2017): a lazy functional chain of Filter /
// Define nodes terminated by histogram actions, executed event-at-a-time
// over columnar storage, with optional implicit multithreading at row-group
// ("cluster") granularity. As in ROOT, the columnar storage format is part
// of the programming model: the user names the physical leaf columns
// ("Jet.pt") they read, which is exactly the property the paper contrasts
// with declarative engines.

class RDataFrame;
class EventView;

/// Typed handle to a scalar leaf column ("MET.pt", "event", ...).
template <typename T>
struct ScalarColumn {
  int slot = -1;
};

/// Typed handle to a per-particle leaf column ("Jet.pt", "Muon.charge").
template <typename T>
struct ParticleColumn {
  int slot = -1;
};

/// Handle to a lazily computed, per-event-cached scalar Define.
struct DefineHandle {
  int index = -1;
};

/// Handle to a lazily computed, per-event-cached vector Define.
struct VecDefineHandle {
  int index = -1;
};

namespace internal {

struct LeafRef {
  const void* data = nullptr;        // raw values of the leaf
  const uint32_t* offsets = nullptr; // list offsets, or nullptr for scalars
};

struct DefineSlot {
  std::string name;
  std::function<double(const EventView&)> fn;
};

struct VecDefineSlot {
  std::string name;
  std::function<RVecD(const EventView&)> fn;
};

struct NodeData;

/// Per-event lazy-evaluation cache for Define results.
struct DefineCache {
  std::vector<uint8_t> scalar_ready;
  std::vector<double> scalar_values;
  std::vector<uint8_t> vec_ready;
  std::vector<RVecD> vec_values;
};

}  // namespace internal

/// Read-only view of one event, handed to Filter/Define/Histo lambdas.
class EventView {
 public:
  template <typename T>
  T Get(ScalarColumn<T> column) const {
    return static_cast<const T*>(
        leaves_[static_cast<size_t>(column.slot)].data)[row_];
  }

  template <typename T>
  std::span<const T> Get(ParticleColumn<T> column) const {
    const internal::LeafRef& leaf = leaves_[static_cast<size_t>(column.slot)];
    const uint32_t begin = leaf.offsets[row_];
    const uint32_t end = leaf.offsets[row_ + 1];
    return {static_cast<const T*>(leaf.data) + begin, end - begin};
  }

  /// Value of a scalar Define, computed at most once per event.
  double Get(DefineHandle handle) const;
  /// Value of a vector Define, computed at most once per event.
  const RVecD& Get(VecDefineHandle handle) const;

  int64_t row() const { return static_cast<int64_t>(row_); }

 private:
  friend class RDataFrame;
  EventView(std::span<const internal::LeafRef> leaves, size_t row,
            const std::vector<internal::DefineSlot>* defines,
            const std::vector<internal::VecDefineSlot>* vec_defines,
            internal::DefineCache* cache)
      : leaves_(leaves),
        row_(row),
        defines_(defines),
        vec_defines_(vec_defines),
        cache_(cache) {}

  std::span<const internal::LeafRef> leaves_;
  size_t row_;
  const std::vector<internal::DefineSlot>* defines_;
  const std::vector<internal::VecDefineSlot>* vec_defines_;
  internal::DefineCache* cache_;
};

/// Handle to a booked histogram action; redeemable after Run().
struct HistoHandle {
  int index = -1;
};
/// Handle to a booked Count action.
struct CountHandle {
  int index = -1;
};
/// Handle to a booked Sum action.
struct SumHandle {
  int index = -1;
};

/// Cutflow entry of one Filter node (RDataFrame's Report()): how many
/// events reached the filter and how many passed it. `examined` counts
/// only events for which the predicate actually ran (lazy evaluation
/// skips filters no booked action needed).
struct FilterReport {
  std::string label;
  int64_t examined = 0;
  int64_t passed = 0;
};

/// A node in the filter chain. Copies are cheap references to the graph.
class RNode {
 public:
  /// Appends a filter below this node; events reaching the new node must
  /// satisfy `predicate` in addition to all ancestors.
  RNode Filter(std::function<bool(const EventView&)> predicate,
               std::string label = "");

  /// Like Filter, with a machine-readable scan hint: `hint` must hold a
  /// set of *necessary* conditions of `predicate` (rows outside a hinted
  /// range cannot pass it). The predicate lambda stays authoritative —
  /// the hint only lets the storage layer zone-map-prune row groups and
  /// pages, and it is honored only when this filter sits directly below
  /// the root and above every booked action, where skipping provably
  /// failing events cannot change any result or cutflow counter.
  RNode Filter(std::function<bool(const EventView&)> predicate,
               ScanPredicateSet hint, std::string label = "");

  /// Books a 1-D histogram filled with `value` for every event reaching
  /// this node.
  HistoHandle Histo1D(HistogramSpec spec,
                      std::function<double(const EventView&)> value);

  /// Like Histo1D but with a per-event weight (e.g. generator weights).
  HistoHandle WeightedHisto1D(HistogramSpec spec,
                              std::function<double(const EventView&)> value,
                              std::function<double(const EventView&)> weight);

  /// Books a histogram where one event may contribute any number of
  /// entries (e.g. all jet pts): `values` returns all fill values.
  HistoHandle Histo1DVec(HistogramSpec spec,
                         std::function<RVecD(const EventView&)> values);

  /// Books a counter of events reaching this node.
  CountHandle Count();

  /// Books a sum of `value` over the events reaching this node.
  SumHandle Sum(std::function<double(const EventView&)> value);

 private:
  friend class RDataFrame;
  RNode(RDataFrame* df, int node_index) : df_(df), node_(node_index) {}
  RDataFrame* df_;
  int node_;
};

struct RdfOptions {
  /// Worker threads; row groups ("clusters") are the scheduling unit,
  /// mirroring ROOT's implicit-MT design.
  int num_threads = 1;
  ReaderOptions reader;
};

struct RdfRunStats {
  ScanStats scan;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  int64_t events_processed = 0;
  int row_groups = 0;
};

/// The data-frame root: owns the node graph, bookings, and execution.
class RDataFrame {
 public:
  static Result<std::unique_ptr<RDataFrame>> Open(const std::string& path,
                                                  RdfOptions options = {});

  /// Declares a scalar leaf column dependency ("MET.pt", "event").
  template <typename T>
  Result<ScalarColumn<T>> Scalar(const std::string& leaf_path) {
    int slot = -1;
    HEPQ_RETURN_NOT_OK(DeclareLeaf(leaf_path, /*particle=*/false,
                                   ExpectedTypeId<T>(), &slot));
    return ScalarColumn<T>{slot};
  }

  /// Declares a per-particle leaf column dependency ("Jet.pt").
  template <typename T>
  Result<ParticleColumn<T>> Particles(const std::string& leaf_path) {
    int slot = -1;
    HEPQ_RETURN_NOT_OK(DeclareLeaf(leaf_path, /*particle=*/true,
                                   ExpectedTypeId<T>(), &slot));
    return ParticleColumn<T>{slot};
  }

  /// Registers a named, per-event-cached scalar computation.
  DefineHandle Define(std::string name,
                      std::function<double(const EventView&)> fn);
  /// Registers a named, per-event-cached vector computation.
  VecDefineHandle DefineVec(std::string name,
                            std::function<RVecD(const EventView&)> fn);

  /// The unfiltered root node.
  RNode root() { return RNode(this, 0); }

  /// Executes all booked actions in one pass over the data.
  Status Run();

  const Histogram1D& GetHistogram(HistoHandle handle) const;
  int64_t GetCount(CountHandle handle) const;
  double GetSum(SumHandle handle) const;

  /// Cutflow of all labelled and unlabelled Filter nodes, in creation
  /// order (the root is omitted). Only valid after Run().
  std::vector<FilterReport> Report() const;
  const RdfRunStats& run_stats() const { return run_stats_; }
  int64_t total_rows() const { return layout_.total_rows; }
  int num_row_groups() const { return layout_.num_groups(); }

 private:
  friend class RNode;
  struct Booking;
  struct Node;

  explicit RDataFrame(RdfOptions options) : options_(options) {
    nodes_.push_back(Node{});  // root
  }

  template <typename T>
  static TypeId ExpectedTypeId();

  Status DeclareLeaf(const std::string& leaf_path, bool particle,
                     TypeId expected, int* slot);

  struct DeclaredLeaf {
    std::string path;
    bool particle;
    TypeId physical;
  };

  struct Node {
    int parent = -1;
    std::function<bool(const EventView&)> predicate;  // null for root
    std::string label;
    /// Necessary conditions of `predicate` for zone-map pruning (empty
    /// unless the hinted Filter overload was used).
    ScanPredicateSet hint;
  };

  struct Booking {
    int node = 0;
    // Exactly one of scalar_value / vec_value / is_count is active;
    // is_sum reinterprets scalar_value as a summand.
    std::function<double(const EventView&)> scalar_value;
    std::function<double(const EventView&)> weight;  // optional
    std::function<RVecD(const EventView&)> vec_value;
    bool is_count = false;
    bool is_sum = false;
    HistogramSpec spec;
  };

  struct NodeCounters {
    int64_t examined = 0;
    int64_t passed = 0;
  };

  /// Resolves declared leaves against one row-group batch.
  Status ResolveBatch(const RecordBatch& batch,
                      std::vector<internal::LeafRef>* out) const;

  /// Processes one row group into thread-local results.
  Status ProcessRowGroup(const RecordBatch& batch,
                         std::vector<Histogram1D>* histograms,
                         std::vector<int64_t>* counts,
                         std::vector<double>* sums,
                         std::vector<NodeCounters>* node_counters) const;

  std::string path_;
  exec::DatasetLayout layout_;  // schema-time layout (see Open)
  RdfOptions options_;
  std::vector<DeclaredLeaf> leaves_;
  std::vector<internal::DefineSlot> defines_;
  std::vector<internal::VecDefineSlot> vec_defines_;
  std::vector<Node> nodes_;
  std::vector<Booking> bookings_;
  std::vector<Histogram1D> results_;
  std::vector<int64_t> count_results_;
  std::vector<double> sum_results_;
  std::vector<NodeCounters> node_counters_;
  RdfRunStats run_stats_;
  bool ran_ = false;
};

template <>
inline TypeId RDataFrame::ExpectedTypeId<float>() {
  return TypeId::kFloat32;
}
template <>
inline TypeId RDataFrame::ExpectedTypeId<double>() {
  return TypeId::kFloat64;
}
template <>
inline TypeId RDataFrame::ExpectedTypeId<int32_t>() {
  return TypeId::kInt32;
}
template <>
inline TypeId RDataFrame::ExpectedTypeId<int64_t>() {
  return TypeId::kInt64;
}
template <>
inline TypeId RDataFrame::ExpectedTypeId<uint8_t>() {
  return TypeId::kBool;
}

}  // namespace hepq::rdf

#endif  // HEPQUERY_RDF_RDF_H_
