#include "rdf/rdf.h"

#include <algorithm>
#include <utility>

#include "exec/exec.h"
#include "obs/trace.h"

namespace hepq::rdf {

double EventView::Get(DefineHandle handle) const {
  const size_t i = static_cast<size_t>(handle.index);
  if (!cache_->scalar_ready[i]) {
    cache_->scalar_values[i] = (*defines_)[i].fn(*this);
    cache_->scalar_ready[i] = 1;
  }
  return cache_->scalar_values[i];
}

const RVecD& EventView::Get(VecDefineHandle handle) const {
  const size_t i = static_cast<size_t>(handle.index);
  if (!cache_->vec_ready[i]) {
    cache_->vec_values[i] = (*vec_defines_)[i].fn(*this);
    cache_->vec_ready[i] = 1;
  }
  return cache_->vec_values[i];
}

RNode RNode::Filter(std::function<bool(const EventView&)> predicate,
                    std::string label) {
  return Filter(std::move(predicate), ScanPredicateSet{}, std::move(label));
}

RNode RNode::Filter(std::function<bool(const EventView&)> predicate,
                    ScanPredicateSet hint, std::string label) {
  RDataFrame::Node node;
  node.parent = node_;
  node.predicate = std::move(predicate);
  node.label = std::move(label);
  node.hint = std::move(hint);
  df_->nodes_.push_back(std::move(node));
  return RNode(df_, static_cast<int>(df_->nodes_.size()) - 1);
}

HistoHandle RNode::Histo1D(HistogramSpec spec,
                           std::function<double(const EventView&)> value) {
  RDataFrame::Booking booking;
  booking.node = node_;
  booking.scalar_value = std::move(value);
  booking.spec = std::move(spec);
  df_->bookings_.push_back(std::move(booking));
  return HistoHandle{static_cast<int>(df_->bookings_.size()) - 1};
}

HistoHandle RNode::Histo1DVec(HistogramSpec spec,
                              std::function<RVecD(const EventView&)> values) {
  RDataFrame::Booking booking;
  booking.node = node_;
  booking.vec_value = std::move(values);
  booking.spec = std::move(spec);
  df_->bookings_.push_back(std::move(booking));
  return HistoHandle{static_cast<int>(df_->bookings_.size()) - 1};
}

CountHandle RNode::Count() {
  RDataFrame::Booking booking;
  booking.node = node_;
  booking.is_count = true;
  df_->bookings_.push_back(std::move(booking));
  return CountHandle{static_cast<int>(df_->bookings_.size()) - 1};
}

HistoHandle RNode::WeightedHisto1D(
    HistogramSpec spec, std::function<double(const EventView&)> value,
    std::function<double(const EventView&)> weight) {
  RDataFrame::Booking booking;
  booking.node = node_;
  booking.scalar_value = std::move(value);
  booking.weight = std::move(weight);
  booking.spec = std::move(spec);
  df_->bookings_.push_back(std::move(booking));
  return HistoHandle{static_cast<int>(df_->bookings_.size()) - 1};
}

SumHandle RNode::Sum(std::function<double(const EventView&)> value) {
  RDataFrame::Booking booking;
  booking.node = node_;
  booking.is_sum = true;
  booking.scalar_value = std::move(value);
  df_->bookings_.push_back(std::move(booking));
  return SumHandle{static_cast<int>(df_->bookings_.size()) - 1};
}

Result<std::unique_ptr<RDataFrame>> RDataFrame::Open(const std::string& path,
                                                     RdfOptions options) {
  // `path` is a .laq file or a sharded dataset directory. This schema-time
  // resolution checks the shards share one schema, which leaf
  // declarations are typed against, and gives the dataset's shape; Run
  // scans through exec::ScanDataset, which resolves the layout again
  // inside the run window.
  exec::DatasetLayout layout;
  HEPQ_ASSIGN_OR_RETURN(layout,
                        exec::ResolveDatasetLayout(path, options.reader));
  auto df = std::unique_ptr<RDataFrame>(new RDataFrame(options));
  df->path_ = path;
  df->layout_ = std::move(layout);
  return df;
}

Status RDataFrame::DeclareLeaf(const std::string& leaf_path, bool particle,
                               TypeId expected, int* slot) {
  for (size_t i = 0; i < leaves_.size(); ++i) {
    if (leaves_[i].path == leaf_path) {
      if (leaves_[i].particle != particle) {
        return Status::Invalid("leaf '" + leaf_path +
                               "' declared as both scalar and particle");
      }
      if (leaves_[i].physical != expected) {
        return Status::TypeError("leaf '" + leaf_path +
                                 "' declared with two different types");
      }
      *slot = static_cast<int>(i);
      return Status::OK();
    }
  }
  const Schema& schema = layout_.schema;
  const size_t dot = leaf_path.find('.');
  const std::string column = dot == std::string::npos
                                 ? leaf_path
                                 : leaf_path.substr(0, dot);
  Field field;
  HEPQ_ASSIGN_OR_RETURN(field, schema.FindField(column));
  const DataType& type = *field.type;
  TypeId physical;
  if (dot == std::string::npos) {
    if (type.id() == TypeId::kList && type.item_type()->is_primitive()) {
      // ROOT-layout branch (e.g. "Jet_pt": list<float32>).
      if (!particle) {
        return Status::Invalid("list column '" + column +
                               "' must be declared as a particle leaf");
      }
      physical = type.item_type()->id();
    } else if (!type.is_primitive()) {
      return Status::Invalid("column '" + column +
                             "' is nested; name a member leaf");
    } else if (particle) {
      return Status::Invalid("scalar column '" + column +
                             "' declared as particle leaf");
    } else {
      physical = type.id();
    }
  } else {
    const std::string member = leaf_path.substr(dot + 1);
    const DataType* struct_type = nullptr;
    bool is_list = false;
    if (type.id() == TypeId::kStruct) {
      struct_type = &type;
    } else if (type.id() == TypeId::kList) {
      is_list = true;
      if (type.item_type()->id() != TypeId::kStruct) {
        return Status::Invalid("list column '" + column +
                               "' does not contain structs");
      }
      struct_type = type.item_type().get();
    } else {
      return Status::Invalid("column '" + column + "' has no members");
    }
    if (particle != is_list) {
      return Status::Invalid("leaf '" + leaf_path + "' is " +
                             (is_list ? "per-particle" : "per-event") +
                             " but was declared otherwise");
    }
    const int m = struct_type->FieldIndex(member);
    if (m < 0) {
      return Status::KeyError("no member '" + member + "' in column '" +
                              column + "'");
    }
    physical = struct_type->fields()[static_cast<size_t>(m)].type->id();
  }
  if (physical != expected) {
    return Status::TypeError("leaf '" + leaf_path + "' has type " +
                             TypeIdName(physical) + ", requested " +
                             TypeIdName(expected));
  }
  leaves_.push_back(DeclaredLeaf{leaf_path, particle, physical});
  *slot = static_cast<int>(leaves_.size()) - 1;
  return Status::OK();
}

DefineHandle RDataFrame::Define(std::string name,
                                std::function<double(const EventView&)> fn) {
  defines_.push_back(internal::DefineSlot{std::move(name), std::move(fn)});
  return DefineHandle{static_cast<int>(defines_.size()) - 1};
}

VecDefineHandle RDataFrame::DefineVec(
    std::string name, std::function<RVecD(const EventView&)> fn) {
  vec_defines_.push_back(
      internal::VecDefineSlot{std::move(name), std::move(fn)});
  return VecDefineHandle{static_cast<int>(vec_defines_.size()) - 1};
}

Status RDataFrame::ResolveBatch(const RecordBatch& batch,
                                std::vector<internal::LeafRef>* out) const {
  out->resize(leaves_.size());
  for (size_t i = 0; i < leaves_.size(); ++i) {
    const DeclaredLeaf& leaf = leaves_[i];
    const size_t dot = leaf.path.find('.');
    const std::string column =
        dot == std::string::npos ? leaf.path : leaf.path.substr(0, dot);
    ArrayPtr array = batch.ColumnByName(column);
    if (array == nullptr) {
      return Status::KeyError("batch is missing column '" + column + "'");
    }
    internal::LeafRef ref;
    const Array* values = array.get();
    if (array->type()->id() == TypeId::kList) {
      const auto& list = static_cast<const ListArray&>(*array);
      ref.offsets = list.offsets().data();
      values = list.child().get();
    }
    if (dot != std::string::npos && values->type()->id() == TypeId::kStruct) {
      const std::string member = leaf.path.substr(dot + 1);
      const auto& st = static_cast<const StructArray&>(*values);
      ArrayPtr child = st.ChildByName(member);
      if (child == nullptr) {
        return Status::KeyError("batch is missing leaf '" + leaf.path + "'");
      }
      values = child.get();
    }
    switch (leaf.physical) {
      case TypeId::kFloat32:
        ref.data = static_cast<const Float32Array*>(values)->raw();
        break;
      case TypeId::kFloat64:
        ref.data = static_cast<const Float64Array*>(values)->raw();
        break;
      case TypeId::kInt32:
        ref.data = static_cast<const Int32Array*>(values)->raw();
        break;
      case TypeId::kInt64:
        ref.data = static_cast<const Int64Array*>(values)->raw();
        break;
      case TypeId::kBool:
        ref.data = static_cast<const BoolArray*>(values)->raw();
        break;
      default:
        return Status::TypeError("unexpected leaf type");
    }
    (*out)[i] = ref;
  }
  return Status::OK();
}

Status RDataFrame::ProcessRowGroup(
    const RecordBatch& batch, std::vector<Histogram1D>* histograms,
    std::vector<int64_t>* counts, std::vector<double>* sums,
    std::vector<NodeCounters>* node_counters) const {
  std::vector<internal::LeafRef> leaves;
  HEPQ_RETURN_NOT_OK(ResolveBatch(batch, &leaves));

  internal::DefineCache cache;
  cache.scalar_ready.assign(defines_.size(), 0);
  cache.scalar_values.assign(defines_.size(), 0.0);
  cache.vec_ready.assign(vec_defines_.size(), 0);
  cache.vec_values.assign(vec_defines_.size(), RVecD{});

  // -1 unknown, 0 fail, 1 pass; reset per event.
  std::vector<int8_t> node_state(nodes_.size());

  const int64_t rows = batch.num_rows();
  for (int64_t row = 0; row < rows; ++row) {
    std::fill(cache.scalar_ready.begin(), cache.scalar_ready.end(), 0);
    std::fill(cache.vec_ready.begin(), cache.vec_ready.end(), 0);
    std::fill(node_state.begin(), node_state.end(), -1);
    node_state[0] = 1;

    EventView view(leaves, static_cast<size_t>(row), &defines_,
                   &vec_defines_, &cache);

    // Lazily evaluates whether the event reaches node `n`.
    auto reaches = [&](int n) {
      // Walk up to the closest decided ancestor, then back down.
      int cursor = n;
      std::vector<int> pending;
      while (node_state[static_cast<size_t>(cursor)] == -1) {
        pending.push_back(cursor);
        cursor = nodes_[static_cast<size_t>(cursor)].parent;
      }
      bool pass = node_state[static_cast<size_t>(cursor)] == 1;
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        if (pass) {
          NodeCounters& counters = (*node_counters)[static_cast<size_t>(*it)];
          ++counters.examined;
          pass = nodes_[static_cast<size_t>(*it)].predicate(view);
          if (pass) ++counters.passed;
        }
        node_state[static_cast<size_t>(*it)] = pass ? 1 : 0;
      }
      return pass;
    };

    for (size_t b = 0; b < bookings_.size(); ++b) {
      const Booking& booking = bookings_[b];
      if (!reaches(booking.node)) continue;
      if (booking.is_count) {
        ++(*counts)[b];
      } else if (booking.is_sum) {
        (*sums)[b] += booking.scalar_value(view);
      } else if (booking.scalar_value) {
        const double weight =
            booking.weight ? booking.weight(view) : 1.0;
        (*histograms)[b].Fill(booking.scalar_value(view), weight);
      } else {
        for (double v : booking.vec_value(view)) {
          (*histograms)[b].Fill(v);
        }
      }
    }
  }
  return Status::OK();
}

Status RDataFrame::Run() {
  if (ran_) return Status::Invalid("RDataFrame::Run called twice");
  ran_ = true;

  node_counters_.assign(nodes_.size(), NodeCounters{});
  std::vector<Histogram1D> empty_histos(bookings_.size());
  for (size_t b = 0; b < bookings_.size(); ++b) {
    if (!bookings_[b].is_count && !bookings_[b].is_sum) {
      empty_histos[b] = Histogram1D(bookings_[b].spec);
    }
  }

  // Scan hint: the hint of a filter sitting directly below the root and
  // above every booked action gates all output, so a row group its hint
  // proves dead can be skipped with an exact cutflow ledger — the hint is
  // a necessary condition of that filter, so every skipped row would have
  // been examined by it and failed, and no deeper node ever ran. Hints
  // anywhere else in the graph are ignored: skipping there would change
  // ancestor filters' examined/passed counters in unknowable ways.
  int hint_node = -1;
  if (!bookings_.empty()) {
    for (size_t n = 1; n < nodes_.size(); ++n) {
      if (nodes_[n].parent != 0 || nodes_[n].hint.empty()) continue;
      bool covers_all = true;
      for (const Booking& booking : bookings_) {
        int cursor = booking.node;
        while (cursor > 0 && cursor != static_cast<int>(n)) {
          cursor = nodes_[static_cast<size_t>(cursor)].parent;
        }
        if (cursor != static_cast<int>(n)) {
          covers_all = false;
          break;
        }
      }
      if (covers_all) {
        hint_node = static_cast<int>(n);
        break;
      }
    }
  }

  // Histograms AND sums are FP; counts and node counters are integers but
  // flow through the same two-level merge for uniformity.
  struct Partial {
    std::vector<Histogram1D> histos;
    std::vector<int64_t> counts;
    std::vector<double> sums;
    std::vector<NodeCounters> nodes;
    int64_t events = 0;
  };
  exec::DatasetScan<Partial> scan;
  for (const DeclaredLeaf& leaf : leaves_) scan.projection.push_back(leaf.path);
  if (scan.projection.empty()) {
    // Actions that touch no columns (e.g. a bare Count) still need a scan
    // driver; read the cheapest scalar column.
    scan.projection.push_back(layout_.schema.field(0).name);
  }
  if (hint_node >= 0) {
    scan.predicates = nodes_[static_cast<size_t>(hint_node)].hint;
  }
  scan.plan = [&](const exec::DatasetLayout& layout) {
    run_stats_.row_groups = layout.num_groups();
    return Status::OK();
  };
  scan.make_partial = [&] {
    Partial p;
    p.histos = empty_histos;
    p.counts.assign(bookings_.size(), 0);
    p.sums.assign(bookings_.size(), 0.0);
    p.nodes.assign(nodes_.size(), NodeCounters{});
    return p;
  };
  scan.process = [&](const exec::ScanGroup& group, const RecordBatch& batch,
                     Partial* p) -> Status {
    obs::ScopedSpan loop_span("rdf_event_loop", obs::Stage::kEventLoop);
    if (loop_span.active()) {
      loop_span.set_worker(group.worker);
      loop_span.set_group(group.group);
    }
    HEPQ_RETURN_NOT_OK(
        ProcessRowGroup(batch, &p->histos, &p->counts, &p->sums, &p->nodes));
    p->events = batch.num_rows();
    return Status::OK();
  };
  scan.pruned = [&](const exec::DatasetLayout::Group& loc, Partial* p) {
    // Every row reaches the hinted filter and fails it, so only that
    // node's examined counter moves.
    p->events = loc.num_rows;
    p->nodes[static_cast<size_t>(hint_node)].examined += loc.num_rows;
  };
  scan.merge = [&](Partial* from, Partial* into) -> Status {
    for (size_t b = 0; b < bookings_.size(); ++b) {
      if (bookings_[b].is_count) {
        into->counts[b] += from->counts[b];
      } else if (bookings_[b].is_sum) {
        into->sums[b] += from->sums[b];
      } else {
        HEPQ_RETURN_NOT_OK(into->histos[b].Merge(from->histos[b]));
      }
    }
    for (size_t n = 0; n < nodes_.size(); ++n) {
      into->nodes[n].examined += from->nodes[n].examined;
      into->nodes[n].passed += from->nodes[n].passed;
    }
    into->events += from->events;
    return Status::OK();
  };
  Partial total = scan.make_partial();
  exec::RunTotals totals;
  HEPQ_ASSIGN_OR_RETURN(totals,
                        exec::ScanDataset(path_, options_.reader,
                                          options_.num_threads, scan, &total));
  results_ = std::move(total.histos);
  count_results_ = std::move(total.counts);
  sum_results_ = std::move(total.sums);
  node_counters_ = std::move(total.nodes);
  run_stats_.events_processed = total.events;
  run_stats_.scan = std::move(totals.scan);
  run_stats_.wall_seconds = totals.wall_seconds;
  run_stats_.cpu_seconds = totals.cpu_seconds;
  return Status::OK();
}

const Histogram1D& RDataFrame::GetHistogram(HistoHandle handle) const {
  return results_[static_cast<size_t>(handle.index)];
}

int64_t RDataFrame::GetCount(CountHandle handle) const {
  return count_results_[static_cast<size_t>(handle.index)];
}

double RDataFrame::GetSum(SumHandle handle) const {
  return sum_results_[static_cast<size_t>(handle.index)];
}

std::vector<FilterReport> RDataFrame::Report() const {
  std::vector<FilterReport> report;
  for (size_t n = 1; n < nodes_.size(); ++n) {  // skip the root
    FilterReport entry;
    entry.label = nodes_[n].label.empty()
                      ? "filter_" + std::to_string(n)
                      : nodes_[n].label;
    entry.examined = node_counters_[n].examined;
    entry.passed = node_counters_[n].passed;
    report.push_back(std::move(entry));
  }
  return report;
}

}  // namespace hepq::rdf
