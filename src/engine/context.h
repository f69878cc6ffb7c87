#ifndef HEPQUERY_ENGINE_CONTEXT_H_
#define HEPQUERY_ENGINE_CONTEXT_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "columnar/array.h"
#include "core/status.h"

namespace hepq::engine {

/// Untyped read accessor for one primitive leaf; converts to double at the
/// access site (the engine computes in double precision like BigQuery,
/// which exposes only 64-bit numeric types to queries).
struct MemberAccessor {
  TypeId type = TypeId::kFloat64;
  const void* data = nullptr;

  double Get(uint32_t i) const {
    switch (type) {
      case TypeId::kFloat32:
        return static_cast<const float*>(data)[i];
      case TypeId::kFloat64:
        return static_cast<const double*>(data)[i];
      case TypeId::kInt32:
        return static_cast<const int32_t*>(data)[i];
      case TypeId::kInt64:
        return static_cast<double>(static_cast<const int64_t*>(data)[i]);
      case TypeId::kBool:
        return static_cast<const uint8_t*>(data)[i];
      default:
        // Unsupported leaf types are rejected with a Status when the
        // accessor is built (AccessorFor in context.cc), so this branch is
        // unreachable for any bound accessor. A hand-rolled accessor that
        // slips through yields NaN — loud in every histogram — instead of
        // a silent 0.0 masquerading as data.
        assert(false && "MemberAccessor bound to a non-primitive type");
        return std::numeric_limits<double>::quiet_NaN();
    }
  }

  /// out[k] = Get(first + k) for k < n, with the type switch hoisted out
  /// of the loop so each case is one contiguous converting copy.
  void GetRange(uint32_t first, size_t n, double* out) const {
    switch (type) {
      case TypeId::kFloat32:
        ConvertRange(static_cast<const float*>(data) + first, n, out);
        return;
      case TypeId::kFloat64:
        ConvertRange(static_cast<const double*>(data) + first, n, out);
        return;
      case TypeId::kInt32:
        ConvertRange(static_cast<const int32_t*>(data) + first, n, out);
        return;
      case TypeId::kInt64:
        ConvertRange(static_cast<const int64_t*>(data) + first, n, out);
        return;
      case TypeId::kBool:
        ConvertRange(static_cast<const uint8_t*>(data) + first, n, out);
        return;
      default:
        for (size_t k = 0; k < n; ++k) {
          out[k] = Get(first + static_cast<uint32_t>(k));
        }
        return;
    }
  }

 private:
  template <typename T>
  static void ConvertRange(const T* src, size_t n, double* out) {
    for (size_t k = 0; k < n; ++k) out[k] = static_cast<double>(src[k]);
  }
};

/// A particle list column bound to a batch: shared offsets plus one
/// accessor per declared member, in declaration order.
struct ListBinding {
  const uint32_t* offsets = nullptr;
  std::vector<MemberAccessor> members;

  uint32_t begin(uint32_t row) const { return offsets[row]; }
  uint32_t end(uint32_t row) const { return offsets[row + 1]; }
  uint32_t size(uint32_t row) const { return end(row) - begin(row); }
};

/// One source collection of a derived union list (see ListDecl).
struct UnionSource {
  std::string column;                // e.g. "Electron"
  std::vector<std::string> members;  // parallel to the union's members
  double tag = 0.0;  // value of the implicit trailing "tag" member, if any
};

/// Compile-time declaration of the columns a query touches.
///
/// When `union_sources` is non-empty the declaration describes a *derived*
/// list materialized per batch by concatenating the sources per event —
/// the "Leptons AS (...)" CTE / hep:concat-leptons() pattern of Q7/Q8.
/// Each source maps its member paths onto the union's members in order;
/// if a source lists one member fewer than the union declares, the last
/// union member is filled with the source's constant `tag` (the flavor
/// column distinguishing electrons from muons).
struct ListDecl {
  std::string column;                // e.g. "Jet", or a synthetic name
  std::vector<std::string> members;  // e.g. {"pt", "eta"}
  std::vector<UnionSource> union_sources;
};

struct ScalarDecl {
  std::string leaf_path;  // e.g. "MET.pt" or "event"
};

/// Declarations resolved against one RecordBatch. Move-only: derived
/// (union) lists point into internal buffers, which a copy would not
/// share. The batch must outlive the bindings.
class BatchBindings {
 public:
  BatchBindings() = default;
  BatchBindings(BatchBindings&&) = default;
  BatchBindings& operator=(BatchBindings&&) = default;
  BatchBindings(const BatchBindings&) = delete;
  BatchBindings& operator=(const BatchBindings&) = delete;

  static Result<BatchBindings> Bind(const RecordBatch& batch,
                                    const std::vector<ListDecl>& lists,
                                    const std::vector<ScalarDecl>& scalars);

  const ListBinding& list(int slot) const {
    return lists_[static_cast<size_t>(slot)];
  }
  const MemberAccessor& scalar(int slot) const {
    return scalars_[static_cast<size_t>(slot)];
  }

 private:
  Status BindUnion(const RecordBatch& batch, const ListDecl& decl);

  std::vector<ListBinding> lists_;
  std::vector<MemberAccessor> scalars_;
  // Backing storage for materialized union lists; ListBinding pointers of
  // derived lists point into these (stable: reserved up front).
  std::vector<std::vector<uint32_t>> owned_offsets_;
  std::vector<std::vector<double>> owned_values_;
};

inline constexpr int kMaxIterators = 4;

/// Evaluation state for one event: which batch, which row, and which
/// particle (absolute child-array index) each iterator slot is bound to.
struct EvalContext {
  const BatchBindings* bindings = nullptr;
  uint32_t row = 0;
  uint32_t iter_index[kMaxIterators] = {0, 0, 0, 0};
  /// Counts element visits and combination evaluations (Table 2).
  uint64_t ops = 0;
};

}  // namespace hepq::engine

#endif  // HEPQUERY_ENGINE_CONTEXT_H_
