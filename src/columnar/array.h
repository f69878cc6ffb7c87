#ifndef HEPQUERY_COLUMNAR_ARRAY_H_
#define HEPQUERY_COLUMNAR_ARRAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "columnar/types.h"
#include "core/status.h"

namespace hepq {

class Array;
using ArrayPtr = std::shared_ptr<const Array>;

/// Immutable column of values. Concrete subclasses: PrimitiveArray<T>,
/// BoolArray, ListArray, StructArray. No validity bitmaps (HEP data is
/// NULL-free), no chunking (chunking happens at the row-group level of the
/// file format).
class Array {
 public:
  virtual ~Array() = default;

  const DataTypePtr& type() const { return type_; }
  int64_t length() const { return length_; }

  /// Deep structural equality.
  virtual bool Equals(const Array& other) const = 0;

 protected:
  Array(DataTypePtr type, int64_t length)
      : type_(std::move(type)), length_(length) {}

  DataTypePtr type_;
  int64_t length_;
};

/// Fixed-width primitive column backed by a contiguous vector.
template <typename T>
class PrimitiveArray : public Array {
 public:
  PrimitiveArray(DataTypePtr type, std::vector<T> values)
      : Array(std::move(type), static_cast<int64_t>(values.size())),
        values_(std::move(values)) {}

  T Value(int64_t i) const { return values_[static_cast<size_t>(i)]; }
  std::span<const T> values() const { return values_; }
  const T* raw() const { return values_.data(); }

  bool Equals(const Array& other) const override {
    if (!type_->Equals(*other.type()) || length_ != other.length()) {
      return false;
    }
    const auto& o = static_cast<const PrimitiveArray<T>&>(other);
    return values_ == o.values_;
  }

 private:
  std::vector<T> values_;
};

using Float32Array = PrimitiveArray<float>;
using Float64Array = PrimitiveArray<double>;
using Int32Array = PrimitiveArray<int32_t>;
using Int64Array = PrimitiveArray<int64_t>;
// Bool stored as one byte per value; the file format bit-packs it.
using BoolArray = PrimitiveArray<uint8_t>;

/// Variable-length list column: offsets (length + 1 entries) into a child
/// values array. Row i covers child rows [offsets[i], offsets[i+1]).
class ListArray : public Array {
 public:
  ListArray(DataTypePtr type, std::vector<uint32_t> offsets, ArrayPtr child);

  /// Builds a list array, deriving the type from the child.
  static Result<std::shared_ptr<ListArray>> Make(std::vector<uint32_t> offsets,
                                                 ArrayPtr child);

  std::span<const uint32_t> offsets() const { return offsets_; }
  const ArrayPtr& child() const { return child_; }

  uint32_t list_offset(int64_t i) const {
    return offsets_[static_cast<size_t>(i)];
  }
  int32_t list_length(int64_t i) const {
    return static_cast<int32_t>(offsets_[static_cast<size_t>(i) + 1] -
                                offsets_[static_cast<size_t>(i)]);
  }

  bool Equals(const Array& other) const override;

 private:
  std::vector<uint32_t> offsets_;
  ArrayPtr child_;
};

/// Struct column: one child array per member, all with equal length.
class StructArray : public Array {
 public:
  StructArray(DataTypePtr type, std::vector<ArrayPtr> children);

  static Result<std::shared_ptr<StructArray>> Make(
      std::vector<Field> fields, std::vector<ArrayPtr> children);

  const std::vector<ArrayPtr>& children() const { return children_; }
  const ArrayPtr& child(int i) const {
    return children_[static_cast<size_t>(i)];
  }
  /// Child by member name; nullptr if absent.
  ArrayPtr ChildByName(const std::string& name) const;

  bool Equals(const Array& other) const override;

 private:
  std::vector<ArrayPtr> children_;
};

/// Tabular slice: a schema plus equal-length top-level columns. This is the
/// unit of vectorized execution and of row-group IO.
class RecordBatch {
 public:
  RecordBatch(SchemaPtr schema, int64_t num_rows,
              std::vector<ArrayPtr> columns);

  static Result<std::shared_ptr<RecordBatch>> Make(
      SchemaPtr schema, std::vector<ArrayPtr> columns);

  const SchemaPtr& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const ArrayPtr& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }
  /// Column by name; nullptr if absent.
  ArrayPtr ColumnByName(const std::string& name) const;

  bool Equals(const RecordBatch& other) const;

 private:
  SchemaPtr schema_;
  int64_t num_rows_;
  std::vector<ArrayPtr> columns_;
};

using RecordBatchPtr = std::shared_ptr<const RecordBatch>;

}  // namespace hepq

#endif  // HEPQUERY_COLUMNAR_ARRAY_H_
