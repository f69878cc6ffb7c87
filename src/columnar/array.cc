#include "columnar/array.h"

namespace hepq {

ListArray::ListArray(DataTypePtr type, std::vector<uint32_t> offsets,
                     ArrayPtr child)
    : Array(std::move(type), static_cast<int64_t>(offsets.size()) - 1),
      offsets_(std::move(offsets)),
      child_(std::move(child)) {}

Result<std::shared_ptr<ListArray>> ListArray::Make(
    std::vector<uint32_t> offsets, ArrayPtr child) {
  if (offsets.empty()) {
    return Status::Invalid("list offsets must have at least one entry");
  }
  if (offsets.front() != 0) {
    return Status::Invalid("list offsets must start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::Invalid("list offsets must be non-decreasing");
    }
  }
  if (static_cast<int64_t>(offsets.back()) != child->length()) {
    return Status::Invalid("final list offset does not match child length");
  }
  auto type = DataType::List(child->type());
  return std::make_shared<ListArray>(std::move(type), std::move(offsets),
                                     std::move(child));
}

bool ListArray::Equals(const Array& other) const {
  if (!type_->Equals(*other.type()) || length_ != other.length()) {
    return false;
  }
  const auto& o = static_cast<const ListArray&>(other);
  return offsets_ == o.offsets_ && child_->Equals(*o.child_);
}

StructArray::StructArray(DataTypePtr type, std::vector<ArrayPtr> children)
    : Array(std::move(type),
            children.empty() ? 0 : children.front()->length()),
      children_(std::move(children)) {}

Result<std::shared_ptr<StructArray>> StructArray::Make(
    std::vector<Field> fields, std::vector<ArrayPtr> children) {
  if (fields.size() != children.size()) {
    return Status::Invalid("struct fields/children size mismatch");
  }
  if (children.empty()) {
    return Status::Invalid("struct array needs at least one child");
  }
  const int64_t len = children.front()->length();
  for (size_t i = 0; i < children.size(); ++i) {
    if (children[i]->length() != len) {
      return Status::Invalid("struct children have unequal lengths");
    }
    if (!children[i]->type()->Equals(*fields[i].type)) {
      return Status::Invalid("struct child '" + fields[i].name +
                             "' type mismatch");
    }
  }
  auto type = DataType::Struct(std::move(fields));
  return std::make_shared<StructArray>(std::move(type), std::move(children));
}

ArrayPtr StructArray::ChildByName(const std::string& name) const {
  const int i = type_->FieldIndex(name);
  if (i < 0) return nullptr;
  return children_[static_cast<size_t>(i)];
}

bool StructArray::Equals(const Array& other) const {
  if (!type_->Equals(*other.type()) || length_ != other.length()) {
    return false;
  }
  const auto& o = static_cast<const StructArray&>(other);
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*o.children_[i])) return false;
  }
  return true;
}

RecordBatch::RecordBatch(SchemaPtr schema, int64_t num_rows,
                         std::vector<ArrayPtr> columns)
    : schema_(std::move(schema)),
      num_rows_(num_rows),
      columns_(std::move(columns)) {}

Result<std::shared_ptr<RecordBatch>> RecordBatch::Make(
    SchemaPtr schema, std::vector<ArrayPtr> columns) {
  if (static_cast<int>(columns.size()) != schema->num_fields()) {
    return Status::Invalid("batch column count does not match schema");
  }
  int64_t rows = columns.empty() ? 0 : columns.front()->length();
  for (int i = 0; i < schema->num_fields(); ++i) {
    const auto& col = columns[static_cast<size_t>(i)];
    if (col->length() != rows) {
      return Status::Invalid("batch columns have unequal lengths");
    }
    if (!col->type()->Equals(*schema->field(i).type)) {
      return Status::Invalid("column '" + schema->field(i).name +
                             "' type mismatch with schema");
    }
  }
  return std::make_shared<RecordBatch>(std::move(schema), rows,
                                       std::move(columns));
}

ArrayPtr RecordBatch::ColumnByName(const std::string& name) const {
  const int i = schema_->FieldIndex(name);
  if (i < 0) return nullptr;
  return columns_[static_cast<size_t>(i)];
}

bool RecordBatch::Equals(const RecordBatch& other) const {
  if (num_rows_ != other.num_rows_) return false;
  if (!schema_->Equals(*other.schema_)) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!columns_[i]->Equals(*other.columns_[i])) return false;
  }
  return true;
}

}  // namespace hepq
