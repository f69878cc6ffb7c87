#ifndef HEPQUERY_DOC_ITEM_H_
#define HEPQUERY_DOC_ITEM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hepq::doc {

class Item;
using ItemPtr = std::shared_ptr<const Item>;
/// JSONiq sequences are flat, ordered collections of items.
using Sequence = std::vector<ItemPtr>;

/// A boxed JSON value — the runtime representation of the Rumble/JSONiq
/// execution model the paper benchmarks. Every number, object, and array
/// is heap-allocated and reference-counted; member lookup is by string.
/// This boxing is deliberately kept (rather than optimized away) because it
/// is the cost driver that makes the document engine one-plus orders of
/// magnitude slower than the columnar engines, as the paper measures for
/// Rumble.
class Item {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  static ItemPtr Null();
  static ItemPtr Bool(bool value);
  static ItemPtr Number(double value);
  static ItemPtr String(std::string value);
  static ItemPtr Array(Sequence elements);
  static ItemPtr Object(std::vector<std::pair<std::string, ItemPtr>> members);

  Kind kind() const { return kind_; }
  bool IsNumber() const { return kind_ == Kind::kNumber; }
  bool IsObject() const { return kind_ == Kind::kObject; }
  bool IsArray() const { return kind_ == Kind::kArray; }

  /// Numeric value; numbers only (0 otherwise).
  double AsDouble() const { return number_; }
  /// Effective boolean value (JSONiq EBV of a singleton).
  bool AsBool() const;
  const std::string& AsString() const { return string_; }

  /// Array elements (empty for non-arrays).
  const Sequence& Elements() const { return elements_; }

  /// Object member by name, or nullptr. Linear scan by string — the
  /// realistic cost of schema-less records.
  ItemPtr Member(const std::string& name) const;
  const std::vector<std::pair<std::string, ItemPtr>>& Members() const {
    return members_;
  }

  /// The item as JSON text, through core/json's writer (a non-finite
  /// number is written as null).
  std::string ToJson() const;

 private:
  explicit Item(Kind kind) : kind_(kind) {}

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Sequence elements_;
  std::vector<std::pair<std::string, ItemPtr>> members_;
};

/// Singleton-number helper: first item's numeric value, or `fallback` for
/// an empty sequence.
double SequenceToDouble(const Sequence& seq, double fallback = 0.0);

/// JSONiq effective boolean value of a sequence: empty -> false,
/// singleton -> item EBV, else true (node sequences are truthy).
bool EffectiveBooleanValue(const Sequence& seq);

}  // namespace hepq::doc

#endif  // HEPQUERY_DOC_ITEM_H_
