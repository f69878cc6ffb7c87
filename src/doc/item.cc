#include "doc/item.h"

#include "core/json.h"

namespace hepq::doc {

ItemPtr Item::Null() {
  static const ItemPtr& instance =
      *new ItemPtr(std::shared_ptr<Item>(new Item(Kind::kNull)));
  return instance;
}

ItemPtr Item::Bool(bool value) {
  auto item = std::shared_ptr<Item>(new Item(Kind::kBool));
  item->bool_ = value;
  return item;
}

ItemPtr Item::Number(double value) {
  auto item = std::shared_ptr<Item>(new Item(Kind::kNumber));
  item->number_ = value;
  return item;
}

ItemPtr Item::String(std::string value) {
  auto item = std::shared_ptr<Item>(new Item(Kind::kString));
  item->string_ = std::move(value);
  return item;
}

ItemPtr Item::Array(Sequence elements) {
  auto item = std::shared_ptr<Item>(new Item(Kind::kArray));
  item->elements_ = std::move(elements);
  return item;
}

ItemPtr Item::Object(std::vector<std::pair<std::string, ItemPtr>> members) {
  auto item = std::shared_ptr<Item>(new Item(Kind::kObject));
  item->members_ = std::move(members);
  return item;
}

bool Item::AsBool() const {
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return bool_;
    case Kind::kNumber:
      return number_ != 0.0;
    case Kind::kString:
      return !string_.empty();
    default:
      return true;
  }
}

ItemPtr Item::Member(const std::string& name) const {
  for (const auto& [key, value] : members_) {
    if (key == name) return value;
  }
  return nullptr;
}

std::string Item::ToJson() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      json::AppendJsonNumber(&out, number_);
      return out;
    case Kind::kString:
      json::AppendJsonString(&out, string_);
      return out;
    case Kind::kArray: {
      auto array = json::JsonScope::Array(&out);
      for (const ItemPtr& element : elements_) {
        *array.Sep() += element->ToJson();
      }
      break;
    }
    case Kind::kObject: {
      auto object = json::JsonScope::Object(&out);
      for (const auto& [key, value] : members_) {
        *object.Key(key) += value->ToJson();
      }
      break;
    }
  }
  return out;
}

double SequenceToDouble(const Sequence& seq, double fallback) {
  if (seq.empty()) return fallback;
  return seq.front()->AsDouble();
}

bool EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq.size() == 1) return seq.front()->AsBool();
  return true;
}

}  // namespace hepq::doc
