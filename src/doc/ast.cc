#include "doc/ast.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

namespace hepq::doc {

Result<Sequence> DocContext::Lookup(const std::string& name) const {
  for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
    if (it->first == name) return it->second;
  }
  return Status::KeyError("undefined variable $" + name);
}

namespace {

class NumExpr final : public DocExpr {
 public:
  explicit NumExpr(double v) : item_(Item::Number(v)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    return Sequence{item_};
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kNum;
    s.num = item_->AsDouble();
    return s;
  }

 private:
  ItemPtr item_;
};

class BoolExpr final : public DocExpr {
 public:
  explicit BoolExpr(bool v) : item_(Item::Bool(v)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    return Sequence{item_};
  }

 private:
  ItemPtr item_;
};

class VarExpr final : public DocExpr {
 public:
  explicit VarExpr(std::string name) : name_(std::move(name)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    return ctx->Lookup(name_);
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kVar;
    s.name = name_;
    return s;
  }

 private:
  std::string name_;
};

class ContextItemExpr final : public DocExpr {
 public:
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    if (!ctx->HasContextItem()) {
      return Status::Invalid("$$ used outside a predicate");
    }
    return Sequence{ctx->ContextItem()};
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kContextItem;
    return s;
  }
};

class MemberExpr final : public DocExpr {
 public:
  MemberExpr(DocExprPtr input, std::string name)
      : input_(std::move(input)), name_(std::move(name)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence in;
    HEPQ_ASSIGN_OR_RETURN(in, input_->Eval(ctx));
    Sequence out;
    for (const ItemPtr& item : in) {
      if (!item->IsObject()) continue;  // JSONiq: non-objects yield empty
      ItemPtr member = item->Member(name_);
      if (member != nullptr) out.push_back(std::move(member));
    }
    return out;
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kMember;
    s.name = name_;
    s.input = input_.get();
    return s;
  }

 private:
  DocExprPtr input_;
  std::string name_;
};

class UnboxExpr final : public DocExpr {
 public:
  explicit UnboxExpr(DocExprPtr input) : input_(std::move(input)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence in;
    HEPQ_ASSIGN_OR_RETURN(in, input_->Eval(ctx));
    Sequence out;
    for (const ItemPtr& item : in) {
      if (!item->IsArray()) continue;
      const Sequence& elements = item->Elements();
      out.insert(out.end(), elements.begin(), elements.end());
    }
    return out;
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kUnbox;
    s.input = input_.get();
    return s;
  }

 private:
  DocExprPtr input_;
};

class PredicateExpr final : public DocExpr {
 public:
  PredicateExpr(DocExprPtr input, DocExprPtr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence in;
    HEPQ_ASSIGN_OR_RETURN(in, input_->Eval(ctx));
    Sequence out;
    for (size_t i = 0; i < in.size(); ++i) {
      ctx->PushContextItem(in[i]);
      auto pred_result = predicate_->Eval(ctx);
      ctx->PopContextItem();
      if (!pred_result.ok()) return pred_result.status();
      const Sequence& pred = *pred_result;
      if (pred.size() == 1 && pred.front()->IsNumber()) {
        // Positional predicate (1-based).
        if (static_cast<double>(i + 1) == pred.front()->AsDouble()) {
          out.push_back(in[i]);
        }
      } else if (EffectiveBooleanValue(pred)) {
        out.push_back(in[i]);
      }
    }
    return out;
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kPredicate;
    s.input = input_.get();
    s.predicate = predicate_.get();
    return s;
  }

 private:
  DocExprPtr input_;
  DocExprPtr predicate_;
};

class BinExpr final : public DocExpr {
 public:
  BinExpr(DocBinOp op, DocExprPtr lhs, DocExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence lhs;
    HEPQ_ASSIGN_OR_RETURN(lhs, lhs_->Eval(ctx));
    if (op_ == DocBinOp::kAnd) {
      if (!EffectiveBooleanValue(lhs)) return Sequence{Item::Bool(false)};
      Sequence rhs;
      HEPQ_ASSIGN_OR_RETURN(rhs, rhs_->Eval(ctx));
      return Sequence{Item::Bool(EffectiveBooleanValue(rhs))};
    }
    if (op_ == DocBinOp::kOr) {
      if (EffectiveBooleanValue(lhs)) return Sequence{Item::Bool(true)};
      Sequence rhs;
      HEPQ_ASSIGN_OR_RETURN(rhs, rhs_->Eval(ctx));
      return Sequence{Item::Bool(EffectiveBooleanValue(rhs))};
    }
    Sequence rhs;
    HEPQ_ASSIGN_OR_RETURN(rhs, rhs_->Eval(ctx));
    // Arithmetic/comparison on empty operands yields the empty sequence.
    if (lhs.empty() || rhs.empty()) return Sequence{};
    const double a = lhs.front()->AsDouble();
    const double b = rhs.front()->AsDouble();
    switch (op_) {
      case DocBinOp::kAdd:
        return Sequence{Item::Number(a + b)};
      case DocBinOp::kSub:
        return Sequence{Item::Number(a - b)};
      case DocBinOp::kMul:
        return Sequence{Item::Number(a * b)};
      case DocBinOp::kDiv:
        return Sequence{Item::Number(a / b)};
      case DocBinOp::kLt:
        return Sequence{Item::Bool(a < b)};
      case DocBinOp::kLe:
        return Sequence{Item::Bool(a <= b)};
      case DocBinOp::kGt:
        return Sequence{Item::Bool(a > b)};
      case DocBinOp::kGe:
        return Sequence{Item::Bool(a >= b)};
      case DocBinOp::kEq:
        return Sequence{Item::Bool(a == b)};
      case DocBinOp::kNe:
        return Sequence{Item::Bool(a != b)};
      default:
        return Status::Invalid("unhandled binary operator");
    }
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kBin;
    s.bin_op = op_;
    s.args = {lhs_.get(), rhs_.get()};
    return s;
  }

 private:
  DocBinOp op_;
  DocExprPtr lhs_;
  DocExprPtr rhs_;
};

class CallExpr final : public DocExpr {
 public:
  CallExpr(std::string name, std::vector<DocExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    DocFunction fn;
    HEPQ_ASSIGN_OR_RETURN(fn, LookupDocFunction(name_));
    std::vector<Sequence> args;
    args.reserve(args_.size());
    for (const DocExprPtr& arg : args_) {
      Sequence value;
      HEPQ_ASSIGN_OR_RETURN(value, arg->Eval(ctx));
      args.push_back(std::move(value));
    }
    return fn(args);
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kCall;
    s.name = name_;
    s.args.reserve(args_.size());
    for (const DocExprPtr& arg : args_) s.args.push_back(arg.get());
    return s;
  }

 private:
  std::string name_;
  std::vector<DocExprPtr> args_;
};

class ObjectExpr final : public DocExpr {
 public:
  explicit ObjectExpr(std::vector<std::pair<std::string, DocExprPtr>> members)
      : members_(std::move(members)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    std::vector<std::pair<std::string, ItemPtr>> out;
    out.reserve(members_.size());
    for (const auto& [name, expr] : members_) {
      Sequence value;
      HEPQ_ASSIGN_OR_RETURN(value, expr->Eval(ctx));
      out.emplace_back(name,
                       value.empty() ? Item::Null() : value.front());
    }
    return Sequence{Item::Object(std::move(out))};
  }

 private:
  std::vector<std::pair<std::string, DocExprPtr>> members_;
};

class ArrayExpr final : public DocExpr {
 public:
  explicit ArrayExpr(DocExprPtr contents) : contents_(std::move(contents)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence value;
    HEPQ_ASSIGN_OR_RETURN(value, contents_->Eval(ctx));
    return Sequence{Item::Array(std::move(value))};
  }

 private:
  DocExprPtr contents_;
};

class IfExpr final : public DocExpr {
 public:
  IfExpr(DocExprPtr condition, DocExprPtr then_expr, DocExprPtr else_expr)
      : condition_(std::move(condition)),
        then_(std::move(then_expr)),
        else_(std::move(else_expr)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence cond;
    HEPQ_ASSIGN_OR_RETURN(cond, condition_->Eval(ctx));
    if (EffectiveBooleanValue(cond)) return then_->Eval(ctx);
    if (else_ == nullptr) return Sequence{};
    return else_->Eval(ctx);
  }
  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kIf;
    s.input = condition_.get();
    s.args = {then_.get(), else_.get()};  // else_ may be null
    return s;
  }

 private:
  DocExprPtr condition_;
  DocExprPtr then_;
  DocExprPtr else_;
};

class ConcatExpr final : public DocExpr {
 public:
  explicit ConcatExpr(std::vector<DocExprPtr> parts)
      : parts_(std::move(parts)) {}
  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence out;
    for (const DocExprPtr& part : parts_) {
      Sequence value;
      HEPQ_ASSIGN_OR_RETURN(value, part->Eval(ctx));
      out.insert(out.end(), value.begin(), value.end());
    }
    return out;
  }

 private:
  std::vector<DocExprPtr> parts_;
};

class QuantifiedExpr final : public DocExpr {
 public:
  QuantifiedExpr(bool existential, std::string var, DocExprPtr source,
                 DocExprPtr predicate)
      : existential_(existential),
        var_(std::move(var)),
        source_(std::move(source)),
        predicate_(std::move(predicate)) {}

  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence in;
    HEPQ_ASSIGN_OR_RETURN(in, source_->Eval(ctx));
    for (const ItemPtr& item : in) {
      ctx->Push(var_, Sequence{item});
      auto pred = predicate_->Eval(ctx);
      ctx->Pop();
      if (!pred.ok()) return pred.status();
      const bool holds = EffectiveBooleanValue(*pred);
      if (existential_ && holds) return Sequence{Item::Bool(true)};
      if (!existential_ && !holds) return Sequence{Item::Bool(false)};
    }
    return Sequence{Item::Bool(!existential_)};
  }

 private:
  bool existential_;
  std::string var_;
  DocExprPtr source_;
  DocExprPtr predicate_;
};

/// Exact group-by key of an atomic item, following JSONiq/XQuery
/// deep-equal: numbers group by value, never by a rounded text form, so
/// -0 groups with +0 and all NaNs form one group.
Result<std::string> GroupKey(const Item& item) {
  std::string key(1, static_cast<char>(item.kind()));
  switch (item.kind()) {
    case Item::Kind::kNull:
      break;
    case Item::Kind::kBool:
      key += item.AsBool() ? '1' : '0';
      break;
    case Item::Kind::kNumber: {
      double value = item.AsDouble();
      if (std::isnan(value)) value = std::numeric_limits<double>::quiet_NaN();
      if (value == 0.0) value = 0.0;
      char bytes[sizeof(value)];
      std::memcpy(bytes, &value, sizeof(value));
      key.append(bytes, sizeof(value));
      break;
    }
    case Item::Kind::kString:
      key += item.AsString();
      break;
    case Item::Kind::kArray:
    case Item::Kind::kObject:
      return Status::TypeError(
          "group by key must be a singleton atomic value");
  }
  return key;
}

class FlworExpr final : public DocExpr {
 public:
  FlworExpr(std::vector<FlworClause> clauses, DocExprPtr return_expr,
            DocExprPtr order_by_key, bool order_descending)
      : clauses_(std::move(clauses)),
        return_(std::move(return_expr)),
        order_by_key_(std::move(order_by_key)),
        order_descending_(order_descending) {
    for (size_t i = 0; i < clauses_.size(); ++i) {
      const FlworClause& clause = clauses_[i];
      if (clause.kind == FlworClause::Kind::kGroupBy &&
          group_by_index_ < 0) {
        group_by_index_ = static_cast<int>(i);
      }
      if (group_by_index_ < 0) {
        if (clause.kind == FlworClause::Kind::kFor ||
            clause.kind == FlworClause::Kind::kLet) {
          bound_vars_.push_back(clause.var);
          if (!clause.position_var.empty()) {
            bound_vars_.push_back(clause.position_var);
          }
        }
      }
    }
  }

  Result<Sequence> Eval(DocContext* ctx) const override {
    ++ctx->steps;
    Sequence out;
    std::vector<std::pair<double, Sequence>> ordered;
    if (group_by_index_ >= 0) {
      HEPQ_RETURN_NOT_OK(EvalGrouped(ctx, &out, &ordered));
    } else {
      HEPQ_RETURN_NOT_OK(Recurse(ctx, 0, &out, &ordered));
    }
    if (order_by_key_ != nullptr) {
      std::stable_sort(ordered.begin(), ordered.end(),
                       [this](const auto& a, const auto& b) {
                         return order_descending_ ? a.first > b.first
                                                  : a.first < b.first;
                       });
      for (auto& [key, value] : ordered) {
        out.insert(out.end(), value.begin(), value.end());
      }
    }
    return out;
  }

  DocShape Shape() const override {
    DocShape s;
    s.kind = DocShape::Kind::kFlwor;
    s.clauses = &clauses_;
    return s;
  }

 private:
  /// Materializes the pre-group tuple stream, groups it by the grouping
  /// variable's atomic value (first-seen order), rebinds variables per
  /// JSONiq semantics, and continues with the post-group clauses.
  Status EvalGrouped(
      DocContext* ctx, Sequence* out,
      std::vector<std::pair<double, Sequence>>* ordered) const {
    const std::string& group_var =
        clauses_[static_cast<size_t>(group_by_index_)].var;
    bool grouping_var_bound = false;
    for (const std::string& var : bound_vars_) {
      if (var == group_var) grouping_var_bound = true;
    }
    if (!grouping_var_bound) {
      return Status::KeyError("group by references unbound variable $" +
                              group_var);
    }

    using Tuple = std::vector<Sequence>;  // parallel to bound_vars_
    std::vector<Tuple> tuples;
    std::function<Status(size_t)> collect = [&](size_t depth) -> Status {
      if (depth == static_cast<size_t>(group_by_index_)) {
        Tuple tuple;
        tuple.reserve(bound_vars_.size());
        for (const std::string& var : bound_vars_) {
          Sequence value;
          HEPQ_ASSIGN_OR_RETURN(value, ctx->Lookup(var));
          tuple.push_back(std::move(value));
        }
        tuples.push_back(std::move(tuple));
        return Status::OK();
      }
      const FlworClause& clause = clauses_[depth];
      switch (clause.kind) {
        case FlworClause::Kind::kFor: {
          Sequence in;
          HEPQ_ASSIGN_OR_RETURN(in, clause.expr->Eval(ctx));
          for (size_t i = 0; i < in.size(); ++i) {
            ctx->Push(clause.var, Sequence{in[i]});
            if (!clause.position_var.empty()) {
              ctx->Push(clause.position_var,
                        Sequence{Item::Number(static_cast<double>(i + 1))});
            }
            const Status st = collect(depth + 1);
            if (!clause.position_var.empty()) ctx->Pop();
            ctx->Pop();
            HEPQ_RETURN_NOT_OK(st);
          }
          return Status::OK();
        }
        case FlworClause::Kind::kLet: {
          Sequence value;
          HEPQ_ASSIGN_OR_RETURN(value, clause.expr->Eval(ctx));
          ctx->Push(clause.var, std::move(value));
          const Status st = collect(depth + 1);
          ctx->Pop();
          return st;
        }
        case FlworClause::Kind::kWhere: {
          Sequence cond;
          HEPQ_ASSIGN_OR_RETURN(cond, clause.expr->Eval(ctx));
          if (!EffectiveBooleanValue(cond)) return Status::OK();
          return collect(depth + 1);
        }
        case FlworClause::Kind::kGroupBy:
          return Status::Invalid("only one group-by clause is supported");
      }
      return Status::Invalid("unknown FLWOR clause");
    };
    HEPQ_RETURN_NOT_OK(collect(0));

    // Group by the exact atomic key, preserving first-seen order.
    size_t group_slot = 0;
    for (size_t v = 0; v < bound_vars_.size(); ++v) {
      if (bound_vars_[v] == group_var) group_slot = v;
    }
    std::vector<std::string> key_order;
    std::map<std::string, std::vector<size_t>> groups;
    std::map<std::string, ItemPtr> key_items;
    for (size_t t = 0; t < tuples.size(); ++t) {
      const Sequence& key_seq = tuples[t][group_slot];
      if (key_seq.size() != 1) {
        return Status::TypeError(
            "group by key must be a singleton atomic value");
      }
      std::string key;
      HEPQ_ASSIGN_OR_RETURN(key, GroupKey(*key_seq.front()));
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        key_order.push_back(key);
        key_items[key] = key_seq.front();
      }
      it->second.push_back(t);
    }

    for (const std::string& key : key_order) {
      size_t pushed = 0;
      for (size_t v = 0; v < bound_vars_.size(); ++v) {
        if (v == group_slot) {
          ctx->Push(group_var, Sequence{key_items[key]});
        } else {
          Sequence concatenated;
          for (size_t t : groups[key]) {
            const Sequence& value = tuples[t][v];
            concatenated.insert(concatenated.end(), value.begin(),
                                value.end());
          }
          ctx->Push(bound_vars_[v], std::move(concatenated));
        }
        ++pushed;
      }
      const Status st = Recurse(
          ctx, static_cast<size_t>(group_by_index_) + 1, out, ordered);
      for (size_t p = 0; p < pushed; ++p) ctx->Pop();
      HEPQ_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  Status Recurse(DocContext* ctx, size_t depth, Sequence* out,
                 std::vector<std::pair<double, Sequence>>* ordered) const {
    if (depth == clauses_.size()) {
      if (order_by_key_ != nullptr) {
        Sequence key;
        HEPQ_ASSIGN_OR_RETURN(key, order_by_key_->Eval(ctx));
        Sequence value;
        HEPQ_ASSIGN_OR_RETURN(value, return_->Eval(ctx));
        ordered->emplace_back(SequenceToDouble(key), std::move(value));
      } else {
        Sequence value;
        HEPQ_ASSIGN_OR_RETURN(value, return_->Eval(ctx));
        out->insert(out->end(), value.begin(), value.end());
      }
      return Status::OK();
    }
    const FlworClause& clause = clauses_[depth];
    switch (clause.kind) {
      case FlworClause::Kind::kFor: {
        Sequence in;
        HEPQ_ASSIGN_OR_RETURN(in, clause.expr->Eval(ctx));
        for (size_t i = 0; i < in.size(); ++i) {
          ctx->Push(clause.var, Sequence{in[i]});
          if (!clause.position_var.empty()) {
            ctx->Push(clause.position_var,
                      Sequence{Item::Number(static_cast<double>(i + 1))});
          }
          const Status st = Recurse(ctx, depth + 1, out, ordered);
          if (!clause.position_var.empty()) ctx->Pop();
          ctx->Pop();
          HEPQ_RETURN_NOT_OK(st);
        }
        return Status::OK();
      }
      case FlworClause::Kind::kLet: {
        Sequence value;
        HEPQ_ASSIGN_OR_RETURN(value, clause.expr->Eval(ctx));
        ctx->Push(clause.var, std::move(value));
        const Status st = Recurse(ctx, depth + 1, out, ordered);
        ctx->Pop();
        return st;
      }
      case FlworClause::Kind::kWhere: {
        Sequence cond;
        HEPQ_ASSIGN_OR_RETURN(cond, clause.expr->Eval(ctx));
        if (!EffectiveBooleanValue(cond)) return Status::OK();
        return Recurse(ctx, depth + 1, out, ordered);
      }
      case FlworClause::Kind::kGroupBy:
        return Status::Invalid("only one group-by clause is supported");
    }
    return Status::Invalid("unknown FLWOR clause");
  }

  std::vector<FlworClause> clauses_;
  DocExprPtr return_;
  DocExprPtr order_by_key_;
  bool order_descending_;
  int group_by_index_ = -1;
  std::vector<std::string> bound_vars_;  // vars bound before the group-by
};

std::map<std::string, DocFunction>& FunctionRegistry() {
  static auto& registry = *new std::map<std::string, DocFunction>();
  return registry;
}

}  // namespace

DocExprPtr DNum(double value) { return std::make_shared<NumExpr>(value); }
DocExprPtr DBool(bool value) { return std::make_shared<BoolExpr>(value); }
DocExprPtr DVar(std::string name) {
  return std::make_shared<VarExpr>(std::move(name));
}
DocExprPtr DContextItem() { return std::make_shared<ContextItemExpr>(); }
DocExprPtr DMember(DocExprPtr input, std::string name) {
  return std::make_shared<MemberExpr>(std::move(input), std::move(name));
}
DocExprPtr DUnbox(DocExprPtr input) {
  return std::make_shared<UnboxExpr>(std::move(input));
}
DocExprPtr DPredicate(DocExprPtr input, DocExprPtr predicate) {
  return std::make_shared<PredicateExpr>(std::move(input),
                                         std::move(predicate));
}
DocExprPtr DBin(DocBinOp op, DocExprPtr lhs, DocExprPtr rhs) {
  return std::make_shared<BinExpr>(op, std::move(lhs), std::move(rhs));
}
DocExprPtr DCall(std::string function, std::vector<DocExprPtr> args) {
  return std::make_shared<CallExpr>(std::move(function), std::move(args));
}
DocExprPtr DObject(std::vector<std::pair<std::string, DocExprPtr>> members) {
  return std::make_shared<ObjectExpr>(std::move(members));
}
DocExprPtr DArray(DocExprPtr contents) {
  return std::make_shared<ArrayExpr>(std::move(contents));
}
DocExprPtr DIf(DocExprPtr condition, DocExprPtr then_expr,
               DocExprPtr else_expr) {
  return std::make_shared<IfExpr>(std::move(condition), std::move(then_expr),
                                  std::move(else_expr));
}
DocExprPtr DConcat(std::vector<DocExprPtr> parts) {
  return std::make_shared<ConcatExpr>(std::move(parts));
}
DocExprPtr DFlwor(std::vector<FlworClause> clauses, DocExprPtr return_expr,
                  DocExprPtr order_by_key, bool order_descending) {
  return std::make_shared<FlworExpr>(std::move(clauses),
                                     std::move(return_expr),
                                     std::move(order_by_key),
                                     order_descending);
}

DocExprPtr DSome(std::string var, DocExprPtr source, DocExprPtr predicate) {
  return std::make_shared<QuantifiedExpr>(true, std::move(var),
                                          std::move(source),
                                          std::move(predicate));
}

DocExprPtr DEvery(std::string var, DocExprPtr source, DocExprPtr predicate) {
  return std::make_shared<QuantifiedExpr>(false, std::move(var),
                                          std::move(source),
                                          std::move(predicate));
}

void RegisterDocFunction(const std::string& name, DocFunction fn) {
  FunctionRegistry()[name] = std::move(fn);
}

Result<DocFunction> LookupDocFunction(const std::string& name) {
  auto& registry = FunctionRegistry();
  const auto it = registry.find(name);
  if (it == registry.end()) {
    return Status::KeyError("unknown function " + name + "()");
  }
  return it->second;
}

}  // namespace hepq::doc
