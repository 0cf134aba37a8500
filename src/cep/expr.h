#ifndef INSIGHT_CEP_EXPR_H_
#define INSIGHT_CEP_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cep/event.h"
#include "common/status.h"

namespace insight {
namespace cep {

/// Schemas of the FROM sources of a statement, in declaration order. Field
/// references resolve against these.
struct SourceSchemas {
  std::vector<std::string> aliases;
  std::vector<EventTypePtr> types;

  int AliasIndex(const std::string& alias) const;
};

/// A join row: one event per FROM source, positionally aligned with
/// SourceSchemas. Non-owning view over a contiguous span of `const Event*` —
/// the statement's windows keep the events alive for the duration of an
/// evaluation, so rows can be stacked in a flat arena without refcounting.
class JoinRow {
 public:
  JoinRow() = default;
  JoinRow(const Event* const* events, size_t size)
      : events_(events), size_(size) {}

  const Event* operator[](size_t i) const { return events_[i]; }
  size_t size() const { return size_; }

 private:
  const Event* const* events_ = nullptr;
  size_t size_ = 0;
};

/// Evaluation context for expressions. `agg_values` carries precomputed
/// aggregate results (indexed by AggregateExpr::agg_id) when evaluating
/// HAVING / SELECT over a group.
struct EvalContext {
  const JoinRow* row = nullptr;
  const std::vector<Value>* agg_values = nullptr;
};

enum class BinaryOp {
  kAnd,
  kOr,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
};

enum class UnaryOp { kNot, kNeg };

enum class AggFunc { kAvg, kSum, kCount, kMin, kMax, kStddev };

const char* BinaryOpToString(BinaryOp op);
const char* AggFuncToString(AggFunc func);

class AggregateExpr;
class FieldRefExpr;

/// Base expression node. Expressions are built by the EPL parser (or
/// programmatically), then Resolve()d against the statement's sources before
/// evaluation.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Binds field references to (source, field) indexes. Returns an error for
  /// unknown aliases/fields or ambiguous bare field names.
  virtual Status Resolve(const SourceSchemas& schemas) = 0;

  /// Evaluates on a single row. Aggregate nodes read from ctx.agg_values.
  virtual Value Eval(const EvalContext& ctx) const = 0;

  /// Appends all aggregate nodes in this subtree (pre-order).
  virtual void CollectAggregates(std::vector<AggregateExpr*>* /*out*/) {}

  /// Appends all field references in this subtree (pre-order). Used by the
  /// join planner to determine which sources an expression depends on.
  virtual void CollectFieldRefs(std::vector<const FieldRefExpr*>* /*out*/) const {}

  /// Static result type of this expression. Requires Resolve(). Returns
  /// InvalidArgument for type errors (e.g. aggregating a string, arithmetic
  /// on strings), caught at statement compile time.
  virtual Result<ValueType> DeduceType() const = 0;

  virtual std::string ToString() const = 0;

  /// ToString with each field reference rendered as `$field` (no alias) and
  /// string literals quoted. Arguments that read one source and render the
  /// same here compute the same value, whatever alias each statement gave
  /// that source: the key under which an engine shares accumulators.
  virtual std::string CanonicalString() const { return ToString(); }
};

using ExprPtr = std::unique_ptr<Expr>;

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  Status Resolve(const SourceSchemas&) override { return Status::OK(); }
  Value Eval(const EvalContext&) const override { return value_; }
  Result<ValueType> DeduceType() const override { return value_.type(); }
  std::string ToString() const override { return value_.ToString(); }
  std::string CanonicalString() const override;
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// `alias.field` or bare `field` (resolved when unambiguous across sources).
class FieldRefExpr : public Expr {
 public:
  FieldRefExpr(std::string alias, std::string field)
      : alias_(std::move(alias)), field_(std::move(field)) {}

  Status Resolve(const SourceSchemas& schemas) override;
  Value Eval(const EvalContext& ctx) const override;
  void CollectFieldRefs(std::vector<const FieldRefExpr*>* out) const override {
    out->push_back(this);
  }
  Result<ValueType> DeduceType() const override;
  std::string ToString() const override {
    return alias_.empty() ? field_ : alias_ + "." + field_;
  }
  std::string CanonicalString() const override { return "$" + field_; }

  const std::string& alias() const { return alias_; }
  const std::string& field() const { return field_; }
  int source_index() const { return source_index_; }
  int field_index() const { return field_index_; }

 private:
  std::string alias_;
  std::string field_;
  int source_index_ = -1;
  int field_index_ = -1;
  std::optional<ValueType> declared_type_;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  Status Resolve(const SourceSchemas& schemas) override {
    return operand_->Resolve(schemas);
  }
  Value Eval(const EvalContext& ctx) const override;
  void CollectAggregates(std::vector<AggregateExpr*>* out) override {
    operand_->CollectAggregates(out);
  }
  void CollectFieldRefs(std::vector<const FieldRefExpr*>* out) const override {
    operand_->CollectFieldRefs(out);
  }
  Result<ValueType> DeduceType() const override;
  std::string ToString() const override;
  std::string CanonicalString() const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Resolve(const SourceSchemas& schemas) override {
    INSIGHT_RETURN_NOT_OK(left_->Resolve(schemas));
    return right_->Resolve(schemas);
  }
  Value Eval(const EvalContext& ctx) const override;
  void CollectAggregates(std::vector<AggregateExpr*>* out) override {
    left_->CollectAggregates(out);
    right_->CollectAggregates(out);
  }
  void CollectFieldRefs(std::vector<const FieldRefExpr*>* out) const override {
    left_->CollectFieldRefs(out);
    right_->CollectFieldRefs(out);
  }
  Result<ValueType> DeduceType() const override;
  std::string ToString() const override;
  std::string CanonicalString() const override;

  BinaryOp op() const { return op_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// avg(x), count(*), stddev(bd2.delay), ... Evaluated over the rows of a
/// group; Eval() reads the precomputed value for this node's agg_id.
class AggregateExpr : public Expr {
 public:
  AggregateExpr(AggFunc func, ExprPtr argument)
      : func_(func), argument_(std::move(argument)) {}

  Status Resolve(const SourceSchemas& schemas) override {
    if (argument_ == nullptr) {
      if (func_ != AggFunc::kCount) {
        return Status::InvalidArgument("only count() may omit its argument");
      }
      return Status::OK();
    }
    return argument_->Resolve(schemas);
  }

  Value Eval(const EvalContext& ctx) const override;
  void CollectAggregates(std::vector<AggregateExpr*>* out) override {
    out->push_back(this);
  }
  void CollectFieldRefs(std::vector<const FieldRefExpr*>* out) const override {
    if (argument_ != nullptr) argument_->CollectFieldRefs(out);
  }
  Result<ValueType> DeduceType() const override;
  std::string ToString() const override;

  AggFunc func() const { return func_; }
  const Expr* argument() const { return argument_.get(); }
  void set_agg_id(int id) { agg_id_ = id; }
  int agg_id() const { return agg_id_; }

 private:
  AggFunc func_;
  ExprPtr argument_;  // nullptr means count(*)
  int agg_id_ = -1;
};

/// Helpers for building expression trees programmatically (used by the rule
/// template and tests).
ExprPtr Lit(Value v);
ExprPtr Field(std::string alias, std::string field);
ExprPtr Field(std::string field);
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Agg(AggFunc func, ExprPtr argument);

}  // namespace cep
}  // namespace insight

#endif  // INSIGHT_CEP_EXPR_H_
