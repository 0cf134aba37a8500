#include "cep/expr.h"

#include <cmath>

#include "common/logging.h"

namespace insight {
namespace cep {

int SourceSchemas::AliasIndex(const std::string& alias) const {
  for (size_t i = 0; i < aliases.size(); ++i) {
    if (aliases[i] == alias) return static_cast<int>(i);
  }
  return -1;
}

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
  }
  return "?";
}

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kStddev:
      return "stddev";
  }
  return "?";
}

Status FieldRefExpr::Resolve(const SourceSchemas& schemas) {
  if (!alias_.empty()) {
    source_index_ = schemas.AliasIndex(alias_);
    if (source_index_ < 0) {
      return Status::NotFound("unknown stream alias '" + alias_ + "'");
    }
    field_index_ =
        schemas.types[static_cast<size_t>(source_index_)]->FieldIndex(field_);
    if (field_index_ < 0) {
      return Status::NotFound("stream '" + alias_ + "' has no field '" + field_ +
                              "'");
    }
    declared_type_ = schemas.types[static_cast<size_t>(source_index_)]
                         ->fields()[static_cast<size_t>(field_index_)]
                         .type;
    return Status::OK();
  }
  // Bare field: must be unique across sources.
  int found_source = -1, found_field = -1;
  for (size_t i = 0; i < schemas.types.size(); ++i) {
    int idx = schemas.types[i]->FieldIndex(field_);
    if (idx >= 0) {
      if (found_source >= 0) {
        return Status::InvalidArgument("ambiguous field '" + field_ +
                                       "'; qualify with an alias");
      }
      found_source = static_cast<int>(i);
      found_field = idx;
    }
  }
  if (found_source < 0) {
    return Status::NotFound("no stream has field '" + field_ + "'");
  }
  source_index_ = found_source;
  field_index_ = found_field;
  declared_type_ = schemas.types[static_cast<size_t>(found_source)]
                       ->fields()[static_cast<size_t>(found_field)]
                       .type;
  return Status::OK();
}

Value FieldRefExpr::Eval(const EvalContext& ctx) const {
  const Event* event = (*ctx.row)[static_cast<size_t>(source_index_)];
  return event->Get(field_index_);
}

Result<ValueType> FieldRefExpr::DeduceType() const {
  if (declared_type_.has_value()) return *declared_type_;
  return Status::FailedPrecondition("field '" + field_ + "' not resolved");
}

Value UnaryExpr::Eval(const EvalContext& ctx) const {
  Value v = operand_->Eval(ctx);
  switch (op_) {
    case UnaryOp::kNot:
      return !v.AsBool();
    case UnaryOp::kNeg:
      return -v.AsDouble();
  }
  return Value();
}

Result<ValueType> UnaryExpr::DeduceType() const {
  INSIGHT_ASSIGN_OR_RETURN(ValueType operand_type, operand_->DeduceType());
  switch (op_) {
    case UnaryOp::kNot:
      if (operand_type == ValueType::kString) {
        return Status::InvalidArgument("'not' applied to a string: " +
                                       operand_->ToString());
      }
      return ValueType::kBool;
    case UnaryOp::kNeg:
      if (operand_type == ValueType::kString) {
        return Status::InvalidArgument("negation of a string: " +
                                       operand_->ToString());
      }
      return ValueType::kDouble;
  }
  return ValueType::kDouble;
}

std::string UnaryExpr::ToString() const {
  return std::string(op_ == UnaryOp::kNot ? "not " : "-") + "(" +
         operand_->ToString() + ")";
}

std::string LiteralExpr::CanonicalString() const {
  if (value_.type() != ValueType::kString) return value_.ToString();
  std::string out = "'";
  out += value_.ToString();
  return out + "'";
}

std::string UnaryExpr::CanonicalString() const {
  return std::string(op_ == UnaryOp::kNot ? "not " : "-") + "(" +
         operand_->CanonicalString() + ")";
}

Value BinaryExpr::Eval(const EvalContext& ctx) const {
  // Short-circuit logic ops.
  if (op_ == BinaryOp::kAnd) {
    return left_->Eval(ctx).AsBool() && right_->Eval(ctx).AsBool();
  }
  if (op_ == BinaryOp::kOr) {
    return left_->Eval(ctx).AsBool() || right_->Eval(ctx).AsBool();
  }
  Value l = left_->Eval(ctx);
  Value r = right_->Eval(ctx);
  switch (op_) {
    case BinaryOp::kEq:
      return l.Equals(r);
    case BinaryOp::kNe:
      return !l.Equals(r);
    case BinaryOp::kLt:
      return l.LessThan(r);
    case BinaryOp::kLe:
      return l.LessThan(r) || l.Equals(r);
    case BinaryOp::kGt:
      return r.LessThan(l);
    case BinaryOp::kGe:
      return r.LessThan(l) || l.Equals(r);
    case BinaryOp::kAdd:
      return l.AsDouble() + r.AsDouble();
    case BinaryOp::kSub:
      return l.AsDouble() - r.AsDouble();
    case BinaryOp::kMul:
      return l.AsDouble() * r.AsDouble();
    case BinaryOp::kDiv: {
      double denom = r.AsDouble();
      return denom == 0.0 ? Value(0.0) : Value(l.AsDouble() / denom);
    }
    case BinaryOp::kMod: {
      int64_t denom = r.AsInt();
      return denom == 0 ? Value(int64_t{0}) : Value(l.AsInt() % denom);
    }
    default:
      return Value();
  }
}

Result<ValueType> BinaryExpr::DeduceType() const {
  INSIGHT_ASSIGN_OR_RETURN(ValueType left, left_->DeduceType());
  INSIGHT_ASSIGN_OR_RETURN(ValueType right, right_->DeduceType());
  switch (op_) {
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return ValueType::kBool;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      return ValueType::kBool;
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      // Ordering a string against a number is a bug the runtime would
      // otherwise hide (LessThan returns false for mixed types).
      if ((left == ValueType::kString) != (right == ValueType::kString)) {
        return Status::InvalidArgument("ordering comparison between string "
                                       "and non-string in " +
                                       ToString());
      }
      return ValueType::kBool;
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      if (left == ValueType::kString || right == ValueType::kString) {
        return Status::InvalidArgument("arithmetic on a string in " +
                                       ToString());
      }
      return ValueType::kDouble;
    case BinaryOp::kMod:
      if (left == ValueType::kString || right == ValueType::kString) {
        return Status::InvalidArgument("arithmetic on a string in " +
                                       ToString());
      }
      return ValueType::kInt;
  }
  return ValueType::kDouble;
}

std::string BinaryExpr::ToString() const {
  return "(" + left_->ToString() + " " + BinaryOpToString(op_) + " " +
         right_->ToString() + ")";
}

std::string BinaryExpr::CanonicalString() const {
  std::string out = "(";
  out += left_->CanonicalString();
  out += " ";
  out += BinaryOpToString(op_);
  out += " ";
  out += right_->CanonicalString();
  return out + ")";
}

Value AggregateExpr::Eval(const EvalContext& ctx) const {
  INSIGHT_CHECK(ctx.agg_values != nullptr && agg_id_ >= 0)
      << "aggregate evaluated without aggregate context";
  return (*ctx.agg_values)[static_cast<size_t>(agg_id_)];
}

Result<ValueType> AggregateExpr::DeduceType() const {
  if (argument_ != nullptr) {
    INSIGHT_ASSIGN_OR_RETURN(ValueType argument_type, argument_->DeduceType());
    if (argument_type == ValueType::kString && func_ != AggFunc::kCount) {
      return Status::InvalidArgument(
          std::string(AggFuncToString(func_)) +
          "() over a string field: " + argument_->ToString());
    }
  }
  return func_ == AggFunc::kCount ? ValueType::kInt : ValueType::kDouble;
}

std::string AggregateExpr::ToString() const {
  return std::string(AggFuncToString(func_)) + "(" +
         (argument_ ? argument_->ToString() : "*") + ")";
}

ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr Field(std::string alias, std::string field) {
  return std::make_unique<FieldRefExpr>(std::move(alias), std::move(field));
}
ExprPtr Field(std::string field) {
  return std::make_unique<FieldRefExpr>("", std::move(field));
}
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinaryExpr>(op, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return Bin(BinaryOp::kAnd, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Bin(BinaryOp::kEq, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Bin(BinaryOp::kGt, std::move(l), std::move(r));
}
ExprPtr Agg(AggFunc func, ExprPtr argument) {
  return std::make_unique<AggregateExpr>(func, std::move(argument));
}

}  // namespace cep
}  // namespace insight
