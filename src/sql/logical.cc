#include "sql/logical.h"

#include "runtime/types.h"

namespace vcq::sql {
namespace {

std::string OperandToString(const Operand& o, const SqlType& lhs_type) {
  if (o.is_param) return "$" + o.param;
  if (lhs_type.kind == TypeKind::kString) return "'" + o.str + "'";
  if (lhs_type.kind == TypeKind::kDate)
    return "date '" + runtime::DateToString(static_cast<int32_t>(o.num)) + "'";
  if (lhs_type.scale == 0) return std::to_string(o.num);
  return runtime::NumericToString(o.num, lhs_type.scale);
}

}  // namespace

uint32_t Scalar::TableMask() const {
  if (op == ScalarOp::kColumn) return 1u << col.table;
  uint32_t m = 0;
  for (const Scalar& a : args) m |= a.TableMask();
  return m;
}

bool ScalarEqual(const Scalar& a, const Scalar& b) {
  if (a.op != b.op || a.args.size() != b.args.size()) return false;
  if (a.op == ScalarOp::kColumn && !(a.col == b.col)) return false;
  if (a.op == ScalarOp::kConst &&
      (a.value != b.value || !(a.type == b.type)))
    return false;
  for (size_t i = 0; i < a.args.size(); ++i)
    if (!ScalarEqual(a.args[i], b.args[i])) return false;
  return true;
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "=";
  }
  return "?";
}

std::string ToString(const BoundQuery& q, const Scalar& s) {
  switch (s.op) {
    case ScalarOp::kColumn: {
      const ColumnDef& c = q.Column(s.col);
      return q.Table(s.col.table).name + "." + c.name;
    }
    case ScalarOp::kConst:
      if (s.type.kind == TypeKind::kDate)
        return "date '" +
               runtime::DateToString(static_cast<int32_t>(s.value)) + "'";
      if (s.type.scale == 0) return std::to_string(s.value);
      return runtime::NumericToString(s.value, s.type.scale);
    case ScalarOp::kAdd:
      return "(" + ToString(q, s.args[0]) + " + " + ToString(q, s.args[1]) +
             ")";
    case ScalarOp::kSub:
      return "(" + ToString(q, s.args[0]) + " - " + ToString(q, s.args[1]) +
             ")";
    case ScalarOp::kMul:
      return "(" + ToString(q, s.args[0]) + " * " + ToString(q, s.args[1]) +
             ")";
    case ScalarOp::kYear:
      return "year(" + ToString(q, s.args[0]) + ")";
  }
  return "?";
}

std::string ToString(const BoundQuery& q) {
  std::string out;
  out += "tables:";
  for (uint32_t t = 0; t < q.tables.size(); ++t)
    out += " " + q.Table(t).name;
  out += "\n";
  for (const Predicate& p : q.filters) {
    out += "filter: " + ToString(q, p.lhs);
    switch (p.kind) {
      case PredKind::kCmp:
        out += std::string(" ") + CmpOpName(p.cmp) + " " +
               OperandToString(p.rhs[0], p.lhs.type);
        break;
      case PredKind::kEqOr2:
        out += " in (" + OperandToString(p.rhs[0], p.lhs.type) + ", " +
               OperandToString(p.rhs[1], p.lhs.type) + ")";
        break;
      case PredKind::kContains:
        out += " contains " + OperandToString(p.rhs[0], p.lhs.type);
        break;
    }
    out += "\n";
  }
  for (const JoinEdge& e : q.joins) {
    out += "join:";
    for (const auto& k : e.keys)
      out += " " + ToString(q, Scalar::Column(k[0])) +
             " = " + ToString(q, Scalar::Column(k[1]));
    out += "\n";
  }
  if (!q.values.empty()) {
    out += q.grouped ? "group by:" : "project:";
    for (const Scalar& v : q.values) out += " " + ToString(q, v);
    out += "\n";
  }
  for (const Aggregate& a : q.aggs) {
    out += std::string("agg: ") + ast::AggFnName(a.fn);
    out += a.has_arg ? "(" + ToString(q, a.arg) + ")" : "(*)";
    out += "\n";
  }
  for (const HavingPred& h : q.having) {
    const Aggregate& a = q.aggs[h.agg];
    out += std::string("having: ") + ast::AggFnName(a.fn) +
           (a.has_arg ? "(" + ToString(q, a.arg) + ")" : "(*)") + " " +
           CmpOpName(h.cmp) + " " + OperandToString(h.rhs, a.type);
    out += "\n";
  }
  out += "output:";
  for (const Output& o : q.outputs) out += " " + o.name;
  out += "\n";
  if (!q.order_by.empty()) {
    out += "order by:";
    for (const auto& [idx, desc] : q.order_by)
      out += " " + q.outputs[idx].name + (desc ? " desc" : "");
    out += "\n";
  }
  if (q.limit != UINT64_MAX)
    out += "limit: " + std::to_string(q.limit) + "\n";
  return out;
}

}  // namespace vcq::sql
