#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "runtime/cancel.h"
#include "runtime/types.h"
#include "sql/lower.h"
#include "sql/result.h"
#include "volcano/volcano.h"

// Volcano lowering: interprets the optimizer's join tree with the
// tuple-at-a-time operators. Built fresh per execution (parameters are
// resolved into the closures up front). Rows are int64 slots, so:
//
//   * string VALUE columns (group keys, projections) ride as per-column
//     dictionary codes — the dictionary is sorted, so code order equals
//     string order and equality joins/groupings on codes are exact; the
//     drain loop decodes for rendering.
//   * string PREDICATES are evaluated against the typed column at the
//     scan into 0/1 pseudo-slots, carried like any other slot to
//     wherever the optimizer placed the filter (above the last join when
//     pushdown is off).
//
// An eager-aggregated leaf (optimizer.h group-by pushdown) ends in a
// GroupByOp plus a HAVING select; its aggregate values ride up the joins
// as slots keyed like columns of its table, and the drain loop is then a
// projection of group keys and those slots.
//
// Each join is wrapped in a counting adapter; RunVolcano reports the
// per-join output cardinalities as the ablation bench's ground-truth
// "intermediate tuples" metric.

namespace vcq::sql {
namespace {

using lowering::AggKey;
using lowering::CKey;
using lowering::IsAggKey;
using lowering::KeyColumn;
using runtime::Char;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;
using runtime::TypeTag;
using runtime::Varchar;
using volcano::GroupByOp;
using volcano::HashJoinOp;
using volcano::Operator;
using volcano::ProjectOp;
using volcano::Row;
using volcano::ScanOp;
using volcano::SelectOp;

/// Needed-set keys: column keys are (table << 32 | col); string-predicate
/// pseudo-slots are (kPredBit | filter index). Disjoint since table
/// indexes are at most 15.
constexpr uint64_t kPredBit = 1ull << 63;

int64_t PackKeys(int64_t hi, int64_t lo) {
  return static_cast<int64_t>((static_cast<uint64_t>(hi) << 32) |
                              static_cast<uint32_t>(lo));
}

bool CmpApply(CmpOp op, int64_t a, int64_t b) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
    case CmpOp::kEq:
      return a == b;
  }
  return false;
}

template <typename F>
decltype(auto) WithPhys(const ColumnDef& col, F&& f) {
  switch (col.tag) {
    case TypeTag::kInt32:
      return f(static_cast<int32_t*>(nullptr));
    case TypeTag::kInt64:
      return f(static_cast<int64_t*>(nullptr));
    case TypeTag::kVarchar:
      VCQ_CHECK(col.elem_size == sizeof(Varchar<55>));
      return f(static_cast<Varchar<55>*>(nullptr));
    case TypeTag::kChar:
      switch (col.elem_size) {
        case 1:
          return f(static_cast<Char<1>*>(nullptr));
        case 6:
          return f(static_cast<Char<6>*>(nullptr));
        case 7:
          return f(static_cast<Char<7>*>(nullptr));
        case 9:
          return f(static_cast<Char<9>*>(nullptr));
        case 10:
          return f(static_cast<Char<10>*>(nullptr));
        case 12:
          return f(static_cast<Char<12>*>(nullptr));
        case 15:
          return f(static_cast<Char<15>*>(nullptr));
        case 25:
          return f(static_cast<Char<25>*>(nullptr));
        default:
          break;
      }
      break;
  }
  VCQ_CHECK_MSG(false, "unsupported physical column type");
  std::abort();
}

/// Join-output counter for VolcanoStats.
class CountingOp : public Operator {
 public:
  CountingOp(std::unique_ptr<Operator> child, std::shared_ptr<uint64_t> n)
      : child_(std::move(child)), n_(std::move(n)) {}

  void Open() override { child_->Open(); }
  bool Next(Row* out) override {
    if (!child_->Next(out)) return false;
    ++*n_;
    return true;
  }
  size_t Width() const override { return child_->Width(); }

 private:
  std::unique_ptr<Operator> child_;
  std::shared_ptr<uint64_t> n_;
};

/// Ordered dictionary over one string column.
struct Dict {
  std::vector<std::string> values;                // code → string
  std::shared_ptr<std::vector<int32_t>> codes;    // row → code
};

struct VEnv {
  std::unique_ptr<Operator> op;
  std::unordered_map<uint64_t, size_t> slots;

  size_t Slot(uint64_t key) const {
    const auto it = slots.find(key);
    VCQ_CHECK_MSG(it != slots.end(), "internal: slot not carried");
    return it->second;
  }
  size_t Slot(ColumnId id) const { return Slot(CKey(id)); }
};

using RowFn = std::function<int64_t(const Row&)>;

class Lowerer {
 public:
  Lowerer(const PhysicalPlan& plan, const QueryOptions& opt,
          const QueryParams& params)
      : p_(plan), q_(plan.query), opt_(opt), params_(params) {}

  QueryResult Run(VolcanoStats* stats) {
    std::set<uint64_t> needed;
    for (const Scalar& v : q_.values) Collect(v, &needed);
    const JoinTree* eager = p_.PreAggregated();
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      if (eager != nullptr)
        needed.insert(AggKey(static_cast<uint32_t>(eager->table), i));
      else if (q_.aggs[i].has_arg)
        Collect(q_.aggs[i].arg, &needed);
    }
    VEnv env = Lower(*p_.root, std::move(needed));

    const ResultSpec spec = SpecFor(q_);
    std::vector<SqlRow> rows;
    if (q_.aggs.empty() || eager != nullptr)
      Project(std::move(env), &rows);
    else if (q_.grouped)
      Group(std::move(env), &rows);
    else
      Fold(std::move(env), &rows);

    if (stats != nullptr) {
      stats->joins.clear();
      stats->intermediate_tuples = 0;
      for (const auto& [label, n] : join_counts_) {
        stats->joins.push_back({label, *n});
        stats->intermediate_tuples += *n;
      }
    }
    if (runtime::Interrupted(opt_.cancel))
      return QueryResult::Failed(opt_.cancel->status());
    return Render(spec, std::move(rows));
  }

 private:
  void Collect(const Scalar& s, std::set<uint64_t>* out) {
    if (s.IsColumn()) out->insert(CKey(s.col));
    for (const Scalar& a : s.args) Collect(a, out);
  }

  int64_t NumOperand(const Operand& o) const {
    return o.is_param ? params_.Int(o.param) : o.num;
  }
  std::string StrOperand(const Operand& o) const {
    return o.is_param ? params_.Str(o.param) : o.str;
  }

  uint32_t TableOf(uint64_t key) const {
    if (key & kPredBit)
      return q_.filters[static_cast<uint32_t>(key)].lhs.col.table;
    return static_cast<uint32_t>(key >> 32);
  }

  const Dict& DictFor(ColumnId id) {
    const auto [it, inserted] = dicts_.try_emplace(CKey(id));
    Dict& d = it->second;
    if (!inserted) return d;
    const ColumnDef& c = q_.Column(id);
    const runtime::Relation& rel = q_.catalog->db()[q_.Table(id.table).name];
    WithPhys(c, [&](auto* tp) {
      using T = std::remove_pointer_t<decltype(tp)>;
      if constexpr (std::is_arithmetic_v<T>) {
        VCQ_CHECK_MSG(false, "dictionary over a numeric column");
      } else {
        const auto span = rel.Col<T>(c.name);
        std::vector<std::string> vals;
        vals.reserve(span.size());
        for (const T& v : span) vals.emplace_back(v.View());
        d.values = vals;
        std::sort(d.values.begin(), d.values.end());
        d.values.erase(std::unique(d.values.begin(), d.values.end()),
                       d.values.end());
        d.codes = std::make_shared<std::vector<int32_t>>();
        d.codes->reserve(vals.size());
        for (const std::string& s : vals)
          d.codes->push_back(static_cast<int32_t>(
              std::lower_bound(d.values.begin(), d.values.end(), s) -
              d.values.begin()));
      }
    });
    return d;
  }

  /// Typed per-row evaluator for a string predicate, bound to the scan.
  std::function<bool(size_t)> StringPred(const Predicate& p) {
    const ColumnDef& c = q_.Column(p.lhs.col);
    const runtime::Relation& rel =
        q_.catalog->db()[q_.Table(p.lhs.col.table).name];
    return WithPhys(c, [&](auto* tp) -> std::function<bool(size_t)> {
      using T = std::remove_pointer_t<decltype(tp)>;
      if constexpr (std::is_arithmetic_v<T>) {
        VCQ_CHECK_MSG(false, "string predicate on a numeric column");
        return {};
      } else {
        const auto span = rel.Col<T>(c.name);
        switch (p.kind) {
          case PredKind::kContains:
            if constexpr (std::is_same_v<T, Varchar<55>>) {
              const std::string needle = StrOperand(p.rhs[0]);
              return [span, needle](size_t i) {
                return span[i].Contains(needle);
              };
            } else {
              VCQ_CHECK_MSG(false, "substring match on non-varchar column");
              return {};
            }
          case PredKind::kEqOr2: {
            const T a = T::From(StrOperand(p.rhs[0]));
            const T b = T::From(StrOperand(p.rhs[1]));
            return [span, a, b](size_t i) {
              return span[i] == a || span[i] == b;
            };
          }
          case PredKind::kCmp: {
            const T v = T::From(StrOperand(p.rhs[0]));
            const CmpOp op = p.cmp;
            return [span, v, op](size_t i) {
              switch (op) {
                case CmpOp::kLt:
                  return span[i] < v;
                case CmpOp::kLe:
                  return span[i] <= v;
                case CmpOp::kGt:
                  return span[i] > v;
                case CmpOp::kGe:
                  return span[i] >= v;
                case CmpOp::kEq:
                  return span[i] == v;
              }
              return false;
            };
          }
        }
        return {};
      }
    });
  }

  RowFn Eval(const Scalar& s, const VEnv& env) const {
    switch (s.op) {
      case ScalarOp::kColumn: {
        const size_t slot = env.Slot(s.col);
        return [slot](const Row& r) { return r[slot]; };
      }
      case ScalarOp::kConst: {
        const int64_t v = s.value;
        return [v](const Row&) { return v; };
      }
      case ScalarOp::kYear: {
        const RowFn a = Eval(s.args[0], env);
        return [a](const Row& r) {
          return runtime::YearOf(static_cast<int32_t>(a(r)));
        };
      }
      case ScalarOp::kAdd: {
        const RowFn a = Eval(s.args[0], env);
        const RowFn b = Eval(s.args[1], env);
        return [a, b](const Row& r) { return a(r) + b(r); };
      }
      case ScalarOp::kSub: {
        const RowFn a = Eval(s.args[0], env);
        const RowFn b = Eval(s.args[1], env);
        return [a, b](const Row& r) { return a(r) - b(r); };
      }
      case ScalarOp::kMul: {
        const RowFn a = Eval(s.args[0], env);
        const RowFn b = Eval(s.args[1], env);
        return [a, b](const Row& r) { return a(r) * b(r); };
      }
    }
    VCQ_CHECK_MSG(false, "unhandled scalar op");
    std::abort();
  }

  void ApplyFilters(const JoinTree& t, VEnv* env) {
    if (t.filters.empty()) return;
    std::vector<std::function<bool(const Row&)>> preds;
    for (const uint32_t f : t.filters) {
      const Predicate& p = q_.filters[f];
      if (p.is_string) {
        const size_t slot = env->Slot(kPredBit | f);
        preds.push_back([slot](const Row& r) { return r[slot] != 0; });
        continue;
      }
      const RowFn lhs = Eval(p.lhs, *env);
      switch (p.kind) {
        case PredKind::kEqOr2: {
          const int64_t a = NumOperand(p.rhs[0]);
          const int64_t b = NumOperand(p.rhs[1]);
          preds.push_back([lhs, a, b](const Row& r) {
            const int64_t v = lhs(r);
            return v == a || v == b;
          });
          break;
        }
        case PredKind::kCmp: {
          const int64_t v = NumOperand(p.rhs[0]);
          const CmpOp op = p.cmp;
          preds.push_back(
              [lhs, v, op](const Row& r) { return CmpApply(op, lhs(r), v); });
          break;
        }
        case PredKind::kContains:
          VCQ_CHECK_MSG(false, "substring predicate on a numeric column");
      }
    }
    env->op = std::make_unique<SelectOp>(
        std::move(env->op), [preds](const Row& r) {
          for (const auto& p : preds)
            if (!p(r)) return false;
          return true;
        });
  }

  VEnv Lower(const JoinTree& t, std::set<uint64_t> needed) {
    for (const uint32_t f : t.filters) {
      const Predicate& p = q_.filters[f];
      if (p.is_string)
        needed.insert(kPredBit | f);
      else
        Collect(p.lhs, &needed);
    }
    return t.IsLeaf() ? Leaf(t, std::move(needed)) : Join(t, needed);
  }

  VEnv Leaf(const JoinTree& t, std::set<uint64_t> needed) {
    if (!t.group_by.empty()) {
      std::erase_if(needed, IsAggKey);
      for (const ColumnId c : t.group_by) needed.insert(CKey(c));
      for (const Aggregate& a : q_.aggs)
        if (a.has_arg) Collect(a.arg, &needed);
    }
    const auto table = static_cast<uint32_t>(t.table);
    const TableDef& def = q_.Table(table);
    const runtime::Relation& rel = q_.catalog->db()[def.name];
    auto scan = std::make_unique<ScanOp>(def.tuple_count, opt_.cancel);
    VEnv env;
    for (const uint64_t key : needed) {
      if (TableOf(key) != table) continue;
      if (key & kPredBit) {
        const auto fn = StringPred(q_.filters[static_cast<uint32_t>(key)]);
        env.slots[key] =
            scan->AddAccessor([fn](size_t i) { return fn(i) ? 1 : 0; });
        continue;
      }
      const ColumnId id = KeyColumn(key);
      const ColumnDef& c = q_.Column(id);
      env.slots[key] = WithPhys(c, [&](auto* tp) -> size_t {
        using T = std::remove_pointer_t<decltype(tp)>;
        if constexpr (std::is_arithmetic_v<T>) {
          const auto span = rel.Col<T>(c.name);
          return scan->AddAccessor(
              [span](size_t i) { return static_cast<int64_t>(span[i]); });
        } else {
          const auto codes = DictFor(id).codes;
          return scan->AddAccessor(
              [codes](size_t i) { return (*codes)[i]; });
        }
      });
    }
    env.op = std::move(scan);
    ApplyFilters(t, &env);
    if (!t.group_by.empty()) PreAggregate(t, &env);
    return env;
  }

  /// Eager aggregation at a leaf: GroupByOp on `t.group_by` computing every
  /// aggregate, then HAVING. Replaces `env` with the group's output: key
  /// slots first, then one slot per aggregate.
  void PreAggregate(const JoinTree& t, VEnv* env) {
    std::vector<size_t> keys;
    for (const ColumnId c : t.group_by) keys.push_back(env->Slot(c));
    ProjectOp* proj = nullptr;
    const std::vector<size_t> args = AggArgSlots(*env, &env->op, &proj);
    auto group = std::make_unique<GroupByOp>(std::move(env->op), keys);
    AddAggs(group.get(), args);
    VEnv out;
    for (size_t i = 0; i < keys.size(); ++i)
      out.slots[CKey(t.group_by[i])] = i;
    for (size_t i = 0; i < q_.aggs.size(); ++i)
      out.slots[AggKey(static_cast<uint32_t>(t.table), i)] = keys.size() + i;
    out.op = std::move(group);
    if (!q_.having.empty()) {
      const size_t nkeys = keys.size();
      out.op = std::make_unique<SelectOp>(
          std::move(out.op),
          [this, nkeys](const Row& r) { return PassesHaving(r, nkeys); });
    }
    *env = std::move(out);
  }

  /// The ProjectOp `*proj` over `*op`, added on first use.
  static ProjectOp& EnsureProject(std::unique_ptr<Operator>* op,
                                  ProjectOp** proj) {
    if (*proj == nullptr) {
      auto p = std::make_unique<ProjectOp>(std::move(*op));
      *proj = p.get();
      *op = std::move(p);
    }
    return **proj;
  }

  /// Slots holding each aggregate's argument (SIZE_MAX for COUNT(*)):
  /// plain columns in place, expressions appended to the ProjectOp
  /// `*proj` over `*op`.
  std::vector<size_t> AggArgSlots(const VEnv& env,
                                  std::unique_ptr<Operator>* op,
                                  ProjectOp** proj) const {
    std::vector<size_t> slots(q_.aggs.size(), SIZE_MAX);
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      const Aggregate& a = q_.aggs[i];
      if (!a.has_arg) continue;
      slots[i] = a.arg.IsColumn()
                     ? env.Slot(a.arg.col)
                     : EnsureProject(op, proj).AddExpr(Eval(a.arg, env));
    }
    return slots;
  }

  void AddAggs(GroupByOp* group, const std::vector<size_t>& args) const {
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      switch (q_.aggs[i].fn) {
        case ast::AggFn::kSum:
          group->AddAggOp(GroupByOp::AggOp::kSum, args[i]);
          break;
        case ast::AggFn::kCount:
          group->AddAggOp(GroupByOp::AggOp::kCount);
          break;
        case ast::AggFn::kMin:
          group->AddAggOp(GroupByOp::AggOp::kMin, args[i]);
          break;
        case ast::AggFn::kMax:
          group->AddAggOp(GroupByOp::AggOp::kMax, args[i]);
          break;
        case ast::AggFn::kAvg:
          VCQ_CHECK_MSG(false, "AVG is lowered to SUM/COUNT by the binder");
      }
    }
  }

  /// HAVING over a group row whose aggregates start at slot `nkeys`.
  bool PassesHaving(const Row& row, size_t nkeys) const {
    for (const HavingPred& h : q_.having)
      if (!CmpApply(h.cmp, row[nkeys + h.agg], NumOperand(h.rhs)))
        return false;
    return true;
  }

  std::string MaskNames(uint32_t mask) const {
    std::string out;
    for (uint32_t i = 0; i < q_.tables.size(); ++i) {
      if (((mask >> i) & 1) == 0) continue;
      if (!out.empty()) out += ",";
      out += q_.Table(i).name;
    }
    return out;
  }

  VEnv Join(const JoinTree& t, const std::set<uint64_t>& needed) {
    std::set<uint64_t> bneed;
    std::set<uint64_t> pneed;
    for (const uint64_t key : needed)
      ((t.build->mask >> TableOf(key)) & 1 ? bneed : pneed).insert(key);
    // keys[i] = {build column, probe column} (optimizer orientation).
    for (const auto& k : t.keys) {
      bneed.insert(CKey(k[0]));
      pneed.insert(CKey(k[1]));
    }
    VEnv b = Lower(*t.build, std::move(bneed));
    VEnv p = Lower(*t.probe, std::move(pneed));

    size_t bkey;
    size_t pkey;
    if (t.keys.size() == 1) {
      bkey = b.Slot(t.keys[0][0]);
      pkey = p.Slot(t.keys[0][1]);
    } else {
      // Composite (two int32 pairs, binder-enforced): pack both sides.
      VCQ_CHECK(t.keys.size() == 2);
      auto bproj = std::make_unique<ProjectOp>(std::move(b.op));
      const size_t b0 = b.Slot(t.keys[0][0]);
      const size_t b1 = b.Slot(t.keys[1][0]);
      bkey = bproj->AddExpr(
          [b0, b1](const Row& r) { return PackKeys(r[b0], r[b1]); });
      b.op = std::move(bproj);
      auto pproj = std::make_unique<ProjectOp>(std::move(p.op));
      const size_t p0 = p.Slot(t.keys[0][1]);
      const size_t p1 = p.Slot(t.keys[1][1]);
      pkey = pproj->AddExpr(
          [p0, p1](const Row& r) { return PackKeys(r[p0], r[p1]); });
      p.op = std::move(pproj);
    }

    std::vector<size_t> payload;
    std::vector<uint64_t> payload_keys;
    for (const uint64_t key : needed) {
      if (((t.build->mask >> TableOf(key)) & 1) == 0) continue;
      payload_keys.push_back(key);
      payload.push_back(b.Slot(key));
    }
    const size_t probe_width = p.op->Width();

    VEnv env;
    for (const uint64_t key : needed)
      if (((t.build->mask >> TableOf(key)) & 1) == 0)
        env.slots[key] = p.Slot(key);
    for (size_t i = 0; i < payload_keys.size(); ++i)
      env.slots[payload_keys[i]] = probe_width + i;

    auto join = std::make_unique<HashJoinOp>(std::move(b.op), std::move(p.op),
                                             bkey, pkey, std::move(payload));
    auto n = std::make_shared<uint64_t>(0);
    join_counts_.emplace_back(
        MaskNames(t.build->mask) + " x " + MaskNames(t.probe->mask), n);
    env.op = std::make_unique<CountingOp>(std::move(join), std::move(n));
    ApplyFilters(t, &env);
    return env;
  }

  /// Per-output-slot decoder used by the drain loops.
  std::function<SqlValue(const Row&, size_t)> Decoder(const Scalar& v) {
    if (v.IsColumn() && v.type.kind == TypeKind::kString) {
      const Dict* d = &DictFor(v.col);
      return [d](const Row& r, size_t slot) {
        return SqlValue::Str(d->values[static_cast<size_t>(r[slot])]);
      };
    }
    return [](const Row& r, size_t slot) { return SqlValue::Num(r[slot]); };
  }

  /// Plain projection, or the top of an eager-aggregated plan: the group
  /// keys followed by the aggregate slots carried up the joins.
  void Project(VEnv env, std::vector<SqlRow>* rows) {
    std::vector<RowFn> fns;
    std::vector<std::function<SqlValue(int64_t)>> decode;
    for (const Scalar& v : q_.values) {
      fns.push_back(Eval(v, env));
      if (v.IsColumn() && v.type.kind == TypeKind::kString) {
        const Dict* d = &DictFor(v.col);
        decode.emplace_back([d](int64_t code) {
          return SqlValue::Str(d->values[static_cast<size_t>(code)]);
        });
      } else {
        decode.emplace_back(
            [](int64_t x) { return SqlValue::Num(x); });
      }
    }
    if (const JoinTree* eager = p_.PreAggregated()) {
      for (size_t i = 0; i < q_.aggs.size(); ++i) {
        const size_t slot =
            env.Slot(AggKey(static_cast<uint32_t>(eager->table), i));
        fns.push_back([slot](const Row& r) { return r[slot]; });
        decode.emplace_back([](int64_t x) { return SqlValue::Num(x); });
      }
    }
    env.op->Open();
    Row row;
    while (env.op->Next(&row)) {
      SqlRow out;
      out.reserve(fns.size());
      for (size_t i = 0; i < fns.size(); ++i)
        out.push_back(decode[i](fns[i](row)));
      rows->push_back(std::move(out));
    }
  }

  void Group(VEnv env, std::vector<SqlRow>* rows) {
    std::unique_ptr<Operator> op = std::move(env.op);
    ProjectOp* proj = nullptr;
    std::vector<size_t> key_slots;
    for (const Scalar& v : q_.values) {
      if (v.IsColumn()) {
        key_slots.push_back(env.Slot(v.col));
        continue;
      }
      key_slots.push_back(EnsureProject(&op, &proj).AddExpr(Eval(v, env)));
    }
    const std::vector<size_t> arg_slots = AggArgSlots(env, &op, &proj);
    auto group = std::make_unique<GroupByOp>(std::move(op), key_slots);
    AddAggs(group.get(), arg_slots);

    std::vector<std::function<SqlValue(const Row&, size_t)>> decode;
    for (const Scalar& v : q_.values) decode.push_back(Decoder(v));

    const size_t nkeys = q_.values.size();
    group->Open();
    Row row;
    while (group->Next(&row)) {
      if (!PassesHaving(row, nkeys)) continue;
      SqlRow out;
      out.reserve(nkeys + q_.aggs.size());
      for (size_t i = 0; i < nkeys; ++i)
        out.push_back(decode[i](row, i));
      for (size_t j = 0; j < q_.aggs.size(); ++j)
        out.push_back(SqlValue::Num(row[nkeys + j]));
      rows->push_back(std::move(out));
    }
  }

  void Fold(VEnv env, std::vector<SqlRow>* rows) {
    std::vector<RowFn> fns(q_.aggs.size());
    std::vector<int64_t> acc(q_.aggs.size());
    for (size_t i = 0; i < q_.aggs.size(); ++i) {
      const Aggregate& a = q_.aggs[i];
      if (a.has_arg) fns[i] = Eval(a.arg, env);
      acc[i] = a.fn == ast::AggFn::kMin   ? INT64_MAX
               : a.fn == ast::AggFn::kMax ? INT64_MIN
                                          : 0;
    }
    env.op->Open();
    Row row;
    while (env.op->Next(&row)) {
      for (size_t i = 0; i < q_.aggs.size(); ++i) {
        switch (q_.aggs[i].fn) {
          case ast::AggFn::kSum:
            acc[i] += fns[i](row);
            break;
          case ast::AggFn::kCount:
            ++acc[i];
            break;
          case ast::AggFn::kMin:
            acc[i] = std::min(acc[i], fns[i](row));
            break;
          case ast::AggFn::kMax:
            acc[i] = std::max(acc[i], fns[i](row));
            break;
          case ast::AggFn::kAvg:
            VCQ_CHECK_MSG(false, "AVG is lowered to SUM/COUNT by the binder");
        }
      }
    }
    SqlRow out;
    out.reserve(acc.size());
    for (const int64_t v : acc) out.push_back(SqlValue::Num(v));
    rows->push_back(std::move(out));
  }

  const PhysicalPlan& p_;
  const BoundQuery& q_;
  const QueryOptions& opt_;
  const QueryParams& params_;
  std::unordered_map<uint64_t, Dict> dicts_;
  std::vector<std::pair<std::string, std::shared_ptr<uint64_t>>> join_counts_;
};

}  // namespace

QueryResult RunVolcano(const PhysicalPlan& plan, const QueryOptions& opt,
                       const QueryParams& params, VolcanoStats* stats) {
  return Lowerer(plan, opt, params).Run(stats);
}

}  // namespace vcq::sql
