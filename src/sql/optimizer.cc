#include "sql/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

#include "common/check.h"

namespace vcq::sql {
namespace {

void FoldScalar(Scalar* s) {
  for (Scalar& a : s->args) FoldScalar(&a);
  if (s->op != ScalarOp::kAdd && s->op != ScalarOp::kSub &&
      s->op != ScalarOp::kMul)
    return;
  if (!s->args[0].IsConst() || !s->args[1].IsConst()) return;
  const int64_t a = s->args[0].value;
  const int64_t b = s->args[1].value;
  int64_t v = 0;
  switch (s->op) {
    case ScalarOp::kAdd:
      v = a + b;
      break;
    case ScalarOp::kSub:
      v = a - b;
      break;
    case ScalarOp::kMul:
      v = a * b;
      break;
    default:
      return;
  }
  s->op = ScalarOp::kConst;
  s->value = v;
  s->args.clear();
}

void Fold(BoundQuery* q) {
  for (Predicate& p : q->filters) FoldScalar(&p.lhs);
  for (Scalar& v : q->values) FoldScalar(&v);
  for (Aggregate& a : q->aggs)
    if (a.has_arg) FoldScalar(&a.arg);
}

/// Selectivity assumed for a HAVING conjunct: an aggregate's distribution
/// is unknown at plan time.
constexpr double kHavingSelectivity = 0.3;

/// The eager-aggregation rewrite's choice: the table every aggregate reads
/// and its pre-aggregation keys (join columns, then own group columns).
struct EagerAgg {
  uint32_t table = 0;
  std::vector<ColumnId> keys;
};

struct Tree {
  std::unique_ptr<JoinTree> root;
  double cost = 0;
};

class Optimizer {
 public:
  Optimizer(const BoundQuery& query, const OptimizerOptions& options)
      : q_(query), options_(options) {}

  /// Plans the query; `eager`, when non-null, pre-aggregates its table's
  /// leaf and charges that leaf's input instead of the join output as the
  /// aggregation cost.
  Tree Plan(const EagerAgg* eager) {
    eager_ = eager;
    cost_ = 0;
    placed_.assign(q_.filters.size(), false);
    base_rows_.assign(q_.tables.size(), 0);

    std::vector<std::unique_ptr<JoinTree>> items;
    for (uint32_t t = 0; t < q_.tables.size(); ++t)
      items.push_back(MakeLeaf(t));

    if (options_.join_order) {
      Greedy(&items);
    } else {
      FromOrder(&items);
    }
    VCQ_CHECK(items.size() == 1);
    Tree tree{std::move(items[0]), cost_};

    // Anything unplaced (all filters, when pushdown is off) lands above the
    // last join.
    std::vector<uint32_t> rest;
    for (uint32_t f = 0; f < q_.filters.size(); ++f)
      if (!placed_[f]) rest.push_back(f);
    tree.root->filters.insert(tree.root->filters.end(), rest.begin(),
                              rest.end());
    tree.root->est_rows *= Selectivity(rest);
    if (!q_.aggs.empty() && eager == nullptr) tree.cost += tree.root->est_rows;
    return tree;
  }

  /// The group-by pushdown's table and keys when conditions (1)-(3) of
  /// optimizer.h hold; nullopt otherwise.
  std::optional<EagerAgg> EagerCandidate() const {
    if (!q_.grouped || q_.aggs.empty() || q_.tables.size() < 2)
      return std::nullopt;
    // (1) One table under every aggregate argument.
    uint32_t mask = 0;
    for (const Aggregate& a : q_.aggs) {
      if (!a.has_arg) continue;
      const uint32_t m = a.arg.TableMask();
      if (m == 0 || (m & (m - 1)) != 0 || (mask != 0 && m != mask))
        return std::nullopt;
      mask = m;
    }
    if (mask == 0) return std::nullopt;
    EagerAgg eager;
    eager.table = static_cast<uint32_t>(std::countr_zero(mask));

    // (3) Filters reading T read only T; group keys reading T are plain
    // T columns; each of T's join columns is grouped on (directly or via
    // the column it equals).
    for (const Predicate& p : q_.filters)
      if ((p.TableMask() & mask) != 0 && p.TableMask() != mask)
        return std::nullopt;
    auto grouped_on = [&](ColumnId c) {
      return std::any_of(q_.values.begin(), q_.values.end(),
                         [&](const Scalar& v) {
                           return v.IsColumn() && v.col == c;
                         });
    };
    auto add_key = [&](ColumnId c) {
      if (std::find(eager.keys.begin(), eager.keys.end(), c) ==
          eager.keys.end())
        eager.keys.push_back(c);
    };
    for (const JoinEdge& e : q_.joins) {
      if ((e.mask & mask) == 0) continue;
      for (auto key : e.keys) {
        if (key[0].table != eager.table) std::swap(key[0], key[1]);
        if (!grouped_on(key[0]) && !grouped_on(key[1])) return std::nullopt;
        add_key(key[0]);
      }
    }
    for (const Scalar& v : q_.values) {
      if ((v.TableMask() & mask) == 0) continue;
      if (!v.IsColumn()) return std::nullopt;
      add_key(v.col);
    }

    // (2) Every other table is reached through a join landing on its key.
    uint32_t reached = mask;
    for (bool grew = true; grew;) {
      grew = false;
      for (const JoinEdge& e : q_.joins) {
        const uint32_t far = e.mask & ~reached;
        if ((e.mask & reached) == 0 || far == 0) continue;
        const auto t = static_cast<uint32_t>(std::countr_zero(far));
        std::vector<size_t> cols;
        for (const auto& key : e.keys)
          cols.push_back((key[0].table == t ? key[0] : key[1]).col);
        if (q_.Table(t).CoversKey(cols)) {
          reached |= far;
          grew = true;
        }
      }
    }
    if (reached != (1u << q_.tables.size()) - 1) return std::nullopt;
    return eager;
  }

 private:
  double Ndv(ColumnId id) const {
    const ColumnDef& c = q_.Column(id);
    const double rows = std::max<double>(1, q_.Table(id.table).tuple_count);
    if (!c.stats.valid) return std::max(1.0, rows * 0.1);
    const double width =
        static_cast<double>(c.stats.max) - static_cast<double>(c.stats.min) +
        1;
    return std::clamp(width, 1.0, rows);
  }

  double Selectivity(const Predicate& p) const {
    // Parameters are unknown at plan time.
    const bool param =
        std::any_of(p.rhs.begin(), p.rhs.end(),
                    [](const Operand& o) { return o.is_param; });
    if (p.kind == PredKind::kContains) return 0.05;
    if (p.is_string) {
      if (p.kind == PredKind::kEqOr2) return 0.2;
      return p.cmp == CmpOp::kEq ? 0.1 : 0.3;
    }
    const bool plain = p.lhs.IsColumn();
    const ColumnStats* stats = plain ? &q_.Column(p.lhs.col).stats : nullptr;
    if (param || stats == nullptr || !stats->valid) {
      if (p.kind == PredKind::kEqOr2) return 0.2;
      return p.cmp == CmpOp::kEq ? 0.1 : 0.3;
    }
    const double lo = static_cast<double>(stats->min);
    const double hi = static_cast<double>(stats->max);
    const double width = hi - lo + 1;
    const double v = static_cast<double>(p.rhs[0].num);
    const double ndv = Ndv(p.lhs.col);
    double sel;
    switch (p.kind) {
      case PredKind::kEqOr2:
        sel = 2.0 / ndv;
        break;
      case PredKind::kCmp:
        switch (p.cmp) {
          case CmpOp::kEq:
            sel = 1.0 / ndv;
            break;
          case CmpOp::kLt:
            sel = (v - lo) / width;
            break;
          case CmpOp::kLe:
            sel = (v - lo + 1) / width;
            break;
          case CmpOp::kGt:
            sel = (hi - v) / width;
            break;
          case CmpOp::kGe:
            sel = (hi - v + 1) / width;
            break;
        }
        break;
      default:
        sel = 0.3;
        break;
    }
    return std::clamp(sel, 0.0, 1.0);
  }

  /// Lower (+1) or upper (-1) bound against a parameter; 0 otherwise.
  static int ParamBound(const Predicate& p) {
    if (p.kind != PredKind::kCmp || p.is_string || !p.rhs[0].is_param)
      return 0;
    switch (p.cmp) {
      case CmpOp::kGt:
      case CmpOp::kGe:
        return 1;
      case CmpOp::kLt:
      case CmpOp::kLe:
        return -1;
      case CmpOp::kEq:
        break;
    }
    return 0;
  }

  /// Combined selectivity of conjuncts applied together. The second half
  /// of a two-sided parameter range on one left-hand side adds nothing:
  /// the pair is one 0.3 range.
  double Selectivity(const std::vector<uint32_t>& filters) const {
    double sel = 1;
    for (size_t i = 0; i < filters.size(); ++i) {
      const Predicate& p = q_.filters[filters[i]];
      const int bound = ParamBound(p);
      const bool second_half =
          bound != 0 &&
          std::any_of(filters.begin(),
                      filters.begin() + static_cast<ptrdiff_t>(i),
                      [&](uint32_t g) {
                        const Predicate& o = q_.filters[g];
                        return ParamBound(o) == -bound &&
                               ScalarEqual(o.lhs, p.lhs);
                      });
      if (!second_half) sel *= Selectivity(p);
    }
    return sel;
  }

  /// Estimated groups of `rows` eager-aggregated rows: each join edge's
  /// columns contribute at most the distinct values on either side (and
  /// no more than the far table's rows); own group columns their ndv.
  double GroupCount(double rows) const {
    double groups = 1;
    std::vector<ColumnId> joined;
    for (const JoinEdge& e : q_.joins) {
      if (((e.mask >> eager_->table) & 1) == 0) continue;
      double mine = 1;
      double theirs = 1;
      uint32_t far = 0;
      for (auto key : e.keys) {
        if (key[0].table != eager_->table) std::swap(key[0], key[1]);
        mine *= Ndv(key[0]);
        theirs *= Ndv(key[1]);
        far = key[1].table;
        joined.push_back(key[0]);
      }
      groups *= std::min({mine, theirs,
                          std::max<double>(1, q_.Table(far).tuple_count)});
    }
    for (const ColumnId c : eager_->keys)
      if (std::find(joined.begin(), joined.end(), c) == joined.end())
        groups *= Ndv(c);
    return std::clamp(groups, 1.0, std::max(rows, 1.0));
  }

  std::unique_ptr<JoinTree> MakeLeaf(uint32_t t) {
    auto leaf = std::make_unique<JoinTree>();
    leaf->table = static_cast<int>(t);
    leaf->mask = 1u << t;
    leaf->est_rows = std::max<double>(1, q_.Table(t).tuple_count);
    base_rows_[t] = leaf->est_rows;
    if (options_.pushdown) {
      for (uint32_t f = 0; f < q_.filters.size(); ++f) {
        if (q_.filters[f].TableMask() == leaf->mask) {
          leaf->filters.push_back(f);
          placed_[f] = true;
        }
      }
      leaf->est_rows *= Selectivity(leaf->filters);
    }
    if (eager_ != nullptr && eager_->table == t) {
      // Eager aggregation needs T's filters below the grouping; the
      // candidate check guarantees they read only T.
      VCQ_CHECK(options_.pushdown);
      cost_ += leaf->est_rows;
      leaf->group_by = eager_->keys;
      leaf->est_rows = GroupCount(leaf->est_rows);
      base_rows_[t] = leaf->est_rows;
      for (size_t h = 0; h < q_.having.size(); ++h)
        leaf->est_rows *= kHavingSelectivity;
    }
    return leaf;
  }

  /// {a column, b column} pairs of every edge between `a` and `b`.
  std::vector<std::array<ColumnId, 2>> JoinKeys(const JoinTree& a,
                                                const JoinTree& b) const {
    std::vector<std::array<ColumnId, 2>> keys;
    for (const JoinEdge& e : q_.joins) {
      if ((e.mask & a.mask) == 0 || (e.mask & b.mask) == 0) continue;
      if ((e.mask & ~(a.mask | b.mask)) != 0) continue;
      for (auto key : e.keys) {
        if ((1u << key[0].table) & b.mask) std::swap(key[0], key[1]);
        keys.push_back(key);
      }
    }
    return keys;
  }

  /// Whether `cols` (of one table) cover a key: the catalog's verified
  /// keys, or the grouping keys of an eager-aggregated leaf.
  bool CoversKey(uint32_t table, const std::vector<ColumnId>& cols) const {
    if (eager_ != nullptr && eager_->table == table)
      return std::all_of(
          eager_->keys.begin(), eager_->keys.end(), [&](ColumnId k) {
            return std::find(cols.begin(), cols.end(), k) != cols.end();
          });
    std::vector<size_t> idx;
    for (const ColumnId c : cols) idx.push_back(c.col);
    return q_.Table(table).CoversKey(idx);
  }

  /// Tables of `side` whose join columns (`keys[*][col]`) cover a key.
  std::vector<uint32_t> KeyedTables(
      const std::vector<std::array<ColumnId, 2>>& keys, int col) const {
    std::vector<uint32_t> out;
    for (uint32_t t = 0; t < q_.tables.size(); ++t) {
      std::vector<ColumnId> cols;
      for (const auto& key : keys)
        if (key[col].table == t) cols.push_back(key[col]);
      if (!cols.empty() && CoversKey(t, cols)) out.push_back(t);
    }
    return out;
  }

  double JoinEstimate(const JoinTree& a, const JoinTree& b) const {
    const auto keys = JoinKeys(a, b);
    double generic = a.est_rows * b.est_rows;
    for (const auto& key : keys)
      generic /= std::max(Ndv(key[0]), Ndv(key[1]));
    double keyed = -1;
    for (const int side : {0, 1}) {
      const JoinTree& mine = side == 0 ? a : b;
      const JoinTree& other = side == 0 ? b : a;
      for (const uint32_t t : KeyedTables(keys, side)) {
        const double est =
            other.est_rows * (mine.est_rows / std::max(base_rows_[t], 1.0));
        keyed = keyed < 0 ? est : std::min(keyed, est);
      }
    }
    return std::max(keyed < 0 ? generic : keyed, 1.0);
  }

  /// True when `side`'s join columns are unique within it: they cover a
  /// key of one of its tables and the side is no larger than that table.
  bool UniqueSide(const JoinTree& side,
                  const std::vector<std::array<ColumnId, 2>>& keys,
                  int col) const {
    for (const uint32_t t : KeyedTables(keys, col))
      if (side.est_rows <= base_rows_[t]) return true;
    return false;
  }

  /// Joins two subtrees. The build side is the unique side when exactly
  /// one is, else the smaller (unless `keep_sides`, the join_order=off
  /// mode, which keeps `a` as build).
  std::unique_ptr<JoinTree> Merge(std::unique_ptr<JoinTree> a,
                                  std::unique_ptr<JoinTree> b,
                                  bool keep_sides) {
    const double est = JoinEstimate(*a, *b);
    std::vector<std::array<ColumnId, 2>> keys = JoinKeys(*a, *b);
    VCQ_CHECK_MSG(!keys.empty(), "merging unconnected subtrees");
    auto node = std::make_unique<JoinTree>();
    node->mask = a->mask | b->mask;
    if (!keep_sides) {
      const bool a_unique = UniqueSide(*a, keys, 0);
      const bool b_unique = UniqueSide(*b, keys, 1);
      const bool swap = a_unique != b_unique ? b_unique
                                             : b->est_rows < a->est_rows;
      if (swap) {
        for (auto& key : keys) std::swap(key[0], key[1]);
        std::swap(a, b);
      }
    }
    node->keys = std::move(keys);
    node->build = std::move(a);
    node->probe = std::move(b);
    node->est_rows = est;
    cost_ += node->est_rows;
    if (options_.pushdown) {
      std::vector<uint32_t> here;
      for (uint32_t f = 0; f < q_.filters.size(); ++f) {
        if (placed_[f]) continue;
        const uint32_t m = q_.filters[f].TableMask();
        if ((m & ~node->mask) == 0) {
          here.push_back(f);
          placed_[f] = true;
        }
      }
      node->filters = here;
      node->est_rows *= Selectivity(here);
    }
    return node;
  }

  bool Connected(const JoinTree& a, const JoinTree& b) const {
    for (const JoinEdge& e : q_.joins) {
      if ((e.mask & a.mask) != 0 && (e.mask & b.mask) != 0 &&
          (e.mask & ~(a.mask | b.mask)) == 0)
        return true;
    }
    return false;
  }

  void Greedy(std::vector<std::unique_ptr<JoinTree>>* items) {
    while (items->size() > 1) {
      size_t best_i = 0;
      size_t best_j = 0;
      double best = -1;
      for (size_t i = 0; i < items->size(); ++i) {
        for (size_t j = i + 1; j < items->size(); ++j) {
          if (!Connected(*(*items)[i], *(*items)[j])) continue;
          const double est = JoinEstimate(*(*items)[i], *(*items)[j]);
          if (best < 0 || est < best) {
            best = est;
            best_i = i;
            best_j = j;
          }
        }
      }
      VCQ_CHECK_MSG(best >= 0, "join graph disconnected");
      auto merged = Merge(std::move((*items)[best_i]),
                          std::move((*items)[best_j]),
                          /*keep_sides=*/false);
      (*items)[best_i] = std::move(merged);
      items->erase(items->begin() + static_cast<ptrdiff_t>(best_j));
    }
  }

  void FromOrder(std::vector<std::unique_ptr<JoinTree>>* items) {
    std::unique_ptr<JoinTree> acc = std::move((*items)[0]);
    items->erase(items->begin());
    while (!items->empty()) {
      size_t next = SIZE_MAX;
      for (size_t i = 0; i < items->size(); ++i) {
        if (Connected(*acc, *(*items)[i])) {
          next = i;
          break;
        }
      }
      VCQ_CHECK_MSG(next != SIZE_MAX, "join graph disconnected");
      acc = Merge(std::move(acc), std::move((*items)[next]),
                  /*keep_sides=*/true);
      items->erase(items->begin() + static_cast<ptrdiff_t>(next));
    }
    items->push_back(std::move(acc));
  }

  const BoundQuery& q_;
  const OptimizerOptions& options_;
  const EagerAgg* eager_ = nullptr;
  double cost_ = 0;
  std::vector<bool> placed_;
  /// Per table: rows before its filters (its group count when
  /// eager-aggregated) — the |T| of the key-join estimate.
  std::vector<double> base_rows_;
};

void Dump(const PhysicalPlan& p, const JoinTree& t, int indent,
          std::string* out) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  auto filters = [&](const JoinTree& n) {
    std::string s;
    for (uint32_t f : n.filters)
      s += " [" + ToString(p.query, p.query.filters[f].lhs) + " " +
           CmpOpName(p.query.filters[f].cmp) + " ...]";
    return s;
  };
  char est[32];
  std::snprintf(est, sizeof est, "%.0f", t.est_rows);
  if (t.IsLeaf()) {
    std::string group;
    for (const ColumnId c : t.group_by) {
      group += group.empty() ? " group by " : ", ";
      group += ToString(p.query, Scalar::Column(c));
    }
    if (!t.group_by.empty()) {
      for (const HavingPred& h : p.query.having) {
        const Aggregate& a = p.query.aggs[h.agg];
        group += std::string(" having [") + ast::AggFnName(a.fn) + "(" +
                 (a.has_arg ? ToString(p.query, a.arg) : "*") + ") " +
                 CmpOpName(h.cmp) + " ...]";
      }
    }
    *out += pad + "scan " + p.query.Table(static_cast<uint32_t>(t.table)).name +
            " est=" + est + filters(t) + group + "\n";
    return;
  }
  std::string keys;
  for (const auto& k : t.keys) {
    keys += keys.empty() ? " on " : ", ";
    keys += ToString(p.query, Scalar::Column(k[0])) + " = " +
            ToString(p.query, Scalar::Column(k[1]));
  }
  *out += pad + "hashjoin est=" + est + keys + filters(t) + "\n";
  Dump(p, *t.build, indent + 1, out);
  Dump(p, *t.probe, indent + 1, out);
}

}  // namespace

const JoinTree* PhysicalPlan::PreAggregated() const {
  const std::function<const JoinTree*(const JoinTree&)> find =
      [&](const JoinTree& t) -> const JoinTree* {
    if (t.IsLeaf()) return t.group_by.empty() ? nullptr : &t;
    const JoinTree* b = find(*t.build);
    return b != nullptr ? b : find(*t.probe);
  };
  return root == nullptr ? nullptr : find(*root);
}

PhysicalPlan Optimize(BoundQuery query, const OptimizerOptions& options) {
  if (options.fold_constants) Fold(&query);
  PhysicalPlan plan{std::move(query), options, nullptr, 0};
  Optimizer opt(plan.query, options);
  Tree best = opt.Plan(nullptr);
  if (options.pushdown) {
    if (const std::optional<EagerAgg> eager = opt.EagerCandidate()) {
      Tree alt = opt.Plan(&*eager);
      if (alt.cost < best.cost) best = std::move(alt);
    }
  }
  plan.root = std::move(best.root);
  plan.cost = best.cost;
  return plan;
}

std::string ToString(const PhysicalPlan& plan) {
  std::string out;
  char cost[32];
  std::snprintf(cost, sizeof cost, "%.0f", plan.cost);
  out += "cost=" + std::string(cost) +
         " (estimated join output + aggregation input rows)\n";
  Dump(plan, *plan.root, 0, &out);
  if (plan.PreAggregated() != nullptr)
    out += "project (aggregated below the joins)\n";
  else if (plan.query.grouped || !plan.query.aggs.empty())
    out += plan.query.grouped ? "group + aggregate\n" : "aggregate\n";
  return out;
}

}  // namespace vcq::sql
