#include <array>
#include <functional>
#include <mutex>
#include <span>
#include <tuple>

#include "runtime/types.h"
#include "typer/pipeline.h"
#include "typer/queries.h"

// TPC-H pipelines for the Typer engine, written with the kit in
// typer/pipeline.h. Q3's lineitem loop runs its shipdate predicate as the
// kit's branch-free filter step ahead of the orders probe.

namespace vcq::typer {

using runtime::Char;
using runtime::Database;
using runtime::Hashmap;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;
using runtime::Relation;
using runtime::ResultBuilder;
using runtime::Varchar;
using runtime::YearOf;

// ---------------------------------------------------------------------------
// Q1
// ---------------------------------------------------------------------------
namespace {

struct Q1Group {
  Hashmap::EntryHeader header;
  uint16_t key;  // returnflag | linestatus << 8
  int64_t sum_qty, sum_base, sum_disc_price, sum_charge, sum_disc, count;

  void Combine(const Q1Group& o) {
    sum_qty += o.sum_qty;
    sum_base += o.sum_base;
    sum_disc_price += o.sum_disc_price;
    sum_charge += o.sum_charge;
    sum_disc += o.sum_disc;
    count += o.count;
  }
};

struct Q1Cols {
  std::span<const int32_t> shipdate;
  std::span<const Char<1>> rf, ls;
  std::span<const int64_t> qty, extprice, discount, tax;

  static Q1Cols Resolve(const Database& db) {
    const Relation& l = db["lineitem"];
    return {l.Col<int32_t>("l_shipdate"),    l.Col<Char<1>>("l_returnflag"),
            l.Col<Char<1>>("l_linestatus"),  l.Col<int64_t>("l_quantity"),
            l.Col<int64_t>("l_extendedprice"), l.Col<int64_t>("l_discount"),
            l.Col<int64_t>("l_tax")};
  }
};

}  // namespace

QueryResult RunQ1(const Database& db, const QueryOptions& opt,
                  const QueryParams& params, const ColumnCache& cache) {
  const Q1Cols& c = cache.Get<Q1Cols>([&] { return Q1Cols::Resolve(db); });
  const auto& [shipdate, rf, ls, qty, extprice, discount, tax] = c;
  const int32_t cutoff = params.Date("shipdate");

  auto merged = GroupBy<Q1Group>(
      opt, shipdate.size(), [&](size_t i, auto& local) {
        if (shipdate[i] > cutoff) return;
        Q1Group* g = local.At(static_cast<uint16_t>(
            static_cast<uint8_t>(rf[i].data[0]) |
            (static_cast<uint8_t>(ls[i].data[0]) << 8)));
        const int64_t disc_price = extprice[i] * (100 - discount[i]);
        g->sum_qty += qty[i];
        g->sum_base += extprice[i];
        g->sum_disc_price += disc_price;
        g->sum_charge += disc_price * (100 + tax[i]);
        g->sum_disc += discount[i];
        g->count += 1;
      });

  return Finish(
      opt,
      {"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
       "sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc",
       "count_order"},
      merged.groups,
      [](const Q1Group* a, const Q1Group* b) {
        return std::make_pair(a->key & 0xff, a->key >> 8) <
               std::make_pair(b->key & 0xff, b->key >> 8);
      },
      [](ResultBuilder& row, const Q1Group* g) {
        const char r = static_cast<char>(g->key & 0xff);
        const char l = static_cast<char>(g->key >> 8);
        row.Str(std::string_view(&r, 1))
            .Str(std::string_view(&l, 1))
            .Numeric(g->sum_qty, 2)
            .Numeric(g->sum_base, 2)
            .Numeric(g->sum_disc_price, 4)
            .Numeric(g->sum_charge, 6)
            .Avg(g->sum_qty, g->count, 2, 2)
            .Avg(g->sum_base, g->count, 2, 2)
            .Avg(g->sum_disc, g->count, 2, 2)
            .Int(g->count);
      });
}

// ---------------------------------------------------------------------------
// Q6
// ---------------------------------------------------------------------------
namespace {

struct Q6Cols {
  std::span<const int32_t> shipdate;
  std::span<const int64_t> discount, quantity, extprice;

  static Q6Cols Resolve(const Database& db) {
    const Relation& l = db["lineitem"];
    return {l.Col<int32_t>("l_shipdate"), l.Col<int64_t>("l_discount"),
            l.Col<int64_t>("l_quantity"),
            l.Col<int64_t>("l_extendedprice")};
  }
};

}  // namespace

QueryResult RunQ6(const Database& db, const QueryOptions& opt,
                  const QueryParams& params, const ColumnCache& cache) {
  const Q6Cols& c = cache.Get<Q6Cols>([&] { return Q6Cols::Resolve(db); });
  const auto& [shipdate, discount, quantity, extprice] = c;
  const int32_t lo = params.Date("shipdate_lo");
  const int32_t hi = params.Date("shipdate_hi");
  const int64_t disc_lo = params.Int("discount_lo");
  const int64_t disc_hi = params.Int("discount_hi");
  const int64_t qty_max = params.Int("quantity_max");

  const int64_t total = Sum(opt, shipdate.size(), [&](size_t begin,
                                                      size_t end) {
    // Branch-free predicated evaluation (paper footnote 8: Typer's Q6 is
    // branch-free), with two accumulators so the conditional add is not one
    // long loop-carried dependency chain.
    int64_t acc0 = 0, acc1 = 0;
    size_t i = begin;
    for (; i + 2 <= end; i += 2) {
      const bool p0 = (shipdate[i] >= lo) & (shipdate[i] <= hi) &
                      (discount[i] >= disc_lo) & (discount[i] <= disc_hi) &
                      (quantity[i] < qty_max);
      const bool p1 = (shipdate[i + 1] >= lo) & (shipdate[i + 1] <= hi) &
                      (discount[i + 1] >= disc_lo) &
                      (discount[i + 1] <= disc_hi) &
                      (quantity[i + 1] < qty_max);
      acc0 += p0 ? extprice[i] * discount[i] : 0;
      acc1 += p1 ? extprice[i + 1] * discount[i + 1] : 0;
    }
    for (; i < end; ++i) {
      const bool pass = (shipdate[i] >= lo) & (shipdate[i] <= hi) &
                        (discount[i] >= disc_lo) & (discount[i] <= disc_hi) &
                        (quantity[i] < qty_max);
      acc0 += pass ? extprice[i] * discount[i] : 0;
    }
    return acc0 + acc1;
  });

  return Finish(opt, {"revenue"}, std::array{total}, std::less<>(),
                [](ResultBuilder& row, int64_t v) { row.Numeric(v, 4); });
}

// ---------------------------------------------------------------------------
// Q3
// ---------------------------------------------------------------------------
namespace {

struct Q3Cust {
  Hashmap::EntryHeader header;
  int32_t key;  // custkey
};
struct Q3Order {
  Hashmap::EntryHeader header;
  int32_t key, orderdate, shippriority;  // key: orderkey
};
struct Q3Group {
  Hashmap::EntryHeader header;
  int32_t key, orderdate, shippriority;  // key: orderkey
  int64_t revenue;

  void Combine(const Q3Group& o) { revenue += o.revenue; }
};

struct Q3Cols {
  std::span<const int32_t> c_custkey;
  std::span<const Char<10>> c_mkt;
  std::span<const int32_t> o_orderkey, o_custkey, o_orderdate, o_shipprio;
  std::span<const int32_t> l_orderkey, l_shipdate;
  std::span<const int64_t> l_extprice, l_discount;

  static Q3Cols Resolve(const Database& db) {
    const Relation& c = db["customer"];
    const Relation& o = db["orders"];
    const Relation& l = db["lineitem"];
    return {c.Col<int32_t>("c_custkey"),   c.Col<Char<10>>("c_mktsegment"),
            o.Col<int32_t>("o_orderkey"),  o.Col<int32_t>("o_custkey"),
            o.Col<int32_t>("o_orderdate"), o.Col<int32_t>("o_shippriority"),
            l.Col<int32_t>("l_orderkey"),  l.Col<int32_t>("l_shipdate"),
            l.Col<int64_t>("l_extendedprice"),
            l.Col<int64_t>("l_discount")};
  }
};

}  // namespace

QueryResult RunQ3(const Database& db, const QueryOptions& opt,
                  const QueryParams& params, const ColumnCache& cache) {
  const Q3Cols& cols =
      cache.Get<Q3Cols>([&] { return Q3Cols::Resolve(db); });
  const auto& [c_custkey, c_mkt, o_orderkey, o_custkey, o_orderdate,
               o_shipprio, l_orderkey, l_shipdate, l_extprice, l_discount] =
      cols;
  const int32_t date = params.Date("date");
  const Char<10> segment = Char<10>::From(params.Str("segment"));

  JoinTable<Q3Cust> ht_cust(opt);
  ht_cust.Build(c_custkey.size(), [&](size_t i, auto& emit) {
    if (c_mkt[i] == segment) emit(c_custkey[i]);
  });

  // Orders semi-joined with those customers.
  JoinTable<Q3Order> ht_ord(opt);
  ht_ord.Build(o_orderkey.size(), [&](size_t i, auto& emit) {
    if (o_orderdate[i] < date && ht_cust.Find(o_custkey[i]) != nullptr)
      emit(o_orderkey[i], o_orderdate[i], o_shipprio[i]);
  });

  // Lineitem probes orders and aggregates revenue per order.
  auto merged = GroupBy<Q3Group>(
      opt, l_orderkey.size(),
      [&](size_t i) { return l_shipdate[i] > date; },
      [&](size_t i, auto& local) {
        const int32_t ok = l_orderkey[i];
        const Q3Order* o = ht_ord.Find(ok);
        if (o == nullptr) return;
        local
            .At(ok,
                [&](Q3Group& g) {
                  g.orderdate = o->orderdate;
                  g.shippriority = o->shippriority;
                })
            ->revenue += l_extprice[i] * (100 - l_discount[i]);
      });

  return Finish(
      opt, {"l_orderkey", "revenue", "o_orderdate", "o_shippriority"},
      merged.groups,
      [](const Q3Group* a, const Q3Group* b) {
        return std::tie(b->revenue, a->orderdate, a->key) <
               std::tie(a->revenue, b->orderdate, b->key);
      },
      [](ResultBuilder& row, const Q3Group* g) {
        row.Int(g->key)
            .Numeric(g->revenue, 4)
            .Date(g->orderdate)
            .Int(g->shippriority);
      },
      10);
}

// ---------------------------------------------------------------------------
// Q9
// ---------------------------------------------------------------------------
namespace {

struct Q9Part {
  Hashmap::EntryHeader header;
  int32_t key;  // partkey
};
struct Q9PartSupp {
  Hashmap::EntryHeader header;
  uint64_t key;  // PackPartSupp(partkey, suppkey)
  int64_t supplycost;
};
struct Q9Supp {
  Hashmap::EntryHeader header;
  int32_t key, nationkey;  // key: suppkey
};
struct Q9Order {
  Hashmap::EntryHeader header;
  int32_t key, year;  // key: orderkey
};
struct Q9Group {
  Hashmap::EntryHeader header;
  uint64_t key;  // nationkey << 32 | year
  int64_t profit;

  void Combine(const Q9Group& o) { profit += o.profit; }
};

uint64_t PackPartSupp(int32_t partkey, int32_t suppkey) {
  return static_cast<uint64_t>(static_cast<uint32_t>(partkey)) |
         (static_cast<uint64_t>(static_cast<uint32_t>(suppkey)) << 32);
}

struct Q9Cols {
  std::span<const int32_t> p_partkey;
  std::span<const Varchar<55>> p_name;
  std::span<const int32_t> ps_partkey, ps_suppkey;
  std::span<const int64_t> ps_cost;
  std::span<const int32_t> s_suppkey, s_nationkey;
  std::span<const int32_t> o_orderkey, o_orderdate;
  std::span<const int32_t> l_orderkey, l_partkey, l_suppkey;
  std::span<const int64_t> l_extprice, l_discount, l_quantity;
  std::span<const Char<25>> n_name;

  static Q9Cols Resolve(const Database& db) {
    const Relation& p = db["part"];
    const Relation& ps = db["partsupp"];
    const Relation& s = db["supplier"];
    const Relation& o = db["orders"];
    const Relation& l = db["lineitem"];
    const Relation& n = db["nation"];
    return {p.Col<int32_t>("p_partkey"),   p.Col<Varchar<55>>("p_name"),
            ps.Col<int32_t>("ps_partkey"), ps.Col<int32_t>("ps_suppkey"),
            ps.Col<int64_t>("ps_supplycost"),
            s.Col<int32_t>("s_suppkey"),   s.Col<int32_t>("s_nationkey"),
            o.Col<int32_t>("o_orderkey"),  o.Col<int32_t>("o_orderdate"),
            l.Col<int32_t>("l_orderkey"),  l.Col<int32_t>("l_partkey"),
            l.Col<int32_t>("l_suppkey"),   l.Col<int64_t>("l_extendedprice"),
            l.Col<int64_t>("l_discount"),  l.Col<int64_t>("l_quantity"),
            n.Col<Char<25>>("n_name")};
  }
};

}  // namespace

QueryResult RunQ9(const Database& db, const QueryOptions& opt,
                  const QueryParams& params, const ColumnCache& cache) {
  const Q9Cols& cols =
      cache.Get<Q9Cols>([&] { return Q9Cols::Resolve(db); });
  const auto& [p_partkey, p_name, ps_partkey, ps_suppkey, ps_cost, s_suppkey,
               s_nationkey, o_orderkey, o_orderdate, l_orderkey, l_partkey,
               l_suppkey, l_extprice, l_discount, l_quantity, n_name] = cols;
  const std::string& color = params.Str("color");

  JoinTable<Q9Part> ht_part(opt);
  ht_part.Build(p_partkey.size(), [&](size_t i, auto& emit) {
    if (p_name[i].Contains(color)) emit(p_partkey[i]);
  });

  // partsupp of those parts, keyed by the composite key.
  JoinTable<Q9PartSupp> ht_ps(opt);
  ht_ps.Build(ps_partkey.size(), [&](size_t i, auto& emit) {
    if (ht_part.Find(ps_partkey[i]) != nullptr)
      emit(PackPartSupp(ps_partkey[i], ps_suppkey[i]), ps_cost[i]);
  });

  JoinTable<Q9Supp> ht_supp(opt);
  ht_supp.Build(s_suppkey.size(), [&](size_t i, auto& emit) {
    emit(s_suppkey[i], s_nationkey[i]);
  });

  // Orders, with the year extracted at build time.
  JoinTable<Q9Order> ht_ord(opt);
  ht_ord.Build(o_orderkey.size(), [&](size_t i, auto& emit) {
    emit(o_orderkey[i], YearOf(o_orderdate[i]));
  });

  auto merged = GroupBy<Q9Group>(
      opt, l_orderkey.size(), [&](size_t i, auto& local) {
        const Q9PartSupp* ps =
            ht_ps.Find(PackPartSupp(l_partkey[i], l_suppkey[i]));
        if (ps == nullptr) return;
        const Q9Supp* s = ht_supp.Find(l_suppkey[i]);
        const Q9Order* o = ht_ord.Find(l_orderkey[i]);
        const int64_t amount = l_extprice[i] * (100 - l_discount[i]) -
                               ps->supplycost * l_quantity[i];
        const uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(s->nationkey))
             << 32) |
            static_cast<uint32_t>(o->year);
        local.At(key)->profit += amount;
      });

  auto nation_of = [&](const Q9Group* g) {
    return n_name[static_cast<int32_t>(g->key >> 32)].View();
  };
  auto year_of = [](const Q9Group* g) {
    return static_cast<int32_t>(g->key & 0xffffffff);
  };
  return Finish(
      opt, {"nation", "o_year", "sum_profit"}, merged.groups,
      [&](const Q9Group* a, const Q9Group* b) {
        if (nation_of(a) != nation_of(b)) return nation_of(a) < nation_of(b);
        return year_of(a) > year_of(b);
      },
      [&](ResultBuilder& row, const Q9Group* g) {
        row.Str(nation_of(g)).Int(year_of(g)).Numeric(g->profit, 4);
      });
}

// ---------------------------------------------------------------------------
// Q18
// ---------------------------------------------------------------------------
namespace {

struct Q18Group {
  Hashmap::EntryHeader header;
  int32_t key;  // orderkey
  int64_t sum_qty;

  void Combine(const Q18Group& o) { sum_qty += o.sum_qty; }
};
struct Q18Order {
  Hashmap::EntryHeader header;
  int32_t key;  // orderkey
  int64_t sum_qty;
};
struct Q18Cust {
  Hashmap::EntryHeader header;
  int32_t key;  // custkey
  Char<25> name;
};

struct Q18Cols {
  std::span<const int32_t> l_orderkey;
  std::span<const int64_t> l_quantity;
  std::span<const int32_t> c_custkey;
  std::span<const Char<25>> c_name;
  std::span<const int32_t> o_orderkey, o_custkey, o_orderdate;
  std::span<const int64_t> o_totalprice;

  static Q18Cols Resolve(const Database& db) {
    const Relation& l = db["lineitem"];
    const Relation& c = db["customer"];
    const Relation& o = db["orders"];
    return {l.Col<int32_t>("l_orderkey"),  l.Col<int64_t>("l_quantity"),
            c.Col<int32_t>("c_custkey"),  c.Col<Char<25>>("c_name"),
            o.Col<int32_t>("o_orderkey"), o.Col<int32_t>("o_custkey"),
            o.Col<int32_t>("o_orderdate"),
            o.Col<int64_t>("o_totalprice")};
  }
};

}  // namespace

QueryResult RunQ18(const Database& db, const QueryOptions& opt,
                   const QueryParams& params, const ColumnCache& cache) {
  const Q18Cols& cols =
      cache.Get<Q18Cols>([&] { return Q18Cols::Resolve(db); });
  const auto& [l_orderkey, l_quantity, c_custkey, c_name, o_orderkey,
               o_custkey, o_orderdate, o_totalprice] = cols;
  const int64_t qty_min = params.Int("quantity_min");

  // High-cardinality aggregation of lineitem by orderkey.
  auto merged = GroupBy<Q18Group>(
      opt, l_orderkey.size(), [&](size_t i, auto& local) {
        local.At(l_orderkey[i])->sum_qty += l_quantity[i];
      });
  const std::vector<Q18Group*>& groups = merged.groups;

  // Having-filter: a hash table over the qualifying orderkeys.
  JoinTable<Q18Order> ht_big(opt);
  ht_big.Build(groups.size(), [&](size_t i, auto& emit) {
    if (groups[i]->sum_qty > qty_min) emit(groups[i]->key, groups[i]->sum_qty);
  });

  JoinTable<Q18Cust> ht_cust(opt);
  ht_cust.Build(c_custkey.size(), [&](size_t i, auto& emit) {
    emit(c_custkey[i], c_name[i]);
  });

  // Orders probe the qualifying set and look up the customer.
  struct Row {
    Char<25> name;
    int32_t custkey, orderkey, orderdate;
    int64_t totalprice, sum_qty;
  };
  std::vector<Row> rows;
  std::mutex mu;
  Scan(opt, o_orderkey.size(), [&](size_t, auto&& morsels) {
    std::vector<Row> local;
    morsels([&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const Q18Order* b = ht_big.Find(o_orderkey[i]);
        if (b == nullptr) continue;
        const Q18Cust* c = ht_cust.Find(o_custkey[i]);
        local.push_back(Row{c->name, o_custkey[i], o_orderkey[i],
                            o_orderdate[i], o_totalprice[i], b->sum_qty});
      }
    });
    std::lock_guard<std::mutex> lock(mu);
    rows.insert(rows.end(), local.begin(), local.end());
  });

  return Finish(
      opt,
      {"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice",
       "sum_qty"},
      rows,
      [](const Row& a, const Row& b) {
        return std::tie(b.totalprice, a.orderdate, a.orderkey) <
               std::tie(a.totalprice, b.orderdate, b.orderkey);
      },
      [](ResultBuilder& row, const Row& r) {
        row.Str(r.name.View())
            .Int(r.custkey)
            .Int(r.orderkey)
            .Date(r.orderdate)
            .Numeric(r.totalprice, 2)
            .Numeric(r.sum_qty, 2);
      },
      100);
}

}  // namespace vcq::typer
