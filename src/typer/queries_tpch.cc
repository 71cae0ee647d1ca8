#include <algorithm>
#include <cstring>
#include <mutex>
#include <span>
#include <tuple>

#include "runtime/cancel.h"
#include "runtime/hash.h"
#include "runtime/types.h"
#include "runtime/worker_pool.h"
#include "typer/group_table.h"
#include "typer/join_table.h"
#include "typer/queries.h"
#include "typer/selection.h"

// TPC-H pipelines for the Typer engine. Every pipeline is one fused loop
// (scan + select + arithmetic + probe + aggregate), the code shape that
// data-centric produce/consume generation emits (paper Fig. 2a); where a
// scan predicate precedes a probe (Q3, and SSB-Q1.1), the select runs first
// as a branch-free stage over a block of rows (typer/selection.h). Typer uses
// the low-latency CRC hash (paper §4.1: "the CRC hash function improves
// [Typer's] performance up to 40%"). Predicate constants are parameters
// (vcq::QueryCatalog declares names and spec defaults), read once at the
// top of each run so one pipeline serves every binding; column accessors
// are resolved once per prepared query (ColumnCache, queries.h). Every
// morsel loop polls opt.cancel so a cancelled or deadline-expired run
// stops claiming work at the next morsel boundary — the poll comes before
// the claim, which (with sticky interruption and sequential regions)
// guarantees a partially built hash table is never probed.

namespace vcq::typer {

using runtime::Char;
using runtime::Database;
using runtime::HashCrc32;
using runtime::Hashmap;
using runtime::MorselQueue;
using runtime::PoolFor;
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

  bool KeyEquals(const Q1Group& o) const { return key == o.key; }
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

  std::vector<std::unique_ptr<LocalGroupTable<Q1Group>>> locals(opt.threads);
  MorselQueue morsels(shipdate.size(), opt.morsel_grain);
  PoolFor(opt).Run(opt, morsels.total(), [&](size_t wid) {
    locals[wid] = std::make_unique<LocalGroupTable<Q1Group>>(opt);
    LocalGroupTable<Q1Group>& local = *locals[wid];
    size_t begin, end;
    while (!Stop(opt) && morsels.Next(begin, end)) {
      for (size_t i = begin; i < end; ++i) {
        if (shipdate[i] > cutoff) continue;
        const uint16_t key = static_cast<uint16_t>(
            static_cast<uint8_t>(rf[i].data[0]) |
            (static_cast<uint8_t>(ls[i].data[0]) << 8));
        Q1Group* g = local.FindOrCreate(
            HashCrc32(key), [&](const Q1Group& e) { return e.key == key; },
            [&](Q1Group* e) {
              e->key = key;
              e->sum_qty = e->sum_base = e->sum_disc_price = 0;
              e->sum_charge = e->sum_disc = e->count = 0;
            });
        const int64_t disc_price = extprice[i] * (100 - discount[i]);
        g->sum_qty += qty[i];
        g->sum_base += extprice[i];
        g->sum_disc_price += disc_price;
        g->sum_charge += disc_price * (100 + tax[i]);
        g->sum_disc += discount[i];
        g->count += 1;
      }
    }
  });

  auto merged = MergeLocalGroups(locals, opt);
  std::vector<Q1Group*>& groups = merged.groups;
  // Serial tail: surface a trip (deadline, budget, injected fault) that
  // landed during or after the parallel phase instead of sorting and
  // building a result nobody will see.
  if (Stop(opt)) return QueryResult::Failed(opt.cancel->status());
  std::sort(groups.begin(), groups.end(), [](Q1Group* a, Q1Group* b) {
    return std::make_pair(a->key & 0xff, a->key >> 8) <
           std::make_pair(b->key & 0xff, b->key >> 8);
  });
  ResultBuilder rb({"l_returnflag", "l_linestatus", "sum_qty",
                    "sum_base_price", "sum_disc_price", "sum_charge",
                    "avg_qty", "avg_price", "avg_disc", "count_order"});
  for (const Q1Group* g : groups) {
    const char r = static_cast<char>(g->key & 0xff);
    const char l = static_cast<char>(g->key >> 8);
    rb.BeginRow()
        .Str(std::string_view(&r, 1))
        .Str(std::string_view(&l, 1))
        .Numeric(g->sum_qty, 2)
        .Numeric(g->sum_base, 2)
        .Numeric(g->sum_disc_price, 4)
        .Numeric(g->sum_charge, 6)
        .Avg(g->sum_qty, g->count, 2, 2)
        .Avg(g->sum_base, g->count, 2, 2)
        .Avg(g->sum_disc, g->count, 2, 2)
        .Int(g->count);
  }
  return rb.Finish();
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

  int64_t total = 0;
  std::mutex mu;
  MorselQueue morsels(shipdate.size(), opt.morsel_grain);
  PoolFor(opt).Run(opt, morsels.total(), [&](size_t) {
    // Branch-free predicated evaluation (paper footnote 8: Typer's Q6 is
    // branch-free), with two accumulators so the conditional add is not one
    // long loop-carried dependency chain.
    int64_t acc0 = 0, acc1 = 0;
    size_t begin, end;
    while (!Stop(opt) && morsels.Next(begin, end)) {
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
                          (discount[i] >= disc_lo) &
                          (discount[i] <= disc_hi) & (quantity[i] < qty_max);
        acc0 += pass ? extprice[i] * discount[i] : 0;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    total += acc0 + acc1;
  });

  // Serial tail: surface a trip (deadline, budget, injected fault) that
  // landed during or after the parallel phase instead of sorting and
  // building a result nobody will see.
  if (Stop(opt)) return QueryResult::Failed(opt.cancel->status());
  ResultBuilder rb({"revenue"});
  rb.BeginRow().Numeric(total, 4);
  return rb.Finish();
}

// ---------------------------------------------------------------------------
// Q3
// ---------------------------------------------------------------------------
namespace {

struct Q3Cust {
  Hashmap::EntryHeader header;
  int32_t custkey;
};
struct Q3Order {
  Hashmap::EntryHeader header;
  int32_t orderkey, orderdate, shippriority;
};
struct Q3Group {
  Hashmap::EntryHeader header;
  int32_t orderkey, orderdate, shippriority;
  int64_t revenue;

  bool KeyEquals(const Q3Group& o) const { return orderkey == o.orderkey; }
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
  const int32_t date = params.Date("date");
  const Char<10> segment = Char<10>::From(params.Str("segment"));

  // Pipeline 1: build customer hash table (the bound market segment).
  const auto& c_custkey = cols.c_custkey;
  const auto& c_mkt = cols.c_mkt;
  JoinTable<Q3Cust> ht_cust(opt);
  {
    MorselQueue morsels(c_custkey.size(), opt.morsel_grain);
    ht_cust.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          if (!(c_mkt[i] == segment)) continue;
          Q3Cust e;
          e.header.hash = HashCrc32(static_cast<uint32_t>(c_custkey[i]));
          e.custkey = c_custkey[i];
          emit(e);
        }
      }
    }, c_custkey.size());
  }

  // Pipeline 2: orders semi-joined with those customers.
  const auto& o_orderkey = cols.o_orderkey;
  const auto& o_custkey = cols.o_custkey;
  const auto& o_orderdate = cols.o_orderdate;
  const auto& o_shipprio = cols.o_shipprio;
  JoinTable<Q3Order> ht_ord(opt);
  {
    MorselQueue morsels(o_orderkey.size(), opt.morsel_grain);
    ht_ord.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          if (o_orderdate[i] >= date) continue;
          const int32_t ck = o_custkey[i];
          const uint64_t h = HashCrc32(static_cast<uint32_t>(ck));
          if (ht_cust.Lookup(h, [&](const Q3Cust& c) {
                return c.custkey == ck;
              }) == nullptr) {
            continue;
          }
          Q3Order e;
          e.header.hash = HashCrc32(static_cast<uint32_t>(o_orderkey[i]));
          e.orderkey = o_orderkey[i];
          e.orderdate = o_orderdate[i];
          e.shippriority = o_shipprio[i];
          emit(e);
        }
      }
    }, o_orderkey.size());
  }

  // Pipeline 3: probe with lineitem, aggregate revenue per order. The
  // shipdate predicate runs as a branch-free selection stage ahead of the
  // orders probe (ForEachSelected); the probe and the aggregate update stay
  // fused over the survivors.
  const auto& l_orderkey = cols.l_orderkey;
  const auto& l_shipdate = cols.l_shipdate;
  const auto& l_extprice = cols.l_extprice;
  const auto& l_discount = cols.l_discount;
  std::vector<std::unique_ptr<LocalGroupTable<Q3Group>>> locals(opt.threads);
  {
    MorselQueue morsels(l_orderkey.size(), opt.morsel_grain);
    PoolFor(opt).Run(opt, morsels.total(), [&](size_t wid) {
      locals[wid] = std::make_unique<LocalGroupTable<Q3Group>>(opt);
      LocalGroupTable<Q3Group>& local = *locals[wid];
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        ForEachSelected(
            begin, end, [&](size_t i) { return l_shipdate[i] > date; },
            [&](size_t i) {
              const int32_t ok = l_orderkey[i];
              const uint64_t h = HashCrc32(static_cast<uint32_t>(ok));
              const Q3Order* o = ht_ord.Lookup(
                  h, [&](const Q3Order& e) { return e.orderkey == ok; });
              if (o == nullptr) return;
              Q3Group* g = local.FindOrCreate(
                  h, [&](const Q3Group& e) { return e.orderkey == ok; },
                  [&](Q3Group* e) {
                    e->orderkey = o->orderkey;
                    e->orderdate = o->orderdate;
                    e->shippriority = o->shippriority;
                    e->revenue = 0;
                  });
              g->revenue += l_extprice[i] * (100 - l_discount[i]);
            });
      }
    });
  }

  auto merged = MergeLocalGroups(locals, opt);
  std::vector<Q3Group*>& groups = merged.groups;
  // Serial tail: surface a trip (deadline, budget, injected fault) that
  // landed during or after the parallel phase instead of sorting and
  // building a result nobody will see.
  if (Stop(opt)) return QueryResult::Failed(opt.cancel->status());
  std::sort(groups.begin(), groups.end(), [](Q3Group* a, Q3Group* b) {
    return std::tie(b->revenue, a->orderdate, a->orderkey) <
           std::tie(a->revenue, b->orderdate, b->orderkey);
  });
  if (groups.size() > 10) groups.resize(10);
  ResultBuilder rb(
      {"l_orderkey", "revenue", "o_orderdate", "o_shippriority"});
  for (const Q3Group* g : groups) {
    rb.BeginRow()
        .Int(g->orderkey)
        .Numeric(g->revenue, 4)
        .Date(g->orderdate)
        .Int(g->shippriority);
  }
  return rb.Finish();
}

// ---------------------------------------------------------------------------
// Q9
// ---------------------------------------------------------------------------
namespace {

struct Q9Part {
  Hashmap::EntryHeader header;
  int32_t partkey;
};
struct Q9PartSupp {
  Hashmap::EntryHeader header;
  int32_t partkey, suppkey;
  int64_t supplycost;
};
struct Q9Supp {
  Hashmap::EntryHeader header;
  int32_t suppkey, nationkey;
};
struct Q9Order {
  Hashmap::EntryHeader header;
  int32_t orderkey, year;
};
struct Q9Group {
  Hashmap::EntryHeader header;
  uint64_t key;  // nationkey << 32 | year
  int64_t profit;

  bool KeyEquals(const Q9Group& o) const { return key == o.key; }
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

  // Parts of the requested color.
  const std::string& color = params.Str("color");
  const auto& p_partkey = cols.p_partkey;
  const auto& p_name = cols.p_name;
  JoinTable<Q9Part> ht_part(opt);
  {
    MorselQueue morsels(p_partkey.size(), opt.morsel_grain);
    ht_part.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          if (!p_name[i].Contains(color)) continue;
          Q9Part e;
          e.header.hash = HashCrc32(static_cast<uint32_t>(p_partkey[i]));
          e.partkey = p_partkey[i];
          emit(e);
        }
      }
    }, p_partkey.size());
  }

  // partsupp filtered by green parts, keyed by the composite key.
  const auto& ps_partkey = cols.ps_partkey;
  const auto& ps_suppkey = cols.ps_suppkey;
  const auto& ps_cost = cols.ps_cost;
  JoinTable<Q9PartSupp> ht_ps(opt);
  {
    MorselQueue morsels(ps_partkey.size(), opt.morsel_grain);
    ht_ps.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          const int32_t pk = ps_partkey[i];
          const uint64_t h = HashCrc32(static_cast<uint32_t>(pk));
          if (ht_part.Lookup(h, [&](const Q9Part& e) {
                return e.partkey == pk;
              }) == nullptr) {
            continue;
          }
          Q9PartSupp e;
          e.header.hash = HashCrc32(PackPartSupp(pk, ps_suppkey[i]));
          e.partkey = pk;
          e.suppkey = ps_suppkey[i];
          e.supplycost = ps_cost[i];
          emit(e);
        }
      }
    }, ps_partkey.size());
  }

  // Suppliers.
  const auto& s_suppkey = cols.s_suppkey;
  const auto& s_nationkey = cols.s_nationkey;
  JoinTable<Q9Supp> ht_supp(opt);
  {
    MorselQueue morsels(s_suppkey.size(), opt.morsel_grain);
    ht_supp.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          Q9Supp e;
          e.header.hash = HashCrc32(static_cast<uint32_t>(s_suppkey[i]));
          e.suppkey = s_suppkey[i];
          e.nationkey = s_nationkey[i];
          emit(e);
        }
      }
    }, s_suppkey.size());
  }

  // Orders (year extracted at build time).
  const auto& o_orderkey = cols.o_orderkey;
  const auto& o_orderdate = cols.o_orderdate;
  JoinTable<Q9Order> ht_ord(opt);
  {
    MorselQueue morsels(o_orderkey.size(), opt.morsel_grain);
    ht_ord.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          Q9Order e;
          e.header.hash = HashCrc32(static_cast<uint32_t>(o_orderkey[i]));
          e.orderkey = o_orderkey[i];
          e.year = YearOf(o_orderdate[i]);
          emit(e);
        }
      }
    }, o_orderkey.size());
  }

  // Probe pipeline over lineitem.
  const auto& l_orderkey = cols.l_orderkey;
  const auto& l_partkey = cols.l_partkey;
  const auto& l_suppkey = cols.l_suppkey;
  const auto& l_extprice = cols.l_extprice;
  const auto& l_discount = cols.l_discount;
  const auto& l_quantity = cols.l_quantity;
  std::vector<std::unique_ptr<LocalGroupTable<Q9Group>>> locals(opt.threads);
  {
    MorselQueue morsels(l_orderkey.size(), opt.morsel_grain);
    PoolFor(opt).Run(opt, morsels.total(), [&](size_t wid) {
      locals[wid] = std::make_unique<LocalGroupTable<Q9Group>>(opt);
      LocalGroupTable<Q9Group>& local = *locals[wid];
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          const uint64_t pskey = PackPartSupp(l_partkey[i], l_suppkey[i]);
          const Q9PartSupp* ps =
              ht_ps.Lookup(HashCrc32(pskey), [&](const Q9PartSupp& e) {
                return PackPartSupp(e.partkey, e.suppkey) == pskey;
              });
          if (ps == nullptr) continue;
          const int32_t sk = l_suppkey[i];
          const Q9Supp* s =
              ht_supp.Lookup(HashCrc32(static_cast<uint32_t>(sk)),
                             [&](const Q9Supp& e) { return e.suppkey == sk; });
          const int32_t ok = l_orderkey[i];
          const Q9Order* o = ht_ord.Lookup(
              HashCrc32(static_cast<uint32_t>(ok)),
              [&](const Q9Order& e) { return e.orderkey == ok; });
          const int64_t amount = l_extprice[i] * (100 - l_discount[i]) -
                                 ps->supplycost * l_quantity[i];
          const uint64_t key =
              (static_cast<uint64_t>(static_cast<uint32_t>(s->nationkey))
               << 32) |
              static_cast<uint32_t>(o->year);
          Q9Group* g = local.FindOrCreate(
              HashCrc32(key), [&](const Q9Group& e) { return e.key == key; },
              [&](Q9Group* e) {
                e->key = key;
                e->profit = 0;
              });
          g->profit += amount;
        }
      }
    });
  }

  auto merged = MergeLocalGroups(locals, opt);
  std::vector<Q9Group*>& groups = merged.groups;
  // Serial tail: surface a trip (deadline, budget, injected fault) that
  // landed during or after the parallel phase instead of sorting and
  // building a result nobody will see.
  if (Stop(opt)) return QueryResult::Failed(opt.cancel->status());
  const auto& n_name = cols.n_name;
  auto nation_of = [](const Q9Group* g) {
    return static_cast<int32_t>(g->key >> 32);
  };
  auto year_of = [](const Q9Group* g) {
    return static_cast<int32_t>(g->key & 0xffffffff);
  };
  std::sort(groups.begin(), groups.end(), [&](Q9Group* a, Q9Group* b) {
    const auto an = n_name[nation_of(a)].View();
    const auto bn = n_name[nation_of(b)].View();
    if (an != bn) return an < bn;
    return year_of(a) > year_of(b);
  });
  ResultBuilder rb({"nation", "o_year", "sum_profit"});
  for (const Q9Group* g : groups) {
    rb.BeginRow()
        .Str(n_name[nation_of(g)].View())
        .Int(year_of(g))
        .Numeric(g->profit, 4);
  }
  return rb.Finish();
}

// ---------------------------------------------------------------------------
// Q18
// ---------------------------------------------------------------------------
namespace {

struct Q18Group {
  Hashmap::EntryHeader header;
  int32_t orderkey;
  int64_t sum_qty;

  bool KeyEquals(const Q18Group& o) const { return orderkey == o.orderkey; }
  void Combine(const Q18Group& o) { sum_qty += o.sum_qty; }
};
struct Q18Order {
  Hashmap::EntryHeader header;
  int32_t orderkey;
  int64_t sum_qty;
};
struct Q18Cust {
  Hashmap::EntryHeader header;
  int32_t custkey;
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

  // Pipeline 1: high-cardinality aggregation of lineitem by orderkey.
  const auto& l_orderkey = cols.l_orderkey;
  const auto& l_quantity = cols.l_quantity;
  std::vector<std::unique_ptr<LocalGroupTable<Q18Group>>> locals(opt.threads);
  {
    MorselQueue morsels(l_orderkey.size(), opt.morsel_grain);
    PoolFor(opt).Run(opt, morsels.total(), [&](size_t wid) {
      locals[wid] = std::make_unique<LocalGroupTable<Q18Group>>(opt);
      LocalGroupTable<Q18Group>& local = *locals[wid];
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          const int32_t ok = l_orderkey[i];
          Q18Group* g = local.FindOrCreate(
              HashCrc32(static_cast<uint32_t>(ok)),
              [&](const Q18Group& e) { return e.orderkey == ok; },
              [&](Q18Group* e) {
                e->orderkey = ok;
                e->sum_qty = 0;
              });
          g->sum_qty += l_quantity[i];
        }
      }
    });
  }
  auto merged = MergeLocalGroups(locals, opt);
  std::vector<Q18Group*>& groups = merged.groups;
  // Serial tail: surface a trip (deadline, budget, injected fault) that
  // landed during or after the parallel phase instead of sorting and
  // building a result nobody will see.
  if (Stop(opt)) return QueryResult::Failed(opt.cancel->status());

  // Having-filter + hash table over qualifying orderkeys.
  const int64_t qty_min = params.Int("quantity_min");
  JoinTable<Q18Order> ht_big(opt);
  {
    MorselQueue morsels(groups.size(), opt.morsel_grain);
    ht_big.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          const Q18Group* g = groups[i];
          if (g->sum_qty <= qty_min) continue;
          Q18Order e;
          e.header.hash = g->header.hash;
          e.orderkey = g->orderkey;
          e.sum_qty = g->sum_qty;
          emit(e);
        }
      }
    }, groups.size());
  }

  // Customer hash table (name lookup).
  const auto& c_custkey = cols.c_custkey;
  const auto& c_name = cols.c_name;
  JoinTable<Q18Cust> ht_cust(opt);
  {
    MorselQueue morsels(c_custkey.size(), opt.morsel_grain);
    ht_cust.Build([&](size_t, auto emit) {
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          Q18Cust e;
          e.header.hash = HashCrc32(static_cast<uint32_t>(c_custkey[i]));
          e.custkey = c_custkey[i];
          e.name = c_name[i];
          emit(e);
        }
      }
    }, c_custkey.size());
  }

  // Final pipeline: probe orders against the qualifying set, join customer.
  const auto& o_orderkey = cols.o_orderkey;
  const auto& o_custkey = cols.o_custkey;
  const auto& o_orderdate = cols.o_orderdate;
  const auto& o_totalprice = cols.o_totalprice;
  struct Row {
    Char<25> name;
    int32_t custkey, orderkey, orderdate;
    int64_t totalprice, sum_qty;
  };
  std::vector<Row> rows;
  std::mutex mu;
  {
    MorselQueue morsels(o_orderkey.size(), opt.morsel_grain);
    PoolFor(opt).Run(opt, morsels.total(), [&](size_t) {
      std::vector<Row> local;
      size_t begin, end;
      while (!Stop(opt) && morsels.Next(begin, end)) {
        for (size_t i = begin; i < end; ++i) {
          const int32_t ok = o_orderkey[i];
          const Q18Order* b = ht_big.Lookup(
              HashCrc32(static_cast<uint32_t>(ok)),
              [&](const Q18Order& e) { return e.orderkey == ok; });
          if (b == nullptr) continue;
          const int32_t ck = o_custkey[i];
          const Q18Cust* c = ht_cust.Lookup(
              HashCrc32(static_cast<uint32_t>(ck)),
              [&](const Q18Cust& e) { return e.custkey == ck; });
          local.push_back(Row{c->name, ck, ok, o_orderdate[i],
                              o_totalprice[i], b->sum_qty});
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      rows.insert(rows.end(), local.begin(), local.end());
    });
  }

  // Serial tail: surface a trip (deadline, budget, injected fault) that
  // landed during or after the probe phase instead of sorting and building
  // a result nobody will see.
  if (Stop(opt)) return QueryResult::Failed(opt.cancel->status());

  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(b.totalprice, a.orderdate, a.orderkey) <
           std::tie(a.totalprice, b.orderdate, b.orderkey);
  });
  if (rows.size() > 100) rows.resize(100);
  ResultBuilder rb({"c_name", "c_custkey", "o_orderkey", "o_orderdate",
                    "o_totalprice", "sum_qty"});
  for (const Row& r : rows) {
    rb.BeginRow()
        .Str(r.name.View())
        .Int(r.custkey)
        .Int(r.orderkey)
        .Date(r.orderdate)
        .Numeric(r.totalprice, 2)
        .Numeric(r.sum_qty, 2);
  }
  return rb.Finish();
}

}  // namespace vcq::typer
