#include <array>
#include <functional>
#include <span>
#include <tuple>

#include "runtime/hash.h"
#include "runtime/types.h"
#include "typer/pipeline.h"
#include "typer/queries.h"

// Star Schema Benchmark pipelines for Typer (paper §4.4): one fused probe
// loop over lineorder against filtered dimension hash tables, written with
// the kit in typer/pipeline.h.

namespace vcq::typer {

using runtime::Char;
using runtime::Database;
using runtime::HashBytes;
using runtime::HashCrc32;
using runtime::Hashmap;
using runtime::QueryOptions;
using runtime::QueryParams;
using runtime::QueryResult;
using runtime::Relation;
using runtime::ResultBuilder;

namespace {

struct DateEntry {
  Hashmap::EntryHeader header;
  int32_t key, year;  // key: datekey
};
struct KeyOnly {
  Hashmap::EntryHeader header;
  int32_t key;
};
struct KeyNation {
  Hashmap::EntryHeader header;
  int32_t key;
  Char<15> nation;
};
struct BrandEntry {
  Hashmap::EntryHeader header;
  int32_t key;  // partkey
  Char<9> brand;
};

}  // namespace

// ---------------------------------------------------------------------------
// Q1.1
// ---------------------------------------------------------------------------
namespace {

struct Q11Cols {
  std::span<const int32_t> d_datekey, d_year;
  std::span<const int32_t> lo_orderdate;
  std::span<const int64_t> lo_discount, lo_quantity, lo_extprice;

  static Q11Cols Resolve(const Database& db) {
    const Relation& d = db["date"];
    const Relation& lo = db["lineorder"];
    return {d.Col<int32_t>("d_datekey"),    d.Col<int32_t>("d_year"),
            lo.Col<int32_t>("lo_orderdate"), lo.Col<int64_t>("lo_discount"),
            lo.Col<int64_t>("lo_quantity"),
            lo.Col<int64_t>("lo_extendedprice")};
  }
};

}  // namespace

QueryResult RunSsbQ11(const Database& db, const QueryOptions& opt,
                     const QueryParams& params, const ColumnCache& cache) {
  const Q11Cols& cols =
      cache.Get<Q11Cols>([&] { return Q11Cols::Resolve(db); });
  const auto& [d_datekey, d_year, lo_orderdate, lo_discount, lo_quantity,
               lo_extprice] = cols;
  const int32_t year = static_cast<int32_t>(params.Int("year"));
  const int64_t disc_lo = params.Int("discount_lo");
  const int64_t disc_hi = params.Int("discount_hi");
  const int64_t qty_max = params.Int("quantity_max");

  JoinTable<KeyOnly> ht_date(opt);
  ht_date.Build(d_datekey.size(), [&](size_t i, auto& emit) {
    if (d_year[i] == year) emit(d_datekey[i]);
  });

  const int64_t total = Sum(opt, lo_orderdate.size(), [&](size_t begin,
                                                          size_t end) {
    // The default bindings keep about 13% of lineorder, where a branch on
    // the filter mispredicts often, so it runs as the branch-free filter
    // step ahead of the date probe.
    int64_t sum = 0;
    ForEachSelected(
        begin, end,
        [&](size_t i) {
          return (lo_discount[i] >= disc_lo) & (lo_discount[i] <= disc_hi) &
                 (lo_quantity[i] < qty_max);
        },
        [&](size_t i) {
          if (ht_date.Find(lo_orderdate[i]) != nullptr)
            sum += lo_extprice[i] * lo_discount[i];
        });
    return sum;
  });

  return Finish(opt, {"revenue"}, std::array{total}, std::less<>(),
                [](ResultBuilder& row, int64_t v) { row.Numeric(v, 4); });
}

// ---------------------------------------------------------------------------
// Q2.1
// ---------------------------------------------------------------------------
namespace {

struct Q21Key {
  int32_t year;
  Char<9> brand;

  bool operator==(const Q21Key&) const = default;
  uint64_t Hash() const {
    return HashCrc32(static_cast<uint64_t>(static_cast<uint32_t>(year)) ^
                     (HashBytes(brand.data, 9) << 1));
  }
};
struct Q21Group {
  Hashmap::EntryHeader header;
  Q21Key key;
  int64_t revenue;

  void Combine(const Q21Group& o) { revenue += o.revenue; }
};

struct Q21Cols {
  std::span<const int32_t> p_partkey;
  std::span<const Char<7>> p_category;
  std::span<const Char<9>> p_brand1;
  std::span<const int32_t> s_suppkey;
  std::span<const Char<12>> s_region;
  std::span<const int32_t> d_datekey, d_year;
  std::span<const int32_t> lo_partkey, lo_suppkey, lo_orderdate;
  std::span<const int64_t> lo_revenue;

  static Q21Cols Resolve(const Database& db) {
    const Relation& p = db["part"];
    const Relation& s = db["supplier"];
    const Relation& d = db["date"];
    const Relation& lo = db["lineorder"];
    return {p.Col<int32_t>("p_partkey"),    p.Col<Char<7>>("p_category"),
            p.Col<Char<9>>("p_brand1"),     s.Col<int32_t>("s_suppkey"),
            s.Col<Char<12>>("s_region"),    d.Col<int32_t>("d_datekey"),
            d.Col<int32_t>("d_year"),       lo.Col<int32_t>("lo_partkey"),
            lo.Col<int32_t>("lo_suppkey"),  lo.Col<int32_t>("lo_orderdate"),
            lo.Col<int64_t>("lo_revenue")};
  }
};

}  // namespace

QueryResult RunSsbQ21(const Database& db, const QueryOptions& opt,
                     const QueryParams& params, const ColumnCache& cache) {
  const Q21Cols& cols =
      cache.Get<Q21Cols>([&] { return Q21Cols::Resolve(db); });
  const auto& [p_partkey, p_category, p_brand1, s_suppkey, s_region,
               d_datekey, d_year, lo_partkey, lo_suppkey, lo_orderdate,
               lo_revenue] = cols;
  const Char<7> category = Char<7>::From(params.Str("category"));
  const Char<12> region = Char<12>::From(params.Str("region"));

  JoinTable<BrandEntry> ht_part(opt);
  ht_part.Build(p_partkey.size(), [&](size_t i, auto& emit) {
    if (p_category[i] == category) emit(p_partkey[i], p_brand1[i]);
  });
  JoinTable<KeyOnly> ht_supp(opt);
  ht_supp.Build(s_suppkey.size(), [&](size_t i, auto& emit) {
    if (s_region[i] == region) emit(s_suppkey[i]);
  });
  JoinTable<DateEntry> ht_date(opt);
  ht_date.Build(d_datekey.size(), [&](size_t i, auto& emit) {
    emit(d_datekey[i], d_year[i]);
  });

  auto merged = GroupBy<Q21Group>(
      opt, lo_partkey.size(), [&](size_t i, auto& local) {
        const BrandEntry* p = ht_part.Find(lo_partkey[i]);
        if (p == nullptr || ht_supp.Find(lo_suppkey[i]) == nullptr) return;
        const DateEntry* d = ht_date.Find(lo_orderdate[i]);
        local.At(Q21Key{d->year, p->brand})->revenue += lo_revenue[i];
      });

  return Finish(
      opt, {"d_year", "p_brand1", "revenue"}, merged.groups,
      [](const Q21Group* a, const Q21Group* b) {
        return std::tie(a->key.year, a->key.brand) <
               std::tie(b->key.year, b->key.brand);
      },
      [](ResultBuilder& row, const Q21Group* g) {
        row.Int(g->key.year).Str(g->key.brand.View()).Numeric(g->revenue, 2);
      });
}

// ---------------------------------------------------------------------------
// Q3.1
// ---------------------------------------------------------------------------
namespace {

struct Q31Key {
  Char<15> c_nation, s_nation;
  int32_t year;

  bool operator==(const Q31Key&) const = default;
};
// The group-by probe: hashes and compares the joined rows' nations where
// they lie. A Q31Key built first would copy each Char<15> through two
// overlapping 8-byte stack stores, and the hash's loads of the copy stall.
struct Q31Probe {
  const Char<15>& c_nation;
  const Char<15>& s_nation;
  int32_t year;

  bool operator==(const Q31Key& k) const {
    return k.year == year && k.c_nation == c_nation && k.s_nation == s_nation;
  }
  operator Q31Key() const { return {c_nation, s_nation, year}; }
  uint64_t Hash() const {
    return HashCrc32(HashBytes(c_nation.data, 15) ^
                     (HashBytes(s_nation.data, 15) << 1) ^
                     static_cast<uint32_t>(year));
  }
};
struct Q31Group {
  Hashmap::EntryHeader header;
  Q31Key key;
  int64_t revenue;

  void Combine(const Q31Group& o) { revenue += o.revenue; }
};

struct Q31Cols {
  std::span<const int32_t> c_custkey;
  std::span<const Char<15>> c_nation;
  std::span<const Char<12>> c_region;
  std::span<const int32_t> s_suppkey;
  std::span<const Char<15>> s_nation;
  std::span<const Char<12>> s_region;
  std::span<const int32_t> d_datekey, d_year;
  std::span<const int32_t> lo_custkey, lo_suppkey, lo_orderdate;
  std::span<const int64_t> lo_revenue;

  static Q31Cols Resolve(const Database& db) {
    const Relation& c = db["customer"];
    const Relation& s = db["supplier"];
    const Relation& d = db["date"];
    const Relation& lo = db["lineorder"];
    return {c.Col<int32_t>("c_custkey"),   c.Col<Char<15>>("c_nation"),
            c.Col<Char<12>>("c_region"),   s.Col<int32_t>("s_suppkey"),
            s.Col<Char<15>>("s_nation"),   s.Col<Char<12>>("s_region"),
            d.Col<int32_t>("d_datekey"),   d.Col<int32_t>("d_year"),
            lo.Col<int32_t>("lo_custkey"), lo.Col<int32_t>("lo_suppkey"),
            lo.Col<int32_t>("lo_orderdate"),
            lo.Col<int64_t>("lo_revenue")};
  }
};

}  // namespace

QueryResult RunSsbQ31(const Database& db, const QueryOptions& opt,
                     const QueryParams& params, const ColumnCache& cache) {
  const Q31Cols& cols =
      cache.Get<Q31Cols>([&] { return Q31Cols::Resolve(db); });
  const auto& [c_custkey, c_nation, c_region, s_suppkey, s_nation, s_region,
               d_datekey, d_year, lo_custkey, lo_suppkey, lo_orderdate,
               lo_revenue] = cols;
  const Char<12> region = Char<12>::From(params.Str("region"));
  const int32_t year_lo = static_cast<int32_t>(params.Int("year_lo"));
  const int32_t year_hi = static_cast<int32_t>(params.Int("year_hi"));

  JoinTable<KeyNation> ht_cust(opt);
  ht_cust.Build(c_custkey.size(), [&](size_t i, auto& emit) {
    if (c_region[i] == region) emit(c_custkey[i], c_nation[i]);
  });
  JoinTable<KeyNation> ht_supp(opt);
  ht_supp.Build(s_suppkey.size(), [&](size_t i, auto& emit) {
    if (s_region[i] == region) emit(s_suppkey[i], s_nation[i]);
  });
  JoinTable<DateEntry> ht_date(opt);
  ht_date.Build(d_datekey.size(), [&](size_t i, auto& emit) {
    if (d_year[i] >= year_lo && d_year[i] <= year_hi)
      emit(d_datekey[i], d_year[i]);
  });

  auto merged = GroupBy<Q31Group>(
      opt, lo_custkey.size(), [&](size_t i, auto& local) {
        const KeyNation* c = ht_cust.Find(lo_custkey[i]);
        if (c == nullptr) return;
        const KeyNation* s = ht_supp.Find(lo_suppkey[i]);
        if (s == nullptr) return;
        const DateEntry* d = ht_date.Find(lo_orderdate[i]);
        if (d == nullptr) return;
        local.At(Q31Probe{c->nation, s->nation, d->year})->revenue +=
            lo_revenue[i];
      });

  return Finish(
      opt, {"c_nation", "s_nation", "d_year", "revenue"}, merged.groups,
      [](const Q31Group* a, const Q31Group* b) {
        return std::tie(a->key.year, b->revenue, a->key.c_nation,
                        a->key.s_nation) <
               std::tie(b->key.year, a->revenue, b->key.c_nation,
                        b->key.s_nation);
      },
      [](ResultBuilder& row, const Q31Group* g) {
        row.Str(g->key.c_nation.View())
            .Str(g->key.s_nation.View())
            .Int(g->key.year)
            .Numeric(g->revenue, 2);
      });
}

// ---------------------------------------------------------------------------
// Q4.1
// ---------------------------------------------------------------------------
namespace {

struct Q41Key {
  int32_t year;
  Char<15> c_nation;

  bool operator==(const Q41Key&) const = default;
};
// The group-by probe (see Q31Probe).
struct Q41Probe {
  int32_t year;
  const Char<15>& c_nation;

  bool operator==(const Q41Key& k) const {
    return k.year == year && k.c_nation == c_nation;
  }
  operator Q41Key() const { return {year, c_nation}; }
  uint64_t Hash() const {
    return HashCrc32(HashBytes(c_nation.data, 15) ^
                     static_cast<uint32_t>(year));
  }
};
struct Q41Group {
  Hashmap::EntryHeader header;
  Q41Key key;
  int64_t profit;

  void Combine(const Q41Group& o) { profit += o.profit; }
};

struct Q41Cols {
  std::span<const int32_t> c_custkey;
  std::span<const Char<15>> c_nation;
  std::span<const Char<12>> c_region;
  std::span<const int32_t> s_suppkey;
  std::span<const Char<12>> s_region;
  std::span<const int32_t> p_partkey;
  std::span<const Char<6>> p_mfgr;
  std::span<const int32_t> d_datekey, d_year;
  std::span<const int32_t> lo_custkey, lo_suppkey, lo_partkey, lo_orderdate;
  std::span<const int64_t> lo_revenue, lo_supplycost;

  static Q41Cols Resolve(const Database& db) {
    const Relation& c = db["customer"];
    const Relation& s = db["supplier"];
    const Relation& p = db["part"];
    const Relation& d = db["date"];
    const Relation& lo = db["lineorder"];
    return {c.Col<int32_t>("c_custkey"),   c.Col<Char<15>>("c_nation"),
            c.Col<Char<12>>("c_region"),   s.Col<int32_t>("s_suppkey"),
            s.Col<Char<12>>("s_region"),   p.Col<int32_t>("p_partkey"),
            p.Col<Char<6>>("p_mfgr"),      d.Col<int32_t>("d_datekey"),
            d.Col<int32_t>("d_year"),      lo.Col<int32_t>("lo_custkey"),
            lo.Col<int32_t>("lo_suppkey"), lo.Col<int32_t>("lo_partkey"),
            lo.Col<int32_t>("lo_orderdate"),
            lo.Col<int64_t>("lo_revenue"),
            lo.Col<int64_t>("lo_supplycost")};
  }
};

}  // namespace

QueryResult RunSsbQ41(const Database& db, const QueryOptions& opt,
                     const QueryParams& params, const ColumnCache& cache) {
  const Q41Cols& cols =
      cache.Get<Q41Cols>([&] { return Q41Cols::Resolve(db); });
  const auto& [c_custkey, c_nation, c_region, s_suppkey, s_region, p_partkey,
               p_mfgr, d_datekey, d_year, lo_custkey, lo_suppkey, lo_partkey,
               lo_orderdate, lo_revenue, lo_supplycost] = cols;
  const Char<12> region = Char<12>::From(params.Str("region"));
  const Char<6> mfgr_a = Char<6>::From(params.Str("mfgr_a"));
  const Char<6> mfgr_b = Char<6>::From(params.Str("mfgr_b"));

  JoinTable<KeyNation> ht_cust(opt);
  ht_cust.Build(c_custkey.size(), [&](size_t i, auto& emit) {
    if (c_region[i] == region) emit(c_custkey[i], c_nation[i]);
  });
  JoinTable<KeyOnly> ht_supp(opt);
  ht_supp.Build(s_suppkey.size(), [&](size_t i, auto& emit) {
    if (s_region[i] == region) emit(s_suppkey[i]);
  });
  JoinTable<KeyOnly> ht_part(opt);
  ht_part.Build(p_partkey.size(), [&](size_t i, auto& emit) {
    if (p_mfgr[i] == mfgr_a || p_mfgr[i] == mfgr_b) emit(p_partkey[i]);
  });
  JoinTable<DateEntry> ht_date(opt);
  ht_date.Build(d_datekey.size(), [&](size_t i, auto& emit) {
    emit(d_datekey[i], d_year[i]);
  });

  auto merged = GroupBy<Q41Group>(
      opt, lo_custkey.size(), [&](size_t i, auto& local) {
        const KeyNation* c = ht_cust.Find(lo_custkey[i]);
        if (c == nullptr || ht_supp.Find(lo_suppkey[i]) == nullptr ||
            ht_part.Find(lo_partkey[i]) == nullptr) {
          return;
        }
        const DateEntry* d = ht_date.Find(lo_orderdate[i]);
        local.At(Q41Probe{d->year, c->nation})->profit +=
            lo_revenue[i] - lo_supplycost[i];
      });

  return Finish(
      opt, {"d_year", "c_nation", "profit"}, merged.groups,
      [](const Q41Group* a, const Q41Group* b) {
        return std::tie(a->key.year, a->key.c_nation) <
               std::tie(b->key.year, b->key.c_nation);
      },
      [](ResultBuilder& row, const Q41Group* g) {
        row.Int(g->key.year).Str(g->key.c_nation.View()).Numeric(g->profit, 2);
      });
}

}  // namespace vcq::typer
