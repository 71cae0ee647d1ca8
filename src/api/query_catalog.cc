#include "api/query_catalog.h"

#include "common/check.h"
#include "runtime/relation.h"

namespace vcq {

using runtime::ParamType;

namespace {

ParamSpec IntParam(std::string name, int64_t dflt, std::string description) {
  return ParamSpec{std::move(name), ParamType::kInt, "", dflt,
                   std::move(description)};
}

ParamSpec DateParam(std::string name, std::string iso,
                    std::string description) {
  return ParamSpec{std::move(name), ParamType::kDate, std::move(iso), 0,
                   std::move(description)};
}

ParamSpec StrParam(std::string name, std::string dflt,
                   std::string description) {
  return ParamSpec{std::move(name), ParamType::kString, std::move(dflt), 0,
                   std::move(description)};
}

std::vector<QueryInfo> BuildCatalog() {
  std::vector<QueryInfo> catalog;

  catalog.push_back(QueryInfo{
      Query::kQ1,
      "Q1",
      Workload::kTpch,
      {DateParam("shipdate", "1998-09-02", "l_shipdate <= :shipdate")},
      "pricing summary: in-cache aggregation, fixed-point arithmetic"});

  catalog.push_back(QueryInfo{
      Query::kQ6,
      "Q6",
      Workload::kTpch,
      {DateParam("shipdate_lo", "1994-01-01", "l_shipdate >= :shipdate_lo"),
       DateParam("shipdate_hi", "1994-12-31", "l_shipdate <= :shipdate_hi"),
       IntParam("discount_lo", 5, "l_discount >= :discount_lo (scale 2)"),
       IntParam("discount_hi", 7, "l_discount <= :discount_hi (scale 2)"),
       IntParam("quantity_max", 2400, "l_quantity < :quantity_max (scale 2)")},
      "forecasting revenue change: selective scan, single aggregate"});

  catalog.push_back(QueryInfo{
      Query::kQ3,
      "Q3",
      Workload::kTpch,
      {StrParam("segment", "BUILDING", "c_mktsegment == :segment"),
       DateParam("date", "1995-03-15",
                 "o_orderdate < :date and l_shipdate > :date")},
      "shipping priority: two joins into a group-by, top-10"});

  catalog.push_back(QueryInfo{
      Query::kQ9,
      "Q9",
      Workload::kTpch,
      {StrParam("color", "green", "p_name contains :color")},
      "product-type profit: four joins (one composite-key), group-by"});

  catalog.push_back(QueryInfo{
      Query::kQ18,
      "Q18",
      Workload::kTpch,
      {IntParam("quantity_min", 30000,
                "having sum(l_quantity) > :quantity_min (scale 2)")},
      "large-volume customers: high-cardinality aggregation, having"});

  catalog.push_back(QueryInfo{
      Query::kSsbQ11,
      "SSB-Q1.1",
      Workload::kSsb,
      {IntParam("year", 1993, "d_year == :year"),
       IntParam("discount_lo", 1, "lo_discount >= :discount_lo"),
       IntParam("discount_hi", 3, "lo_discount <= :discount_hi"),
       IntParam("quantity_max", 25, "lo_quantity < :quantity_max")},
      "date join + tight selections, single aggregate"});

  catalog.push_back(QueryInfo{
      Query::kSsbQ21,
      "SSB-Q2.1",
      Workload::kSsb,
      {StrParam("category", "MFGR#12", "p_category == :category"),
       StrParam("region", "AMERICA", "s_region == :region")},
      "part + supplier + date joins, group by (year, brand)"});

  catalog.push_back(QueryInfo{
      Query::kSsbQ31,
      "SSB-Q3.1",
      Workload::kSsb,
      {StrParam("region", "ASIA", "c_region == :region == s_region"),
       IntParam("year_lo", 1992, "d_year >= :year_lo"),
       IntParam("year_hi", 1997, "d_year <= :year_hi")},
      "customer + supplier + date joins, nation-pair group-by"});

  catalog.push_back(QueryInfo{
      Query::kSsbQ41,
      "SSB-Q4.1",
      Workload::kSsb,
      {StrParam("region", "AMERICA", "c_region == :region == s_region"),
       StrParam("mfgr_a", "MFGR#1", "p_mfgr == :mfgr_a || :mfgr_b"),
       StrParam("mfgr_b", "MFGR#2", "p_mfgr == :mfgr_a || :mfgr_b")},
      "four-dimension join, profit group-by"});

  return catalog;
}

}  // namespace

const std::vector<QueryInfo>& QueryCatalog() {
  static const std::vector<QueryInfo>* catalog =
      new std::vector<QueryInfo>(BuildCatalog());
  return *catalog;
}

const QueryInfo& CatalogEntry(Query query) {
  for (const QueryInfo& info : QueryCatalog()) {
    if (info.query == query) return info;
  }
  VCQ_CHECK_MSG(false, "query missing from the catalog");
  std::abort();  // unreachable: the check above never returns
}

const QueryInfo* FindQuery(std::string_view name) {
  for (const QueryInfo& info : QueryCatalog()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

runtime::QueryParams DefaultParams(Query query) {
  runtime::QueryParams params;
  for (const ParamSpec& spec : CatalogEntry(query).params) {
    switch (spec.type) {
      case ParamType::kInt: params.SetInt(spec.name, spec.default_int); break;
      case ParamType::kDate:
        params.SetDate(spec.name, spec.default_string);
        break;
      case ParamType::kString:
        params.SetString(spec.name, spec.default_string);
        break;
    }
  }
  return params;
}

std::vector<Query> QueriesFor(Workload workload) {
  std::vector<Query> out;
  for (const QueryInfo& info : QueryCatalog()) {
    if (info.workload == workload) out.push_back(info.query);
  }
  return out;
}

size_t EstimatedBuildBytes(const runtime::Database& db, Query query) {
  // Per-entry cost covering the materialized entry (header + key +
  // payload), its directory word, and the partitioned protocol's relink
  // arena (which briefly doubles the entries). Deliberately generous:
  // admission that queues a query which would have fit is a latency cost;
  // admission that lets a query overcommit defeats the budget.
  constexpr size_t kBytesPerBuildTuple = 64;
  // Build-side relations per query, selectivity ignored. Q1/Q6 build no
  // join tables; their group tables are a few hundred groups — noise.
  const auto tuples = [&](std::initializer_list<const char*> names) {
    size_t total = 0;
    for (const char* name : names) total += db[name].tuple_count();
    return total * kBytesPerBuildTuple;
  };
  switch (query) {
    case Query::kQ1:
    case Query::kQ6: return 0;
    case Query::kQ3: return tuples({"customer", "orders"});
    case Query::kQ9: return tuples({"part", "partsupp", "supplier", "orders"});
    // Q18 pre-aggregates lineitem into per-order groups that feed a join
    // build, so the whole scan side counts as build footprint.
    case Query::kQ18: return tuples({"lineitem", "orders", "customer"});
    case Query::kSsbQ11: return tuples({"date"});
    case Query::kSsbQ21: return tuples({"part", "supplier", "date"});
    case Query::kSsbQ31: return tuples({"customer", "supplier", "date"});
    case Query::kSsbQ41:
      return tuples({"customer", "supplier", "part", "date"});
  }
  VCQ_CHECK_MSG(false, "query missing from the catalog");
  std::abort();  // unreachable
}

size_t ScannedTuples(const runtime::Database& db, Query query) {
  const auto count = [&](const char* name) { return db[name].tuple_count(); };
  switch (query) {
    case Query::kQ1:
    case Query::kQ6: return count("lineitem");
    case Query::kQ3:
      return count("customer") + count("orders") + count("lineitem");
    case Query::kQ9:
      return count("part") + count("supplier") + count("partsupp") +
             count("orders") + count("lineitem");
    case Query::kQ18:
      return count("lineitem") + count("orders") + count("customer");
    case Query::kSsbQ11: return count("lineorder") + count("date");
    case Query::kSsbQ21:
      return count("lineorder") + count("date") + count("part") +
             count("supplier");
    case Query::kSsbQ31:
      return count("lineorder") + count("date") + count("customer") +
             count("supplier");
    case Query::kSsbQ41:
      return count("lineorder") + count("date") + count("customer") +
             count("supplier") + count("part");
  }
  VCQ_CHECK_MSG(false, "query missing from the catalog");
  std::abort();  // unreachable
}

}  // namespace vcq
