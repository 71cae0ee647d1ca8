#include "api/vcq.h"

#include "api/query_catalog.h"
#include "api/session.h"
#include "common/check.h"
#include "tectorwise/plan.h"
#include "tectorwise/queries.h"

namespace vcq {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;

QueryResult RunQuery(const Database& db, Engine engine, Query query,
                     const QueryOptions& options) {
  // A Session over the process-global pool is cheap to stand up: prepare
  // does exactly the plan building the old per-call entry points did.
  return Session(db).Prepare(engine, query, options).Execute();
}

std::string ExplainQuery(const Database& db, Query query) {
  return tectorwise::PlanFor(db, QueryName(query)).ToString();
}

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kTyper: return "Typer";
    case Engine::kTectorwise: return "Tectorwise";
    case Engine::kVolcano: return "Volcano";
  }
  return "?";
}

const char* QueryName(Query query) { return CatalogEntry(query).name.c_str(); }

bool IsSsbQuery(Query query) {
  return CatalogEntry(query).workload == Workload::kSsb;
}

std::vector<Query> TpchQueries() { return QueriesFor(Workload::kTpch); }

std::vector<Query> SsbQueries() { return QueriesFor(Workload::kSsb); }

}  // namespace vcq
