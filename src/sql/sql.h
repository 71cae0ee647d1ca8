#ifndef VCQ_SQL_SQL_H_
#define VCQ_SQL_SQL_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "runtime/relation.h"
#include "sql/catalog.h"
#include "sql/error.h"
#include "sql/lower.h"
#include "sql/optimizer.h"
#include "tectorwise/queries.h"

// The SQL front door, end to end:
//
//   text ── lexer/parser ──► ast::Select ── binder ──► BoundQuery
//        ── optimizer ──► PhysicalPlan ── lowerings ──► Tectorwise plan
//                                                       / Volcano pipeline
//
// Compile() runs everything up to the physical plan and is the only
// boundary where malformed SQL surfaces (as a positioned SqlError); a
// CompiledQuery is immutable, engine-independent, and shareable. The
// Session layer (api/session.h) wraps this as PrepareSql, turning a
// compiled query into an ordinary PreparedQuery with named $parameters.

namespace vcq::sql {

/// A parsed, bound, and optimized query. Thread-safe after construction;
/// keeps its catalog (and through it nothing but schema + stats) alive.
class CompiledQuery {
 public:
  CompiledQuery(std::shared_ptr<const Catalog> catalog, std::string text,
                PhysicalPlan plan, std::string ast_dump,
                std::string logical_dump)
      : catalog_(std::move(catalog)),
        text_(std::move(text)),
        plan_(std::move(plan)),
        ast_(std::move(ast_dump)),
        logical_(std::move(logical_dump)) {}

  const std::string& text() const { return text_; }
  const PhysicalPlan& plan() const { return plan_; }
  const std::vector<ParamDecl>& params() const { return plan_.query.params; }
  /// Optimizer plan cost: Σ estimated join-output rows.
  double cost() const { return plan_.cost; }

  /// Builds the Tectorwise plan (callable repeatedly; each Prepared is
  /// independent).
  tectorwise::Prepared LowerTectorwise() const {
    return sql::LowerTectorwise(plan_);
  }

  /// One Volcano execution (single-threaded differential oracle).
  runtime::QueryResult RunVolcano(const runtime::QueryOptions& opt,
                                  const runtime::QueryParams& params,
                                  VolcanoStats* stats = nullptr) const {
    return sql::RunVolcano(plan_, opt, params, stats);
  }

  // EXPLAIN stages.
  const std::string& ExplainAst() const { return ast_; }
  const std::string& ExplainLogical() const { return logical_; }
  std::string ExplainOptimized() const { return ToString(plan_); }
  /// Lowers to Tectorwise and dumps the operator DAG.
  std::string ExplainPhysical() const;

 private:
  std::shared_ptr<const Catalog> catalog_;
  std::string text_;
  PhysicalPlan plan_;
  std::string ast_;
  std::string logical_;
};

struct CompileResult {
  std::shared_ptr<const CompiledQuery> query;  // null on error
  std::optional<SqlError> error;

  bool ok() const { return query != nullptr; }
};

/// Compiles `text` against the catalog. Never throws; malformed SQL comes
/// back as CompileResult::error with a 1-based source position. A non-null
/// `trace` records one "sql.parse"/"sql.bind"/"sql.optimize" span per
/// stage (runtime/trace.h) — Session::PrepareSql hands its prepare-time
/// trace in so EXPLAIN ANALYZE and Chrome exports show compile cost next
/// to execution cost.
CompileResult Compile(std::shared_ptr<const Catalog> catalog,
                      std::string_view text,
                      const OptimizerOptions& options = {},
                      runtime::QueryTrace* trace = nullptr);

/// Convenience: builds a throwaway catalog (rescans statistics — prefer
/// the shared-catalog overload for repeated compilation).
CompileResult Compile(const runtime::Database& db, std::string_view text,
                      const OptimizerOptions& options = {});

/// All four EXPLAIN stages (ast / logical / optimized / physical) with
/// headers — what Session::ExplainSql and the shell print.
std::string Explain(const CompiledQuery& query);

}  // namespace vcq::sql

#endif  // VCQ_SQL_SQL_H_
