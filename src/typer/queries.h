#ifndef VCQ_TYPER_QUERIES_H_
#define VCQ_TYPER_QUERIES_H_

#include <memory>
#include <mutex>

#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "runtime/relation.h"

// Typer: the data-centric "compiled" engine. Each query is the fused
// tight-loop pipeline that HyPer-style produce/consume code generation
// emits (paper §2, Fig. 2a) — compiled ahead of time, which the paper's own
// methodology treats as equivalent since compile time is excluded from all
// measurements (§3, footnote 1).
//
// The queries are written with a header-only kit (typer/pipeline.h) that
// does the code generator's work with templates instead of a JIT. In
// produce/consume, an operator's consume() pastes its parent's code into
// the child's loop; here each kit part takes the code of the operators it
// feeds as a lambda, and the compiler inlines them into one loop whose
// intermediate values stay in registers:
//
//   pipeline source: table scan   Scan(opt, rows, worker(wid, morsels))
//   selection                     an early return in the row lambda, or
//                                 ForEachSelected (branch-free) where a
//                                 scan predicate feeds a probe
//   pipeline sink: join build     JoinTable::Build(rows, row(i, emit))
//   hash-join probe               JoinTable::Find(key)
//   sink + source: group-by       GroupBy<G>(opt, rows, [pred,] row(i,
//                                 local)) with local.At(key)
//   sink: scalar aggregate        Sum(opt, rows, morsel(begin, end))
//   sort, limit, output           Finish(opt, columns, rows, less, write)
//
// Every pipeline is parameterized (paper §8.1: compilation's edge is
// repeated execution of prepared statements): predicate constants are read
// from `params` at the top of the run, so one compiled pipeline serves any
// binding. Each query requires every parameter the vcq::QueryCatalog
// declares for it to be bound — go through vcq::Session (which merges the
// catalog defaults) or bind them all explicitly.
//
// Column accessors are resolved once per prepared query into a
// query-specific struct through the ColumnCache below: Relation::Col<T>
// does a name lookup plus a type check per call, which a warm
// PreparedQuery would otherwise re-pay on every Execute.

namespace vcq::typer {

/// Per-PreparedQuery cache of resolved column accessors. One cache serves
/// exactly one query, so it holds a single type-erased slot: the query's
/// resolved-columns struct, created on first use. Get() is safe to call
/// from concurrent Execute()s; the cached spans point into the Database,
/// which outlives the session (Session API contract).
class ColumnCache {
 public:
  template <typename Cols, typename MakeFn>
  const Cols& Get(MakeFn&& make) const {
    std::call_once(once_, [&] { cols_ = std::make_shared<Cols>(make()); });
    return *static_cast<const Cols*>(cols_.get());
  }

 private:
  mutable std::once_flag once_;
  mutable std::shared_ptr<void> cols_;
};

/// Every Typer query's entry point.
using QueryFn = runtime::QueryResult(const runtime::Database& db,
                                     const runtime::QueryOptions& opt,
                                     const runtime::QueryParams& params,
                                     const ColumnCache& cache);

QueryFn RunQ1, RunQ6, RunQ3, RunQ9, RunQ18;
QueryFn RunSsbQ11, RunSsbQ21, RunSsbQ31, RunSsbQ41;

}  // namespace vcq::typer

#endif  // VCQ_TYPER_QUERIES_H_
