#ifndef VCQ_PERFBENCH_WORKLOAD_H_
#define VCQ_PERFBENCH_WORKLOAD_H_

// Workload definitions of the benchmark harness: which databases are
// generated, which (query, engine) cells run on which sessions, the
// per-query binding sets, and how the single client's closed-loop request
// sequence is drawn from the seed.

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/session.h"
#include "runtime/params.h"
#include "runtime/query_result.h"
#include "runtime/relation.h"
#include "runtime/worker_pool.h"
#include "tectorwise/plan.h"

namespace perfbench {

/// One parameter binding set, as the catalog's ParamSpecs type it.
struct Binding {
  vcq::runtime::QueryParams params;
  /// (name, type, value as spelled) for PreparedQuery::Set.
  std::vector<std::tuple<std::string, vcq::runtime::ParamType, std::string>>
      values;
  std::string label;  // "name=value,..." for diagnostics
};

/// How a request executes its cell.
enum class Mode {
  kExecute,      // PreparedQuery::Execute(params) on a prepared handle
  kDegradation,  // Set + ExecuteWithDegradation on a budgeted handle
  kSql,          // Session::PrepareSql + Set + Execute, no plan reuse
};

/// One (query, engine) cell of a workload.
struct Cell {
  std::string name;   // "Q9/tw", "Q9/typer", "Q9/sql"
  std::string query;  // catalog name ("Q9", "SSB-Q1.1")
  vcq::Engine engine = vcq::Engine::kTectorwise;
  Mode mode = Mode::kExecute;
  bool short_class = false;
  vcq::Session* session = nullptr;
  vcq::runtime::QueryOptions options;
  vcq::PreparedQuery handle;  // untraced
  vcq::PreparedQuery traced;  // prepared with TraceLevel::kSpans
  /// Hand-built Tectorwise twin of a kSql cell (paired vs_hand timing).
  vcq::PreparedQuery hand;
  std::vector<Binding> bindings;
  /// The warm-up execution's result (first binding).
  vcq::runtime::QueryResult warmup;
  /// Correctness references, one per binding (BuildReferences).
  std::vector<vcq::runtime::QueryResult> refs;
  size_t scanned = 0;   // vcq::ScannedTuples of the cell's query
  size_t threads = 1;   // effective threads (after the session clamp)
  /// Tectorwise plan shape (node kinds + children) for self-time
  /// attribution of traced runs; empty for Typer cells.
  std::vector<vcq::tectorwise::Plan::NodeInfo> nodes;
};

/// Everything one set-up builds, torn down in reverse member order.
struct World {
  std::unique_ptr<vcq::runtime::WorkerPool> pool;
  std::unique_ptr<vcq::runtime::Database> tpch;
  std::unique_ptr<vcq::runtime::Database> ssb;
  std::vector<std::unique_ptr<vcq::Session>> sessions;
  std::vector<Cell> cells;  // the one closed-loop client draws from all
  double datagen_tpch_s = 0;
  double datagen_ssb_s = 0;
  std::vector<double> prepare_us;  // one per Prepare/PrepareSql call
};

struct WorkloadSpec {
  std::string name;
  double tpch_sf = 0;
  double ssb_sf = 0;   // 0 = no SSB database
  size_t threads = 1;  // threads of every cell
};

/// The named workload's spec; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Self-test settings: the attribution self-test runs small and steady.
struct Overrides {
  double scale = 0;  // > 0 replaces the workload's scale factors
  /// Plants a slowdown in the Q9 Tectorwise cell alone (1-tuple vectors).
  bool plant_q9_tw = false;
};

/// Builds the workload's world — the set-up setup_s times: generates
/// data, constructs sessions, prepares every cell (traced twins too when
/// `traced` is set) and runs one warm-up execution per handle.
std::unique_ptr<World> Setup(const WorkloadSpec& spec,
                             const Overrides& overrides, bool traced);

/// Executes every (cell, binding) once on its in-memory reference plan
/// and stores the results as the correctness references. Mismatches —
/// warm-up vs reference (SQL ≡ hand-built, spill ≡ in-memory) and Typer ≡
/// Tectorwise across cells — append to `errors`.
void BuildReferences(World& world, std::vector<std::string>& errors);

/// Binds every parameter of `binding` on the handle (for the execution
/// entry points that take no explicit parameters).
void Bind(vcq::PreparedQuery& query, const Binding& binding);

/// The k-th request: a (cell, binding) pair drawn from the seed. Requests
/// come in rounds that execute every (cell, binding) pair once, in a
/// seed-shuffled order — so a run of whole rounds executes the same
/// multiset of requests on every seed.
struct Request {
  size_t cell = 0;
  size_t binding = 0;
};
Request NthRequest(const World& world, uint64_t seed, size_t k);

/// Size of one round: the world's (cell, binding) pairs.
size_t RoundSize(const World& world);

}  // namespace perfbench

#endif  // VCQ_PERFBENCH_WORKLOAD_H_
