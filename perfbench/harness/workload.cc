#include "harness/workload.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <random>
#include <thread>

#include "api/query_catalog.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "sql/reference_queries.h"
#include "sql/sql.h"
#include "tectorwise/queries.h"

namespace perfbench {
namespace {

using vcq::Engine;
using vcq::runtime::ParamType;
using vcq::runtime::QueryOptions;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Three binding sets per query, spanning a range of selectivities. Values
// are written as the catalog spells them (dates ISO, fixed-point ints at
// schema scale); ParamSpec types decide how each is bound.
const std::map<std::string, std::vector<std::vector<std::string>>>&
BindingTable() {
  static const auto* table =
      new std::map<std::string, std::vector<std::vector<std::string>>>{
          {"Q1", {{"1998-09-02"}, {"1997-09-02"}, {"1996-09-02"}}},
          {"Q6",
           {{"1994-01-01", "1994-12-31", "5", "7", "2400"},
            {"1995-01-01", "1995-12-31", "2", "4", "2500"},
            {"1996-01-01", "1996-12-31", "6", "8", "2400"}}},
          {"Q3",
           {{"BUILDING", "1995-03-15"},
            {"MACHINERY", "1995-03-10"},
            {"AUTOMOBILE", "1995-03-20"}}},
          {"Q9", {{"green"}, {"blue"}, {"ivory"}}},
          {"Q18", {{"30000"}, {"31200"}, {"31300"}}},
          {"SSB-Q1.1",
           {{"1993", "1", "3", "25"},
            {"1994", "4", "6", "35"},
            {"1995", "5", "7", "30"}}},
          {"SSB-Q2.1",
           {{"MFGR#12", "AMERICA"}, {"MFGR#22", "ASIA"}, {"MFGR#33", "EUROPE"}}},
          {"SSB-Q3.1",
           {{"ASIA", "1992", "1997"},
            {"AMERICA", "1992", "1997"},
            {"EUROPE", "1993", "1996"}}},
          {"SSB-Q4.1",
           {{"AMERICA", "MFGR#1", "MFGR#2"},
            {"ASIA", "MFGR#1", "MFGR#2"},
            {"EUROPE", "MFGR#3", "MFGR#4"}}},
      };
  return *table;
}

std::vector<Binding> BindingsFor(const std::string& query) {
  const vcq::QueryInfo* info = vcq::FindQuery(query);
  std::vector<Binding> out;
  for (const std::vector<std::string>& values : BindingTable().at(query)) {
    Binding b;
    for (size_t i = 0; i < info->params.size(); ++i) {
      const vcq::ParamSpec& spec = info->params[i];
      switch (spec.type) {
        case ParamType::kInt:
          b.params.SetInt(spec.name, std::stoll(values[i]));
          break;
        case ParamType::kDate: b.params.SetDate(spec.name, values[i]); break;
        case ParamType::kString:
          b.params.SetString(spec.name, values[i]);
          break;
      }
      b.values.emplace_back(spec.name, spec.type, values[i]);
      if (!b.label.empty()) b.label += ",";
      b.label += spec.name + "=" + values[i];
    }
    out.push_back(std::move(b));
  }
  return out;
}

// Per-query memory budget of the spill workload: about a quarter of the
// in-memory peak of either engine at SF 0.2 (ledger peaks measured at 4
// threads: 5.7/4.7 MiB for Q3, 23.6/23.9 MiB for Q9, 15.0/16.9 MiB for
// Q18), so the first rung trips and the spill rung survives — also at
// 1 and 2 threads, where every request completes on rung 1.
size_t SpillBudget(const std::string& query, double sf) {
  double mib = 0;
  if (query == "Q3") mib = 1.25;
  if (query == "Q9") mib = 6.0;
  if (query == "Q18") mib = 4.0;
  return static_cast<size_t>(mib * (sf / 0.2) * 1024 * 1024);
}

const char* EngineTag(Engine engine) {
  switch (engine) {
    case Engine::kTyper: return "typer";
    case Engine::kTectorwise: return "tw";
    case Engine::kVolcano: return "volcano";
  }
  return "?";
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec>* specs = new std::vector<WorkloadSpec>{
      // Single-threaded, as in the paper's Tab. 2. On a shared virtual
      // machine a gang waits for its slowest vCPU: at two threads the
      // spread of serial-sf1 neared the bounds and that of spill-sf0.2
      // passed them; at nproc threads serial-sf1's passed them too.
      {"serial-sf1", 1.0, 1.0, 1},
      {"sql-sf1", 1.0, 1.0, 1},
      {"spill-sf0.2", 0.2, 0, 1},
  };
  for (const WorkloadSpec& spec : *specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<World> Setup(const WorkloadSpec& spec,
                             const Overrides& overrides, bool traced) {
  auto world = std::make_unique<World>();
  const double scale = overrides.scale;
  const double tpch_sf = scale > 0 ? scale : spec.tpch_sf;
  const double ssb_sf =
      spec.ssb_sf == 0 ? 0 : (scale > 0 ? scale : spec.ssb_sf);
  const int gen_threads = static_cast<int>(Nproc());

  double t = NowS();
  world->tpch = std::make_unique<vcq::runtime::Database>(
      vcq::datagen::GenerateTpch(tpch_sf, gen_threads));
  world->datagen_tpch_s = NowS() - t;
  if (ssb_sf > 0) {
    t = NowS();
    world->ssb = std::make_unique<vcq::runtime::Database>(
        vcq::datagen::GenerateSsb(ssb_sf, gen_threads));
    world->datagen_ssb_s = NowS() - t;
  }
  // One worker set for every session of the run, sized to the host (the
  // global pool has max(hw, 16) workers).
  world->pool = std::make_unique<vcq::runtime::WorkerPool>(Nproc());

  auto new_session = [&](const vcq::runtime::Database& db) {
    world->sessions.push_back(
        std::make_unique<vcq::Session>(db, *world->pool));
    return world->sessions.back().get();
  };
  auto add_cell = [&](const std::string& query, Engine engine, Mode mode,
                      vcq::Session* session, bool short_class) {
    Cell cell;
    cell.query = query;
    cell.engine = engine;
    cell.mode = mode;
    cell.session = session;
    cell.short_class = short_class;
    cell.options.threads = spec.threads;
    cell.name = query + "/" + (mode == Mode::kSql ? "sql" : EngineTag(engine));
    cell.bindings = BindingsFor(query);
    world->cells.push_back(std::move(cell));
    return world->cells.size() - 1;
  };

  if (spec.name == "serial-sf1" || spec.name == "sql-sf1") {
    vcq::Session* tpch = new_session(*world->tpch);
    vcq::Session* ssb = new_session(*world->ssb);
    for (const vcq::QueryInfo& info : vcq::QueryCatalog()) {
      vcq::Session* s = info.workload == vcq::Workload::kTpch ? tpch : ssb;
      // The short class: the three cheapest queries, so its percentiles
      // rest on enough samples per run.
      const bool short_class = info.name == "Q6" ||
                               info.name == "SSB-Q1.1" ||
                               info.name == "SSB-Q2.1";
      if (spec.name == "serial-sf1") {
        for (Engine e : {Engine::kTyper, Engine::kTectorwise})
          add_cell(info.name, e, Mode::kExecute, s, short_class);
      } else {
        add_cell(info.name, Engine::kTectorwise, Mode::kSql, s, short_class);
      }
    }
  } else if (spec.name == "spill-sf0.2") {
    vcq::Session* s = new_session(*world->tpch);
    for (const char* q : {"Q3", "Q9", "Q18"}) {
      for (Engine e : {Engine::kTyper, Engine::kTectorwise}) {
        const size_t c = add_cell(q, e, Mode::kDegradation, s,
                                  std::string(q) == "Q3");
        world->cells[c].options.memory_budget = SpillBudget(q, tpch_sf);
      }
    }
  }

  // Prepare every cell, timed from outside.
  for (Cell& cell : world->cells) {
    const vcq::QueryInfo* info = vcq::FindQuery(cell.query);
    QueryOptions opt = cell.options;
    if (overrides.plant_q9_tw && cell.name == "Q9/tw") opt.vector_size = 1;
    const vcq::runtime::Database& db = cell.session->db();
    cell.scanned = vcq::ScannedTuples(db, info->query);
    const double t0 = NowS();
    if (cell.mode == Mode::kSql) {
      // The request prepares its own handle; setup prepares the
      // hand-built twin the SQL results are checked against.
      cell.hand = cell.session->Prepare(Engine::kTectorwise, info->query, opt);
      world->prepare_us.push_back((NowS() - t0) * 1e6);
      const double t1 = NowS();
      cell.handle = cell.session->PrepareSql(
          vcq::sql::SqlTextFor(cell.query), Engine::kTectorwise, opt);
      world->prepare_us.push_back((NowS() - t1) * 1e6);
    } else {
      cell.handle = cell.session->Prepare(cell.engine, info->query, opt);
      world->prepare_us.push_back((NowS() - t0) * 1e6);
    }
    cell.threads = cell.handle.options().threads;
    cell.options = cell.handle.options();
    if (traced) {
      QueryOptions topt = opt;
      topt.trace = vcq::runtime::TraceLevel::kSpans;
      if (cell.mode != Mode::kSql)
        cell.traced = cell.session->Prepare(cell.engine, info->query, topt);
      if (cell.engine == Engine::kTectorwise) {
        const vcq::tectorwise::Plan plan =
            cell.mode == Mode::kSql
                ? vcq::sql::Compile(db, vcq::sql::SqlTextFor(cell.query))
                      .query->LowerTectorwise()
                      .TakePlan()
                : vcq::tectorwise::Prepare(db, cell.query, topt).TakePlan();
        cell.nodes = plan.Describe();
      }
    }
  }

  // Warm-up: one execution per handle, with the cell's first binding.
  for (Cell& cell : world->cells) {
    const Binding& b = cell.bindings.front();
    switch (cell.mode) {
      case Mode::kExecute: cell.warmup = cell.handle.Execute(b.params); break;
      case Mode::kSql:
        cell.hand.Execute(b.params);
        cell.warmup = cell.handle.Execute(b.params);
        break;
      case Mode::kDegradation:
        Bind(cell.handle, b);
        cell.warmup = cell.handle.ExecuteWithDegradation();
        break;
    }
  }
  return world;
}

void BuildReferences(World& world, std::vector<std::string>& errors) {
  // References come from plain in-memory catalog plans at default
  // options and nproc threads (results are byte-identical across thread
  // counts): hand-built Tectorwise for a SQL cell, an unbudgeted plan for
  // a spill cell. The warm-up result must match the first reference.
  for (Cell& cell : world.cells) {
    QueryOptions opt;
    opt.threads = Nproc();
    const vcq::PreparedQuery ref_handle = cell.session->Prepare(
        cell.engine, vcq::FindQuery(cell.query)->query, opt);
    for (const Binding& b : cell.bindings) {
      vcq::runtime::QueryResult ref = ref_handle.Execute(b.params);
      if (!ref.ok()) {
        errors.push_back(cell.name + " [" + b.label +
                         "]: reference run failed: " + StatusName(ref.status));
      } else if (ref.rows.empty()) {
        errors.push_back(cell.name + " [" + b.label + "]: empty result");
      }
      cell.refs.push_back(std::move(ref));
    }
    if (!(cell.warmup == cell.refs.front())) {
      errors.push_back(cell.name + " [" + cell.bindings.front().label +
                       "]: warm-up result differs from the " +
                       (cell.mode == Mode::kSql ? "hand-built"
                        : cell.mode == Mode::kDegradation ? "in-memory"
                                                          : "reference") +
                       " result");
    }
  }
  // Typer ≡ Tectorwise for every query both engines run in this world.
  for (size_t i = 0; i < world.cells.size(); ++i) {
    for (size_t j = i + 1; j < world.cells.size(); ++j) {
      const Cell& a = world.cells[i];
      const Cell& b = world.cells[j];
      if (a.query != b.query || a.engine == b.engine) continue;
      for (size_t k = 0; k < a.refs.size(); ++k) {
        if (!(a.refs[k] == b.refs[k])) {
          errors.push_back(a.name + " vs " + b.name + " [" +
                           a.bindings[k].label + "]: results differ");
        }
      }
    }
  }
}

void Bind(vcq::PreparedQuery& query, const Binding& binding) {
  for (const auto& [name, type, value] : binding.values) {
    if (type == ParamType::kInt) {
      query.Set(name, static_cast<int64_t>(std::stoll(value)));
    } else {
      query.Set(name, value);
    }
  }
}

size_t RoundSize(const World& world) {
  size_t n = 0;
  for (const Cell& cell : world.cells) n += cell.bindings.size();
  return n;
}

Request NthRequest(const World& world, uint64_t seed, size_t k) {
  std::vector<Request> round;
  for (size_t c = 0; c < world.cells.size(); ++c) {
    for (size_t b = 0; b < world.cells[c].bindings.size(); ++b)
      round.push_back(Request{c, b});
  }
  std::mt19937_64 rng(Mix(seed ^ Mix(k / round.size())));
  std::shuffle(round.begin(), round.end(), rng);
  return round[k % round.size()];
}

}  // namespace perfbench
