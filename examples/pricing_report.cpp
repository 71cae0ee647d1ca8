// Pricing & shipping-priority report: the business scenario behind TPC-H
// Q1 (pricing summary) and Q3 (unshipped-order priorities), served from a
// warm vcq::Session on the engine of your choice.
//
//   ./pricing_report [--engine typer|tectorwise|volcano] [--sf 0.5]
//                    [--threads N]
//
// Demonstrates: the Session lifecycle (prepare once, execute many),
// parameter binding on a prepared handle (the Q3 report is re-run for a
// second market segment without rebuilding the plan), and how the paper's
// two paradigms produce identical answers from very different code.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "api/session.h"
#include "api/vcq.h"
#include "datagen/tpch.h"

namespace {

vcq::Engine ParseEngine(const std::string& name) {
  if (name == "typer") return vcq::Engine::kTyper;
  if (name == "tectorwise" || name == "tw") return vcq::Engine::kTectorwise;
  if (name == "volcano") return vcq::Engine::kVolcano;
  std::fprintf(stderr, "unknown engine '%s'\n", name.c_str());
  std::exit(1);
}

double RunTimed(const vcq::PreparedQuery& query,
                vcq::runtime::QueryResult* out) {
  const auto start = std::chrono::steady_clock::now();
  *out = query.Execute();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  vcq::Engine engine = vcq::Engine::kTyper;
  double sf = 0.5;
  vcq::runtime::QueryOptions opt;
  opt.threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--engine") && i + 1 < argc) {
      engine = ParseEngine(argv[++i]);
    } else if (!std::strcmp(argv[i], "--sf") && i + 1 < argc) {
      sf = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      opt.threads = std::strtoul(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--engine typer|tectorwise|volcano] "
                   "[--sf F] [--threads N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (engine == vcq::Engine::kVolcano) opt.threads = 1;

  std::printf("Loading TPC-H SF=%.2f ...\n", sf);
  vcq::runtime::Database db = vcq::datagen::GenerateTpch(sf);
  vcq::Session session(db);

  vcq::runtime::QueryResult result;

  vcq::PreparedQuery q1 = session.Prepare(engine, vcq::Query::kQ1, opt);
  double ms = RunTimed(q1, &result);
  std::printf(
      "\n--- Pricing summary (TPC-H Q1) — %s, %zu thread(s), %.1f ms ---\n",
      vcq::EngineName(engine), opt.threads, ms);
  std::printf("%s", result.ToString().c_str());

  vcq::PreparedQuery q3 = session.Prepare(engine, vcq::Query::kQ3, opt);
  ms = RunTimed(q3, &result);
  std::printf(
      "\n--- Top unshipped orders by value (TPC-H Q3, BUILDING) — %.1f ms "
      "---\n",
      ms);
  std::printf("%s", result.ToString().c_str());

  // Same prepared plan, different market segment: parameter binding on the
  // warm handle.
  q3.Set("segment", "MACHINERY");
  ms = RunTimed(q3, &result);
  std::printf(
      "\n--- Top unshipped orders by value (TPC-H Q3, MACHINERY) — %.1f ms "
      "---\n",
      ms);
  std::printf("%s", result.ToString().c_str());

  vcq::PreparedQuery q18 = session.Prepare(engine, vcq::Query::kQ18, opt);
  ms = RunTimed(q18, &result);
  std::printf("\n--- Large-volume customers (TPC-H Q18) — %.1f ms ---\n", ms);
  std::printf("%s", result.ToString(20).c_str());
  return 0;
}
