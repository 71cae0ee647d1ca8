// SQL shell: an interactive front end for the sql/ subsystem. Type a
// SELECT statement and it is compiled (lexer → parser → binder →
// optimizer), lowered onto Tectorwise, executed, and printed; malformed
// SQL gets a caret-positioned diagnostic instead of a crash (the shell
// uses sql::Compile's recoverable error path, not Session::PrepareSql's
// check-failing one).
//
//   ./sql_shell [--sf 0.1] [--ssb] [--threads N]
//
// Commands:
//   SELECT ...            compile and run on Tectorwise
//   EXPLAIN SELECT ...    print every compilation stage instead of running
//   EXPLAIN ANALYZE SELECT ...
//                         run once with tracing on and print the measured
//                         plan (per node: rows, batches, self time,
//                         ns/tuple, density — tectorwise/plan.h)
//   \set <name> <value>   bind $<name> for subsequent queries (integer if
//                         the value parses as one, string otherwise)
//   \timing on|off        print wall time after every query (off default)
//   \metrics              process-wide metrics snapshot (runtime/metrics.h)
//   \tables               list tables and columns with their SQL types
//   \q                    quit

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "datagen/ssb.h"
#include "datagen/tpch.h"
#include "runtime/metrics.h"
#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/trace.h"
#include "sql/sql.h"
#include "tectorwise/plan.h"

namespace {

// Reprints the offending source line with a caret under the error column.
void PrintError(const std::string& text, const vcq::sql::SqlError& err) {
  std::fprintf(stderr, "%s\n", err.Format().c_str());
  size_t start = 0;
  for (size_t line = 1; line < err.line; ++line) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string::npos) return;
    start = nl + 1;
  }
  const size_t end = text.find('\n', start);
  const std::string line = text.substr(
      start, end == std::string::npos ? std::string::npos : end - start);
  std::fprintf(stderr, "  %s\n  %*s^\n", line.c_str(),
               static_cast<int>(err.col - 1), "");
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i)
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  *out = std::strtoll(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.1;
  bool ssb = false;
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--sf") && i + 1 < argc) sf = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--ssb")) ssb = true;
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
  }

  std::printf("Loading %s SF=%.2f ...\n", ssb ? "SSB" : "TPC-H", sf);
  const vcq::runtime::Database db = ssb ? vcq::datagen::GenerateSsb(sf)
                                        : vcq::datagen::GenerateTpch(sf);
  // One catalog for the whole session: statistics are scanned once.
  const auto catalog = vcq::sql::MakeCatalog(db);
  vcq::runtime::QueryOptions opt;
  opt.threads = threads;
  vcq::runtime::QueryParams params;
  bool timing = false;

  std::printf("sql shell — \\tables lists the schema, \\q quits.\n");
  std::string line;
  while (true) {
    std::printf("sql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    while (!line.empty() && (line.back() == ';' || line.back() == ' '))
      line.pop_back();
    if (line.empty()) continue;
    if (line == "\\q" || line == "quit" || line == "exit") break;

    if (line == "\\tables") {
      for (const vcq::sql::TableDef& t : catalog->tables()) {
        std::printf("%s (%zu rows)\n", t.name.c_str(), t.tuple_count);
        for (const vcq::sql::ColumnDef& c : t.columns)
          std::printf("  %-20s %s\n", c.name.c_str(),
                      vcq::sql::TypeName(c.type).c_str());
      }
      continue;
    }
    if (line == "\\metrics") {
      std::printf("%s\n", vcq::metrics::RenderJson().c_str());
      continue;
    }
    if (line.rfind("\\timing", 0) == 0) {
      const std::string arg = line.size() > 8 ? line.substr(8) : "";
      if (arg == "on") {
        timing = true;
      } else if (arg == "off") {
        timing = false;
      } else {
        timing = !timing;
      }
      std::printf("timing %s\n", timing ? "on" : "off");
      continue;
    }
    if (line.rfind("\\set ", 0) == 0) {
      const size_t sp = line.find(' ', 5);
      if (sp == std::string::npos) {
        std::fprintf(stderr, "usage: \\set <name> <value>\n");
        continue;
      }
      const std::string name = line.substr(5, sp - 5);
      const std::string value = line.substr(sp + 1);
      int64_t iv;
      if (ParseInt(value, &iv)) {
        params.SetInt(name, iv);
        std::printf("$%s = %lld\n", name.c_str(), static_cast<long long>(iv));
      } else {
        params.SetString(name, value);
        std::printf("$%s = '%s'\n", name.c_str(), value.c_str());
      }
      continue;
    }

    bool explain = false;
    bool analyze = false;
    std::string text = line;
    if (text.size() >= 8 && (std::strncmp(text.c_str(), "EXPLAIN ", 8) == 0 ||
                             std::strncmp(text.c_str(), "explain ", 8) == 0)) {
      explain = true;
      text = text.substr(8);
      if (text.size() >= 8 &&
          (std::strncmp(text.c_str(), "ANALYZE ", 8) == 0 ||
           std::strncmp(text.c_str(), "analyze ", 8) == 0)) {
        explain = false;
        analyze = true;
        text = text.substr(8);
      }
    }

    const vcq::sql::CompileResult compiled =
        vcq::sql::Compile(catalog, text);
    if (!compiled.ok()) {
      PrintError(text, *compiled.error);
      continue;
    }
    if (explain) {
      std::printf("%s", vcq::sql::Explain(*compiled.query).c_str());
      continue;
    }
    if (analyze) {
      // One traced execution, then the measured plan tree — the shell
      // drives the engine directly (no Session), so it hands its own
      // span sink in through the options.
      const vcq::tectorwise::Prepared prepared =
          compiled.query->LowerTectorwise();
      vcq::runtime::QueryTrace trace;
      vcq::runtime::QueryOptions traced = opt;
      traced.trace = vcq::runtime::TraceLevel::kSpans;
      traced.trace_sink = &trace;
      const auto start = std::chrono::steady_clock::now();
      const vcq::runtime::QueryResult result = prepared.Run(traced, params);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      std::printf("EXPLAIN ANALYZE (tectorwise): wall=%.2fms rows=%zu\n%s",
                  ms, result.rows.size(),
                  vcq::tectorwise::ExplainAnalyzeTree(prepared.plan(), trace,
                                                      traced.vector_size)
                      .c_str());
      continue;
    }

    const auto start = std::chrono::steady_clock::now();
    const vcq::runtime::QueryResult result =
        compiled.query->LowerTectorwise().Run(opt, params);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    std::printf("%s", result.ToString(40).c_str());
    std::printf("(%zu rows, %.2f ms, %u thread%s)\n", result.rows.size(), ms,
                threads, threads == 1 ? "" : "s");
    if (timing) std::printf("Time: %.3f ms\n", ms);
  }
  return 0;
}
