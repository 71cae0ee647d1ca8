#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "api/vcq.h"
#include "datagen/ssb.h"
#include "datagen/tpch.h"

// The join build/probe memory path, audited end to end:
//
//  * Probe-output accumulation under multi-threaded collectors: batch
//    compaction makes HashJoin accumulate sparse hits across probe
//    batches, which changes the batch boundaries every collector sees;
//    with several workers the collector interleaving changes too. The
//    matrix pins byte-identity at threads {1, 8} x vector sizes
//    {1, 64, 1024, 65536} across all nine queries (at vector size 1 no
//    batch is ever sparse, so nothing accumulates).
//
//  * Thread-count x SIMD equivalence: probes over the shared join build
//    must be unobservable in results for both engines at threads {1, 8},
//    and for Tectorwise's scalar and AVX-512 findCandidates — the
//    acceptance matrix of the per-worker arena build (one worker inserts
//    without CAS, several CAS-insert into one directory).

namespace vcq {
namespace {

using runtime::Database;
using runtime::QueryOptions;
using runtime::QueryResult;

const Database& TpchDb() {
  static const Database* db = new Database(datagen::GenerateTpch(0.02));
  return *db;
}

const Database& SsbDb() {
  static const Database* db = new Database(datagen::GenerateSsb(0.02));
  return *db;
}

const Database& DbFor(Query q) { return IsSsbQuery(q) ? SsbDb() : TpchDb(); }

std::vector<Query> AllQueries() {
  std::vector<Query> all = TpchQueries();
  for (Query q : SsbQueries()) all.push_back(q);
  return all;
}

/// Single-threaded Typer: the anchor every configuration must reproduce
/// byte-identically.
const QueryResult& Expected(Query q) {
  static std::map<Query, QueryResult>* cache =
      new std::map<Query, QueryResult>();
  auto it = cache->find(q);
  if (it == cache->end()) {
    QueryOptions opt;
    opt.threads = 1;
    it = cache->emplace(q, RunQuery(DbFor(q), Engine::kTyper, q, opt)).first;
  }
  return it->second;
}

class JoinPathTest : public ::testing::TestWithParam<Query> {};

TEST_P(JoinPathTest, ProbeAccumulationMultiThreadedCollectors) {
  const Query q = GetParam();
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    for (const size_t vecsize :
         {size_t{1}, size_t{64}, size_t{1024}, size_t{65536}}) {
      QueryOptions opt;
      opt.threads = threads;
      opt.vector_size = vecsize;
      EXPECT_EQ(RunQuery(DbFor(q), Engine::kTectorwise, q, opt), Expected(q))
          << "threads=" << threads << " vecsize=" << vecsize;
    }
  }
}

TEST_P(JoinPathTest, ThreadsAndSimdAreResultInvariant) {
  const Query q = GetParam();
  for (const Engine engine : {Engine::kTyper, Engine::kTectorwise}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      // simd routes Tectorwise probes through the AVX-512 JoinCandidates
      // variant (no-op where unsupported).
      for (const bool simd : {false, true}) {
        if (simd && engine != Engine::kTectorwise) continue;
        QueryOptions opt;
        opt.threads = threads;
        opt.simd = simd;
        EXPECT_EQ(RunQuery(DbFor(q), engine, q, opt), Expected(q))
            << EngineName(engine) << " threads=" << threads
            << " simd=" << simd;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, JoinPathTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<Query>& info) {
                           std::string name;
                           for (const char c : std::string(
                                    QueryName(info.param))) {
                             if (std::isalnum(static_cast<unsigned char>(c)))
                               name += c;
                           }
                           return name;
                         });

}  // namespace
}  // namespace vcq
