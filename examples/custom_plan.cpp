// Building a custom vectorized query plan against your own data with the
// declarative plan builder (tectorwise/plan.h) — the extension path a
// downstream user takes when their query is not one of the built-ins.
//
// Scenario: a web-shop "sessions" fact table. Query:
//
//   SELECT campaign, SUM(revenue), COUNT(*)
//   FROM sessions JOIN campaigns ON sessions.campaign_id = campaigns.id
//   WHERE sessions.duration_s BETWEEN 30 AND 600
//     AND campaigns.active = 1
//   GROUP BY campaign
//
// described as Scan -> Select -> HashJoin -> HashGroup. The builder wires
// the per-worker operator trees, the shared state (morsel queues, hash
// table, barriers) and the collector loop, and derives the batch-compaction
// registrations from slot usage — note the absence of any CompactColumn
// call even though every Select merges sparse output batches into full
// vectors (tectorwise/compaction.h).

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "runtime/relation.h"
#include "tectorwise/plan.h"

using namespace vcq;
using runtime::Char;
using tectorwise::CmpOp;
using tectorwise::ColumnRef;
using tectorwise::Plan;
using tectorwise::PlanBuilder;

int main() {
  // --- 1. Build the data (normally you would load it) ----------------------
  constexpr size_t kSessions = 2'000'000;
  constexpr size_t kCampaigns = 500;
  runtime::Relation sessions;
  {
    auto campaign_id = sessions.AddColumn<int32_t>("campaign_id", kSessions);
    auto duration = sessions.AddColumn<int64_t>("duration_s", kSessions);
    auto revenue = sessions.AddColumn<int64_t>("revenue", kSessions);  // cents
    std::mt19937_64 rng(99);
    for (size_t i = 0; i < kSessions; ++i) {
      campaign_id[i] = static_cast<int32_t>(rng() % kCampaigns) + 1;
      duration[i] = static_cast<int64_t>(rng() % 1200);
      revenue[i] = static_cast<int64_t>(rng() % 20000);
    }
  }
  runtime::Relation campaigns;
  {
    auto id = campaigns.AddColumn<int32_t>("id", kCampaigns);
    auto name = campaigns.AddColumn<Char<16>>("name", kCampaigns);
    auto active = campaigns.AddColumn<int32_t>("active", kCampaigns);
    for (size_t i = 0; i < kCampaigns; ++i) {
      id[i] = static_cast<int32_t>(i) + 1;
      char buf[17];
      std::snprintf(buf, sizeof(buf), "campaign-%04zu", i + 1);
      name[i] = Char<16>::From(buf);
      active[i] = (i % 3 == 0) ? 1 : 0;
    }
  }

  // --- 2. Describe the plan ------------------------------------------------
  PlanBuilder pb("campaign-report");

  // Build side: active campaigns.
  auto& cscan = pb.Scan(campaigns, "campaigns");
  const ColumnRef c_id = cscan.Col<int32_t>("id");
  const ColumnRef c_name = cscan.Col<Char<16>>("name");
  const ColumnRef c_active = cscan.Col<int32_t>("active");
  auto& csel = pb.Select(cscan);
  csel.Cmp<int32_t>(c_active, CmpOp::kEq, 1);

  // Probe side: sessions with plausible durations.
  auto& sscan = pb.Scan(sessions, "sessions");
  const ColumnRef s_campaign = sscan.Col<int32_t>("campaign_id");
  const ColumnRef s_duration = sscan.Col<int64_t>("duration_s");
  const ColumnRef s_revenue = sscan.Col<int64_t>("revenue");
  auto& ssel = pb.Select(sscan);
  ssel.Between<int64_t>(s_duration, 30, 600);

  auto& join = pb.HashJoin(csel, ssel);
  join.Key<int32_t>(s_campaign, c_id);
  const ColumnRef j_name = join.Build<Char<16>>(c_name);
  const ColumnRef j_revenue = join.Probe<int64_t>(s_revenue);

  auto& group = pb.HashGroup(join);
  const ColumnRef g_name = group.Key<Char<16>>(j_name);
  const ColumnRef g_rev = group.Sum(j_revenue);
  const ColumnRef g_cnt = group.Count();

  Plan plan = pb.Build(group, {g_name, g_rev, g_cnt});
  std::printf("%s\n", plan.ToString().c_str());

  // --- 3. Run it: 8 workers ----------------------------------------------
  runtime::QueryOptions opt;
  opt.threads = 8;

  struct ResultRow {
    Char<16> name;
    int64_t revenue, count;
  };
  std::vector<ResultRow> rows;
  plan.Run(opt, [&](const Plan::Batch& b) {
    for (size_t k = 0; k < b.size(); ++k) {
      rows.push_back(ResultRow{b.Column<Char<16>>(g_name)[k],
                               b.Column<int64_t>(g_rev)[k],
                               b.Column<int64_t>(g_cnt)[k]});
    }
  });

  // --- 4. Present ---------------------------------------------------------
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.revenue > b.revenue;
  });
  std::printf("top campaigns by revenue (of %zu active):\n", rows.size());
  for (size_t i = 0; i < std::min<size_t>(10, rows.size()); ++i) {
    std::printf("  %-16s  %10.2f EUR  %8lld sessions\n",
                std::string(rows[i].name.View()).c_str(),
                static_cast<double>(rows[i].revenue) / 100.0,
                static_cast<long long>(rows[i].count));
  }
  return 0;
}
