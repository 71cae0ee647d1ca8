#include "runtime/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "runtime/block_cache.h"
#include "runtime/resource_governor.h"
#include "runtime/worker_pool.h"

namespace vcq::metrics {

namespace {

size_t BucketIndex(uint64_t v) {
  // 0 and 1 share bucket 0; otherwise bucket i covers [2^i, 2^(i+1)).
  if (v < 2) return 0;
  return static_cast<size_t>(std::bit_width(v)) - 1;
}

}  // namespace

uint64_t Histogram::BucketLo(size_t i) {
  return i == 0 ? 0 : (uint64_t{1} << i);
}

uint64_t Histogram::BucketHi(size_t i) {
  return i >= kBuckets - 1 ? UINT64_MAX : (uint64_t{1} << (i + 1));
}

void Histogram::Observe(uint64_t v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

uint64_t Histogram::Percentile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target observation (1-based), then walk the CDF.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * total + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      const uint64_t lo = BucketLo(i);
      const uint64_t hi = BucketHi(i);
      // Linear interpolation within the bucket.
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
      return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
    }
    seen += in_bucket;
  }
  return BucketLo(kBuckets - 1);
}

Registry& Registry::Global() {
  // Leaked on purpose: metric updates may race static destruction.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::RegisterProbe(std::function<void()> probe) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_.push_back(std::move(probe));
}

void Registry::RunProbes() {
  // Copy out so a probe may call GetGauge without self-deadlocking.
  std::vector<std::function<void()>> probes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    probes = probes_;
  }
  for (const std::function<void()>& probe : probes) probe();
}

std::string Registry::RenderJson() {
  RunProbes();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  char buf[160];
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",",
                  name.c_str(), counter->value());
    out += buf;
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRId64, first ? "" : ",",
                  name.c_str(), gauge->value());
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"p50\":%" PRIu64 ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64
                  "}",
                  first ? "" : ",", name.c_str(), histogram->count(),
                  histogram->sum(), histogram->Percentile(0.50),
                  histogram->Percentile(0.95), histogram->Percentile(0.99));
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

std::string Registry::RenderPrometheus() {
  RunProbes();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[200];
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PromName(name);
    std::snprintf(buf, sizeof(buf), "# TYPE %s counter\n%s %" PRIu64 "\n",
                  prom.c_str(), prom.c_str(), counter->value());
    out += buf;
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PromName(name);
    std::snprintf(buf, sizeof(buf), "# TYPE %s gauge\n%s %" PRId64 "\n",
                  prom.c_str(), prom.c_str(), gauge->value());
    out += buf;
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = PromName(name);
    std::snprintf(buf, sizeof(buf), "# TYPE %s summary\n", prom.c_str());
    out += buf;
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.50, "0.5"},
          std::pair<double, const char*>{0.95, "0.95"},
          std::pair<double, const char*>{0.99, "0.99"}}) {
      std::snprintf(buf, sizeof(buf), "%s{quantile=\"%s\"} %" PRIu64 "\n",
                    prom.c_str(), label, histogram->Percentile(q));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n", prom.c_str(),
                  histogram->sum(), prom.c_str(), histogram->count());
    out += buf;
  }
  return out;
}

void InstallDefaultProbes() {
  static std::once_flag once;
  std::call_once(once, [] {
    Registry::Global().RegisterProbe([] {
      Registry& reg = Registry::Global();
      runtime::Scheduler& sched = runtime::WorkerPool::Global().scheduler();
      reg.GetGauge("vcq.sched.queue_depth")
          .Set(static_cast<int64_t>(sched.queued_regions()));
      reg.GetGauge("vcq.sched.inflight")
          .Set(static_cast<int64_t>(sched.inflight()));
      reg.GetGauge("vcq.sched.admission_waiting")
          .Set(static_cast<int64_t>(sched.admission_waiting()));
      reg.GetGauge("vcq.sched.shed")
          .Set(static_cast<int64_t>(sched.shed_count()));
      runtime::ResourceGovernor& gov = runtime::ResourceGovernor::Global();
      reg.GetGauge("vcq.governor.in_use_bytes")
          .Set(static_cast<int64_t>(gov.in_use()));
      reg.GetGauge("vcq.governor.peak_bytes")
          .Set(static_cast<int64_t>(gov.peak()));
      reg.GetGauge("vcq.memory.cached_bytes")
          .Set(static_cast<int64_t>(
              runtime::BlockCache::Global().cached_bytes()));
    });
  });
}

std::string RenderJson() {
  InstallDefaultProbes();
  return Registry::Global().RenderJson();
}

std::string RenderPrometheus() {
  InstallDefaultProbes();
  return Registry::Global().RenderPrometheus();
}

}  // namespace vcq::metrics
