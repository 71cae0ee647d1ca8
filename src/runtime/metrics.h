#ifndef VCQ_RUNTIME_METRICS_H_
#define VCQ_RUNTIME_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Process-wide metrics registry — the aggregate half of the
// observability layer (runtime/trace.h is the per-execution half).
//
// Three metric kinds, all lock-free to update:
//   Counter    monotonically increasing uint64 (".._total" names).
//   Gauge      last-written int64; either pushed by the subsystem or
//              pulled at snapshot time by a registered probe.
//   Histogram  fixed 64-bucket log2-scaled distribution with p50/p95/p99
//              extraction — latency-friendly: relative bucket error is
//              bounded by 2x across the whole uint64 range, no dynamic
//              allocation, race-free Observe from any thread.
//
// Naming scheme (dots; Prometheus rendering maps '.' -> '_'):
//   vcq.<subsystem>.<what>[_total]
//   e.g. vcq.sched.admission_rejects_total, vcq.governor.in_use_bytes,
//        vcq.query.latency_us, vcq.ladder.rung1_ok_total.
// Metrics are created on first Get* and live forever (references remain
// valid); the registry is the single source every surface renders from:
// Session::MetricsSnapshot(), engine_explorer --metrics, sql_shell
// \metrics, and metrics::RenderPrometheus() for scrapers.
//
// Probes: pull-style sources (scheduler queue depth, governor bytes, the
// block cache's vcq.memory.cached_bytes) register a callback that
// refreshes gauges right before a snapshot, so hot paths never push
// values nobody reads. InstallDefaultProbes() wires
// the library's standard probes and is called by both Render entry
// points (idempotent).

namespace vcq::metrics {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram: bucket 0 holds {0, 1}, bucket i>=1 holds
/// [2^i, 2^(i+1)). Observe is wait-free; Percentile interpolates
/// linearly inside the winning bucket (worst-case 2x relative error,
/// exactly what a latency SLO needs and nothing a fixed-size atomic
/// array cannot deliver).
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t i) const {
    return i < kBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
  }
  /// q in [0, 1]; returns 0 on an empty histogram.
  uint64_t Percentile(double q) const;

  /// Inclusive lower bound / exclusive upper bound of bucket i.
  static uint64_t BucketLo(size_t i);
  static uint64_t BucketHi(size_t i);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

class Registry {
 public:
  static Registry& Global();

  /// Find-or-create; returned references are stable for process life.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Registers a pull-style refresher run before every snapshot.
  void RegisterProbe(std::function<void()> probe);

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with p50/p95/p99 per histogram; names sorted.
  std::string RenderJson();
  /// Prometheus text exposition ('.' -> '_', summaries for histograms).
  std::string RenderPrometheus();

 private:
  void RunProbes();

  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<std::function<void()>> probes_;
};

/// Wires the library's standard pull gauges (global scheduler queue
/// depth / in-flight / admission waiters / brown-out sheds, governor
/// live and peak bytes). Idempotent; both Render* helpers call it.
void InstallDefaultProbes();

/// Snapshot of Registry::Global() (probes refreshed first).
std::string RenderJson();
std::string RenderPrometheus();

}  // namespace vcq::metrics

#endif  // VCQ_RUNTIME_METRICS_H_
