// hynapse::obs -- process-wide metrics registry.
//
// Three instrument kinds, all lock-free on the hot path:
//   * Counter   -- monotonically increasing u64 (relaxed fetch_add).
//   * Gauge     -- signed level that can move both ways (queue depth,
//                  active connections, worker count).
//   * Histogram -- log2-bucketed latency distribution: recording a value
//                  is one relaxed fetch_add on the owning bucket plus one
//                  on the running sum. Snapshots interpolate p50/p95/p99
//                  inside the bucket that holds the rank, so the estimate
//                  always lands in the same power-of-two bucket as the
//                  true order statistic.
//
// Instruments are owned by a Registry and live for the life of the
// process; Registry::global() is intentionally leaked so metrics stay
// valid during static destruction (thread-pool workers may still be
// draining). Callers resolve an instrument once (mutex-guarded name
// lookup) and cache the reference; recording never takes a lock.
// An object that also reports its own counts (stats()) keeps them as
// InstanceCounters, which feed the registry counter of the same name.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hynapse::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Bucket i covers [2^(i-1), 2^i) for i >= 1; bucket 0 holds value 0.
// 64 value bits -> 65 buckets covers every uint64_t exactly.
inline constexpr std::size_t kHistogramBuckets = 65;

// Index of the bucket that holds `v`: 0 for 0, else bit_width(v).
std::size_t histogram_bucket(std::uint64_t v);
// Inclusive lower bound of bucket `i` (0, then 2^(i-1)).
std::uint64_t histogram_bucket_lo(std::size_t i);
// Exclusive upper bound of bucket `i` (1, then 2^i).
std::uint64_t histogram_bucket_hi(std::size_t i);

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  // Interpolated percentile, p in [0, 1]. Finds the bucket containing
  // order statistic rank p*(count-1) and interpolates linearly across
  // it. Returns 0 when empty.
  double percentile(double p) const;
  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
};

class Histogram {
 public:
  void record(std::uint64_t v) {
    buckets_[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { counter, gauge, histogram };

// Point-in-time copy of one instrument, suitable for serialization.
// Histogram buckets are sparse (index, count) pairs so the wire format
// stays small and round-trips exactly.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::counter;
  double value = 0.0;  // counter/gauge value; histogram mean.
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

const char* metric_kind_name(MetricKind kind);
bool parse_metric_kind(const std::string& s, MetricKind& out);

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Resolve-or-create by name. References are stable for the life of
  // the Registry; resolving takes a mutex, so cache the result at
  // call sites that record on a hot path.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Sorted-by-name copy of every instrument.
  std::vector<MetricSnapshot> snapshot() const;

  // Process-wide registry. Leaked on purpose: instruments must outlive
  // static destructors (detached service threads may still record).
  static Registry& global();

 private:
  struct Entry;
  Entry& resolve(const std::string& name, MetricKind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

// A counter owned by one object that also feeds the process-wide registry:
// add(n) bumps this instance's count and Registry::global().counter(name),
// so one call site counts an event for both the object's own stats() and
// a scrape. value() is this instance's count; the registry counter holds
// the sum over every instance that shares the name.
//
// `family` names every counter the owning subsystem keeps (`name` among
// them). The first add() of any member registers the whole family, so a
// scrape lists a subsystem's counters -- zeros included -- once it has
// counted anything, and none of them before. `name` and `family` must
// outlive the counter (string literals, static arrays).
class InstanceCounter {
 public:
  InstanceCounter(std::string_view name,
                  std::span<const std::string_view> family)
      : name_{name}, family_{family} {}
  InstanceCounter(const InstanceCounter&) = delete;
  InstanceCounter& operator=(const InstanceCounter&) = delete;

  void add(std::uint64_t n = 1) {
    own_.add(n);
    Counter* global = global_.load(std::memory_order_acquire);
    if (global == nullptr) global = resolve();
    global->add(n);
  }
  std::uint64_t value() const { return own_.value(); }

 private:
  Counter* resolve();

  Counter own_;
  std::string_view name_;
  std::span<const std::string_view> family_;
  std::atomic<Counter*> global_{nullptr};
};

// Convenience wrappers over Registry::global() for cold call sites.
inline void count(const std::string& name, std::uint64_t n = 1) {
  Registry::global().counter(name).add(n);
}
inline void record(const std::string& name, std::uint64_t v) {
  Registry::global().histogram(name).record(v);
}

// Prometheus text exposition (version 0.0.4) of a registry snapshot.
// Names are prefixed "hynapse_" with dots mapped to underscores;
// histograms emit cumulative le="..." buckets plus _sum and _count.
std::string prometheus_text(const std::vector<MetricSnapshot>& metrics);

}  // namespace hynapse::obs
