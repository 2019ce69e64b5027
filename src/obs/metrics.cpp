#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace hynapse::obs {

std::size_t histogram_bucket(std::uint64_t v) {
  return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
}

std::uint64_t histogram_bucket_lo(std::size_t i) {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t histogram_bucket_hi(std::size_t i) {
  // Bucket 64's exclusive bound (2^64) saturates to the max u64; the
  // interpolation only uses it as a span endpoint.
  if (i == 0) return 1;
  if (i >= 64) return ~std::uint64_t{0};
  return std::uint64_t{1} << i;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the order statistic we are estimating (0-based, nearest-rank
  // with the standard (count-1) scaling so p=1 is the max sample).
  const double rank = p * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t n = buckets[i];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) - 1.0 < rank) {
      seen += n;
      continue;
    }
    // Rank lands in bucket i: interpolate linearly across its span by
    // the fractional position of the rank inside the bucket. A
    // fractional rank that straddles the previous (skipped) bucket
    // clamps to this bucket's lower bound.
    const double lo = static_cast<double>(histogram_bucket_lo(i));
    const double hi = static_cast<double>(histogram_bucket_hi(i));
    const double within = std::clamp(
        (rank - static_cast<double>(seen)) / static_cast<double>(n), 0.0, 1.0);
    return lo + within * (hi - lo);
  }
  return static_cast<double>(histogram_bucket_hi(kHistogramBuckets - 1));
}

HistogramSnapshot Histogram::snapshot() const {
  // Relaxed per-bucket loads: concurrent recorders may land between the
  // loads, so the snapshot is a consistent-enough point-in-time view
  // (each increment is observed at most once), which is all a stats
  // scrape needs.
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge: return "gauge";
    case MetricKind::histogram: return "histogram";
  }
  return "counter";
}

bool parse_metric_kind(const std::string& s, MetricKind& out) {
  if (s == "counter") out = MetricKind::counter;
  else if (s == "gauge") out = MetricKind::gauge;
  else if (s == "histogram") out = MetricKind::histogram;
  else return false;
  return true;
}

struct Registry::Entry {
  std::string name;
  MetricKind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::Entry& Registry::resolve(const std::string& name, MetricKind kind) {
  std::scoped_lock lock{mutex_};
  for (auto& e : entries_) {
    if (e->name == name) return *e;  // first registration wins on kind
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name) {
  return resolve(name, MetricKind::counter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return resolve(name, MetricKind::gauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return resolve(name, MetricKind::histogram).histogram;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::scoped_lock lock{mutex_};
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot m;
    m.name = e->name;
    m.kind = e->kind;
    switch (e->kind) {
      case MetricKind::counter:
        m.value = static_cast<double>(e->counter.value());
        m.count = e->counter.value();
        break;
      case MetricKind::gauge:
        m.value = static_cast<double>(e->gauge.value());
        break;
      case MetricKind::histogram: {
        const HistogramSnapshot snap = e->histogram.snapshot();
        m.count = snap.count;
        m.sum = snap.sum;
        m.value = snap.mean();
        m.p50 = snap.percentile(0.50);
        m.p95 = snap.percentile(0.95);
        m.p99 = snap.percentile(0.99);
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          if (snap.buckets[i] != 0) {
            m.buckets.emplace_back(static_cast<std::uint32_t>(i), snap.buckets[i]);
          }
        }
        break;
      }
    }
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return out;
}

Registry& Registry::global() {
  // Leaked: detached threads (thread-pool workers, TCP readers) may
  // record after main() returns; a destructed registry would be UB.
  static Registry* g = new Registry;
  return *g;
}

Counter* InstanceCounter::resolve() {
  // Racing first adds resolve the same entries (find-or-create), so the
  // last store wins with the same pointer.
  Registry& registry = Registry::global();
  for (const std::string_view member : family_) {
    (void)registry.counter(std::string{member});
  }
  Counter* global = &registry.counter(std::string{name_});
  global_.store(global, std::memory_order_release);
  return global;
}

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = "hynapse_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string prometheus_text(const std::vector<MetricSnapshot>& metrics) {
  std::string out;
  for (const auto& m : metrics) {
    const std::string name = prometheus_name(m.name);
    switch (m.kind) {
      case MetricKind::counter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(m.count) + "\n";
        break;
      case MetricKind::gauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " ";
        append_number(out, m.value);
        out += "\n";
        break;
      case MetricKind::histogram: {
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (const auto& [idx, n] : m.buckets) {
          cumulative += n;
          out += name + "_bucket{le=\"" +
                 std::to_string(histogram_bucket_hi(idx)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(m.count) + "\n";
        out += name + "_sum " + std::to_string(m.sum) + "\n";
        out += name + "_count " + std::to_string(m.count) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace hynapse::obs
