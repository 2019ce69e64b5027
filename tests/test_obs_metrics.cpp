#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

namespace hynapse::obs {
namespace {

TEST(HistogramBuckets, PowerOfTwoBoundaries) {
  // Bucket 0 holds exactly {0}; bucket i>=1 covers [2^(i-1), 2^i).
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  for (std::size_t i = 1; i < 64; ++i) {
    const std::uint64_t lo = std::uint64_t{1} << (i - 1);
    EXPECT_EQ(histogram_bucket(lo), i) << "lo of bucket " << i;
    const std::uint64_t hi = (std::uint64_t{1} << i) - 1;
    EXPECT_EQ(histogram_bucket(hi), i) << "hi of bucket " << i;
    if (i < 63) {
      EXPECT_EQ(histogram_bucket(std::uint64_t{1} << i), i + 1)
          << "first value past bucket " << i;
    }
  }
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), 64u);
  EXPECT_EQ(histogram_bucket_lo(0), 0u);
  EXPECT_EQ(histogram_bucket_hi(0), 1u);
  EXPECT_EQ(histogram_bucket_lo(5), 16u);
  EXPECT_EQ(histogram_bucket_hi(5), 32u);
}

TEST(HistogramBuckets, EveryValueLandsInItsOwnRange) {
  std::mt19937_64 rng(2016);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t v = rng() >> (rng() % 64);
    const std::size_t b = histogram_bucket(v);
    EXPECT_GE(v, histogram_bucket_lo(b));
    if (b < 64) {
      EXPECT_LT(v, histogram_bucket_hi(b));
    }
  }
}

TEST(Histogram, CountAndSumExact) {
  Histogram h;
  std::uint64_t expect_sum = 0;
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 100u, 4096u, 70000u}) {
    h.record(v);
    expect_sum += v;
  }
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.sum, expect_sum);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, SingleValuePercentiles) {
  Histogram h;
  h.record(1000);
  const HistogramSnapshot s = h.snapshot();
  // 1000 lives in [512, 1024); every percentile must land in that span.
  for (double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double est = s.percentile(p);
    EXPECT_GE(est, 512.0) << "p=" << p;
    EXPECT_LT(est, 1024.0) << "p=" << p;
  }
}

// The exact property a log2 histogram can promise: the interpolated
// percentile lies inside the same power-of-two bucket as the true order
// statistic from a sorted-vector oracle. Bucket counts are exact, so
// rank selection always picks the oracle sample's bucket.
TEST(Histogram, PercentileMatchesOracleBucketUnderRandomFills) {
  std::mt19937_64 rng(20160312);
  for (int trial = 0; trial < 50; ++trial) {
    Histogram h;
    std::vector<std::uint64_t> oracle;
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 2000);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of magnitudes: shifted randoms cover many decades.
      const std::uint64_t v = rng() >> (rng() % 60);
      h.record(v);
      oracle.push_back(v);
    }
    std::sort(oracle.begin(), oracle.end());
    const HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, n);
    for (double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      // A fractional rank sits between two order statistics; the
      // estimate must land in the bucket span they bound.
      const double rank = p * static_cast<double>(n - 1);
      const std::uint64_t lo_stat = oracle[static_cast<std::size_t>(rank)];
      const std::uint64_t hi_stat =
          oracle[std::min<std::size_t>(static_cast<std::size_t>(rank) + 1, n - 1)];
      const double est = s.percentile(p);
      EXPECT_GE(est, static_cast<double>(histogram_bucket_lo(histogram_bucket(lo_stat))))
          << "trial " << trial << " p=" << p << " n=" << n;
      EXPECT_LE(est, static_cast<double>(histogram_bucket_hi(histogram_bucket(hi_stat))))
          << "trial " << trial << " p=" << p << " n=" << n;
    }
  }
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((i + static_cast<std::uint64_t>(t)) % 1024);
      }
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t expect_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      expect_sum += (i + static_cast<std::uint64_t>(t)) % 1024;
    }
  }
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.sum, expect_sum);
}

TEST(Registry, CountersAndGauges) {
  Registry r;
  r.counter("a.count").add(3);
  r.counter("a.count").add(2);
  r.gauge("a.level").set(7);
  r.gauge("a.level").add(-2);
  EXPECT_EQ(r.counter("a.count").value(), 5u);
  EXPECT_EQ(r.gauge("a.level").value(), 5);
}

TEST(Registry, StableReferences) {
  Registry r;
  Counter& c = r.counter("x");
  // Registering more instruments must not invalidate earlier refs.
  for (int i = 0; i < 100; ++i) r.counter("y" + std::to_string(i));
  c.add(1);
  EXPECT_EQ(r.counter("x").value(), 1u);
}

TEST(Registry, SnapshotSortedAndTyped) {
  Registry r;
  r.counter("z.last").add(1);
  r.histogram("m.lat_us").record(300);
  r.gauge("a.first").set(-4);
  const std::vector<MetricSnapshot> snap = r.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[0].kind, MetricKind::gauge);
  EXPECT_DOUBLE_EQ(snap[0].value, -4.0);
  EXPECT_EQ(snap[1].name, "m.lat_us");
  EXPECT_EQ(snap[1].kind, MetricKind::histogram);
  EXPECT_EQ(snap[1].count, 1u);
  EXPECT_EQ(snap[1].sum, 300u);
  ASSERT_EQ(snap[1].buckets.size(), 1u);
  EXPECT_EQ(snap[1].buckets[0].first, histogram_bucket(300));
  EXPECT_EQ(snap[1].buckets[0].second, 1u);
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[2].kind, MetricKind::counter);
  EXPECT_EQ(snap[2].count, 1u);
}

TEST(Registry, ConcurrentResolveAndRecord) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&r] {
      for (int i = 0; i < kIters; ++i) {
        r.counter("shared.count").add(1);
        r.histogram("shared.lat_us").record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(r.counter("shared.count").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(r.histogram("shared.lat_us").snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Registry, GlobalIsSingleton) {
  Registry& a = Registry::global();
  Registry& b = Registry::global();
  EXPECT_EQ(&a, &b);
}

TEST(InstanceCounter, InstancesCountApartAndTheRegistrySumsThem) {
  static constexpr std::string_view kFamily[] = {"test.instance.events",
                                                 "test.instance.other"};
  const auto listed = [](const char* name) {
    const std::vector<MetricSnapshot> snap = Registry::global().snapshot();
    return std::any_of(snap.begin(), snap.end(), [&](const MetricSnapshot& m) {
      return m.name == name;
    });
  };
  InstanceCounter a{"test.instance.events", kFamily};
  InstanceCounter b{"test.instance.events", kFamily};
  // Nothing counted yet: the family is not in a scrape.
  EXPECT_FALSE(listed("test.instance.events"));
  EXPECT_FALSE(listed("test.instance.other"));

  a.add(3);
  b.add();
  a.add(2);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(Registry::global().counter("test.instance.events").value(), 6u);
  // The first add registered the whole family, the untouched member at 0.
  EXPECT_TRUE(listed("test.instance.other"));
  EXPECT_EQ(Registry::global().counter("test.instance.other").value(), 0u);
}

TEST(MetricKindNames, RoundTrip) {
  for (MetricKind k : {MetricKind::counter, MetricKind::gauge, MetricKind::histogram}) {
    MetricKind parsed;
    ASSERT_TRUE(parse_metric_kind(metric_kind_name(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  MetricKind ignored;
  EXPECT_FALSE(parse_metric_kind("summary", ignored));
}

TEST(PrometheusText, RendersAllKinds) {
  Registry r;
  r.counter("cache.hits").add(12);
  r.gauge("pool.queue_depth").set(3);
  r.histogram("req.wall_us").record(5);   // bucket [4,8)
  r.histogram("req.wall_us").record(6);   // bucket [4,8)
  r.histogram("req.wall_us").record(900); // bucket [512,1024)
  const std::string text = prometheus_text(r.snapshot());
  EXPECT_NE(text.find("# TYPE hynapse_cache_hits counter\n"), std::string::npos);
  EXPECT_NE(text.find("hynapse_cache_hits 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hynapse_pool_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("hynapse_pool_queue_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hynapse_req_wall_us histogram\n"), std::string::npos);
  // Cumulative buckets: 2 at le=8, 3 at le=1024 and +Inf.
  EXPECT_NE(text.find("hynapse_req_wall_us_bucket{le=\"8\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("hynapse_req_wall_us_bucket{le=\"1024\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("hynapse_req_wall_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("hynapse_req_wall_us_sum 911\n"), std::string::npos);
  EXPECT_NE(text.find("hynapse_req_wall_us_count 3\n"), std::string::npos);
}

}  // namespace
}  // namespace hynapse::obs
