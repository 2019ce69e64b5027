#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace hynapse::util {
namespace {

TEST(ThreadPool, SharedPoolHasWorkers) {
  // The shared pool guarantees at least 3 workers even on 1-2 core machines,
  // so thread-count-invariance tests exercise real concurrency everywhere.
  EXPECT_GE(ThreadPool::shared().worker_count(), 3u);
}

TEST(ThreadPool, ConstructDestructAcrossSizes) {
  for (const std::size_t workers : {0u, 1u, 4u}) {
    ThreadPool pool{workers};
    EXPECT_EQ(pool.worker_count(), workers);
  }
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  struct CountJob final : ThreadPool::Job {
    std::atomic<int>* counter;
    explicit CountJob(std::atomic<int>* c) : counter{c} {}
    void run() noexcept override { ++*counter; }
  };
  std::atomic<int> runs{0};
  {
    ThreadPool pool{2};
    pool.submit(std::make_shared<CountJob>(&runs), 32);
  }  // destructor joins after the queue is drained
  EXPECT_EQ(runs.load(), 32);
}

TEST(ThreadPool, SubmitZeroCopiesIsNoop) {
  struct BoomJob final : ThreadPool::Job {
    void run() noexcept override { std::abort(); }
  };
  ThreadPool pool{1};
  pool.submit(std::make_shared<BoomJob>(), 0);
  pool.submit(nullptr, 4);
}

TEST(ParallelPool, CoversAllIndicesExactlyOnceAtEightThreads) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(
      10000, [&](std::size_t i) { ++hits[i]; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelPool, NestedSubmissionCompletes) {
  // A pool task that itself opens a parallel region must not deadlock: the
  // submitting thread participates in its own region.
  std::vector<std::atomic<int>> hits(8 * 64);
  parallel_for(8, [&](std::size_t outer) {
    parallel_for(64, [&](std::size_t inner) { ++hits[outer * 64 + inner]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelPool, TriplyNestedSubmissionCompletes) {
  std::atomic<std::size_t> total{0};
  parallel_for(4, [&](std::size_t) {
    parallel_for(4, [&](std::size_t) {
      parallel_for(16, [&](std::size_t) { ++total; });
    });
  });
  EXPECT_EQ(total.load(), 4u * 4u * 16u);
}

TEST(ParallelPool, ExceptionPropagatesFromPoolThreads) {
  EXPECT_THROW(
      parallel_for(
          1000,
          [](std::size_t i) {
            if (i == 507) throw std::runtime_error{"boom"};
          },
          8),
      std::runtime_error);
}

TEST(ParallelPool, ExceptionPropagatesThroughNestedRegions) {
  EXPECT_THROW(parallel_for(4,
                            [&](std::size_t) {
                              parallel_for(64, [](std::size_t i) {
                                if (i == 13)
                                  throw std::invalid_argument{"inner"};
                              });
                            }),
               std::invalid_argument);
}

TEST(ParallelPool, PoolUsableAfterException) {
  try {
    parallel_for(100, [](std::size_t) {
      throw std::runtime_error{"first"};
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::size_t> total{0};
  parallel_for(256, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 256u);
}

TEST(ParallelPool, ZeroTasksIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  parallel_for_chunks(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelPool, ManySmallRegionsStress) {
  for (int round = 0; round < 300; ++round) {
    std::atomic<int> total{0};
    parallel_for(4, [&](std::size_t) { ++total; });
    ASSERT_EQ(total.load(), 4);
  }
}

TEST(ParallelReduce, SumsIntegersExactly) {
  const std::size_t n = 123456;
  const std::size_t sum = parallel_reduce(
      n, 64, std::size_t{0},
      [](std::size_t begin, std::size_t end) {
        std::size_t s = 0;
        for (std::size_t i = begin; i < end; ++i) s += i;
        return s;
      },
      [](std::size_t a, std::size_t b) { return a + b; }, 8);
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, ZeroElementsReturnsInit) {
  const int r = parallel_reduce(
      0, 16, 42, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 42);
}

TEST(ParallelReduce, FloatingPointBitIdenticalAcrossThreadCounts) {
  // The chunk grid and fold order are fixed by n_chunks, so the FP result
  // must match bit-for-bit no matter how chunks are scheduled.
  const auto run = [](std::size_t threads) {
    return parallel_reduce(
        100000, 64, 0.0,
        [](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i)
            s += 1.0 / static_cast<double>(i + 1);
          return s;
        },
        [](double a, double b) { return a + b; }, threads);
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelReduce, EmptyTrailingChunksContributeInit) {
  // n=10 over 7 chunks of ceil size 2 leaves empty trailing chunks; they
  // must contribute `init` (0) and not perturb the fold.
  const int sum = parallel_reduce(
      10, 7, 0,
      [](std::size_t begin, std::size_t end) {
        return static_cast<int>(end - begin);
      },
      [](int a, int b) { return a + b; }, 4);
  EXPECT_EQ(sum, 10);
}

TEST(ParallelPool, SingleElementWithManyThreadsRunsOnce) {
  // n == 1 with threads > n: participation is clamped to n, the region
  // degrades to an inline call, and the body still runs exactly once.
  std::atomic<int> calls{0};
  parallel_for(
      1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; }, 8);
  EXPECT_EQ(calls.load(), 1);

  std::atomic<int> chunk_calls{0};
  parallel_for_chunks(
      1,
      [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1u);
        ++chunk_calls;
      },
      16);
  EXPECT_EQ(chunk_calls.load(), 1);
}

TEST(ParallelPool, ChunksExceptionPropagatesFromChunkBody) {
  EXPECT_THROW(parallel_for_chunks(
                   4096,
                   [](std::size_t begin, std::size_t) {
                     if (begin != 0) throw std::domain_error{"chunk"};
                   },
                   8),
               std::domain_error);
}

TEST(ParallelReduce, FewerElementsThanChunksCoversEverything) {
  // n < n_chunks: the chunk grid is clamped to n one-element chunks.
  const int sum = parallel_reduce(
      3, 64, 0,
      [](std::size_t begin, std::size_t end) {
        int s = 0;
        for (std::size_t i = begin; i < end; ++i) s += static_cast<int>(i) + 1;
        return s;
      },
      [](int a, int b) { return a + b; }, 8);
  EXPECT_EQ(sum, 1 + 2 + 3);
}

TEST(ParallelReduce, SingleElementWithManyThreads) {
  const double r = parallel_reduce(
      1, 64, 0.5, [](std::size_t, std::size_t) { return 2.25; },
      [](double a, double b) { return a + b; }, 8);
  EXPECT_EQ(r, 0.5 + 2.25);  // one real chunk folded onto init
}

TEST(ParallelReduce, ZeroChunksReturnsInit) {
  const int r = parallel_reduce(
      100, 0, 7, [](std::size_t, std::size_t) { return 1000; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 7);
}

TEST(ParallelReduce, ExceptionPropagatesFromWorkerTask) {
  // A throw in the map fn must surface from the submitting thread even when
  // the failing chunk ran on a pool worker, and must not corrupt the pool.
  EXPECT_THROW(
      (void)parallel_reduce(
          10000, 64, 0,
          [](std::size_t begin, std::size_t) -> int {
            if (begin >= 5000) throw std::runtime_error{"map"};
            return 1;
          },
          [](int a, int b) { return a + b; }, 8),
      std::runtime_error);
  const int after = parallel_reduce(
      100, 4, 0,
      [](std::size_t begin, std::size_t end) {
        return static_cast<int>(end - begin);
      },
      [](int a, int b) { return a + b; }, 8);
  EXPECT_EQ(after, 100);
}

TEST(ParallelLegacy, StdFunctionWrappersStillWork) {
  // Type-erased callables go through the same template entry points.
  std::vector<std::atomic<int>> hits(512);
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    ++hits[i];
  };
  parallel_for(512, fn);
  std::atomic<std::size_t> total{0};
  const std::function<void(std::size_t, std::size_t)> chunks =
      [&](std::size_t b, std::size_t e) { total += e - b; };
  parallel_for_chunks(4321, chunks);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(total.load(), 4321u);
}

TEST(ThreadCount, SetDefaultOverridesAndRestores) {
  const std::size_t base = default_thread_count();
  set_default_thread_count(5);
  EXPECT_EQ(default_thread_count(), 5u);
  set_default_thread_count(0);
  EXPECT_EQ(default_thread_count(), base);
}

TEST(ThreadCount, HostileValuesAreClamped) {
  set_default_thread_count(static_cast<std::size_t>(-1));
  EXPECT_LE(default_thread_count(), 512u);  // sane cap, no crash on first use
  set_default_thread_count(0);
}

class StripThreadsFlagTest : public ::testing::Test {
 protected:
  std::size_t run(std::vector<const char*> args) {
    argv_.assign(args.begin(), args.end());
    argv_.insert(argv_.begin(), "prog");
    argc_ = static_cast<int>(argv_.size());
    const std::size_t threads = strip_threads_flag(
        argc_, const_cast<char**>(argv_.data()));
    set_default_thread_count(0);  // don't leak state into other tests
    return threads;
  }
  std::vector<const char*> remaining() const {
    return {argv_.begin() + 1, argv_.begin() + argc_};
  }
  int argc_ = 0;
  std::vector<const char*> argv_;
};

TEST_F(StripThreadsFlagTest, ParsesSeparateAndEqualsForms) {
  EXPECT_EQ(run({"--threads", "4", "cmd"}), 4u);
  EXPECT_EQ(remaining(), (std::vector<const char*>{"cmd"}));
  EXPECT_EQ(run({"cmd", "--threads=7"}), 7u);
  EXPECT_EQ(remaining(), (std::vector<const char*>{"cmd"}));
}

TEST_F(StripThreadsFlagTest, AbsentFlagLeavesArgvAlone) {
  EXPECT_EQ(run({"evaluate", "all6t"}), 0u);
  EXPECT_EQ(remaining(), (std::vector<const char*>{"evaluate", "all6t"}));
}

TEST_F(StripThreadsFlagTest, NonNumericValueIsNotConsumed) {
  // "--threads evaluate" must not swallow the command.
  EXPECT_EQ(run({"--threads", "evaluate", "all6t"}), 0u);
  EXPECT_EQ(remaining(), (std::vector<const char*>{"evaluate", "all6t"}));
}

TEST_F(StripThreadsFlagTest, NegativeAndHugeValuesAreSanitized) {
  EXPECT_EQ(run({"--threads", "-3", "cmd"}), 0u);  // non-positive -> auto
  EXPECT_EQ(remaining(), (std::vector<const char*>{"cmd"}));
  EXPECT_EQ(run({"--threads", "99999999"}), 512u);  // clamped
}

TEST(ThreadPool, QueueLockProbeCountsAcquisitions) {
  // Every submit() and every worker dequeue passes through the contention
  // probe, so pool.lock_acquisitions must advance by at least the number of
  // submit calls (contended/wait counters only move under actual
  // contention, which a test cannot force deterministically).
  struct CountJob final : ThreadPool::Job {
    std::atomic<int>* counter;
    explicit CountJob(std::atomic<int>* c) : counter{c} {}
    void run() noexcept override { ++*counter; }
  };
  obs::Counter& acquisitions =
      obs::Registry::global().counter("pool.lock_acquisitions");
  obs::Counter& contended =
      obs::Registry::global().counter("pool.lock_contended");
  const std::uint64_t before = acquisitions.value();

  constexpr int kSubmits = 16;
  std::atomic<int> runs{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < kSubmits; ++i) {
      pool.submit(std::make_shared<CountJob>(&runs), 1);
    }
  }  // destructor drains the queue
  EXPECT_EQ(runs.load(), kSubmits);
  EXPECT_GE(acquisitions.value() - before,
            static_cast<std::uint64_t>(kSubmits));
  // Invariant, not an exact count: contended is a subset of acquisitions.
  EXPECT_LE(contended.value(), acquisitions.value());
}

}  // namespace
}  // namespace hynapse::util
