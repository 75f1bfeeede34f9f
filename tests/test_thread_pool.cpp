// Tests for the persistent worker pool: dispatch, reuse, exception
// propagation, concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/thread_pool.h"

namespace spmv {
namespace {

TEST(ThreadPool, RunsEveryTidExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned tid) { hits[tid].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeMatches) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

/// Threads in this process right now (Linux: one /proc/self/task entry
/// per thread); -1 where that directory does not exist.
long process_thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<long>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(ThreadPool, SpawnsNoThreadForTheCallersTid) {
  // The caller runs tid 0 in every dispatch, so a pool of n starts n - 1
  // threads; a worker for tid 0 would only ever sit parked.
  const long before = process_thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this host";
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(process_thread_count() - before, 2);
    std::vector<std::atomic<int>> hits(3);
    pool.run([&](unsigned tid) { hits[tid].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(process_thread_count(), before);
  {
    ThreadPool single(1);  // tid 0 only: no thread at all
    EXPECT_EQ(process_thread_count(), before);
  }
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, ReusableAcrossManyRuns) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.run([&](unsigned) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 400);
}

TEST(ThreadPool, DistinctThreadsExecute) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.run([&](unsigned) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids.size(), 4u);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run([](unsigned tid) {
        if (tid == 1) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Pool must still be usable after a failed run.
  std::atomic<int> counter{0};
  pool.run([&](unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ParallelSumIsCorrect) {
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kN = 1 << 18;
  std::vector<double> data(kN, 1.0);
  std::vector<double> partial(kThreads, 0.0);
  ThreadPool pool(kThreads);
  pool.run([&](unsigned tid) {
    const std::size_t chunk = kN / kThreads;
    const std::size_t begin = tid * chunk;
    const std::size_t end = tid + 1 == kThreads ? kN : begin + chunk;
    partial[tid] = std::accumulate(data.begin() + begin, data.begin() + end,
                                   0.0);
  });
  EXPECT_DOUBLE_EQ(std::accumulate(partial.begin(), partial.end(), 0.0),
                   static_cast<double>(kN));
}

TEST(ThreadPool, PartialWidthRunHitsOnlyActiveTids) {
  // A wide shared pool serving a narrower plan: tids >= active skip the
  // task but still join the barrier.
  ThreadPool pool(6);
  std::vector<std::atomic<int>> hits(6);
  pool.run(2, [&](unsigned tid) { hits[tid].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
  for (std::size_t t = 2; t < 6; ++t) EXPECT_EQ(hits[t].load(), 0);
}

TEST(ThreadPool, WorkerThreadDetection) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  std::atomic<int> on_worker{0};
  pool.run([&](unsigned) {
    if (ThreadPool::on_worker_thread()) on_worker.fetch_add(1);
  });
  EXPECT_EQ(on_worker.load(), 2);
}

TEST(ThreadPool, PinnedPoolStillWorks) {
  // Pinning may fail on constrained hosts; the pool must work regardless.
  ThreadPool pool(2, /*pin=*/true);
  std::atomic<int> counter{0};
  pool.run([&](unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, DestructionWithoutRunsIsClean) {
  ThreadPool pool(8);
  // No run() at all: destructor must join cleanly (no hang, no crash).
}

// --- spin-then-park barrier ---

TEST(ThreadPoolSpin, BackToBackDispatchesOnWarmPool) {
  // The hot loop the mode exists for: workers should catch successive
  // generations while still spinning.  Correctness is what we can assert.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    pool.run([&](unsigned) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolSpin, ParkAfterBudgetThenWakeForNextDispatch) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.run([&](unsigned) { counter.fetch_add(1); });
  // Sleep far past the ~50µs spin budget so every worker has parked on
  // the condvar; the next spin dispatch must still wake them.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pool.run([&](unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPoolSpin, ExceptionPropagatesFirstOnly) {
  // Regression: all tids throw, exactly one exception propagates after
  // the barrier (the first-exception contract), the barrier still
  // completes, and the pool stays usable afterwards.
  ThreadPool pool(3);
  try {
    pool.run([](unsigned tid) {
      throw std::runtime_error("boom " + std::to_string(tid));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u) << e.what();
  }
  std::atomic<int> counter{0};
  pool.run([&](unsigned) { counter.fetch_add(1); });
  pool.run([&](unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPoolSpin, SingleThrowerAmongWorkers) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  const auto task = [&](unsigned tid) {
    if (tid == 2) throw std::logic_error("just tid 2");
    completed.fetch_add(1);
  };
  EXPECT_THROW(pool.run(task), std::logic_error);
  // The barrier waited for everyone, not just the thrower.
  EXPECT_EQ(completed.load(), 3);
}

TEST(ThreadPoolSpin, ManyDispatchesWithRandomGaps) {
  // Mix warm handoffs (no gap) with parked wakeups (gap > spin budget).
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 40; ++i) {
    pool.run([&](unsigned) { counter.fetch_add(1); });
    if (i % 8 == 7) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_EQ(counter.load(), 80);
}

}  // namespace
}  // namespace spmv
