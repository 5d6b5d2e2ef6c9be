// Tests for the persistent worker pool: dispatch, reuse, exception
// propagation, concurrency.
#include <gtest/gtest.h>

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
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
  // task and stay out of the barrier.
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

TEST(ThreadPool, CallerRunsTidZero) {
  // Fork-join with caller participation: tid 0 of every dispatch, full or
  // partial width, runs on the thread that called run().
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id full_tid0;
  std::thread::id partial_tid0;
  std::atomic<int> workers_on_caller{0};
  pool.run([&](unsigned tid) {
    if (tid == 0) {
      full_tid0 = std::this_thread::get_id();
    } else if (std::this_thread::get_id() == caller) {
      workers_on_caller.fetch_add(1);
    }
  });
  pool.run(2, [&](unsigned tid) {
    if (tid == 0) partial_tid0 = std::this_thread::get_id();
  });
  EXPECT_EQ(full_tid0, caller);
  EXPECT_EQ(partial_tid0, caller);
  EXPECT_EQ(workers_on_caller.load(), 0);
}

/// Thread ids listed in /proc/self/task, or nullopt where the directory
/// is absent (non-Linux hosts).
std::optional<std::set<std::string>> task_ids() {
  const std::filesystem::path dir("/proc/self/task");
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return std::nullopt;
  std::set<std::string> ids;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    ids.insert(e.path().filename().string());
  }
  if (ec) return std::nullopt;
  return ids;
}

TEST(ThreadPool, StartsOneThreadFewerThanItsWidth) {
  // The caller is tid 0, so a pool of width 4 needs only 3 threads of its
  // own.  Counted as ids that appear across the construction, so a thread
  // another test left exiting cannot skew the count.
  const auto before = task_ids();
  if (!before) GTEST_SKIP() << "/proc/self/task is not available";
  const ThreadPool pool(4);
  const auto after = task_ids();
  ASSERT_TRUE(after.has_value());
  std::size_t started = 0;
  for (const std::string& id : *after) started += before->count(id) == 0;
  EXPECT_EQ(started, 3u);
  EXPECT_EQ(pool.size(), 4u);
}

/// The kernel id of the calling thread.
long os_thread_id() { return static_cast<long>(::syscall(SYS_gettid)); }

/// `voluntary_ctxt_switches` of thread `tid` of this process (each park
/// and wake of a blocked thread is one), or nullopt where
/// /proc/self/task/<tid>/status cannot be read.
std::optional<long> voluntary_switches(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    constexpr std::string_view kKey = "voluntary_ctxt_switches:";
    if (line.rfind(kKey, 0) == 0) return std::stol(line.substr(kKey.size()));
  }
  return std::nullopt;
}

TEST(ThreadPool, NarrowDispatchesLeaveBystandersAsleep) {
  // A dispatch wakes only the workers it selects: on a pool of width 4,
  // back-to-back run(2, ...) must leave tids 2 and 3 parked.  Every wake
  // of a parked bystander would cost it a voluntary context switch.
  ThreadPool pool(4);
  std::vector<long> os_tid(4, 0);
  pool.run(4, [&](unsigned tid) { os_tid[tid] = os_thread_id(); });
  if (!voluntary_switches(os_tid[2]).has_value()) {
    GTEST_SKIP() << "/proc/self/task/<tid>/status is not available";
  }
  // Past the spin budget, so the bystanders have parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const long before2 = voluntary_switches(os_tid[2]).value_or(0);
  const long before3 = voluntary_switches(os_tid[3]).value_or(0);
  std::atomic<int> runs{0};
  constexpr int kDispatches = 2000;
  for (int i = 0; i < kDispatches; ++i) {
    pool.run(2, [&](unsigned) { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 2 * kDispatches);
  EXPECT_LE(voluntary_switches(os_tid[2]).value_or(0) - before2, 5);
  EXPECT_LE(voluntary_switches(os_tid[3]).value_or(0) - before3, 5);
}

TEST(ThreadPool, PinsWorkersInsideTheCallersCpuMask) {
  // Narrow this thread's own mask to two CPUs, as `taskset -c` would, and
  // build a pinning pool of width 4: each worker must be pinned to one
  // CPU of that pair.  The last two allowed CPUs are chosen, so pinning
  // tid modulo the host CPU count would put tid 1 outside them.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original)) allowed.push_back(cpu);
  }
  if (allowed.size() < 2) GTEST_SKIP() << "needs 2 allowed CPUs";
  cpu_set_t pair;
  CPU_ZERO(&pair);
  CPU_SET(allowed[allowed.size() - 2], &pair);
  CPU_SET(allowed[allowed.size() - 1], &pair);
  ASSERT_EQ(sched_setaffinity(0, sizeof(pair), &pair), 0);
  struct Restore {
    cpu_set_t mask;
    ~Restore() { sched_setaffinity(0, sizeof(mask), &mask); }
  } restore{original};

  ThreadPool pool(4, /*pin=*/true);
  std::vector<long> os_tid(4, 0);
  pool.run(4, [&](unsigned tid) { os_tid[tid] = os_thread_id(); });
  for (unsigned tid = 1; tid < 4; ++tid) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(static_cast<pid_t>(os_tid[tid]), sizeof(mask),
                                &mask),
              0);
    EXPECT_EQ(CPU_COUNT(&mask), 1) << "tid " << tid;
    cpu_set_t inside;
    CPU_AND(&inside, &mask, &pair);
    EXPECT_EQ(CPU_COUNT(&inside), 1) << "tid " << tid << " left the mask";
  }
}

// --- the barrier: warm handoffs, parking, partial width, exceptions ---

TEST(ThreadPoolSpin, RunsEveryTidExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned tid) { hits[tid].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolSpin, BackToBackDispatchesOnWarmPool) {
  // The hot loop the barrier exists for: workers should catch successive
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
  // the condvar; the next dispatch must still wake them.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pool.run([&](unsigned) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPoolSpin, PartialWidthHitsOnlyActiveTids) {
  ThreadPool pool(6);
  std::vector<std::atomic<int>> hits(6);
  pool.run(2, [&](unsigned tid) { hits[tid].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
  for (std::size_t t = 2; t < 6; ++t) EXPECT_EQ(hits[t].load(), 0);
}

TEST(ThreadPoolSpin, ExceptionPropagatesFirstOnly) {
  // Every tid throws — the caller's tid 0 and the workers alike: exactly
  // one exception propagates, the barrier still completes, and the pool
  // stays usable for later dispatches.
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
  EXPECT_THROW(
      pool.run([&](unsigned tid) {
        if (tid == 2) throw std::logic_error("just tid 2");
        completed.fetch_add(1);
      }),
      std::logic_error);
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
