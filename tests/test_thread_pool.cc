/**
 * @file
 * ThreadPool tests: FIFO task start order, result and exception
 * propagation through futures, waitIdle, shutdown semantics, actual
 * concurrency, and parallelFor (exactly-once indices, calls from
 * inside a pool task, error order, interleaving with queued work).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace gpuperf {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksInFifoOrderWithOneWorker)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i, &order]() {
            order.push_back(i); // single worker: no race
        }));
    for (auto &f : futures)
        f.get();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, ReturnsResultsThroughFutures)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures)
{
    ThreadPool pool(2);
    auto bad = pool.submit([]() -> int {
        throw std::runtime_error("task failed");
    });
    auto good = pool.submit([]() { return 7; });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // A throwing task must not take the worker down with it.
    EXPECT_EQ(good.get(), 7);
    auto after = pool.submit([]() { return 8; });
    EXPECT_EQ(after.get(), 8);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilQueueDrains)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&done]() {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            done.fetch_add(1);
        });
    }
    pool.waitIdle();
    EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 8; ++i)
            pool.submit([&done]() { done.fetch_add(1); });
        pool.shutdown();
        EXPECT_EQ(done.load(), 8);
    }
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows)
{
    ThreadPool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([]() {}), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorCompletesQueuedWork)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i)
            pool.submit([&done]() { done.fetch_add(1); });
    }
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, ActuallyRunsTasksConcurrently)
{
    ThreadPool pool(2);
    std::mutex m;
    std::condition_variable cv;
    int arrived = 0;
    // Two tasks that can only finish once both have started: passes
    // iff the pool really runs them on two workers at once.
    auto rendezvous = [&]() {
        std::unique_lock<std::mutex> lock(m);
        ++arrived;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&]() { return arrived >= 2; });
        return arrived;
    };
    auto a = pool.submit(rendezvous);
    auto b = pool.submit(rendezvous);
    EXPECT_GE(a.get(), 2);
    EXPECT_GE(b.get(), 2);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.numThreads(), 1);
    EXPECT_EQ(pool.numThreads(), ThreadPool::resolveThreads(0));
    auto f = pool.submit([]() { return 42; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce)
{
    constexpr size_t kN = 1000;
    ThreadPool pool(4);
    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
        std::vector<std::atomic<int>> runs(kN);
        ThreadPool::parallelFor(p, kN, [&](size_t i) { ++runs[i]; });
        for (size_t i = 0; i < kN; ++i)
            ASSERT_EQ(runs[i].load(), 1)
                << "index " << i << (p ? " (pool)" : " (no pool)");
    }
    ThreadPool::parallelFor(&pool, 0, [](size_t) { FAIL(); });
}

TEST(ParallelForTest, CompletesFromInsideAOneThreadPoolTask)
{
    // The pool's only worker is the caller: its helper tasks cannot
    // start until the loop returns, so the caller must run it all.
    ThreadPool pool(1);
    std::atomic<int> done{0};
    auto f = pool.submit([&]() {
        ThreadPool::parallelFor(&pool, 64, [&](size_t) { ++done; });
    });
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "parallelFor deadlocked inside a pool task";
    f.get();
    EXPECT_EQ(done.load(), 64);
}

TEST(ParallelForTest, RethrowsLowestIndexAfterInFlightJobsFinish)
{
    // Index 1 throws only once index 2 (slow, not throwing) has
    // started, and index 3 throws at once: the rethrow must be index
    // 1's, and must wait for index 2 to finish.
    ThreadPool pool(3);
    std::atomic<bool> slow_started{false};
    std::atomic<bool> slow_finished{false};
    const auto body = [&](size_t i) {
        if (i == 1) {
            for (int spin = 0; spin < 10000 && !slow_started; ++spin)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            throw std::runtime_error("index 1");
        }
        if (i == 2) {
            slow_started = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            slow_finished = true;
        }
        if (i == 3)
            throw std::runtime_error("index 3");
    };
    try {
        ThreadPool::parallelFor(&pool, 64, body);
        FAIL() << "parallelFor swallowed the exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 1");
        EXPECT_TRUE(slow_finished.load())
            << "rethrown while index 2 was still running";
    }
}

TEST(ParallelForTest, QueuedTaskRunsBeforeALongLoopDrains)
{
    // Helpers re-queue after every index, so a task submitted at
    // index 10 gets a worker within a few indices, not only once the
    // helpers run out of work.
    constexpr size_t kN = 200;
    ThreadPool pool(2);
    std::atomic<size_t> finished{0};
    std::future<size_t> seen;
    std::mutex m;
    ThreadPool::parallelFor(&pool, kN, [&](size_t i) {
        if (i == 10) {
            std::lock_guard<std::mutex> lock(m);
            seen = pool.submit([&]() { return finished.load(); });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++finished;
    });
    std::lock_guard<std::mutex> lock(m);
    ASSERT_TRUE(seen.valid());
    EXPECT_LT(seen.get(), kN / 2)
        << "the task waited for the helpers to run out of indices";
}

} // namespace
} // namespace gpuperf
