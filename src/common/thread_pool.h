/**
 * @file
 * A fixed-size worker pool with a mutex+condvar task queue.
 *
 * Deliberately simple — no work stealing, no task priorities: the
 * batch-analysis driver submits coarse-grained, similar-cost tasks
 * (one full analysis each), so a single FIFO queue behind one mutex is
 * both sufficient and easy to reason about. Exceptions thrown by a
 * task propagate through the std::future returned by submit().
 *
 * parallelFor() fans an indexed loop out over the same queue (the
 * calibration microbenchmark sweep runs through it). The caller works
 * the loop too, so it is safe to call from inside a pool task, and
 * each helper task re-queues itself after every index, so other work
 * in the FIFO interleaves with a long loop instead of waiting for it.
 */

#ifndef GPUPERF_COMMON_THREAD_POOL_H
#define GPUPERF_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gpuperf {

class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 means one worker per
     *        hardware thread (at least one).
     */
    explicit ThreadPool(int num_threads = 0);

    /** Joins all workers after draining already-queued tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a callable; tasks start in FIFO submission order.
     * The returned future carries the task's result, or rethrows the
     * exception the task threw. Throws std::runtime_error if the pool
     * is shutting down.
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Run @p fn(0) .. @p fn(n - 1), each index exactly once, and return
     * when all have finished. Indices are claimed in ascending order
     * by the calling thread and by up to numThreads() helper tasks of
     * @p pool; a null pool runs every index on the caller (same code,
     * no helpers). A helper runs one index, then re-submits itself to
     * the back of the queue while indices remain.
     *
     * The caller never waits for a queued helper to start, only for
     * claimed indices to finish, so calling from a pool task cannot
     * deadlock (not even on a 1-thread pool).
     *
     * If any @p fn throws, no further index is claimed; once every
     * claimed index has finished, the exception of the lowest failing
     * index is rethrown. Indices are claimed in order, so that is the
     * lowest index whose @p fn throws, whatever the interleaving.
     */
    static void parallelFor(ThreadPool *pool, size_t n,
                            const std::function<void(size_t)> &fn);

    /** Block until the queue is empty and no task is running. */
    void waitIdle();

    /**
     * Drain queued tasks and join all workers. Further submissions
     * throw. Called automatically by the destructor; idempotent.
     */
    void shutdown();

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Resolve a requested thread count (0 = hardware concurrency). */
    static int resolveThreads(int requested);

  private:
    struct Loop; // one parallelFor's shared state

    void enqueue(std::function<void()> job);
    /** enqueue() that returns false instead of throwing on shutdown. */
    bool tryEnqueue(std::function<void()> &&job);
    /** Helper task body: run one index of @p loop, then re-queue. */
    void helpLoop(const std::shared_ptr<Loop> &loop);
    void workerLoop();

    std::mutex mutex_;
    /** Serializes concurrent shutdown() callers around join(). */
    std::mutex joinMutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allIdle_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    int running_ = 0;       ///< tasks currently executing
    bool shutdown_ = false; ///< guarded by mutex_
};

} // namespace gpuperf

#endif // GPUPERF_COMMON_THREAD_POOL_H
