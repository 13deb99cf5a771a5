#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>

namespace gpuperf {

int
ThreadPool::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads)
{
    const int n = resolveThreads(num_threads);
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    if (!tryEnqueue(std::move(job)))
        throw std::runtime_error("ThreadPool: submit after shutdown");
}

bool
ThreadPool::tryEnqueue(std::function<void()> &&job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_)
            return false;
        queue_.push(std::move(job));
    }
    workAvailable_.notify_one();
    return true;
}

/**
 * Shared by a parallelFor caller and its helper tasks. Helpers hold
 * it by shared_ptr because a queued helper may start after the call
 * returned; by then claim() always fails, so @p fn (the caller's) is
 * never touched again.
 */
struct ThreadPool::Loop
{
    Loop(size_t count, const std::function<void(size_t)> &body)
        : n(count), fn(body)
    {
    }

    /** Claim the next index; false once drained or after a failure. */
    bool claim(size_t *index)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (next >= n || error)
            return false;
        *index = next++;
        ++inFlight;
        return true;
    }

    /** Run a claimed index and record how it ended. */
    void run(size_t index)
    {
        std::exception_ptr thrown;
        try {
            fn(index);
        } catch (...) {
            thrown = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (thrown && index < failedIndex) {
            failedIndex = index;
            error = thrown;
        }
        if (--inFlight == 0)
            settled.notify_all();
    }

    bool open()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return next < n && !error;
    }

    const size_t n;
    const std::function<void(size_t)> &fn;
    std::mutex mutex;
    std::condition_variable settled;
    size_t next = 0;     ///< lowest unclaimed index
    size_t inFlight = 0; ///< claimed, not yet finished
    size_t failedIndex = std::numeric_limits<size_t>::max();
    std::exception_ptr error; ///< thrown by failedIndex
};

void
ThreadPool::parallelFor(ThreadPool *pool, size_t n,
                        const std::function<void(size_t)> &fn)
{
    auto loop = std::make_shared<Loop>(n, fn);
    if (pool != nullptr && n > 1) {
        const size_t helpers =
            std::min(static_cast<size_t>(pool->numThreads()), n - 1);
        for (size_t h = 0; h < helpers; ++h) {
            if (!pool->tryEnqueue([pool, loop]() { pool->helpLoop(loop); }))
                break; // shutting down: the caller runs the rest
        }
    }
    size_t index = 0;
    while (loop->claim(&index))
        loop->run(index);
    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->settled.wait(lock, [&]() { return loop->inFlight == 0; });
    if (loop->error)
        std::rethrow_exception(loop->error);
}

void
ThreadPool::helpLoop(const std::shared_ptr<Loop> &loop)
{
    size_t index = 0;
    if (!loop->claim(&index))
        return;
    loop->run(index);
    // To the back of the queue: work submitted meanwhile goes first.
    if (loop->open())
        tryEnqueue([this, loop]() { helpLoop(loop); });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this]() {
                return shutdown_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // shutdown with nothing left to do
            job = std::move(queue_.front());
            queue_.pop();
            ++running_;
        }
        job(); // packaged_task captures any exception in its future
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --running_;
        }
        allIdle_.notify_all();
    }
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock, [this]() {
        return queue_.empty() && running_ == 0;
    });
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workAvailable_.notify_all();
    // Serialize joiners: a second shutdown() (e.g. the destructor
    // racing an explicit call) blocks here until the first finishes,
    // then sees every worker already joined. join() itself is not
    // safe to race.
    std::lock_guard<std::mutex> join_lock(joinMutex_);
    for (auto &w : workers_) {
        if (w.joinable())
            w.join();
    }
}

} // namespace gpuperf
