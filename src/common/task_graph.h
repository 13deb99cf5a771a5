/**
 * @file
 * A dataflow task-graph executor on top of ThreadPool.
 *
 * The batch-analysis pipeline is a dependency graph (the paper's
 * Figure 1): microbenchmark calibration and functional simulation feed
 * timing replay, which feeds extraction, prediction and what-if
 * sweeps. Executing each batch cell as one opaque pool task forces
 * workers to *block inside* shared memos whenever another worker owns
 * a stage they need; this executor exposes the stage graph instead —
 * a node runs only once every dependency has finished, so a worker is
 * never parked on someone else's stage and always picks up another
 * ready node.
 *
 * Semantics:
 *  - Nodes are added with add(fn, deps); edges point dependency ->
 *    dependent. The graph must stay acyclic (deps must already exist,
 *    which makes cycles unrepresentable).
 *  - run() submits every ready node to the pool and returns when all
 *    nodes — including nodes added *during* execution — have finished.
 *    Nodes may call add() on their own graph; that is how dynamic
 *    short-circuits work (e.g. a store-warm batch cell never creates
 *    its simulation nodes at all).
 *  - Ready nodes start in the order they became ready: each goes
 *    straight onto the pool's FIFO queue, behind whatever the pool
 *    already holds.
 *  - A node that throws is recorded kFailed with the captured
 *    exception; its transitive dependents never run and are recorded
 *    kSkipped carrying the root cause. run() itself does not throw
 *    for node failures — callers inspect state()/error().
 *
 * run() must be called from a thread that is NOT a worker of the pool
 * (it blocks until the graph drains; a worker calling it could park
 * the pool's last thread and deadlock a single-threaded pool).
 */

#ifndef GPUPERF_COMMON_TASK_GRAPH_H
#define GPUPERF_COMMON_TASK_GRAPH_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace gpuperf {

class TaskGraph
{
  public:
    using NodeId = size_t;

    enum class NodeState
    {
        kPending,  ///< waiting for dependencies or a worker
        kRunning,  ///< body executing on a worker
        kDone,     ///< body returned normally
        kFailed,   ///< body threw; error() holds the exception
        kSkipped,  ///< a transitive dependency failed; error() holds it
    };

    /** @param pool the worker pool nodes execute on (not owned). */
    explicit TaskGraph(ThreadPool &pool);
    ~TaskGraph();

    TaskGraph(const TaskGraph &) = delete;
    TaskGraph &operator=(const TaskGraph &) = delete;

    /**
     * Add a node executing @p fn after every node in @p deps has
     * finished. Safe to call from node bodies while run() is active
     * (the new node is scheduled immediately if its dependencies are
     * already satisfied, and skipped immediately if one already
     * failed). @p name is for diagnostics only.
     */
    NodeId add(std::string name, std::function<void()> fn,
               const std::vector<NodeId> &deps = {});

    /**
     * Execute the graph to completion (every node kDone, kFailed or
     * kSkipped), including nodes added while running. One-shot: a
     * graph cannot be re-run. No-op on an empty graph.
     */
    void run();

    NodeState state(NodeId id) const;

    /**
     * The exception a kFailed node threw, or the root-cause exception
     * of a kSkipped node; null otherwise.
     */
    std::exception_ptr error(NodeId id) const;

    const std::string &name(NodeId id) const;

    /** Nodes added so far (ids are dense, 0..size()-1). */
    size_t size() const;

    /** Ids of every kFailed node, in id order. */
    std::vector<NodeId> failures() const;

  private:
    struct Node
    {
        std::string name;
        std::function<void()> fn;
        /** Unfinished dependencies; ready when it reaches zero. */
        int waiting = 0;
        std::vector<NodeId> dependents;
        NodeState state = NodeState::kPending;
        std::exception_ptr error;
    };

    /**
     * Hand the ready node @p id to the pool. Called under mutex_ at
     * the moment the node becomes ready, so the pool's FIFO queue
     * holds ready nodes in exactly that order. Caller holds mutex_.
     */
    void submitLocked(NodeId id);
    /** Worker body: run the node, then settle its dependents. */
    void execute(NodeId id);
    /**
     * Mark @p id and its pending transitive dependents kSkipped with
     * @p cause. Caller holds mutex_.
     */
    void skipCascadeLocked(NodeId id, const std::exception_ptr &cause);
    /** One node left the unfinished set. Caller holds mutex_. */
    void finishOneLocked();

    ThreadPool &pool_;

    mutable std::mutex mutex_;
    std::condition_variable drained_;
    /** unique_ptr for stable addresses across reallocation. */
    std::vector<std::unique_ptr<Node>> nodes_;
    size_t unfinished_ = 0;
    bool running_ = false;
    bool finished_ = false;
};

} // namespace gpuperf

#endif // GPUPERF_COMMON_TASK_GRAPH_H
