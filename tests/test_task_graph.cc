/**
 * @file
 * Task-graph executor tests: dependency ordering on diamonds, per-node
 * exception capture with skip-cascade to dependents, dynamic node
 * creation from running nodes (the store-warm short-circuit mechanism
 * the batch driver relies on), FIFO start order of ready nodes, and
 * no deadlock for worker counts 1..8 — including the single-thread
 * case, where any node that blocked on another node would wedge the
 * pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/task_graph.h"
#include "common/thread_pool.h"

namespace gpuperf {
namespace {

using NodeState = TaskGraph::NodeState;

TEST(TaskGraphTest, EmptyGraphRunsToCompletion)
{
    ThreadPool pool(2);
    TaskGraph graph(pool);
    graph.run();
    EXPECT_EQ(graph.size(), 0u);
}

TEST(TaskGraphTest, DiamondRespectsDependencyOrder)
{
    ThreadPool pool(4);
    TaskGraph graph(pool);

    std::atomic<int> clock{0};
    int t_a = -1, t_b = -1, t_c = -1, t_d = -1;
    const auto a = graph.add("a", [&]() { t_a = clock++; });
    const auto b = graph.add("b", [&]() { t_b = clock++; }, {a});
    const auto c = graph.add("c", [&]() { t_c = clock++; }, {a});
    const auto d = graph.add("d", [&]() { t_d = clock++; }, {b, c});
    graph.run();

    for (auto id : {a, b, c, d})
        EXPECT_EQ(graph.state(id), NodeState::kDone);
    EXPECT_LT(t_a, t_b);
    EXPECT_LT(t_a, t_c);
    EXPECT_LT(t_b, t_d);
    EXPECT_LT(t_c, t_d);
}

TEST(TaskGraphTest, FailurePropagatesToTransitiveDependentsOnly)
{
    ThreadPool pool(4);
    TaskGraph graph(pool);

    bool d_ran = false;
    bool e_ran = false;
    const auto a = graph.add("a", []() {});
    const auto b = graph.add(
        "b", []() { throw std::runtime_error("b exploded"); }, {a});
    const auto c = graph.add("c", []() {}, {a});
    const auto d = graph.add("d", [&]() { d_ran = true; }, {b, c});
    const auto e = graph.add("e", [&]() { e_ran = true; }, {c});
    graph.run();

    EXPECT_EQ(graph.state(a), NodeState::kDone);
    EXPECT_EQ(graph.state(b), NodeState::kFailed);
    EXPECT_EQ(graph.state(c), NodeState::kDone);
    EXPECT_EQ(graph.state(d), NodeState::kSkipped);
    EXPECT_EQ(graph.state(e), NodeState::kDone);
    EXPECT_FALSE(d_ran) << "a dependent of a failed node must not run";
    EXPECT_TRUE(e_ran) << "unrelated branches must be unaffected";

    // The skipped node carries the ROOT cause, rethrowable.
    ASSERT_NE(graph.error(d), nullptr);
    try {
        std::rethrow_exception(graph.error(d));
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &ex) {
        EXPECT_STREQ(ex.what(), "b exploded");
    }
    ASSERT_EQ(graph.failures().size(), 1u);
    EXPECT_EQ(graph.failures()[0], b);
}

TEST(TaskGraphTest, NodesCanAddNodesWhileRunning)
{
    ThreadPool pool(3);
    TaskGraph graph(pool);

    std::mutex mutex;
    std::vector<std::string> order;
    auto record = [&](const std::string &tag) {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(tag);
    };

    const auto a = graph.add("a", [&]() {
        record("a");
        // Dynamically extend the graph: a child depending on an
        // ALREADY-FINISHED sibling and on a fresh node.
        const auto fresh = graph.add("fresh", [&]() { record("fresh"); });
        graph.add("child", [&]() { record("child"); }, {fresh});
    });
    graph.run();

    ASSERT_EQ(graph.size(), 3u);
    for (TaskGraph::NodeId id = 0; id < graph.size(); ++id)
        EXPECT_EQ(graph.state(id), NodeState::kDone) << graph.name(id);
    (void)a;
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "a");
    // child strictly after fresh.
    const auto fresh_at =
        std::find(order.begin(), order.end(), "fresh") - order.begin();
    const auto child_at =
        std::find(order.begin(), order.end(), "child") - order.begin();
    EXPECT_LT(fresh_at, child_at);
}

TEST(TaskGraphTest, DynamicNodeOnFailedDependencyIsSkippedImmediately)
{
    ThreadPool pool(2);
    TaskGraph graph(pool);

    TaskGraph::NodeId late = 0;
    bool late_ran = false;
    const auto boom = graph.add(
        "boom", []() { throw std::runtime_error("boom"); });
    // A second root that adds a dependent of the failed node after it
    // has already failed (single dependency chain forces ordering on
    // a 1-wide subgraph is not guaranteed; depend on boom to order).
    graph.add(
        "spawner",
        [&]() {
            late = graph.add(
                "late", [&]() { late_ran = true; }, {boom});
        },
        {});
    graph.run();

    // Whether spawner observed boom finished or pending, late must
    // end skipped (or have run only if boom succeeded — it cannot).
    EXPECT_EQ(graph.state(boom), NodeState::kFailed);
    EXPECT_EQ(graph.state(late), NodeState::kSkipped);
    EXPECT_FALSE(late_ran);
}

TEST(TaskGraphTest, DrainsWideLayeredGraphsOnOneToEightThreads)
{
    for (int threads = 1; threads <= 8; ++threads) {
        SCOPED_TRACE("threads = " + std::to_string(threads));
        ThreadPool pool(threads);
        TaskGraph graph(pool);

        // Three layers, every layer-N node depending on two layer-N-1
        // nodes; a worker that ever blocked on an unfinished
        // dependency would deadlock the 1-thread pool here.
        std::atomic<int> executed{0};
        constexpr int kWidth = 24;
        std::vector<TaskGraph::NodeId> prev;
        for (int i = 0; i < kWidth; ++i)
            prev.push_back(graph.add("l0", [&]() { ++executed; }));
        for (int layer = 1; layer < 3; ++layer) {
            std::vector<TaskGraph::NodeId> cur;
            for (int i = 0; i < kWidth; ++i) {
                cur.push_back(graph.add(
                    "l" + std::to_string(layer), [&]() { ++executed; },
                    {prev[i], prev[(i + 7) % kWidth]}));
            }
            prev = std::move(cur);
        }
        graph.run();
        EXPECT_EQ(executed.load(), 3 * kWidth);
        EXPECT_TRUE(graph.failures().empty());
    }
}

TEST(TaskGraphTest, ReadyNodesRunInTheOrderTheyBecameReady)
{
    // One worker makes the start order observable. a, b and c are
    // roots; d waits on a. a adds x (ready at once, so behind the
    // roots but ahead of d, which a's completion readies); b adds y
    // behind c, still pending, so y is ready only once c finishes.
    ThreadPool pool(1);
    TaskGraph graph(pool);
    std::vector<std::string> order;
    const auto note = [&order](const char *name) {
        return [&order, name]() { order.push_back(name); };
    };
    const auto a = graph.add("a", [&]() {
        order.push_back("a");
        graph.add("x", note("x"));
    });
    TaskGraph::NodeId c = 0;
    graph.add("b", [&]() {
        order.push_back("b");
        graph.add("y", note("y"), {c});
    });
    c = graph.add("c", note("c"));
    graph.add("d", note("d"), {a});
    graph.run();

    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "x", "d",
                                                "y"}));
    EXPECT_TRUE(graph.failures().empty());
}

TEST(TaskGraphTest, RunIsOneShot)
{
    ThreadPool pool(1);
    TaskGraph graph(pool);
    graph.add("only", []() {});
    graph.run();
    EXPECT_THROW(graph.run(), std::logic_error);
    EXPECT_THROW(graph.add("late", []() {}), std::logic_error);
}

TEST(TaskGraphTest, ForwardEdgesAreRejected)
{
    ThreadPool pool(1);
    TaskGraph graph(pool);
    EXPECT_THROW(graph.add("self", []() {}, {0}), std::logic_error);

    // A bad id mixed with a valid one must be rejected WITHOUT
    // registering the never-created node as the valid dep's
    // dependent — the graph must still drain cleanly afterwards.
    bool a_ran = false;
    const auto a = graph.add("a", [&]() { a_ran = true; });
    EXPECT_THROW(graph.add("mixed", []() {}, {a, 99}),
                 std::logic_error);
    graph.run();
    EXPECT_TRUE(a_ran);
    EXPECT_EQ(graph.state(a), NodeState::kDone);
    EXPECT_TRUE(graph.failures().empty());
}

} // namespace
} // namespace gpuperf
