/**
 * @file
 * The fleet dispatcher: gpuperf-serve fans admitted cells out to
 * registered workers with responses bit-identical to in-process
 * execution, workers may join mid-request, a worker dying while
 * holding cells loses nothing (steal + re-dispatch, exactly-once
 * delivery), zero workers means graceful local execution, and a
 * malformed worker is killed without ever dropping a client.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/client.h"
#include "api/codecs.h"
#include "api/dispatch.h"
#include "api/endpoint.h"
#include "api/server.h"
#include "api/service.h"
#include "api/transport.h"
#include "common/socket.h"
#include "store/serializer.h"

#include "poison_requests.h"
#include "scratch_dir.h"

namespace gpuperf {
namespace api {
namespace {

std::string
freshSocketPath(const std::string &tag)
{
    // One directory for the process's sockets, removed at exit; a
    // killed run's directory goes when the next run starts.
    static const ScratchDir sockets("fleet");
    static int counter = 0;
    return sockets.socketPath(tag + "-" + std::to_string(counter++) +
                              ".sock");
}

model::CalibrationTables
fakeTables()
{
    model::CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        for (int w = 1; w <= 32; ++w)
            t.instrThroughput[type][w] = 1e10 * std::min(1.0, w / 8.0);
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    static const auto tables =
        std::make_shared<const model::CalibrationTables>(fakeTables());
    return tables;
}

/** 3 kernels x 2 specs, no store — fake calibration keeps it fast. */
AnalysisRequest
testRequest()
{
    AnalysisRequest req;
    req.jobName = "dispatch-test";
    req.kernels.push_back(KernelJob::fromRef(
        "saxpy-small", CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(KernelJob::fromRef(
        "conflicted", CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(KernelJob::fromRef(
        "hist", CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0, 32.0};
    req.sweep.coalescingFractions = {1.0};
    req.exec.numThreads = 2;
    return req;
}

/**
 * Adopt fake tables for BOTH request shapes a fleet touches: the
 * batch shape (zero-worker fallback runs the request as-is) and the
 * single-threaded cell shape the dispatcher derives via cellRequest
 * (executors are keyed per policy, numThreads included).
 */
void
adoptBothShapes(AnalysisService &service, const AnalysisRequest &req)
{
    AnalysisRequest cell_shaped = req;
    cell_shaped.exec.numThreads = 1;
    for (const arch::GpuSpec &spec : req.specs) {
        service.adoptCalibration(req, spec, sharedFakeTables());
        service.adoptCalibration(cell_shaped, spec,
                                 sharedFakeTables());
    }
}

void
expectEqual(const AnalysisResponse &got, const AnalysisResponse &want)
{
    std::string why;
    EXPECT_TRUE(responsesEqual(got, want, &why)) << why;
}

/**
 * A started fleet server (endpoint query options welcome), its
 * in-process reference, and in-thread registered workers.
 */
struct FleetRig
{
    std::string unixPath;
    std::unique_ptr<Server> server;
    AnalysisService reference;
    AnalysisRequest req = testRequest();

    std::vector<std::thread> worker_threads;
    std::vector<std::unique_ptr<AnalysisService>> worker_services;
    // Deque: addWorker hands each thread a reference into this —
    // growth must not invalidate it.
    std::deque<WorkerLoopStats> worker_stats;

    explicit FleetRig(const std::string &tag,
                      const std::string &query = "")
    {
        unixPath = freshSocketPath(tag);
        server = std::make_unique<Server>(Endpoint::parse(
            "unix:" + unixPath + query, Endpoint::Role::kServer));
        server->start();
        adoptBothShapes(server->service(), req);
        adoptBothShapes(reference, req);
    }

    ~FleetRig() { stop(); }

    /** Stop the server (hanging up on workers) and join them all. */
    void stop()
    {
        server->stop(); // hangs up on workers; their loops return
        for (std::thread &t : worker_threads)
            if (t.joinable())
                t.join();
    }

    /**
     * Register one in-thread worker (@p query = its endpoint options)
     * and wait until it is live.
     */
    void addWorker(const WorkerLoopOptions &opts = {},
                   const std::string &query = "")
    {
        worker_services.push_back(
            std::make_unique<AnalysisService>());
        adoptBothShapes(*worker_services.back(), req);
        AnalysisService &service = *worker_services.back();
        worker_stats.emplace_back();
        WorkerLoopStats &stats = worker_stats.back();
        const size_t live_target = server->dispatcher().liveWorkers() + 1;
        worker_threads.emplace_back([this, &service, &stats, opts,
                                     query] {
            const Endpoint ep = Endpoint::parse(
                "unix:" + unixPath + query, Endpoint::Role::kWorker);
            stats = workerServe(ep, service, nullptr, opts);
        });
        waitForLiveWorkers(live_target);
    }

    void waitForLiveWorkers(size_t n)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (server->dispatcher().liveWorkers() < n &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_GE(server->dispatcher().liveWorkers(), n);
    }

    AnalysisResponse expected() { return reference.run(req); }
};

/**
 * A hand-rolled worker speaking just enough of the registration
 * protocol to misbehave on purpose. Returns the registered fd (< 0 on
 * failure — assert in the test).
 */
int
registerRawWorker(const std::string &path, const std::string &name)
{
    std::string err;
    const int fd = connectUnix(path, &err);
    if (fd < 0)
        return -1;
    if (!writeFrame(fd, FrameType::kRegister, name)) {
        closeSocket(fd);
        return -1;
    }
    FrameType type;
    std::string body;
    if (readFrame(fd, &type, &body, kMaxFrameBytesDefault, nullptr,
                  &err, /*idle_timeout_seconds=*/10.0) != 1 ||
        type != FrameType::kRegister) {
        closeSocket(fd);
        return -1;
    }
    return fd;
}

/** Block until a kJob frame arrives on @p fd (payload discarded). */
bool
awaitJob(int fd)
{
    FrameType type;
    std::string body;
    std::string err;
    return readFrame(fd, &type, &body, kMaxFrameBytesDefault, nullptr,
                     &err, /*idle_timeout_seconds=*/30.0) == 1 &&
           type == FrameType::kJob;
}

// --- Zero workers: graceful local fallback ----------------------------

TEST(DispatchTest, ZeroWorkersFallsBackToLocalExecution)
{
    FleetRig rig("zero");
    const AnalysisResponse want = rig.expected();

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), want);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.workersRegistered, 0u);
    EXPECT_EQ(stats.cellsDispatched, 0u);
    EXPECT_GE(stats.requestsLocalFallback, 1u);
}

// --- Remote execution is bit-identical --------------------------------

TEST(DispatchTest, WorkersServeBitIdenticalResponses)
{
    FleetRig rig("ident");
    rig.addWorker();
    rig.addWorker();
    const AnalysisResponse want = rig.expected();

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), want);
    // Streamed delivery dispatches identically.
    AnalysisRequest streaming = rig.req;
    streaming.exec.delivery = ExecutionPolicy::Delivery::kStream;
    std::atomic<size_t> streamed{0};
    expectEqual(client.run(streaming,
                           [&](size_t, const driver::BatchResult &) {
                               ++streamed;
                           }),
                want);
    EXPECT_EQ(streamed.load(), want.cells.size());

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.workersRegistered, 2u);
    EXPECT_EQ(stats.cellsCompletedRemote, 2u * want.cells.size());
    EXPECT_EQ(stats.requestsLocalFallback, 0u);
    EXPECT_EQ(stats.cellsLocal, 0u);
}

// --- Every policy is bit-identical to the in-process run --------------

/**
 * Two tenants submit the rig's request concurrently to a 2-worker
 * fleet whose dispatcher orders its pending queue by @p policy: the
 * order changes, every response stays bit-identical.
 */
void
expectPolicyMatchesInProcess(const std::string &policy)
{
    FleetRig rig("sched-" + policy, "?sched=" + policy);
    rig.addWorker();
    rig.addWorker();
    const AnalysisResponse want = rig.expected();

    const std::string clients[] = {"tenant-a", "tenant-b"};
    AnalysisResponse got[2];
    std::string failure[2];
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
        threads.emplace_back([&, i] {
            try {
                AnalysisRequest req = rig.req;
                req.clientId = clients[i];
                got[i] = ServeClient::overUnix(rig.unixPath).run(req);
            } catch (const std::exception &e) {
                failure[i] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(failure[i].empty()) << clients[i] << ": " << failure[i];
        std::string why;
        EXPECT_TRUE(responsesEqual(got[i], want, &why))
            << policy << ", " << clients[i] << ": " << why;
    }

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_STREQ(stats.schedPolicy, policy.c_str());
    EXPECT_EQ(stats.cellsCompletedRemote, 2u * want.cells.size());
    EXPECT_EQ(stats.cellsLocal, 0u);
}

TEST(DispatchTest, SjfFleetMatchesInProcessBitExactly)
{
    expectPolicyMatchesInProcess("sjf");
}

TEST(DispatchTest, FairShareFleetMatchesInProcessBitExactly)
{
    expectPolicyMatchesInProcess("fair-share");
}

// --- A worker joining mid-request picks up cells ----------------------

TEST(DispatchTest, WorkerJoiningMidRequestPicksUpCells)
{
    // One deliberately slow worker holding one cell at a time keeps
    // the queue non-empty long enough for a second worker to join the
    // fleet mid-request and demonstrably take cells.
    FleetRig rig("join", "?worker-inflight=1");
    std::atomic<bool> first_job{false};
    WorkerLoopOptions slow;
    slow.name = "slow";
    slow.onJob = [&](const AnalysisRequest &) {
        first_job.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    };
    rig.addWorker(slow);
    const AnalysisResponse want = rig.expected();

    std::string failure;
    AnalysisResponse got;
    std::thread client_thread([&] {
        try {
            ServeClient client = ServeClient::overUnix(rig.unixPath);
            got = client.run(rig.req);
        } catch (const std::exception &e) {
            failure = e.what();
        }
    });

    // Join the fleet only once the request is demonstrably in flight.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (!first_job.load() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(first_job.load());
    WorkerLoopOptions fast;
    fast.name = "fast";
    rig.addWorker(fast);
    client_thread.join();

    ASSERT_TRUE(failure.empty()) << failure;
    expectEqual(got, want);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.workersRegistered, 2u);
    EXPECT_EQ(stats.cellsCompletedRemote, want.cells.size());
    bool fast_worked = false;
    for (const WorkerStat &w : stats.workers)
        if (w.name == "fast" && w.cellsDone > 0)
            fast_worked = true;
    EXPECT_TRUE(fast_worked)
        << "the late-joining worker never received a cell";
}

// --- Worker death: steal + re-dispatch, exactly once ------------------

TEST(DispatchTest, WorkerDyingWithCellsInFlightLosesNothing)
{
    // worker-inflight=2 so the doomed raw worker demonstrably holds
    // cells while the honest worker also has some.
    FleetRig rig("death", "?worker-inflight=2");
    const int doomed = registerRawWorker(rig.unixPath, "doomed");
    ASSERT_GE(doomed, 0);
    rig.waitForLiveWorkers(1);
    rig.addWorker();
    const AnalysisResponse want = rig.expected();

    std::string failure;
    AnalysisResponse got;
    std::thread client_thread([&] {
        try {
            ServeClient client = ServeClient::overUnix(rig.unixPath);
            got = client.run(rig.req);
        } catch (const std::exception &e) {
            failure = e.what();
        }
    });

    // Take a cell hostage, then die holding it: the dispatcher must
    // steal the worker's in-flight jobs back and re-dispatch them.
    ASSERT_TRUE(awaitJob(doomed));
    closeSocket(doomed);
    client_thread.join();

    ASSERT_TRUE(failure.empty()) << failure;
    expectEqual(got, want); // every cell delivered exactly once

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_GE(stats.workerDeaths, 1u);
    EXPECT_GE(stats.cellsRedispatched, 1u);
    EXPECT_EQ(stats.duplicateResults, 0u);
}

TEST(DispatchTest, LateResultAfterJobTimeoutIsDroppedNotDoubled)
{
    // A 1-cell request against one worker slower than the job
    // timeout: the job is re-dispatched (to the same worker — it is
    // the only one), both executions answer, and the dispatcher must
    // deliver the FIRST and drop the duplicate.
    FleetRig rig("dup", "?job-timeout=0.25");
    rig.req.kernels = {rig.req.kernels[0]};
    rig.req.specs = {rig.req.specs[0]};
    WorkerLoopOptions slow;
    slow.onJob = [](const AnalysisRequest &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    };
    rig.addWorker(slow);
    const AnalysisResponse want = rig.expected();
    ASSERT_EQ(want.cells.size(), 1u);

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), want);

    // The duplicate lands on its own schedule; poll for it.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    DispatchStats stats = rig.server->dispatcher().stats();
    while (stats.duplicateResults < 1u &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stats = rig.server->dispatcher().stats();
    }
    EXPECT_GE(stats.cellsRedispatched, 1u);
    EXPECT_GE(stats.duplicateResults, 1u);
}

// --- Malformed workers die alone --------------------------------------

TEST(DispatchTest, MalformedWorkerResultKillsTheWorkerNotTheClient)
{
    FleetRig rig("malformed");
    const int liar = registerRawWorker(rig.unixPath, "liar");
    ASSERT_GE(liar, 0);
    rig.waitForLiveWorkers(1);
    const AnalysisResponse want = rig.expected();

    std::string failure;
    AnalysisResponse got;
    std::thread client_thread([&] {
        try {
            ServeClient client = ServeClient::overUnix(rig.unixPath);
            got = client.run(rig.req);
        } catch (const std::exception &e) {
            failure = e.what();
        }
    });

    // Answer the first job with garbage: the dispatcher must kill
    // THIS connection, steal the jobs back, and (with no fleet left)
    // finish the request locally — the client never notices.
    ASSERT_TRUE(awaitJob(liar));
    ASSERT_TRUE(writeFrame(liar, FrameType::kCell,
                           "this is not a cell result"));
    client_thread.join();
    closeSocket(liar);

    ASSERT_TRUE(failure.empty()) << failure;
    expectEqual(got, want);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_GE(stats.malformedResults, 1u);
    EXPECT_GE(stats.workerDeaths, 1u);
    EXPECT_EQ(rig.server->dispatcher().liveWorkers(), 0u);
    EXPECT_EQ(rig.server->stats().disconnects, 0u);
}

// --- Registration handshake hygiene -----------------------------------

TEST(DispatchTest, WorkerServeRefusesNonSocketEndpoints)
{
    AnalysisService service;
    for (const char *uri : {"inproc:", "inproc", ""})
        EXPECT_THROW(workerServe(Endpoint::parse(uri), service),
                     std::runtime_error)
            << uri;
}

// --- Worker-side containment and bounds -------------------------------

TEST(DispatchTest, PoisonCellFailsAloneAndTheWorkerKeepsServing)
{
    FleetRig rig("poison");
    rig.addWorker();
    const poison::Case bad = poison::cases(rig.req)[0];
    ServeClient client = ServeClient::overUnix(rig.unixPath);

    // The simulator rejects the cell on the worker: it comes back
    // failed, labeled with its own kernel and spec, message intact.
    const AnalysisResponse failed = client.run(bad.req);
    ASSERT_EQ(failed.cells.size(), 1u);
    EXPECT_FALSE(failed.cells[0].ok);
    EXPECT_NE(failed.cells[0].error.find(bad.message), std::string::npos)
        << bad.what << ": " << failed.cells[0].error;
    EXPECT_EQ(failed.cells[0].kernelName, bad.req.kernels[0].name);
    EXPECT_EQ(failed.cells[0].specName, bad.req.specs[0].name);

    // The same worker then serves a normal request bit-identically.
    const AnalysisResponse want = rig.expected();
    expectEqual(client.run(rig.req), want);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.workerDeaths, 0u);
    EXPECT_EQ(stats.cellsLocal, 0u) << "every cell must run remotely";
    EXPECT_EQ(stats.cellsCompletedRemote, 1u + want.cells.size());
    rig.stop();
    EXPECT_EQ(rig.worker_stats[0].executed, 1u + want.cells.size());
    EXPECT_EQ(rig.worker_stats[0].failedCells, 1u);
}

TEST(DispatchTest, MaxJobsWorkerHangsUpAfterThatManyJobs)
{
    FleetRig rig("maxjobs");
    rig.addWorker({}, "?max-jobs=1");
    const AnalysisResponse want = rig.expected();

    // The worker leaves after its first job; the cells it held are
    // stolen back and, with no fleet left, finish locally.
    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), want);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (rig.server->dispatcher().liveWorkers() != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(rig.server->dispatcher().liveWorkers(), 0u)
        << "a max-jobs=1 worker must hang up after one job";
    rig.stop();
    EXPECT_EQ(rig.worker_stats[0].executed, 1u);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.cellsCompletedRemote, 1u);
    EXPECT_EQ(stats.cellsLocal, want.cells.size() - 1);
}

} // namespace
} // namespace api
} // namespace gpuperf
