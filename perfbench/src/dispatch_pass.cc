/**
 * @file
 * The dispatch pass of serve-mixed's traced run: an api::Server on a
 * unix socket with two in-process workers (api::workerServe threads,
 * each with its own AnalysisService and the base spec's real
 * calibration adopted) and two closed-loop clients. Every request
 * carries kernel arguments never repeated within a run, so every cell
 * is dispatched and runs funcsim + replay on a worker: the dispatcher
 * and the sched pending queue are on the path.
 */

#include <atomic>
#include <memory>
#include <thread>

#include "api/client.h"
#include "api/dispatch.h"
#include "api/server.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

namespace api = gpuperf::api;

namespace {

constexpr int kWorkers = 2;
constexpr int kClients = 2;
/** Request indices at and above this are set-up warm-ups. */
constexpr uint64_t kWarmupBase = 1u << 20;

/** The server, its workers and the calibration they share. */
class Fleet
{
  public:
    Fleet(ScratchDir &dir, int i)
    {
        socket_ = dir.path() + "/f" + std::to_string(i) + ".sock";
        server_ = std::make_unique<api::Server>(api::Endpoint::parse(
            "unix:" + socket_, api::Endpoint::Role::kServer));
        server_->start();
        const api::AnalysisRequest shape = fleetRequest(0, 0, 0);
        tables_ = server_->service().calibrationFor(shape, baseSpec());
        for (int w = 0; w < kWorkers; ++w) {
            services_.push_back(std::make_unique<api::AnalysisService>());
            services_.back()->adoptCalibration(shape, baseSpec(), tables_);
        }
        const api::Endpoint ep = api::Endpoint::parse(
            "unix:" + socket_, api::Endpoint::Role::kWorker);
        for (int w = 0; w < kWorkers; ++w) {
            workers_.emplace_back([this, ep, w] {
                try {
                    api::WorkerLoopOptions opts;
                    opts.name = "bench-worker-" + std::to_string(w);
                    api::workerServe(ep, *services_[w], &stop_, opts);
                } catch (const std::exception &) {
                    // Registration failure shows as a missing worker.
                }
            });
        }
        const auto t0 = Clock::now();
        while (server_->dispatcher().liveWorkers() <
                   static_cast<size_t>(kWorkers) &&
               secondsSince(t0) < 30.0)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (server_->dispatcher().liveWorkers() <
            static_cast<size_t>(kWorkers)) {
            shutdown();
            throw std::runtime_error("fleet workers failed to register");
        }
    }

    ~Fleet() { shutdown(); }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    void shutdown()
    {
        stop_ = true;
        if (server_)
            server_->stop();
        for (auto &t : workers_)
            if (t.joinable())
                t.join();
    }

    api::Server &server() { return *server_; }
    const std::string &socket() const { return socket_; }
    const TablesPtr &tables() const { return tables_; }

  private:
    std::string socket_;
    std::unique_ptr<api::Server> server_;
    TablesPtr tables_;
    std::vector<std::unique_ptr<api::AnalysisService>> services_;
    std::atomic<bool> stop_{false};
    std::vector<std::thread> workers_;
};

struct ClientLog
{
    /**
     * Response digests, in request order (memory stays flat however
     * long the pass).
     */
    std::vector<uint64_t> digests;
    std::string error;
};

/**
 * Run kClients closed-loop clients; client c sends
 * fleetRequest(seed, c, i) for i = 0, 1, ... while more().
 */
template <typename More>
std::vector<ClientLog>
drive(std::vector<api::ServeClient> &conns, uint64_t seed, More more)
{
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog &log = logs[c];
            try {
                for (uint64_t i = 0; more(); ++i)
                    log.digests.push_back(digestResponse(
                        conns[c].run(fleetRequest(seed, c, i)), 0));
            } catch (const std::exception &e) {
                log.error = e.what();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return logs;
}

/**
 * Recompute every logged request in-process (one store-less service
 * per hardware thread, calibration adopted) and count the responses
 * whose digest differs from the served one.
 */
uint64_t
referenceMismatches(const std::vector<ClientLog> &logs, uint64_t seed,
                    const TablesPtr &tables)
{
    std::vector<std::pair<int, uint64_t>> work;
    for (int c = 0; c < kClients; ++c)
        for (uint64_t i = 0; i < logs[c].digests.size(); ++i)
            work.emplace_back(c, i);
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < hwThreads(); ++t) {
        threads.emplace_back([&] {
            api::AnalysisService reference;
            for (size_t k = next++; k < work.size(); k = next++) {
                const auto [c, i] = work[k];
                const api::AnalysisRequest req = fleetRequest(seed, c, i);
                reference.adoptCalibration(req, baseSpec(), tables);
                const api::AnalysisResponse want = reference.run(req);
                bool ok = digestResponse(want, 0) == logs[c].digests[i];
                for (const auto &cell : want.cells)
                    ok = ok && cell.ok;
                if (!ok)
                    ++bad;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return bad.load();
}

std::vector<api::ServeClient>
connect(Fleet &fleet, uint64_t seed)
{
    std::vector<api::ServeClient> conns;
    for (int c = 0; c < kClients; ++c) {
        conns.push_back(api::ServeClient::overUnix(fleet.socket()));
        conns.back().run(fleetRequest(seed, c, kWarmupBase));
    }
    return conns;
}

/** Fill the sched/dispatch layer metrics from the server's stats. */
void
fleetLayers(const api::DispatchStats &f, LayerMetrics *lm)
{
    const double waits = static_cast<double>(f.waitSmallCount +
                                             f.waitLargeCount);
    lm->queueWaitMs =
        waits > 0 ? (f.waitSmallMsTotal + f.waitLargeMsTotal) / waits : 0.0;
    lm->queueDepthPeak = static_cast<double>(f.queueDepthPeak);
    lm->costErrMs = f.costErrorSamples
                        ? f.costErrorAbsMsSum /
                              static_cast<double>(f.costErrorSamples)
                        : 0.0;
    const double done =
        static_cast<double>(f.cellsCompletedRemote + f.cellsLocal);
    lm->remoteShare =
        done > 0 ? static_cast<double>(f.cellsCompletedRemote) / done : 0.0;
    lm->redispatched = static_cast<double>(f.cellsRedispatched);
    lm->localCells = static_cast<double>(f.cellsLocal);
}

} // namespace

void
measureDispatch(const Args &args, Report &rep, ScratchDir &dir,
                double seconds, LayerMetrics *lm)
{
    Fleet fleet(dir, 99);
    std::vector<api::ServeClient> conns = connect(fleet, args.seed);
    const auto t0 = Clock::now();
    const auto logs = drive(conns, args.seed,
                            [&] { return secondsSince(t0) < seconds; });
    fleetLayers(fleet.server().stats().fleet, lm);
    conns.clear();
    fleet.shutdown();
    uint64_t served = 0;
    for (const ClientLog &log : logs) {
        if (!log.error.empty())
            rep.fail("dispatch client: " + log.error);
        served += log.digests.size();
    }
    const uint64_t mismatches =
        referenceMismatches(logs, args.seed, fleet.tables());
    if (mismatches)
        rep.fail(std::to_string(mismatches) +
                 " dispatched responses differ from their in-process "
                 "reference");
    rep.tally(served, mismatches);
    rep.note("dispatch pass (fleet traffic, " + std::to_string(kWorkers) +
                 " workers)",
             std::to_string(served) + " requests checked, mismatches " +
                 std::to_string(mismatches));
}

} // namespace perfbench
