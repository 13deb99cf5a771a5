/**
 * @file
 * serve-mixed: an in-process api::Server with one unix and one TCP
 * listener; nproc closed-loop clients split evenly between the two,
 * each drawing small requests (1-3 kernels x 1-2 specs, small sweep)
 * from a seeded pool with numThreads = 1. The whole pool is executed
 * once in set-up, so every timed cell finds its calibration and its
 * timing replay memoized in the executor. No store: the executor keeps
 * no profile across requests, so each request re-runs the small
 * functional simulations, then extract/predict/sweep; frames, codecs,
 * admission, executor lookup and the task graph make up the rest.
 */

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "api/client.h"
#include "api/codecs.h"
#include "api/server.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

namespace api = gpuperf::api;

namespace {

/** Distinct requests in the pool (the working set). */
constexpr int kPoolSize = 32;

struct Setup
{
    std::unique_ptr<api::Server> server;
    std::string socket;
    TablesPtr tables;
    std::vector<api::AnalysisRequest> pool;
    /** In-process responses of the pool: the references. */
    std::vector<api::AnalysisResponse> want;
};

/** Server start, real base calibration, pool executed once. */
Setup
makeSetup(ScratchDir &dir, int i, uint64_t seed)
{
    Setup s;
    s.socket = dir.path() + "/s" + std::to_string(i) + ".sock";
    s.server = std::make_unique<api::Server>(std::vector<api::Endpoint>{
        api::Endpoint::parse("unix:" + s.socket,
                             api::Endpoint::Role::kServer),
        api::Endpoint::parse("tcp:127.0.0.1:0",
                             api::Endpoint::Role::kServer)});
    s.server->start();
    s.pool = servePool(seed, kPoolSize);
    api::AnalysisService &service = s.server->service();
    s.tables = service.calibrationFor(s.pool[0], baseSpec());
    for (const auto &spec : serveSpecs(seed))
        service.adoptCalibration(s.pool[0], spec, s.tables);
    for (const auto &req : s.pool)
        s.want.push_back(service.run(req));
    return s;
}

api::ServeClient
clientFor(const Setup &s, int c)
{
    return c % 2 == 0 ? api::ServeClient::overUnix(s.socket)
                      : api::ServeClient::overTcp("127.0.0.1",
                                                  s.server->tcpPort());
}

struct ClientLog
{
    std::vector<Completion> done;
    std::set<size_t> drawn;
    uint64_t mismatches = 0;
    std::string firstMismatch;
    std::string error;
};

void
traced(const Args &args, Report &rep, ScratchDir &dir)
{
    Setup s = makeSetup(dir, 0, args.seed);
    Tracer tracer;
    // Three piecewise instances (untraced, traced and untraced again),
    // each warmed with the pool like the service's executor.
    Piecewise quiet(tracer, ""), pw(tracer, ""), again(tracer, "");
    for (Piecewise *p : {&quiet, &pw, &again}) {
        for (const auto &spec : serveSpecs(args.seed))
            p->setTables(spec, s.tables);
        for (const auto &req : s.pool)
            p->run(req);
        p->clearCounts();
    }

    // Client 0's draws, piecewise: pass 1 untraced sizes the run.
    std::vector<api::AnalysisRequest> reqs;
    std::vector<api::AnalysisResponse> scratch;
    auto t0 = Clock::now();
    for (uint64_t i = 0; i == 0 || secondsSince(t0) < args.seconds / 5.0;
         ++i) {
        reqs.push_back(
            s.pool[serveDraw(args.seed, 0, i, s.pool.size())]);
        scratch.push_back(quiet.run(reqs.back()));
    }
    const double untraced_s = secondsSince(t0);

    tracer.setEnabled(true);
    std::vector<api::AnalysisResponse> pieces;
    t0 = Clock::now();
    for (size_t i = 0; i < reqs.size(); ++i) {
        tracer.setRequest(i);
        ScopedSpan span(tracer, "request");
        pieces.push_back(pw.run(reqs[i]));
    }
    const double traced_s = secondsSince(t0);
    tracer.setEnabled(false);

    // Pass 3, tracing off again, for the overhead's second baseline.
    t0 = Clock::now();
    for (const auto &req : reqs)
        scratch.push_back(again.run(req));
    const double again_s = secondsSince(t0);

    // In-process and served (unix) executions of the same requests.
    api::AnalysisService &service = s.server->service();
    std::vector<api::AnalysisResponse> inproc, served;
    std::vector<double> inproc_s, served_ms;
    for (const auto &req : reqs) {
        const auto r0 = Clock::now();
        inproc.push_back(service.run(req));
        inproc_s.push_back(secondsSince(r0));
    }
    const auto counters = service.storeStats();
    api::ServeClient unix_client = clientFor(s, 0);
    for (const auto &req : reqs) {
        const auto r0 = Clock::now();
        served.push_back(unix_client.run(req));
        served_ms.push_back(secondsSince(r0) * 1e3);
    }
    checkResponses(rep, "piecewise vs service", pieces, inproc);
    checkResponses(rep, "served vs piecewise", served, pieces);

    LayerMetrics lm;
    lm.driverSelfMs = driverSelfMs(tracer, inproc_s);
    lm.serverOverheadMs = median(served_ms) - median(inproc_s) * 1e3;
    lm.traceOverheadPct = traceOverheadPct(rep, traced_s, untraced_s, again_s);

    const size_t probe = std::min<size_t>(reqs.size(), 64);
    apiProbes(rep, tracer,
              std::vector<api::AnalysisRequest>(reqs.begin(),
                                                reqs.begin() + probe),
              std::vector<api::AnalysisResponse>(pieces.begin(),
                                                 pieces.begin() + probe),
              &lm);
    s.server->stop();

    crossCheckStores(rep, counters, pw.expected(), &lm);
    measureDispatch(args, rep, dir, args.seconds / 5.0, &lm);
    writeSpans(rep, tracer, args);
    emitLayers(rep, tracer, pw, lm);
}

} // namespace

void
runServeMixed(const Args &args, Report &rep)
{
    const int clients = std::max(2, hwThreads());
    ScratchDir dir("serve-mixed");
    if (args.trace) {
        traced(args, rep, dir);
        return;
    }

    Setup s;
    std::vector<api::ServeClient> conns;
    EndToEnd e2e;
    SetupTimer setup;
    const auto setUp = [&](int i) {
        conns.clear();
        s = Setup{};
        s = makeSetup(dir, i, args.seed);
        // Connect every client with one warm request.
        for (int c = 0; c < clients; ++c) {
            conns.push_back(clientFor(s, c));
            conns.back().run(s.pool[0]);
        }
    };
    setup.before(setUp);

    std::vector<ClientLog> logs(clients);
    std::atomic<bool> go{false};
    Clock::time_point t0;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            while (!go.load())
                std::this_thread::yield();
            ClientLog &log = logs[c];
            try {
                for (uint64_t i = 0; secondsSince(t0) < args.seconds; ++i) {
                    const size_t idx =
                        serveDraw(args.seed, c, i, s.pool.size());
                    const auto r0 = Clock::now();
                    const api::AnalysisResponse got =
                        conns[c].run(s.pool[idx]);
                    log.done.push_back({secondsSince(t0),
                                        secondsSince(r0) * 1e3,
                                        got.cells.size()});
                    // Checked against the set-up's in-process run of
                    // the same pool request, outside the latency.
                    std::string why;
                    if (!sameResponse(got, s.want[idx], &why) &&
                        log.mismatches++ == 0)
                        log.firstMismatch = got.jobName + ": " + why;
                    log.drawn.insert(idx);
                }
            } catch (const std::exception &e) {
                log.error = e.what();
            }
        });
    }
    t0 = Clock::now();
    go = true;
    for (auto &t : threads)
        t.join();
    e2e.seconds = secondsSince(t0);
    e2e.concurrent = true;
    e2e.peakRssMb = peakRssMb();
    const api::ServerStats stats = s.server->stats();
    conns.clear();
    s.server->stop();

    std::vector<double> unix_ms, tcp_ms;
    std::set<size_t> distinct;
    uint64_t mismatches = 0;
    for (int c = 0; c < clients; ++c) {
        const ClientLog &log = logs[c];
        if (!log.error.empty())
            rep.fail("client " + std::to_string(c) + ": " + log.error);
        if (log.mismatches)
            rep.fail("client " + std::to_string(c) + ": " +
                     std::to_string(log.mismatches) +
                     " responses differ from the in-process run, first " +
                     log.firstMismatch);
        mismatches += log.mismatches;
        auto &bucket = c % 2 == 0 ? unix_ms : tcp_ms;
        for (const Completion &done : log.done)
            bucket.push_back(done.ms);
        e2e.done.insert(e2e.done.end(), log.done.begin(), log.done.end());
        distinct.insert(log.drawn.begin(), log.drawn.end());
    }
    if (stats.rejectedRequests || stats.disconnects || stats.rejectedClients)
        rep.fail("server refused or dropped work: " +
                 std::to_string(stats.rejectedRequests) + " rejected, " +
                 std::to_string(stats.disconnects) + " disconnects");
    rep.tally(e2e.done.size() + stats.rejectedRequests,
              mismatches + stats.rejectedRequests);

    rep.note("clients", std::to_string(clients) + " (" +
                            std::to_string((clients + 1) / 2) + " unix, " +
                            std::to_string(clients / 2) + " tcp)");
    rep.note("working set",
             std::to_string(distinct.size()) + " distinct of a " +
                 std::to_string(kPoolSize) + "-request pool; repeat share " +
                 std::to_string(1.0 - static_cast<double>(distinct.size()) /
                                          static_cast<double>(
                                              e2e.done.size())));
    noteLatency(rep, "unix latency", unix_ms);
    noteLatency(rep, "tcp latency", tcp_ms);
    rep.note("served responses checked bit-for-bit",
             std::to_string(e2e.done.size()) + ", mismatches " +
                 std::to_string(mismatches));
    noteDigest(rep, s.want);
    rep.note("model_err_pct", responsesModelErrPct(s.want), "%");
    setup.after(setUp);
    conns.clear();
    s.server->stop();
    e2e.setupSeconds = setup.seconds();
    emitEndToEnd(rep, e2e);
}

} // namespace perfbench
