/**
 * @file
 * Scheduling-policy fairness bench: a two-worker fleet under a mixed
 * load — a "bulk" client flooding expensive requests while an
 * "interactive" client trickles cheap ones — run once per scheduling
 * policy (fifo, sjf, fair-share) on an otherwise
 * identical rig. Worker time per cell is pinned by an onJob sleep
 * (bulk cells ~25x dearer than interactive ones), so queueing — the
 * thing the policies differ on — dominates measured latency.
 *
 * Gates (reported in bench_sched_fairness.json):
 *  - every response under every policy is bit-identical
 *    (api::responsesEqual) to the FIFO run — policies reorder WORK,
 *    never results;
 *  - the interactive client's p99 latency under sjf beats FIFO by
 *    >= kSjfGateFactor, and under fair-share by >= kFairGateFactor
 *    (small jobs stop waiting out the flood; fair-share trades a
 *    little of sjf's tail for bulk progress, hence the lower bar).
 * The latency gate is report-only in debug builds (and with
 * GPUPERF_SCHED_GATE=report), like bench_funcsim's speedup gate.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/client.h"
#include "api/codecs.h"
#include "api/dispatch.h"
#include "api/registry.h"
#include "api/server.h"
#include "bench/bench_common.h"

using namespace gpuperf;

namespace {

constexpr double kSjfGateFactor = 1.5;
constexpr double kFairGateFactor = 1.2;

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

/**
 * The bulk client's request: three cells whose big launches make the
 * static cost model price them far above the interactive cells even
 * before any observations land.
 */
api::AnalysisRequest
bulkRequest()
{
    api::AnalysisRequest req;
    req.jobName = "bulk";
    req.clientId = "bulk";
    req.kernels.push_back(api::KernelJob::fromRef(
        "saxpy-big", api::CaseRef{"saxpy", {16, 256}, {2.0}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "conflicted-big",
        api::CaseRef{"shared-conflict", {16, 256, 8, 32}, {}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "hist-big", api::CaseRef{"histogram", {12, 256, 8, 4}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0};
    req.sweep.coalescingFractions = {1.0};
    req.exec.numThreads = 2;
    return req;
}

/** The interactive client's request: one tiny-launch cell. */
api::AnalysisRequest
interactiveRequest()
{
    api::AnalysisRequest req;
    req.jobName = "interactive";
    req.clientId = "interactive";
    req.kernels.push_back(api::KernelJob::fromRef(
        "saxpy-small", api::CaseRef{"saxpy", {2, 64}, {2.0}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0};
    req.sweep.coalescingFractions = {1.0};
    req.exec.numThreads = 2;
    return req;
}

void
adoptBothShapes(api::AnalysisService &service,
                const api::AnalysisRequest &req)
{
    static const auto tables =
        std::make_shared<const model::CalibrationTables>(fakeTables());
    api::AnalysisRequest cell_shaped = req;
    cell_shaped.exec.numThreads = 1;
    for (const arch::GpuSpec &spec : req.specs) {
        service.adoptCalibration(req, spec, tables);
        service.adoptCalibration(cell_shaped, spec, tables);
    }
}

struct PolicyResult
{
    std::string policy;
    std::vector<double> interactiveMs;
    std::vector<api::AnalysisResponse> bulkResponses;
    std::vector<api::AnalysisResponse> interactiveResponses;
    size_t queueDepthPeak = 0;
    std::string error;

    double p99() const
    {
        return bench::percentileMs(interactiveMs, 0.99);
    }
};

/**
 * One full mixed-load pass under @p policy: 3 bulk flooder threads x
 * @p bulkPerFlooder requests against 2 workers (inflight 1), with
 * @p interactiveCount sequential interactive requests timed once the
 * flood's backlog is demonstrably queued.
 */
PolicyResult
runPolicy(const std::string &policy, int bulkPerFlooder,
          int interactiveCount)
{
    PolicyResult out;
    out.policy = policy;

    const std::string sock = "/tmp/gpuperf-sched-fair-" +
                             std::to_string(::getpid()) + "-" + policy +
                             ".sock";
    api::Server server(api::Endpoint::parse(
        "unix:" + sock + "?worker-inflight=1&sched=" + policy,
        api::Endpoint::Role::kServer));
    server.start();

    const api::AnalysisRequest bulk_req = bulkRequest();
    const api::AnalysisRequest inter_req = interactiveRequest();
    adoptBothShapes(server.service(), bulk_req);
    adoptBothShapes(server.service(), inter_req);

    // Two in-thread workers. The onJob sleep pins per-cell service
    // time: queueing policy, not model throughput, decides latency.
    api::AnalysisService worker_service;
    adoptBothShapes(worker_service, bulk_req);
    adoptBothShapes(worker_service, inter_req);
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&server, &worker_service, &sock, w] {
            api::WorkerLoopOptions opts;
            opts.name = "worker-" + std::to_string(w);
            opts.onJob = [](const api::AnalysisRequest &cell) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        cell.clientId == "bulk" ? 40 : 1));
            };
            api::workerServe(
                api::Endpoint::parse("unix:" + sock,
                                     api::Endpoint::Role::kWorker),
                worker_service, nullptr, opts);
            (void)server;
        });
    }
    const auto reg_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.dispatcher().liveWorkers() < 2 &&
           std::chrono::steady_clock::now() < reg_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    constexpr int kFlooders = 3;
    std::vector<std::vector<api::AnalysisResponse>> bulk_got(kFlooders);
    std::vector<std::string> bulk_err(kFlooders);
    std::vector<std::thread> flooders;
    for (int f = 0; f < kFlooders; ++f) {
        flooders.emplace_back([&, f] {
            try {
                api::ServeClient client =
                    api::ServeClient::overUnix(sock);
                for (int r = 0; r < bulkPerFlooder; ++r)
                    bulk_got[f].push_back(client.run(bulk_req));
            } catch (const std::exception &e) {
                bulk_err[f] = e.what();
            }
        });
    }

    // Start timing the interactive client only once the flood has a
    // real backlog queued — that backlog is the experiment.
    const auto queue_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.dispatcher().stats().queueDepth < 6 &&
           std::chrono::steady_clock::now() < queue_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));

    try {
        api::ServeClient client = api::ServeClient::overUnix(sock);
        for (int r = 0; r < interactiveCount; ++r) {
            const auto start = std::chrono::steady_clock::now();
            out.interactiveResponses.push_back(client.run(inter_req));
            const std::chrono::duration<double, std::milli> ms =
                std::chrono::steady_clock::now() - start;
            out.interactiveMs.push_back(ms.count());
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    }

    for (std::thread &t : flooders)
        t.join();
    for (int f = 0; f < kFlooders; ++f) {
        if (!bulk_err[f].empty() && out.error.empty())
            out.error = bulk_err[f];
        for (auto &resp : bulk_got[f])
            out.bulkResponses.push_back(std::move(resp));
    }
    out.queueDepthPeak = server.dispatcher().stats().queueDepthPeak;

    server.stop();
    for (std::thread &t : workers)
        t.join();
    std::remove(sock.c_str());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const int bulk_per_flooder = opts.full ? 5 : 3;
    const int interactive_count = opts.full ? 16 : 10;

    const std::vector<std::string> policies = {"fifo", "sjf",
                                               "fair-share"};
    std::vector<PolicyResult> results;
    for (const std::string &p : policies)
        results.push_back(
            runPolicy(p, bulk_per_flooder, interactive_count));
    const PolicyResult &fifo = results[0];

    // Identity pin: every policy's every response, bulk and
    // interactive, is bit-identical to the FIFO run's.
    size_t mismatches = 0, errors = 0;
    for (const PolicyResult &r : results) {
        if (!r.error.empty()) {
            ++errors;
            std::cerr << r.policy << ": " << r.error << "\n";
            continue;
        }
        if (r.bulkResponses.size() != fifo.bulkResponses.size() ||
            r.interactiveResponses.size() !=
                fifo.interactiveResponses.size()) {
            ++mismatches;
            continue;
        }
        for (const api::AnalysisResponse &resp : r.bulkResponses)
            if (!api::responsesEqual(resp, fifo.bulkResponses[0]))
                ++mismatches;
        for (const api::AnalysisResponse &resp : r.interactiveResponses)
            if (!api::responsesEqual(resp,
                                     fifo.interactiveResponses[0]))
                ++mismatches;
    }

    // Latency gate: the interactive p99 under sjf and fair-share must
    // beat FIFO by each policy's factor.
    bool latency_ok = true;
    const double fifo_p99 = fifo.p99();
    for (const PolicyResult &r : results) {
        if (r.policy == "sjf")
            latency_ok =
                latency_ok && r.p99() * kSjfGateFactor <= fifo_p99;
        else if (r.policy == "fair-share")
            latency_ok =
                latency_ok && r.p99() * kFairGateFactor <= fifo_p99;
    }

    bool latency_gated = true;
#ifndef NDEBUG
    // Debug builds time unoptimized code on shared CI machines; the
    // ordering experiment still runs, the tail gate only reports.
    latency_gated = false;
#endif
    if (const char *mode = std::getenv("GPUPERF_SCHED_GATE");
        mode && std::string(mode) == "report")
        latency_gated = false;

    const bool gate_ok = mismatches == 0 && errors == 0 &&
                         (latency_ok || !latency_gated);

    std::cout << "gpuperf sched fairness: 3 bulk flooders x "
              << bulk_per_flooder << " requests vs "
              << interactive_count
              << " interactive requests, 2 workers, per policy\n";
    Table t({"policy", "interactive p50 ms", "interactive p99 ms",
             "vs fifo", "queue peak"});
    for (const PolicyResult &r : results) {
        const double p99 = r.p99();
        t.addRow({r.policy,
                  Table::num(bench::percentileMs(r.interactiveMs, 0.50),
                             1),
                  Table::num(p99, 1),
                  r.policy == "fifo"
                      ? "-"
                      : Table::num(p99 > 0.0 ? fifo_p99 / p99 : 0.0, 2) +
                            "x",
                  Table::num(static_cast<double>(r.queueDepthPeak), 0)});
    }
    bench::emit(t, opts);
    std::cout << "\n"
              << mismatches << " response mismatches vs fifo, "
              << errors << " errors; interactive p99 gate (>= "
              << Table::num(kSjfGateFactor, 1) << "x sjf, >= "
              << Table::num(kFairGateFactor, 1)
              << "x fair-share vs fifo"
              << (latency_gated ? ") " : ", report-only) ")
              << ((latency_ok || !latency_gated) &&
                          mismatches == 0 && errors == 0
                      ? "PASS"
                      : "FAIL")
              << "\n";
    if (!latency_ok && !latency_gated)
        std::cout << "sched latency gate in report-only mode\n";

    {
        std::ofstream json("bench_sched_fairness.json");
        json << "{\n  \"bench\": \"sched_fairness\",\n  \"gate\": \""
             << (gate_ok ? "pass" : "fail") << "\",\n"
             << "  \"latency_gated\": "
             << (latency_gated ? "true" : "false") << ",\n"
             << "  \"gate_factor_sjf\": " << kSjfGateFactor << ",\n"
             << "  \"gate_factor_fair_share\": " << kFairGateFactor
             << ",\n"
             << "  \"mismatches\": " << mismatches << ",\n"
             << "  \"errors\": " << errors << ",\n  \"policies\": [";
        for (size_t i = 0; i < results.size(); ++i) {
            const PolicyResult &r = results[i];
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n    {\"policy\": \"%s\", \"interactive_p50\": "
                "%.2f, \"interactive_p99\": %.2f, "
                "\"speedup_vs_fifo\": %.2f, \"queue_peak\": %zu}",
                i ? "," : "", r.policy.c_str(),
                bench::percentileMs(r.interactiveMs, 0.50), r.p99(),
                r.p99() > 0.0 ? fifo_p99 / r.p99() : 0.0,
                r.queueDepthPeak);
            json << buf;
        }
        json << "\n  ]\n}\n";
    }
    return gate_ok ? 0 : 1;
}
