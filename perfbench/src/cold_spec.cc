/**
 * @file
 * cold-spec: the first question a user asks about a new GPU. One
 * client, an in-process AnalysisService with numThreads = nproc and a
 * store that holds only the set-up's entries; every request names a
 * new seeded spec x three small registry kernels. Odd requests re-time
 * an earlier spec of the run (same funcsim fingerprint), even ones
 * change its funcsim fields. Calibration, microbenchmark
 * funcsim + replay and store writes do almost all the work.
 */

#include <atomic>
#include <memory>
#include <thread>

#include "api/service.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

namespace api = gpuperf::api;

namespace {

/**
 * Requests generated per run: several times what a run gets through,
 * within the 108 distinct funcsim fingerprints funcsimVariant() can
 * draw for the even half.
 */
constexpr int kPlanRequests = 96;

struct Setup
{
    std::unique_ptr<api::AnalysisService> service;
    std::string store;
};

/** Service construction, real calibration of the base spec, warm-up. */
Setup
makeSetup(ScratchDir &dir, int i, int threads)
{
    Setup s;
    s.store = dir.fresh("store" + std::to_string(i));
    s.service = std::make_unique<api::AnalysisService>();
    const api::AnalysisRequest warm = coldSpecWarmup(threads, s.store);
    s.service->calibrationFor(warm, baseSpec());
    s.service->run(warm);
    return s;
}

void
noteShare(Report &rep, const ColdSpecPlan &plan, size_t n)
{
    size_t timing_only = 0;
    for (size_t i = 0; i < n; ++i)
        timing_only += plan.timingOnly[i];
    rep.note("new-spec requests", std::to_string(n) + ", timing-only variants " +
                                      std::to_string(timing_only) + " (share " +
                                      std::to_string(n ? static_cast<double>(
                                                             timing_only) /
                                                             n
                                                       : 0.0) +
                                      ")");
}

/**
 * One piecewise pass over plan.requests[0..limit): per request,
 * AnalysisService::calibrationFor on a store-less service, then the
 * piecewise cells. Stops early once @p budget seconds are spent
 * (budget <= 0: no limit).
 */
std::vector<api::AnalysisResponse>
piecewisePass(Tracer &tracer, Piecewise &pw, const ColdSpecPlan &plan,
              size_t limit, double budget)
{
    api::AnalysisService calibrator;
    std::vector<api::AnalysisResponse> out;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < limit; ++i) {
        if (budget > 0.0 && secondsSince(t0) >= budget)
            break;
        api::AnalysisRequest req = plan.requests[i];
        req.store.storeDir.clear();
        tracer.setRequest(i);
        ScopedSpan request(tracer, "request");
        for (const auto &spec : req.specs) {
            TablesPtr tables;
            {
                ScopedSpan span(tracer, "model.calibrate");
                tables = calibrator.calibrationFor(req, spec);
            }
            pw.setTables(spec, tables);
            pw.expectCalibration();
        }
        out.push_back(pw.run(req));
    }
    return out;
}

void
traced(const Args &args, Report &rep, ScratchDir &dir, int threads)
{
    const ColdSpecPlan plan = coldSpecPlan(args.seed, kPlanRequests, threads,
                                           dir.fresh("service-store"));
    Tracer tracer;

    // Pass 1, tracing off: sizes the run and times the untraced path.
    Piecewise quiet(tracer, dir.fresh("pw-quiet"));
    auto t0 = Clock::now();
    const size_t n =
        piecewisePass(tracer, quiet, plan, plan.requests.size(),
                      args.seconds / 3.0)
            .size();
    const double untraced_s = secondsSince(t0);

    // Pass 2, traced, over the same requests.
    tracer.setEnabled(true);
    Piecewise pw(tracer, dir.fresh("pw-traced"));
    t0 = Clock::now();
    const std::vector<api::AnalysisResponse> pieces =
        piecewisePass(tracer, pw, plan, n, 0.0);
    const double traced_s = secondsSince(t0);
    tracer.setEnabled(false);

    // Pass 3, tracing off again, for the overhead's second baseline.
    Piecewise again(tracer, dir.fresh("pw-again"));
    t0 = Clock::now();
    piecewisePass(tracer, again, plan, n, 0.0);
    const double again_s = secondsSince(t0);

    // The service on the same requests: fidelity and counters. One
    // worker thread, so its latency compares with the serial piecewise
    // pass (cells are bit-identical at any thread count).
    api::AnalysisService service;
    std::vector<api::AnalysisResponse> served;
    std::vector<double> service_s;
    for (size_t i = 0; i < n; ++i) {
        api::AnalysisRequest req = plan.requests[i];
        req.exec.numThreads = 1;
        const auto r0 = Clock::now();
        served.push_back(service.run(req));
        service_s.push_back(secondsSince(r0));
    }
    checkResponses(rep, "piecewise vs service", pieces, served);
    noteShare(rep, plan, n);

    LayerMetrics lm;
    const std::vector<double> cal = tracer.durations("model.calibrate");
    for (double s : cal)
        lm.calibrateSeconds += s / static_cast<double>(cal.size());
    lm.calibrations = static_cast<double>(cal.size());
    lm.driverSelfMs = driverSelfMs(tracer, service_s);
    lm.traceOverheadPct = traceOverheadPct(rep, traced_s, untraced_s, again_s);
    crossCheckStores(rep, service.storeStats(), pw.expected(), &lm);
    writeSpans(rep, tracer, args);
    emitLayers(rep, tracer, pw, lm);
}

} // namespace

void
runColdSpec(const Args &args, Report &rep)
{
    const int threads = hwThreads();
    ScratchDir dir("cold-spec");
    if (args.trace) {
        traced(args, rep, dir, threads);
        return;
    }

    Setup s;
    EndToEnd e2e;
    SetupTimer setup;
    const auto setUp = [&](int i) {
        s = Setup{};
        s = makeSetup(dir, i, threads);
    };
    setup.before(setUp);

    const ColdSpecPlan plan =
        coldSpecPlan(args.seed, kPlanRequests, threads, s.store);
    std::vector<api::AnalysisResponse> got;
    const auto t0 = Clock::now();
    for (const api::AnalysisRequest &req : plan.requests) {
        if (secondsSince(t0) >= args.seconds)
            break;
        const auto r0 = Clock::now();
        got.push_back(s.service->run(req));
        e2e.done.push_back({secondsSince(t0), secondsSince(r0) * 1e3,
                            got.back().cells.size()});
    }
    e2e.seconds = secondsSince(t0);
    e2e.peakRssMb = peakRssMb();

    noteShare(rep, plan, got.size());
    rep.note("cold_spec_s", e2e.seconds / static_cast<double>(got.size()),
             "s");
    noteLatency(rep, "request latency", e2e.latencyMs());
    const auto stats = s.service->storeStats();
    rep.note("storeStats raw (incl. set-up)",
             "calibrations writes " + std::to_string(stats.calibrations.writes) +
                 " bytes_read " + std::to_string(stats.calibrations.bytesRead) +
                 " hits " + std::to_string(stats.calibrations.hits) +
                 " misses " + std::to_string(stats.calibrations.misses));

    // The reference: store-less, single-threaded services recalibrating
    // every spec, one per hardware thread.
    std::vector<api::AnalysisResponse> want(got.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            api::AnalysisService reference;
            for (size_t i = next++; i < got.size(); i = next++) {
                api::AnalysisRequest req = plan.requests[i];
                req.store.storeDir.clear();
                req.exec.numThreads = 1;
                want[i] = reference.run(req);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    checkResponses(rep, "cold-spec", got, want);
    noteDigest(rep, got);
    rep.note("model_err_pct", responsesModelErrPct(got), "%");
    setup.after(setUp);
    e2e.setupSeconds = setup.seconds();
    emitEndToEnd(rep, e2e);
}

} // namespace perfbench
