/**
 * @file
 * what-if-grid: the paper's Section-5 what-if study. Each round is six
 * seeded hi-occupancy kernels x three timing-only variants of the base
 * spec x a 7-point sweep, on an in-process service (numThreads =
 * nproc) with the base spec's real calibration adopted.
 *  - cold phase: empty store, fresh executor — 6 funcsims and 18
 *    replays run, profile/timing/result entries are written;
 *  - restart phase: AnalysisService::reset() and result reuse off —
 *    the same cells from store reads + extract/predict/sweep.
 */

#include <cmath>
#include <memory>

#include "api/service.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

namespace api = gpuperf::api;

namespace {

struct Setup
{
    std::unique_ptr<api::AnalysisService> service;
    TablesPtr tables;
};

/** The base spec's real calibration, adopted for every grid spec. */
void
adopt(api::AnalysisService &service, const api::AnalysisRequest &req,
      const TablesPtr &tables)
{
    for (const auto &spec : req.specs)
        service.adoptCalibration(req, spec, tables);
}

api::AnalysisRequest
restartOf(api::AnalysisRequest req)
{
    req.store.reuseStoredResults = false;
    return req;
}

/** Service construction, real base calibration, one warm-up round. */
Setup
makeSetup(ScratchDir &dir, int i, int threads)
{
    Setup s;
    s.service = std::make_unique<api::AnalysisService>();
    api::AnalysisRequest warm = gridRequest(
        0, -1 - i, threads, dir.fresh("setup" + std::to_string(i)));
    warm.kernels.resize(2);
    warm.specs.resize(1);
    s.tables = s.service->calibrationFor(warm, baseSpec());
    adopt(*s.service, warm, s.tables);
    s.service->run(warm);
    s.service->reset();
    return s;
}

void
noteGrid(Report &rep, size_t rounds)
{
    rep.note("grid shape",
             std::to_string(kGridKernels) + " kernels x " +
                 std::to_string(kGridSpecs) + " timing-only specs x 7 sweep "
                                              "points, " +
                 std::to_string(rounds) + " rounds");
}

void
traced(const Args &args, Report &rep, ScratchDir &dir, int threads)
{
    Tracer tracer;
    api::AnalysisService calibrator;
    const TablesPtr tables = calibrator.calibrationFor(
        gridRequest(args.seed, 0, threads, ""), baseSpec());

    // One cold + restart round through the piecewise pipeline.
    const auto round = [&](Piecewise &pw, int r,
                           std::vector<api::AnalysisResponse> *out) {
        const api::AnalysisRequest req =
            gridRequest(args.seed, r, threads, "");
        pw.resetStore(dir.fresh("pw-round"));
        for (const auto &spec : req.specs)
            pw.setTables(spec, tables);
        {
            tracer.setRequest(2 * r);
            ScopedSpan span(tracer, "request");
            out->push_back(pw.run(req));
        }
        pw.forgetMemos();
        for (const auto &spec : req.specs)
            pw.setTables(spec, tables);
        tracer.setRequest(2 * r + 1);
        ScopedSpan span(tracer, "request");
        out->push_back(pw.run(restartOf(req)));
    };

    // Pass 1, tracing off: sizes the run and times the untraced path.
    tracer.setEnabled(false);
    std::vector<api::AnalysisResponse> scratch;
    Piecewise quiet(tracer, "");
    int rounds = 0;
    auto t0 = Clock::now();
    while (rounds == 0 || secondsSince(t0) < args.seconds / 3.0)
        round(quiet, rounds++, &scratch);
    const double untraced_s = secondsSince(t0);

    // Pass 2, traced, over the same rounds.
    tracer.setEnabled(true);
    std::vector<api::AnalysisResponse> pieces;
    Piecewise pw(tracer, "");
    t0 = Clock::now();
    for (int r = 0; r < rounds; ++r)
        round(pw, r, &pieces);
    const double traced_s = secondsSince(t0);
    tracer.setEnabled(false);

    // Pass 3, tracing off again, for the overhead's second baseline.
    Piecewise again(tracer, "");
    t0 = Clock::now();
    for (int r = 0; r < rounds; ++r)
        round(again, r, &scratch);
    const double again_s = secondsSince(t0);

    // The service on the same rounds: fidelity, counters, self time.
    // One worker thread, so its latency compares with the serial
    // piecewise pass (cells are bit-identical at any thread count).
    api::AnalysisService service;
    std::vector<api::AnalysisResponse> served;
    std::vector<double> service_s;
    for (int r = 0; r < rounds; ++r) {
        const api::AnalysisRequest req = gridRequest(
            args.seed, r, 1, dir.fresh("service-round"));
        adopt(service, req, tables);
        auto r0 = Clock::now();
        served.push_back(service.run(req));
        service_s.push_back(secondsSince(r0));
        service.reset();
        const api::AnalysisRequest again = restartOf(req);
        adopt(service, again, tables);
        r0 = Clock::now();
        served.push_back(service.run(again));
        service_s.push_back(secondsSince(r0));
        service.reset();
    }
    checkResponses(rep, "piecewise vs service", pieces, served);
    noteGrid(rep, static_cast<size_t>(rounds));

    LayerMetrics lm;
    lm.driverSelfMs = driverSelfMs(tracer, service_s);
    lm.traceOverheadPct = traceOverheadPct(rep, traced_s, untraced_s, again_s);
    crossCheckStores(rep, service.storeStats(), pw.expected(), &lm);
    writeSpans(rep, tracer, args);
    emitLayers(rep, tracer, pw, lm);
}

} // namespace

void
runWhatIfGrid(const Args &args, Report &rep)
{
    const int threads = hwThreads();
    ScratchDir dir("what-if-grid");
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

    // Each round's responses are checked right after the round, outside
    // the timed requests, and then dropped: memory stays flat however
    // many rounds a run completes.
    std::vector<double> restart_ms, errors;
    uint64_t restart_cells = 0, mismatches = 0;
    uint64_t digest = 0xcbf29ce484222325ull;
    double timed_s = 0.0, restart_s = 0.0;
    const auto t0 = Clock::now();
    int rounds = 0;
    for (; timed_s < args.seconds; ++rounds) {
        const api::AnalysisRequest req = gridRequest(
            args.seed, rounds, threads, dir.fresh("round"));

        auto r0 = Clock::now();
        adopt(*s.service, req, s.tables);
        const api::AnalysisResponse cold = s.service->run(req);
        const double cold_s = secondsSince(r0);
        e2e.done.push_back({secondsSince(t0), cold_s * 1e3, cold.cells.size()});

        r0 = Clock::now();
        s.service->reset();
        const api::AnalysisRequest again = restartOf(req);
        adopt(*s.service, again, s.tables);
        const api::AnalysisResponse restart = s.service->run(again);
        const double warm_s = secondsSince(r0);
        restart_ms.push_back(warm_s * 1e3);
        restart_s += warm_s;
        restart_cells += restart.cells.size();
        s.service->reset();
        timed_s += cold_s + warm_s;
        e2e.peakRssMb = peakRssMb();

        // The references: restart against cold, cold against a
        // store-less in-process service.
        api::AnalysisRequest plain = req;
        plain.store.storeDir.clear();
        api::AnalysisService reference;
        adopt(reference, plain, s.tables);
        const api::AnalysisResponse want = reference.run(plain);
        std::string why;
        if (!sameResponse(restart, cold, &why))
            rep.fail("round " + std::to_string(rounds) +
                     ": restart differs from cold: " + why);
        else if (!sameResponse(cold, want, &why))
            rep.fail("round " + std::to_string(rounds) +
                     ": cold differs from the reference: " + why);
        else
            why.clear();
        mismatches += !why.empty();
        digest = digestResponse(cold, digest);
        for (const auto &cell : cold.cells)
            errors.push_back(std::fabs(cell.analysis.errorFraction()));
    }
    e2e.seconds = timed_s;
    rep.tally(2 * static_cast<uint64_t>(rounds), mismatches);

    noteGrid(rep, static_cast<size_t>(rounds));
    noteLatency(rep, "cold request latency", e2e.latencyMs());
    noteLatency(rep, "restart request latency", restart_ms);
    rep.note("restart_cells_per_s",
             static_cast<double>(restart_cells) / restart_s, "cells/s");
    rep.note("rounds checked bit-for-bit (restart vs cold, cold vs "
             "reference)",
             std::to_string(rounds) + ", mismatching rounds " +
                 std::to_string(mismatches));
    rep.note("response digest", hex64(digest) + " over " +
                                    std::to_string(rounds) +
                                    " cold responses");
    rep.note("model_err_pct", modelErrPct(errors), "%");
    setup.after(setUp);
    e2e.setupSeconds = setup.seconds();
    emitEndToEnd(rep, e2e);
}

} // namespace perfbench
