#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "api/codecs.h"
#include "store/serializer.h"
#include "workloads.h"

namespace perfbench {

namespace api = gpuperf::api;

std::vector<double>
EndToEnd::latencyMs() const
{
    std::vector<double> ms;
    for (const Completion &c : done)
        ms.push_back(c.ms);
    return ms;
}

uint64_t
EndToEnd::cells() const
{
    uint64_t n = 0;
    for (const Completion &c : done)
        n += c.cells;
    return n;
}

void
emitEndToEnd(Report &rep, const EndToEnd &e2e)
{
    std::vector<double> req_rates, cell_rates;
    if (e2e.concurrent) {
        // About 1-second slices tiling the timed phase exactly.
        const size_t slices =
            std::max<size_t>(1, static_cast<size_t>(e2e.seconds));
        const double width = e2e.seconds / static_cast<double>(slices);
        req_rates.assign(slices, 0.0);
        cell_rates.assign(slices, 0.0);
        for (const Completion &c : e2e.done) {
            const size_t k = static_cast<size_t>(c.endSeconds / width);
            if (k < slices) {
                req_rates[k] += 1.0 / width;
                cell_rates[k] += static_cast<double>(c.cells) / width;
            }
        }
    } else {
        // One client: totals over the timed requests, so a change to
        // some of the requests (say the timing-only half of cold-spec)
        // moves the rates even where it cannot move the median latency.
        double busy_s = 0.0;
        for (const Completion &c : e2e.done)
            busy_s += c.ms / 1e3;
        req_rates.push_back(static_cast<double>(e2e.done.size()) / busy_s);
        cell_rates.push_back(static_cast<double>(e2e.cells()) / busy_s);
    }
    rep.note("timed requests", std::to_string(e2e.done.size()) + " (" +
                                   std::to_string(e2e.cells()) +
                                   " cells) in " +
                                   std::to_string(e2e.seconds) + " s");
    rep.metric("setup_s", e2e.setupSeconds, "s");
    rep.metric("p50_ms", median(e2e.latencyMs()), "ms");
    rep.metric("req_per_s", median(req_rates), "req/s");
    rep.metric("cells_per_s", median(cell_rates), "cells/s");
    rep.metric("peak_rss_mb", e2e.peakRssMb, "MiB");
}

void
noteLatency(Report &rep, const std::string &name,
            const std::vector<double> &ms)
{
    const auto tail = supportedTail(ms);
    std::string line = "p50 " + std::to_string(percentile(ms, 0.5)) + " ms";
    if (!tail.first.empty() && tail.first != "p50")
        line += ", " + tail.first + " " + std::to_string(tail.second) + " ms";
    line += " (" + std::to_string(ms.size()) + " samples)";
    rep.note(name, line);
}

bool
sameResponse(const api::AnalysisResponse &got,
             const api::AnalysisResponse &want, std::string *why)
{
    if (!api::responsesEqual(got, want, why))
        return false;
    for (const auto &cell : got.cells) {
        if (!cell.ok) {
            *why = "cell " + cell.kernelName + "@" + cell.specName +
                   " failed: " + cell.error;
            return false;
        }
    }
    return true;
}

void
checkResponses(Report &rep, const std::string &what,
               const std::vector<api::AnalysisResponse> &got,
               const std::vector<api::AnalysisResponse> &want)
{
    uint64_t failed = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        std::string why;
        const bool ok = i < want.size() && sameResponse(got[i], want[i], &why);
        if (!ok) {
            ++failed;
            rep.fail(what + " response " + std::to_string(i) + " (" +
                     got[i].jobName + ") differs from its reference" +
                     (why.empty() ? "" : ": " + why));
        }
    }
    if (got.size() != want.size())
        rep.fail(what + ": " + std::to_string(got.size()) +
                 " responses against " + std::to_string(want.size()) +
                 " references");
    rep.tally(got.size(), failed);
    rep.note(what + " responses checked bit-for-bit",
             std::to_string(got.size()) + ", mismatches " +
                 std::to_string(failed));
}

void
noteDigest(Report &rep, const std::vector<api::AnalysisResponse> &resps)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &r : resps)
        h = digestResponse(r, h);
    rep.note("response digest", hex64(h) + " over " +
                                    std::to_string(resps.size()) +
                                    " responses");
}

double
responsesModelErrPct(const std::vector<api::AnalysisResponse> &resps)
{
    std::vector<double> errors;
    for (const auto &r : resps)
        for (const auto &cell : r.cells)
            if (cell.ok)
                errors.push_back(std::fabs(cell.analysis.errorFraction()));
    return modelErrPct(errors);
}

namespace {

double
medianUs(const Tracer &tracer, const char *name)
{
    return median(tracer.durations(name)) * 1e6;
}

double
ratePerSecond(double work, double seconds)
{
    return seconds > 0.0 ? work / seconds : 0.0;
}

} // namespace

void
emitLayers(Report &rep, const Tracer &tracer, const Piecewise &pw,
           const LayerMetrics &lm)
{
    const LayerCounts &c = pw.counts();
    const double funcsim_s = tracer.total("funcsim.profile");
    const double timing_s = tracer.total("timing.replay");
    const gpuperf::store::StoreStats own = pw.storeStats();

    rep.metric("model.calibrate_s", lm.calibrateSeconds, "s");
    rep.metric("model.calibrations", lm.calibrations, "count");
    rep.metric("funcsim.warp_instrs_per_s",
               ratePerSecond(static_cast<double>(c.warpInstrs), funcsim_s),
               "1/s");
    rep.metric("funcsim.busy_s", funcsim_s, "s");
    rep.metric("funcsim.runs", static_cast<double>(c.funcsimRuns), "count");
    rep.metric("timing.warp_ops_per_s",
               ratePerSecond(static_cast<double>(c.warpOps), timing_s), "1/s");
    rep.metric("timing.busy_s", timing_s, "s");
    rep.metric("timing.replays", static_cast<double>(c.replays), "count");
    rep.metric("model.extract_us", medianUs(tracer, "model.extract"), "us");
    rep.metric("model.predict_us", medianUs(tracer, "model.predict"), "us");
    rep.metric("driver.sweep_us", medianUs(tracer, "driver.sweep"), "us");
    rep.metric("driver.self_ms", lm.driverSelfMs, "ms");
    rep.metric("store.write_us", medianUs(tracer, "store.write"), "us");
    rep.metric("store.read_us", medianUs(tracer, "store.read"), "us");
    rep.metric("store.bytes_written", static_cast<double>(own.bytesWritten),
               "bytes");
    rep.metric("store.bytes_read", static_cast<double>(own.bytesRead),
               "bytes");
    rep.metric("store.profiles.hit_ratio", lm.profileHitRatio, "fraction");
    rep.metric("store.timings.hit_ratio", lm.timingHitRatio, "fraction");
    rep.metric("store.results.hit_ratio", lm.resultHitRatio, "fraction");
    rep.metric("store.calibrations.hit_ratio", lm.calibrationHitRatio,
               "fraction");
    rep.metric("store.counter_mismatches", lm.counterMismatches, "count");
    rep.metric("api.materialize_us", medianUs(tracer, "api.materialize"),
               "us");
    rep.metric("api.encode_MBps", lm.codecs.encodeMBps, "MB/s");
    rep.metric("api.decode_MBps", lm.codecs.decodeMBps, "MB/s");
    rep.metric("api.json_encode_MBps", lm.codecs.jsonEncodeMBps, "MB/s");
    rep.metric("api.json_decode_MBps", lm.codecs.jsonDecodeMBps, "MB/s");
    rep.metric("api.frame_rtt_unix_us", lm.frameRttUnixUs, "us");
    rep.metric("api.frame_rtt_tcp_us", lm.frameRttTcpUs, "us");
    rep.metric("api.server_overhead_ms", lm.serverOverheadMs, "ms");
    rep.metric("sched.queue_wait_ms", lm.queueWaitMs, "ms");
    rep.metric("sched.queue_depth_peak", lm.queueDepthPeak, "count");
    rep.metric("sched.cost_err_ms", lm.costErrMs, "ms");
    rep.metric("dispatch.remote_share", lm.remoteShare, "fraction");
    rep.metric("dispatch.redispatched", lm.redispatched, "count");
    rep.metric("dispatch.local_cells", lm.localCells, "count");
    rep.metric("model.err_pct", modelErrPct(c.modelErrors), "%");
    rep.metric("trace.overhead_pct", lm.traceOverheadPct, "%");
}

namespace {

/** One store kind's cross-check; returns the mismatching fields. */
int
crossCheckOne(Report &rep, const char *kind,
              const gpuperf::store::StoreStats &got, const StoreOps &want,
              double *ratio)
{
    int bad = 0;
    bad += got.hits != want.hits;
    bad += got.misses != want.misses;
    bad += got.writes != want.writes;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "service hits %llu misses %llu writes %llu bytes_read %llu "
                  "bytes_written %llu | expected hits %llu misses %llu "
                  "writes %llu%s",
                  static_cast<unsigned long long>(got.hits),
                  static_cast<unsigned long long>(got.misses),
                  static_cast<unsigned long long>(got.writes),
                  static_cast<unsigned long long>(got.bytesRead),
                  static_cast<unsigned long long>(got.bytesWritten),
                  static_cast<unsigned long long>(want.hits),
                  static_cast<unsigned long long>(want.misses),
                  static_cast<unsigned long long>(want.writes),
                  bad ? " (DISAGREE)" : "");
    rep.note(std::string("store.") + kind, line);
    const uint64_t lookups = got.hits + got.misses;
    if (bad)
        *ratio = -1.0;
    else
        *ratio = lookups ? static_cast<double>(got.hits) /
                               static_cast<double>(lookups)
                         : 0.0;
    return bad;
}

} // namespace

void
crossCheckStores(Report &rep, const gpuperf::store::StoreLayerStats &got,
                 const ExpectedStore &want, LayerMetrics *lm)
{
    int bad = 0;
    bad += crossCheckOne(rep, "profiles", got.profiles, want.profiles,
                         &lm->profileHitRatio);
    bad += crossCheckOne(rep, "timings", got.timings, want.timings,
                         &lm->timingHitRatio);
    bad += crossCheckOne(rep, "results", got.results, want.results,
                         &lm->resultHitRatio);
    bad += crossCheckOne(rep, "calibrations", got.calibrations,
                         want.calibrations, &lm->calibrationHitRatio);
    lm->counterMismatches = bad;
}

double
driverSelfMs(const Tracer &tracer, const std::vector<double> &service_seconds)
{
    const std::vector<double> whole = tracer.durations("request");
    const std::vector<double> self = tracer.selfTimes("request");
    std::vector<double> ms;
    for (size_t i = 0; i < whole.size() && i < service_seconds.size(); ++i)
        ms.push_back((service_seconds[i] - (whole[i] - self[i])) * 1e3);
    return median(ms);
}

void
apiProbes(Report &rep, Tracer &tracer,
          const std::vector<api::AnalysisRequest> &reqs,
          const std::vector<api::AnalysisResponse> &resps, LayerMetrics *lm)
{
    tracer.setEnabled(true);
    lm->codecs = measureCodecs(tracer, reqs, resps);
    gpuperf::store::ByteWriter req_bytes, resp_bytes;
    api::writeRequest(req_bytes, reqs.at(0));
    api::writeResponse(resp_bytes, resps.at(0));
    lm->frameRttUnixUs = frameRoundTripUs(tracer, false, req_bytes.bytes(),
                                          resp_bytes.bytes(), 200);
    lm->frameRttTcpUs = frameRoundTripUs(tracer, true, req_bytes.bytes(),
                                         resp_bytes.bytes(), 20);
    tracer.setEnabled(false);
    if (!lm->codecs.roundTripOk)
        rep.fail("a codec round trip did not reproduce its message");
    if (lm->frameRttUnixUs < 0 || lm->frameRttTcpUs < 0)
        rep.fail("a framed round trip failed");
}

double
traceOverheadPct(Report &rep, double traced_s, double untraced_before_s,
                 double untraced_after_s)
{
    rep.note("trace passes",
             "untraced " + std::to_string(untraced_before_s) + " s, traced " +
                 std::to_string(traced_s) + " s, untraced again " +
                 std::to_string(untraced_after_s) + " s");
    const double untraced_s = (untraced_before_s + untraced_after_s) / 2.0;
    return (traced_s - untraced_s) / untraced_s * 100.0;
}

void
writeSpans(Report &rep, const Tracer &tracer, const Args &args)
{
    const std::string dir = ".bench_build/perfbench/traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
        ".jsonl";
    if (tracer.write(path))
        rep.note("spans", std::to_string(tracer.spans().size()) +
                              " written to " + path);
    else
        rep.fail("cannot write spans to " + path);
}

} // namespace perfbench
