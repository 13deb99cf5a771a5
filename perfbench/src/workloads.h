/**
 * @file
 * The workloads and the reporting they share. Each workload has
 * an untraced run (end-to-end metrics, every response checked against
 * an in-process reference computed outside the timed region) and a
 * traced run (per-layer metrics from the piecewise pipeline, whose
 * cells must equal the service's).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "api/request.h"
#include "bench.h"
#include "piecewise.h"
#include "store/stats.h"

namespace perfbench {

void runColdSpec(const Args &args, Report &rep);
void runWhatIfGrid(const Args &args, Report &rep);
void runServeMixed(const Args &args, Report &rep);

/** One completed timed request. */
struct Completion
{
    double endSeconds = 0.0; ///< since the timed phase began
    double ms = 0.0;         ///< request latency
    size_t cells = 0;
};

/**
 * What the end-to-end metrics are computed from (tracing off). With
 * one client, the rates are totals: requests (cells) over the summed
 * latency of the timed requests. With concurrent clients, they are
 * medians over the 1-second slices of the timed phase, so a burst of
 * machine noise moves them less than a total would.
 */
struct EndToEnd
{
    double setupSeconds = 0.0;
    std::vector<Completion> done;
    /** Length of the timed phase (requests are issued until then). */
    double seconds = 0.0;
    bool concurrent = false;
    /**
     * getrusage max RSS when the timed phase ends (MiB), before the
     * benchmark's own reference computations.
     */
    double peakRssMb = 0.0;

    std::vector<double> latencyMs() const;
    uint64_t cells() const;
};

/** Print the end-to-end metrics (fixed order and names). */
void emitEndToEnd(Report &rep, const EndToEnd &e2e);

/** Latency summary note: p50, the supported tail and the count. */
void noteLatency(Report &rep, const std::string &name,
                 const std::vector<double> &ms);

/** @p got equals @p want bit-for-bit and has no failed cell. */
bool sameResponse(const gpuperf::api::AnalysisResponse &got,
                  const gpuperf::api::AnalysisResponse &want,
                  std::string *why);

/**
 * Check @p got against @p want (bit-for-bit) and count every failed
 * cell; tallies one attempt per response into @p rep.
 */
void checkResponses(Report &rep, const std::string &what,
                    const std::vector<gpuperf::api::AnalysisResponse> &got,
                    const std::vector<gpuperf::api::AnalysisResponse> &want);

/** Print a digest of @p resps (same seed, same program: same digest). */
void noteDigest(Report &rep,
                const std::vector<gpuperf::api::AnalysisResponse> &resps);

/** Median model error (percent) over the cells of @p resps. */
double responsesModelErrPct(
    const std::vector<gpuperf::api::AnalysisResponse> &resps);

/** Every per-layer metric; layers a workload does not drive stay 0. */
struct LayerMetrics
{
    double calibrateSeconds = 0.0; ///< mean per calibration
    double calibrations = 0.0;
    double driverSelfMs = 0.0;
    /** Per store kind; -1 = not derived (its counters disagree). */
    double profileHitRatio = 0.0;
    double timingHitRatio = 0.0;
    double resultHitRatio = 0.0;
    double calibrationHitRatio = 0.0;
    double counterMismatches = 0.0;
    CodecRates codecs;
    double frameRttUnixUs = 0.0;
    double frameRttTcpUs = 0.0;
    double serverOverheadMs = 0.0;
    double queueWaitMs = 0.0;
    double queueDepthPeak = 0.0;
    double costErrMs = 0.0;
    double remoteShare = 0.0;
    double redispatched = 0.0;
    double localCells = 0.0;
    double traceOverheadPct = 0.0;
};

/**
 * The sched/dispatch layers, which no benchmarked workload drives:
 * send fleet traffic (fleetRequest) for @p seconds through a server
 * with two in-process workers, check every response against an
 * in-process reference, and fill the sched.* and dispatch.* fields of
 * @p lm.
 */
void measureDispatch(const Args &args, Report &rep, ScratchDir &dir,
                     double seconds, LayerMetrics *lm);

/**
 * Print every per-layer metric: the span-derived ones from @p tracer
 * and @p pw (the traced piecewise pass), the rest from @p lm.
 */
void emitLayers(Report &rep, const Tracer &tracer, const Piecewise &pw,
                const LayerMetrics &lm);

/**
 * Store counter cross-check: print the service's raw counters beside
 * the counts expected from the workload's own inputs, fill the hit
 * ratios (only for stores whose counters agree) and the mismatch
 * count into @p lm. Never gates.
 */
void crossCheckStores(Report &rep, const gpuperf::store::StoreLayerStats &got,
                      const ExpectedStore &want, LayerMetrics *lm);

/**
 * driver.self_ms: median over requests of the service's latency
 * (@p service_seconds, in "request"-span order) minus the time the
 * request span's children (the piecewise layers) took.
 */
double driverSelfMs(const Tracer &tracer,
                    const std::vector<double> &service_seconds);

/**
 * The api-layer probes (traced): codec throughput over @p reqs and
 * @p resps, framed round trips over unix and TCP with the first
 * request/response as payloads; fills @p lm, fails @p rep on a bad
 * round trip.
 */
void apiProbes(Report &rep, Tracer &tracer,
               const std::vector<gpuperf::api::AnalysisRequest> &reqs,
               const std::vector<gpuperf::api::AnalysisResponse> &resps,
               LayerMetrics *lm);

/**
 * trace.overhead_pct: the traced pass's wall time against the mean of
 * an untraced pass run before it and one run after it, so that
 * first-pass warm-up does not count as (negative) tracing cost. The
 * three wall times are printed as a note.
 */
double traceOverheadPct(Report &rep, double traced_s,
                        double untraced_before_s, double untraced_after_s);

/** Write the traced pass's spans under the build directory. */
void writeSpans(Report &rep, const Tracer &tracer, const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
