/**
 * @file
 * The traced run's piecewise pipeline: the same cells the service
 * computes, rebuilt from the layers' public calls, each inside a
 * span — api::materializeJob, funcsim::profileKernel,
 * timing::TimingSimulator::run, the Profile/Timing/Result store
 * save/load, model::InfoExtractor::extract,
 * model::PerformanceModel::predict and driver::runSweep. Its cells
 * must equal the service's bit for bit (api::responsesEqual), or the
 * per-layer numbers would describe a different program.
 *
 * Also the api-layer probes: codec throughput over the workload's own
 * requests and responses, and framed round trips over a unix
 * socketpair and a loopback TCP pair.
 */

#ifndef PERFBENCH_PIECEWISE_H
#define PERFBENCH_PIECEWISE_H

#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "api/request.h"
#include "bench.h"
#include "model/calibration.h"
#include "model/session.h"
#include "store/profile_store.h"
#include "store/result_store.h"
#include "store/timing_store.h"

namespace perfbench {

using TablesPtr = std::shared_ptr<const gpuperf::model::CalibrationTables>;

/** Work counts of the layers the piecewise pipeline drives. */
struct LayerCounts
{
    uint64_t funcsimRuns = 0;
    uint64_t warpInstrs = 0;
    uint64_t replays = 0;
    uint64_t warpOps = 0;
    /** |predicted - measured| / measured of every analysed cell. */
    std::vector<double> modelErrors;
};

/** Hits, misses and writes of one store kind. */
struct StoreOps
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writes = 0;
};

/**
 * What the service's store counters should read after executing the
 * same requests, derived from the benchmark's own inputs: each lookup
 * run() makes is a hit when an earlier computation stored the key,
 * else a miss and one write; with result reuse off each cell is
 * written and never looked up. Calibrations: one miss and one write
 * per calibrated spec.
 */
struct ExpectedStore
{
    StoreOps profiles;
    StoreOps timings;
    StoreOps results;
    StoreOps calibrations;
};

class Piecewise
{
  public:
    /**
     * @p store_dir, when non-empty, roots the Profile/Timing/Result
     * stores the pipeline reads and writes.
     */
    Piecewise(Tracer &tracer, const std::string &store_dir);

    /** Calibration tables used for every cell on @p spec. */
    void setTables(const gpuperf::arch::GpuSpec &spec, TablesPtr tables);

    /**
     * Compute @p req's cells the way the executor does: per cell, the
     * result store first (when the request reuses results), then the
     * profile (kept only for this request's batch, else the profile
     * store, else funcsim) and the replay (the in-memory memo, else the
     * timing store, else a replay), then extract/predict/sweep; what
     * was computed is written back to the stores when configured.
     */
    gpuperf::api::AnalysisResponse
    run(const gpuperf::api::AnalysisRequest &req);

    /** Drop the in-memory replay memo and sessions (a new executor). */
    void forgetMemos();

    /** Switch to a new, empty store at @p store_dir (and forget the
     *  memos); counts, expectations and store counters accumulate. */
    void resetStore(const std::string &store_dir);

    const LayerCounts &counts() const { return counts_; }
    /** Zero counts() (work done before the measured pass). */
    void clearCounts();
    /** Expected service store counters for the requests run so far. */
    const ExpectedStore &expected() const { return expected_; }
    /** Count one calibrated spec into expected(). */
    void expectCalibration();
    /** Store counters of the pipeline's own stores (summed). */
    gpuperf::store::StoreStats storeStats() const;

  private:
    struct SpecState
    {
        TablesPtr tables;
        std::shared_ptr<gpuperf::model::GlobalBenchMemo> memo;
        std::unique_ptr<gpuperf::model::AnalysisSession> session;
    };

    SpecState &specState(const gpuperf::arch::GpuSpec &spec,
                         gpuperf::timing::ReplayEngine engine);

    Tracer &tracer_;
    std::unique_ptr<gpuperf::store::ProfileStore> profiles_;
    std::unique_ptr<gpuperf::store::TimingStore> timings_;
    std::unique_ptr<gpuperf::store::ResultStore> results_;
    std::map<std::string, TablesPtr> tables_;
    std::map<std::string, SpecState> specs_;
    /**
     * Global-memory microbenchmark memos per spec. They outlive
     * forgetMemos(): the service persists them in its calibration
     * store, so a restarted executor does not rerun them either.
     */
    std::map<std::string, std::shared_ptr<gpuperf::model::GlobalBenchMemo>>
        benchMemos_;
    std::map<std::string,
             std::shared_ptr<const gpuperf::funcsim::KernelProfile>>
        profileMemo_;
    std::map<std::string,
             std::shared_ptr<const gpuperf::timing::TimingResult>>
        timingMemo_;
    LayerCounts counts_;
    ExpectedStore expected_;
    /** Counters of stores replaced by resetStore(). */
    gpuperf::store::StoreStats retiredStoreStats_;
    /** Keys the modelled service store holds (for expected_). */
    std::set<std::string> storedProfiles_, storedTimings_, storedResults_;
};

/** Throughput of the api codecs over the given messages, MB/s. */
struct CodecRates
{
    double encodeMBps = 0.0;
    double decodeMBps = 0.0;
    double jsonEncodeMBps = 0.0;
    double jsonDecodeMBps = 0.0;
    /** False when a decode did not reproduce its input. */
    bool roundTripOk = true;
};

CodecRates
measureCodecs(Tracer &tracer,
              const std::vector<gpuperf::api::AnalysisRequest> &reqs,
              const std::vector<gpuperf::api::AnalysisResponse> &resps);

/**
 * Median round trip (microseconds) of @p rounds framed exchanges: a
 * request frame out, a response frame back (payloads = the given
 * encodings), over a unix socketpair (@p tcp false) or a loopback TCP
 * pair accepted through common/socket.h (@p tcp true). Returns a
 * negative value when the exchange fails.
 */
double frameRoundTripUs(Tracer &tracer, bool tcp,
                        const std::string &request_payload,
                        const std::string &response_payload, int rounds);

/** The workload's median model error, percent. */
double modelErrPct(const std::vector<double> &errors);

} // namespace perfbench

#endif // PERFBENCH_PIECEWISE_H
