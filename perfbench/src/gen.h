/**
 * @file
 * Seeded input generators: everything a workload sends the program
 * is derived here from the --seed argument, so the same seed gives
 * the same specs, kernels, pools and schedules, and the program under
 * test receives only the generated requests.
 */

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/request.h"

namespace perfbench {

/** Deterministic generator (one stream per seed and purpose). */
class Rng
{
  public:
    Rng(uint64_t seed, uint64_t stream);
    /** Uniform integer in [lo, hi]. */
    int64_t range(int64_t lo, int64_t hi);
    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);
    template <typename T>
    const T &pick(const std::vector<T> &v)
    {
        return v[static_cast<size_t>(
            range(0, static_cast<int64_t>(v.size()) - 1))];
    }

  private:
    std::mt19937_64 engine_;
};

/**
 * The benchmark's base GPU: a GT200 (GTX 285 parameters) cut to 6 SMs
 * of 16 warps, so one real calibration takes a fraction of a second
 * instead of the full part's ~4 s and a run can afford several.
 */
gpuperf::arch::GpuSpec baseSpec();

/** @p parent with only timing-simulator fields changed (same funcsim
 *  fingerprint, same calibration cost). */
gpuperf::arch::GpuSpec timingVariant(const gpuperf::arch::GpuSpec &parent,
                                     Rng &rng, const std::string &name);

/** @p parent with functional-simulation fields (banks, segments,
 *  coalescing group, texture line) changed to a fingerprint not in
 *  @p seen, plus fresh timing fields; the new key is added. */
gpuperf::arch::GpuSpec funcsimVariant(const gpuperf::arch::GpuSpec &parent,
                                      Rng &rng, const std::string &name,
                                      std::set<std::string> *seen);

// --- cold-spec ----------------------------------------------------------

struct ColdSpecPlan
{
    std::vector<gpuperf::api::AnalysisRequest> requests;
    /** requests[i] names a timing-only variant of an earlier spec. */
    std::vector<bool> timingOnly;
};

/** @p count requests, each a new spec x three small registry kernels. */
ColdSpecPlan coldSpecPlan(uint64_t seed, int count, int threads,
                          const std::string &store_dir);

/** The set-up warm-up request: the base spec x the same kernels. */
gpuperf::api::AnalysisRequest coldSpecWarmup(int threads,
                                             const std::string &store_dir);

// --- what-if-grid -------------------------------------------------------

/** Kernels per grid request (the six hi-occupancy families). */
constexpr int kGridKernels = 6;
/** Timing-only spec variants per grid request. */
constexpr int kGridSpecs = 3;

/** Round @p round: six hi-occupancy kernels x kGridSpecs timing-only
 *  variants of the base spec x a 7-point sweep. */
gpuperf::api::AnalysisRequest gridRequest(uint64_t seed, int round,
                                          int threads,
                                          const std::string &store_dir);

// --- serve-mixed --------------------------------------------------------

/** The two specs of the serve pool: the base spec and one timing
 *  variant of it. */
std::vector<gpuperf::arch::GpuSpec> serveSpecs(uint64_t seed);

/** @p size distinct small requests (1-3 kernels x 1-2 specs). */
std::vector<gpuperf::api::AnalysisRequest> servePool(uint64_t seed,
                                                     int size);

/** Client @p client's i-th pool index. */
size_t serveDraw(uint64_t seed, int client, uint64_t i, size_t pool);

// --- fleet traffic (serve-mixed's traced dispatch pass) ----------------

/** Client @p client's i-th request: two small kernels on the base
 *  spec whose arguments never repeat within a run. */
gpuperf::api::AnalysisRequest fleetRequest(uint64_t seed, int client,
                                           uint64_t i);

} // namespace perfbench

#endif // PERFBENCH_GEN_H
