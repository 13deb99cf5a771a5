#include "gen.h"

#include <stdexcept>

#include "common/fnv.h"

namespace perfbench {

using gpuperf::api::AnalysisRequest;
using gpuperf::api::CaseRef;
using gpuperf::api::KernelJob;
using gpuperf::arch::GpuSpec;

namespace {

// Stream ids: one independent generator per purpose, so adding a draw
// to one workload never shifts another's inputs.
enum Stream : uint64_t
{
    kColdSpecs = 1,
    kColdKernels,
    kGrid,
    kServeSpecs,
    kServePool,
    kServeDraw,
    kFleet,
};

KernelJob
job(const std::string &name, CaseRef ref)
{
    return KernelJob::fromRef(name, std::move(ref));
}

/** The small kernels of a cold-spec request. */
std::vector<KernelJob>
coldKernels(Rng &rng)
{
    return {
        job("saxpy", CaseRef{"saxpy", {rng.range(8, 12), 128},
                             {rng.uniform(0.5, 4.0)}}),
        job("conflict",
            CaseRef{"shared-conflict",
                    {6, 128, rng.pick(std::vector<int64_t>{2, 4, 8}), 16},
                    {}}),
        job("hist", CaseRef{"histogram", {6, 128, 8, 4}, {}}),
    };
}

gpuperf::driver::SweepSpec
smallSweep()
{
    gpuperf::driver::SweepSpec sweep;
    sweep.noBankConflicts = true;
    sweep.warpsPerSm = {8.0, 16.0};
    return sweep;
}

} // namespace

Rng::Rng(uint64_t seed, uint64_t stream)
    : engine_(gpuperf::fnv1a64Value(stream, gpuperf::fnv1a64Value(seed)))
{
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
}

double
Rng::uniform(double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

GpuSpec
baseSpec()
{
    GpuSpec s = GpuSpec::gtx285();
    s.name = "GT200-6sm";
    s.numSms = 6;
    s.maxWarpsPerSm = 16;
    s.maxThreadsPerSm = 512;
    s.validate();
    return s;
}

GpuSpec
timingVariant(const GpuSpec &parent, Rng &rng, const std::string &name)
{
    GpuSpec s = parent;
    s.name = name;
    s.coreClockHz = parent.coreClockHz * rng.uniform(0.8, 1.25);
    s.memClockHz = parent.memClockHz * rng.uniform(0.8, 1.25);
    s.globalLatencyCycles = static_cast<int>(rng.range(380, 640));
    s.aluDepCycles = static_cast<int>(rng.range(18, 30));
    s.sharedDepCycles = static_cast<int>(rng.range(56, 88));
    s.issueOverheadCycles = rng.uniform(0.2, 0.5);
    s.validate();
    return s;
}

GpuSpec
funcsimVariant(const GpuSpec &parent, Rng &rng, const std::string &name,
               std::set<std::string> *seen)
{
    GpuSpec s = timingVariant(parent, rng, name);
    for (int attempt = 0;; ++attempt) {
        if (attempt == 10000)
            throw std::runtime_error("no unseen funcsim fingerprint left");
        s.numSharedBanks = static_cast<int>(rng.pick(
            std::vector<int64_t>{16, 32}));
        s.coalesceGroup = static_cast<int>(rng.pick(
            std::vector<int64_t>{8, 16, 32}));
        s.minSegmentBytes = static_cast<int>(rng.pick(
            std::vector<int64_t>{16, 32, 64}));
        s.maxSegmentBytes = static_cast<int>(rng.pick(
            std::vector<int64_t>{128, 256, 512}));
        s.textureCacheLineBytes = static_cast<int>(rng.pick(
            std::vector<int64_t>{32, 64}));
        const std::string key =
            gpuperf::arch::FuncsimFingerprint::of(s).key();
        if (seen->insert(key).second)
            break;
    }
    s.validate();
    return s;
}

ColdSpecPlan
coldSpecPlan(uint64_t seed, int count, int threads,
             const std::string &store_dir)
{
    Rng spec_rng(seed, kColdSpecs);
    Rng kernel_rng(seed, kColdKernels);
    std::set<std::string> seen{
        gpuperf::arch::FuncsimFingerprint::of(baseSpec()).key()};
    std::vector<GpuSpec> specs;
    ColdSpecPlan plan;
    for (int i = 0; i < count; ++i) {
        const std::string name =
            "cold-" + std::to_string(seed) + "-" + std::to_string(i);
        // Odd requests re-time an earlier spec of the run (same
        // funcsim fingerprint); even ones change funcsim fields.
        const bool timing_only = i % 2 == 1;
        const GpuSpec parent =
            specs.empty() ? baseSpec() : spec_rng.pick(specs);
        specs.push_back(timing_only
                            ? timingVariant(parent, spec_rng, name)
                            : funcsimVariant(parent, spec_rng, name,
                                             &seen));
        AnalysisRequest req;
        req.jobName = name;
        req.kernels = coldKernels(kernel_rng);
        req.specs = {specs.back()};
        req.sweep = smallSweep();
        req.store.storeDir = store_dir;
        req.exec.numThreads = threads;
        plan.requests.push_back(std::move(req));
        plan.timingOnly.push_back(timing_only);
    }
    return plan;
}

AnalysisRequest
coldSpecWarmup(int threads, const std::string &store_dir)
{
    Rng kernel_rng(0, kColdKernels);
    AnalysisRequest req;
    req.jobName = "cold-warmup";
    req.kernels = coldKernels(kernel_rng);
    req.specs = {baseSpec()};
    req.sweep = smallSweep();
    req.store.storeDir = store_dir;
    req.exec.numThreads = threads;
    return req;
}

AnalysisRequest
gridRequest(uint64_t seed, int round, int threads,
            const std::string &store_dir)
{
    Rng rng(seed * 1000003u + static_cast<uint64_t>(round), kGrid);
    AnalysisRequest req;
    req.jobName = "grid-" + std::to_string(seed) + "-" +
                  std::to_string(round);
    req.kernels = {
        job("stencil1d", CaseRef{"stencil1d", {rng.range(132, 156), 256}, {}}),
        job("spmv-ell", CaseRef{"spmv-ell", {rng.range(900, 1020), 9}, {}}),
        job("reduction", CaseRef{"reduction", {rng.range(132, 156), 256}, {}}),
        job("histogram",
            CaseRef{"histogram", {rng.range(66, 78), 256, 4, 8}, {}}),
        job("shared-conflict",
            CaseRef{"shared-conflict",
                    {rng.range(66, 78), 256,
                     rng.pick(std::vector<int64_t>{2, 4}), 24},
                    {}}),
        job("saxpy-strided",
            CaseRef{"saxpy-strided",
                    {128, 256, rng.pick(std::vector<int64_t>{2, 4, 8})},
                    {}}),
    };
    for (int m = 0; m < kGridSpecs; ++m)
        req.specs.push_back(timingVariant(
            baseSpec(), rng, req.jobName + "-v" + std::to_string(m)));
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {4.0, 8.0, 12.0, 16.0};
    req.sweep.coalescingFractions = {0.5, 1.0};
    req.store.storeDir = store_dir;
    req.exec.numThreads = threads;
    return req;
}

std::vector<GpuSpec>
serveSpecs(uint64_t seed)
{
    Rng rng(seed, kServeSpecs);
    return {baseSpec(), timingVariant(baseSpec(), rng, "GT200-6sm-retimed")};
}

std::vector<AnalysisRequest>
servePool(uint64_t seed, int size)
{
    Rng rng(seed, kServePool);
    const std::vector<GpuSpec> specs = serveSpecs(seed);
    std::vector<AnalysisRequest> pool;
    for (int p = 0; p < size; ++p) {
        AnalysisRequest req;
        req.jobName = "serve-" + std::to_string(p);
        // Shapes and families cycle with the slot (1-3 kernels x 1-2
        // specs; kernel k of slot p is family (p + k) % 4), so every
        // seed's pool has the same mix and cost; the seed draws sizes
        // within narrow ranges and the data-only arguments. Families
        // differ within a request, so its kernels are distinct: two
        // jobs with the same arguments on a one-thread, store-backed
        // executor deadlock (see perfbench/README.md, "Known
        // defects").
        const int kernels = 1 + p % 3;
        for (int k = 0; k < kernels; ++k) {
            const std::string suffix = "-" + std::to_string(k);
            switch ((p + k) % 4) {
            case 0:
                req.kernels.push_back(job(
                    "saxpy" + suffix,
                    CaseRef{"saxpy", {rng.range(14, 18), 128},
                            {rng.uniform(0.5, 4.0)}}));
                break;
            case 1:
                req.kernels.push_back(job(
                    "conflict" + suffix,
                    CaseRef{"shared-conflict",
                            {rng.range(7, 9), 128,
                             rng.pick(std::vector<int64_t>{2, 4}), 12},
                            {}}));
                break;
            case 2:
                req.kernels.push_back(job(
                    "hist" + suffix,
                    CaseRef{"histogram", {rng.range(7, 9), 128, 8, 4}, {}}));
                break;
            default:
                req.kernels.push_back(job(
                    "stencil" + suffix,
                    CaseRef{"stencil1d", {rng.range(14, 18), 128}, {}}));
                break;
            }
        }
        req.specs = {specs[0]};
        if ((p / 3) % 2 == 1)
            req.specs.push_back(specs[1]);
        req.sweep = smallSweep();
        req.exec.numThreads = 1;
        pool.push_back(std::move(req));
    }
    return pool;
}

size_t
serveDraw(uint64_t seed, int client, uint64_t i, size_t pool)
{
    const uint64_t h = gpuperf::fnv1a64Value(
        i, gpuperf::fnv1a64Value(static_cast<uint64_t>(client),
                                 gpuperf::fnv1a64Value(seed, kServeDraw)));
    return static_cast<size_t>(h % pool);
}

AnalysisRequest
fleetRequest(uint64_t seed, int client, uint64_t i)
{
    Rng rng(seed * 7919u + static_cast<uint64_t>(client) * 104729u + i,
            kFleet);
    AnalysisRequest req;
    req.jobName = "fleet-" + std::to_string(client) + "-" +
                  std::to_string(i);
    // The alpha arguments make every request's input images (and so
    // its profile keys) new: nothing is served from a memo.
    for (int k = 0; k < 2; ++k) {
        const double alpha = 1.0 + static_cast<double>(i) * 1e-3 +
                             static_cast<double>(client) * 1e-4 +
                             static_cast<double>(k) * 1e-5;
        req.kernels.push_back(job(
            "saxpy-" + std::to_string(k),
            CaseRef{"saxpy", {rng.range(8, 12), 128 * (k + 1)}, {alpha}}));
    }
    req.specs = {baseSpec()};
    req.sweep = smallSweep();
    req.exec.numThreads = 1;
    return req;
}

} // namespace perfbench
