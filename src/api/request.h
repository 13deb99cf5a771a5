/**
 * @file
 * The unified AnalysisService request/response schema — the ONE typed,
 * serializable description of everything the paper's Figure-1 pipeline
 * can be asked to do: a single kernel, an N x M batch, a what-if sweep
 * grid, streamed or collected delivery, with or without persistent
 * stores. The old entry points (AnalysisSession, SimulatedDevice,
 * BatchRunner::Options, runSweep) survive as internal executors behind
 * api::AnalysisService; new capabilities widen this schema instead of
 * every constructor signature.
 *
 * Requests and responses are VALUES with versioned binary and JSON
 * codecs (api/codecs.h): a job is a wire-portable artifact a client
 * can send to a gpuperf-serve daemon, whose dispatcher splits it into
 * single-cell jobs for registered worker processes (api/dispatch.h).
 */

#ifndef GPUPERF_API_REQUEST_H
#define GPUPERF_API_REQUEST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "driver/batch_runner.h"
#include "driver/sweep.h"
#include "funcsim/interpreter.h"
#include "isa/kernel.h"
#include "timing/simulator.h"

namespace gpuperf {
namespace api {

/**
 * Wire-format version of the request/response schema. Bump on ANY
 * change to the schema structs or their codecs; readers reject other
 * versions and the caller re-issues the job.
 */
constexpr uint32_t kSchemaVersion = 3;

/**
 * A kernel case by reference: a registry factory name plus its
 * arguments (api/registry.h resolves it to a driver::KernelCase).
 * References are tiny on the wire — the worker rebuilds the kernel
 * and its memory image from the same deterministic factory.
 */
struct CaseRef
{
    /** Registry factory, e.g. "saxpy", "stencil1d", "histogram". */
    std::string factory;
    /** Integer arguments, in the factory's documented order. */
    std::vector<int64_t> iargs;
    /** Floating-point arguments, in the factory's documented order. */
    std::vector<double> fargs;
};

/**
 * A kernel case by value: the full instruction stream, launch shape,
 * run options and pristine input image. Heavier on the wire than a
 * CaseRef, but carries arbitrary kernels (anything a KernelBuilder
 * can produce) with bit-exact input data.
 */
struct InlineLaunch
{
    isa::Kernel kernel;
    funcsim::LaunchConfig cfg;
    funcsim::RunOptions options;
    /** GlobalMemory geometry: total capacity in bytes. */
    uint64_t memoryCapacity = 0;
    /**
     * The pristine image's allocated prefix (bytes [0, used())); the
     * executor rebuilds a GlobalMemory with identical content hash,
     * so inline jobs hit the same store entries as local runs.
     */
    std::string memoryImage;

    /** Snapshot @p gmem (pristine — capture BEFORE any run). */
    static InlineLaunch capture(isa::Kernel kernel,
                                const funcsim::LaunchConfig &cfg,
                                const funcsim::GlobalMemory &gmem,
                                funcsim::RunOptions options = {});

    /** Rebuild the image captured by capture() (exact content hash). */
    std::unique_ptr<funcsim::GlobalMemory> rebuildMemory() const;
};

/** One kernel of a request: a display name plus exactly one body. */
struct KernelJob
{
    std::string name;
    /** Set when the job is a registry reference (factory non-empty). */
    CaseRef ref;
    /** Set when the job carries the kernel inline. */
    std::shared_ptr<const InlineLaunch> inlined;

    bool isInline() const { return inlined != nullptr; }

    static KernelJob fromRef(std::string name, CaseRef ref);
    static KernelJob fromInline(std::string name, InlineLaunch launch);
};

/** Persistence policy of a request. */
struct StorePolicy
{
    /**
     * Root of the persistent binary store ("" = disabled): profiles,
     * calibrations, timings and finished results are kept in
     * subdirectories and shared across processes — fleet workers
     * pointed at one storeDir split calibrations, funcsims and
     * replays through the store leases.
     */
    std::string storeDir;
    /**
     * Serve finished cells straight from the result store (results
     * remain bit-identical; finished cells are always persisted when
     * a store is configured — this only gates serving them back).
     */
    bool reuseStoredResults = true;
};

/** Execution policy of a request. */
struct ExecutionPolicy
{
    /**
     * How cells share simulation work. The enum replaces
     * BatchRunner::Options' shareProfiles boolean: kShared is the
     * production pipeline (N funcsims for N x M cells), kPerCell the
     * reference pipeline every optimization is pinned bit-identical
     * against.
     */
    enum class Pipeline { kShared, kPerCell };

    /** How results leave the service (see AnalysisService::execute). */
    enum class Delivery { kCollect, kStream };

    /** Worker threads; 0 = one per hardware thread. */
    int numThreads = 0;
    /** Timing replay engine (engines are bit-identical by contract). */
    timing::ReplayEngine engine = timing::ReplayEngine::kEventDriven;
    Pipeline pipeline = Pipeline::kShared;
    Delivery delivery = Delivery::kCollect;
};

/**
 * One analysis job: kernels x specs cells, each the paper's full
 * Figure-1 workflow plus the request's what-if sweep.
 */
struct AnalysisRequest
{
    uint32_t schemaVersion = kSchemaVersion;
    /** Display name, echoed in responses. */
    std::string jobName;
    /**
     * Client identity for per-tenant fair-share scheduling ("" = the
     * anonymous default tenant). Set from the `?client=` endpoint
     * option; the fair-share dispatcher accounts each tenant's work
     * against it. Responses do not echo it and result-store keys do
     * not include it, so identical work stays shared (and
     * bit-identical) across tenants.
     */
    std::string clientId;

    std::vector<KernelJob> kernels;
    std::vector<arch::GpuSpec> specs;
    driver::SweepSpec sweep;
    StorePolicy store;
    ExecutionPolicy exec;
};

/**
 * The response: one cell per (kernel, spec) in kernel-major order
 * (kernels[0] x specs[0..M-1], then kernels[1] x ...), regardless of
 * completion order or worker count. Cells are driver::BatchResult —
 * every Analysis field round-trips bit-exactly through both codecs.
 */
struct AnalysisResponse
{
    uint32_t schemaVersion = kSchemaVersion;
    std::string jobName;
    uint32_t numKernels = 0;
    uint32_t numSpecs = 0;
    std::vector<driver::BatchResult> cells;
};

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_REQUEST_H
