/**
 * @file
 * The SIMT functional simulator (the role Barra plays in the paper).
 *
 * Executes a kernel warp by warp in lockstep with divergence masks,
 * producing (a) functionally correct memory contents, (b) dynamic
 * program statistics split at synchronization barriers, and (c) compact
 * per-warp replay traces for the timing simulator.
 *
 * Execution model: within a block, warps run one at a time up to the
 * next barrier (or completion); the block's warps are synchronized
 * there and the next stage begins. This is faithful for any kernel
 * that follows the CUDA contract of no un-synchronized cross-warp
 * communication within a stage.
 */

#ifndef GPUPERF_FUNCSIM_INTERPRETER_H
#define GPUPERF_FUNCSIM_INTERPRETER_H

#include <cstdint>
#include <string>

#include "arch/gpu_spec.h"
#include "funcsim/memory.h"
#include "funcsim/stats.h"
#include "funcsim/trace.h"
#include "isa/kernel.h"
#include "memxact/bank_conflicts.h"
#include "memxact/coalescing.h"

namespace gpuperf {
namespace funcsim {

/**
 * Which execution core interprets warp instructions.
 *
 * Both modes produce bit-identical results — same memory contents,
 * same StageStats, same trace hashes, same ProfileKey (the mode is
 * deliberately NOT part of any cache key). kScalarReference is the
 * original lane-at-a-time interpreter, retained as the oracle for the
 * bit-identity tests and as the baseline `bench_funcsim` measures the
 * vectorized core against — the same pattern as the timing module's
 * legacy-scan vs event-driven engines.
 */
enum class ExecMode
{
    /** Data-oriented core: one dispatch runs all lanes over SoA rows. */
    kVectorized,
    /** Original per-lane interpreter, kept as the comparison oracle. */
    kScalarReference,
};

/** Grid/block shape of a kernel launch (1-D, as GT200-era kernels
 *  commonly flattened their indices anyway). */
struct LaunchConfig
{
    int gridDim = 1;
    int blockDim = 32;
};

/** Options controlling a functional run. */
struct RunOptions
{
    /** Collect per-warp replay traces for the timing simulator. */
    bool collectTrace = false;
    /**
     * Execute only the first @c sampleBlocks blocks and replicate
     * their statistics/traces across the grid. Only valid when every
     * block executes an identical instruction stream (same counts,
     * conflicts and coalescing behaviour); memory results of
     * non-sampled blocks are then *not* produced.
     */
    bool homogeneous = false;
    int sampleBlocks = 1;
    /** Abort if a single warp executes more operations than this. */
    uint64_t maxWarpOps = 1ull << 32;
};

/**
 * The launch rules, checked against @p spec: a non-empty grid, a
 * block within the spec's thread ceiling, shared memory within one
 * SM, and a positive homogeneous sample size. fatal() on the first
 * violation. FunctionalSimulator::run() applies them to the spec it
 * simulates; consumers of a profile shared across specs apply them to
 * their own spec.
 */
void checkLaunch(const std::string &kernel_name, const LaunchConfig &cfg,
                 int shared_bytes, int sample_blocks,
                 const arch::GpuSpec &spec);

/** Result of a functional run. */
struct RunResult
{
    DynamicStats stats;
    LaunchTrace trace;
};

/** The functional simulator. */
class FunctionalSimulator
{
  public:
    explicit FunctionalSimulator(const arch::GpuSpec &spec,
                                 ExecMode mode = ExecMode::kVectorized);

    /**
     * Execute @p kernel over @p cfg against @p gmem.
     *
     * @param kernel  validated kernel
     * @param cfg     launch shape
     * @param gmem    device memory (mutated by stores)
     * @param options run options
     */
    RunResult run(const isa::Kernel &kernel, const LaunchConfig &cfg,
                  GlobalMemory &gmem, const RunOptions &options = {});

    const arch::GpuSpec &spec() const { return spec_; }
    ExecMode mode() const { return mode_; }

  private:
    arch::GpuSpec spec_;
    ExecMode mode_;
    memxact::CoalescingSimulator coalescer_;
    memxact::BankConflictAnalyzer banks_;
};

} // namespace funcsim
} // namespace gpuperf

#endif // GPUPERF_FUNCSIM_INTERPRETER_H
