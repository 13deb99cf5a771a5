/**
 * @file
 * Cycle-approximate GT200-class timing simulator.
 *
 * This component plays the role the physical GTX 285 plays in the
 * paper: microbenchmarks are *measured* against it to calibrate the
 * analytical model, and applications are *measured* against it to
 * evaluate the model's predictions. It replays the per-warp traces
 * produced by the functional simulator.
 *
 * Machine model (one SM):
 *  - greedy-ready round-robin warp scheduler, one issue per cycle;
 *  - in-order issue per warp with register scoreboarding;
 *  - a single arithmetic pipeline whose per-warp-instruction occupancy
 *    is warpSize / functionalUnits(type) cycles (plus a small issue
 *    overhead), with a fixed register read-after-write latency;
 *  - a banked shared-memory pipeline: each serialized half-warp pass
 *    occupies the pipe; conflicts multiply passes; a longer dependency
 *    latency than the ALU (the paper's "longer memory pipeline");
 *  - barriers synchronize all warps of a block after outstanding
 *    results drain.
 *
 * Memory system: SMs are grouped into clusters of three sharing one
 * memory pipeline (the source of the paper's sawtooth in Figure 3).
 * Each hardware transaction occupies the cluster port for
 * bytes / clusterBytesPerCycle plus a fixed overhead; loads complete a
 * full memory latency after port service. An optional per-cluster
 * texture cache filters LDT line requests.
 *
 * Blocks are distributed round-robin over SMs initially and then pulled
 * from a global queue as resident blocks finish, up to the kernel's
 * occupancy limit.
 */

#ifndef GPUPERF_TIMING_SIMULATOR_H
#define GPUPERF_TIMING_SIMULATOR_H

#include <cstdint>

#include "arch/gpu_spec.h"
#include "arch/occupancy.h"
#include "funcsim/profile.h"
#include "funcsim/trace.h"

namespace gpuperf {
namespace timing {

/** Result of a timing-simulator run ("measured" performance). */
struct TimingResult
{
    /** End-to-end kernel time in core clock cycles. */
    double cycles = 0.0;
    /** Same in seconds, given the spec's core clock. */
    double seconds = 0.0;

    /** Warp-level operations replayed. */
    uint64_t totalOps = 0;

    // Utilization diagnostics (summed over SMs/clusters).
    double arithBusyCycles = 0.0;
    double sharedBusyCycles = 0.0;
    double portBusyCycles = 0.0;

    uint64_t texHits = 0;
    uint64_t texMisses = 0;

    /** Occupancy used for the launch. */
    arch::Occupancy occupancy;

    double milliseconds() const { return seconds * 1e3; }

    /**
     * Exact (bit-level for the doubles) equality of every field.
     * Used by the engine A/B tests and the timing memo, both of
     * which promise bit-identical results, never "close enough".
     */
    bool operator==(const TimingResult &other) const;
    bool operator!=(const TimingResult &other) const
    {
        return !(*this == other);
    }
};

/**
 * Replay-engine selection. Both engines produce bit-identical
 * TimingResults for every valid trace (pinned by
 * tests/test_timing_engine.cc); the event-driven engine is the
 * default and asymptotically cheaper per issued operation, the legacy
 * scan engine is kept as the reference for differential testing and
 * the bench_timing_replay speedup study.
 */
enum class ReplayEngine
{
    kEventDriven = 0,
    kLegacyScan = 1,
};

/** The timing simulator. */
class TimingSimulator
{
  public:
    explicit TimingSimulator(
        const arch::GpuSpec &spec,
        ReplayEngine engine = ReplayEngine::kEventDriven);

    /**
     * Replay @p trace and return the simulated execution time.
     * The kernel's occupancy is derived from the trace's resource
     * usage; blocks beyond the resident limit wait in the global
     * queue.
     */
    TimingResult run(const funcsim::LaunchTrace &trace) const;

    /**
     * Replay a shared functional-simulation artifact. The profile's
     * funcsim fingerprint must match this simulator's spec (checked);
     * timing-only spec fields may differ from the profile's producer —
     * that is the point of sharing one profile across spec variants.
     */
    TimingResult run(const funcsim::KernelProfile &profile) const;

    const arch::GpuSpec &spec() const { return spec_; }
    ReplayEngine engine() const { return engine_; }

  private:
    arch::GpuSpec spec_;
    ReplayEngine engine_;
};

} // namespace timing
} // namespace gpuperf

#endif // GPUPERF_TIMING_SIMULATOR_H
