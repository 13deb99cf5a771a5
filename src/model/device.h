/**
 * @file
 * The "hardware" a model is calibrated against.
 *
 * In the paper this is a physical GTX 285; here it is the functional
 * simulator (for dynamic statistics) plus the timing simulator (for
 * measured execution times), glued behind one interface so the
 * analytical model never peeks inside the machine.
 */

#ifndef GPUPERF_MODEL_DEVICE_H
#define GPUPERF_MODEL_DEVICE_H

#include <memory>

#include "arch/gpu_spec.h"
#include "funcsim/interpreter.h"
#include "funcsim/profile.h"
#include "timing/simulator.h"

namespace gpuperf {
namespace model {

struct CalibrationTables; // model/calibration.h

/**
 * Construction-time configuration shared by SimulatedDevice and
 * AnalysisSession — the one place the old ctor-overload sprawl
 * (engine enum + adopted-tables variants) collapsed into. Every
 * field has a sensible default, so callers set only what they mean:
 *
 *     model::SessionConfig cfg;
 *     cfg.engine = timing::ReplayEngine::kLegacyScan;
 *     model::AnalysisSession session(spec, cfg);
 *
 * SimulatedDevice reads only `engine`; `tables` applies to
 * AnalysisSession (which owns a calibrator). Tables persist across
 * processes through store::CalibrationStore.
 */
struct SessionConfig
{
    /**
     * Timing replay engine for the device. The engines are
     * bit-identical, so this never changes results — only the replay
     * loop producing them.
     */
    timing::ReplayEngine engine = timing::ReplayEngine::kEventDriven;

    /**
     * Pre-calibrated tables to adopt at construction (e.g. shared by
     * another session for the same spec, or loaded from a store); the
     * microbenchmark sweep is skipped entirely. Null = calibrate
     * lazily on first use.
     */
    std::shared_ptr<const CalibrationTables> tables;
};

/** Combined functional + timing result of one kernel launch. */
struct Measurement
{
    funcsim::DynamicStats stats;
    timing::TimingResult timing;

    double seconds() const { return timing.seconds; }
    double milliseconds() const { return timing.milliseconds(); }
};

/**
 * A simulated GTX 285-class device.
 *
 * Owns the functional and timing simulators; run() executes a kernel
 * functionally (collecting traces) and then replays it for timing.
 */
class SimulatedDevice
{
  public:
    /**
     * Configured construction (reads SessionConfig::engine only; the
     * PR 5 engine-argument forwarder is gone — the default config
     * keeps bare SimulatedDevice(spec) working).
     */
    explicit SimulatedDevice(const arch::GpuSpec &spec,
                             const SessionConfig &config = {});

    /**
     * Execute and time a kernel.
     *
     * @param kernel  the kernel
     * @param cfg     launch shape
     * @param gmem    device memory
     * @param options functional-run options (collectTrace is forced on)
     */
    Measurement run(const isa::Kernel &kernel,
                    const funcsim::LaunchConfig &cfg,
                    funcsim::GlobalMemory &gmem,
                    funcsim::RunOptions options = {});

    /**
     * Run only the functional half and package it as a shareable
     * profile. profile() + measure() produces bit-identical results
     * to run() (same simulations in the same order); run() merely
     * skips the profile-identity work (input-image hashing, stats
     * copy) a one-shot measurement does not need.
     */
    std::shared_ptr<const funcsim::KernelProfile>
    profile(const isa::Kernel &kernel, const funcsim::LaunchConfig &cfg,
            funcsim::GlobalMemory &gmem, funcsim::RunOptions options = {});

    /**
     * Replay a profile on this device's timing simulator. The profile
     * may come from any device whose funcsim fingerprint matches this
     * spec; the launch-ceiling checks the functional simulator would
     * have applied are re-validated against THIS spec, so sharing a
     * profile never hides a configuration error this device's own
     * functional run would have reported.
     */
    Measurement measure(const funcsim::KernelProfile &profile) const;

    /**
     * Like measure(profile) but with the timing replay already done:
     * @p timing MUST be what this device's timing simulator would
     * produce for @p profile (i.e. computed under a spec with this
     * spec's arch::TimingFingerprint — the timing memo's contract),
     * making the result bit-identical to measure(profile) without
     * replaying. The per-spec launch-ceiling revalidation still runs:
     * a memoized measurement must fail exactly where a fresh one
     * would.
     */
    Measurement measure(const funcsim::KernelProfile &profile,
                        const timing::TimingResult &timing) const;

    const arch::GpuSpec &spec() const { return spec_; }
    funcsim::FunctionalSimulator &funcSim() { return funcSim_; }
    const timing::TimingSimulator &timingSim() const { return timingSim_; }

  private:
    arch::GpuSpec spec_;
    funcsim::FunctionalSimulator funcSim_;
    timing::TimingSimulator timingSim_;
};

} // namespace model
} // namespace gpuperf

#endif // GPUPERF_MODEL_DEVICE_H
