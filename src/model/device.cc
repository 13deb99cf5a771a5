#include "model/device.h"

#include "common/logging.h"

namespace gpuperf {
namespace model {

SimulatedDevice::SimulatedDevice(const arch::GpuSpec &spec,
                                 const SessionConfig &config)
    : spec_(spec), funcSim_(spec), timingSim_(spec, config.engine)
{
}

Measurement
SimulatedDevice::run(const isa::Kernel &kernel,
                     const funcsim::LaunchConfig &cfg,
                     funcsim::GlobalMemory &gmem,
                     funcsim::RunOptions options)
{
    // One-shot path (e.g. the calibrator's many microbenchmark runs):
    // functionally identical to profile() + measure(), minus the
    // profile-identity work — no input-image hash, no stats copy —
    // that only sharing or persisting the artifact would need.
    options.collectTrace = true;
    funcsim::RunResult func = funcSim_.run(kernel, cfg, gmem, options);
    Measurement m;
    m.timing = timingSim_.run(func.trace);
    m.stats = std::move(func.stats);
    return m;
}

std::shared_ptr<const funcsim::KernelProfile>
SimulatedDevice::profile(const isa::Kernel &kernel,
                         const funcsim::LaunchConfig &cfg,
                         funcsim::GlobalMemory &gmem,
                         funcsim::RunOptions options)
{
    return std::make_shared<const funcsim::KernelProfile>(
        funcsim::profileKernel(funcSim_, kernel, cfg, gmem, options));
}

namespace {

/**
 * A shared profile must fail exactly where a functional run under
 * @p spec would have: apply the launch rules to this device's spec.
 */
void
checkLaunchFor(const funcsim::KernelProfile &profile,
               const arch::GpuSpec &spec)
{
    funcsim::checkLaunch(profile.kernelName, profile.key.cfg,
                         profile.resources.sharedBytesPerBlock,
                         profile.key.sampleBlocks, spec);
}

} // namespace

Measurement
SimulatedDevice::measure(const funcsim::KernelProfile &profile) const
{
    checkLaunchFor(profile, spec_);
    Measurement m;
    m.timing = timingSim_.run(profile);
    m.stats = profile.stats;
    return m;
}

Measurement
SimulatedDevice::measure(const funcsim::KernelProfile &profile,
                         const timing::TimingResult &timing) const
{
    checkLaunchFor(profile, spec_);
    if (profile.key.fingerprint != arch::FuncsimFingerprint::of(spec_))
        fatal("kernel '%s': profile was produced under an incompatible "
              "functional-simulation fingerprint — recompute it for "
              "spec '%s'", profile.kernelName.c_str(),
              spec_.name.c_str());
    Measurement m;
    m.timing = timing;
    m.stats = profile.stats;
    return m;
}

} // namespace model
} // namespace gpuperf
