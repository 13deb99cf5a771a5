#include "timing/simulator.h"

#include "common/logging.h"
#include "timing/replay_engine.h"

namespace gpuperf {
namespace timing {

bool
TimingResult::operator==(const TimingResult &other) const
{
    const arch::Occupancy &a = occupancy;
    const arch::Occupancy &b = other.occupancy;
    return cycles == other.cycles && seconds == other.seconds &&
           totalOps == other.totalOps &&
           arithBusyCycles == other.arithBusyCycles &&
           sharedBusyCycles == other.sharedBusyCycles &&
           portBusyCycles == other.portBusyCycles &&
           texHits == other.texHits && texMisses == other.texMisses &&
           a.blocksByRegisters == b.blocksByRegisters &&
           a.blocksBySharedMem == b.blocksBySharedMem &&
           a.blocksByThreads == b.blocksByThreads &&
           a.blocksByBlockLimit == b.blocksByBlockLimit &&
           a.blocksByWarpLimit == b.blocksByWarpLimit &&
           a.residentBlocks == b.residentBlocks &&
           a.residentWarps == b.residentWarps && a.limit == b.limit &&
           a.warpsPerBlock == b.warpsPerBlock;
}

TimingSimulator::TimingSimulator(const arch::GpuSpec &spec,
                                 ReplayEngine engine)
    : spec_(spec), engine_(engine)
{
    spec_.validate();
}

TimingResult
TimingSimulator::run(const funcsim::LaunchTrace &trace) const
{
    if (engine_ == ReplayEngine::kLegacyScan)
        return detail::replayLegacyScan(spec_, trace);
    return detail::replayEventDriven(spec_, trace);
}

TimingResult
TimingSimulator::run(const funcsim::KernelProfile &profile) const
{
    if (profile.key.fingerprint != arch::FuncsimFingerprint::of(spec_))
        fatal("kernel '%s': profile was produced under an incompatible "
              "functional-simulation fingerprint — recompute it for "
              "spec '%s'", profile.kernelName.c_str(),
              spec_.name.c_str());
    return run(profile.trace);
}

} // namespace timing
} // namespace gpuperf
