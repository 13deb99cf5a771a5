/**
 * @file
 * Replay-engine differential tests: the event-driven engine must be
 * bit-identical — every TimingResult field, doubles compared exactly —
 * to the legacy scan engine for
 *
 *  - every demo kernel case x a grid of spec variants (including
 *    texture-cache and prime-bank machines),
 *  - batches run on 1..8 worker threads (which also pins that the
 *    event-driven engine kept BatchRunner deterministic), and
 *  - a seeded randomized machine-description fuzz (common/rng).
 *
 * Plus the timing-fingerprint layer: arch::TimingFingerprint captures
 * exactly the timing-relevant GpuSpec slice, and the BatchRunner
 * timing memo serves bit-identical results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "common/rng.h"
#include "funcsim/profile.h"
#include "timing/simulator.h"

namespace gpuperf {
namespace timing {
namespace {

using driver::KernelCase;
using funcsim::FunctionalSimulator;

/**
 * Toy calibration tables (the test_batch.cc idiom): the batch tests
 * here pin TIMING behaviour, which never reads the tables, so
 * adopting fakes skips the expensive microbenchmark sweeps.
 */
std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    model::CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        for (int w = 1; w <= 32; ++w)
            t.instrThroughput[type][w] = 1e10 * std::min(1.0, w / 8.0);
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return std::make_shared<const model::CalibrationTables>(
        std::move(t));
}

/** Functionally simulate a demo case once under @p spec. */
funcsim::RunResult
simulate(const KernelCase &kc, const arch::GpuSpec &spec)
{
    driver::PreparedLaunch launch = kc.make();
    FunctionalSimulator sim(spec);
    funcsim::RunOptions opts = launch.options;
    opts.collectTrace = true;
    return sim.run(launch.kernel, launch.cfg, *launch.gmem, opts);
}

/** Replay @p trace under both engines and require exact equality. */
void
expectEnginesAgree(const arch::GpuSpec &spec,
                   const funcsim::LaunchTrace &trace,
                   const std::string &label)
{
    const TimingResult legacy =
        TimingSimulator(spec, ReplayEngine::kLegacyScan).run(trace);
    const TimingResult event =
        TimingSimulator(spec, ReplayEngine::kEventDriven).run(trace);
    EXPECT_TRUE(event == legacy)
        << label << ": engines diverged (legacy " << legacy.cycles
        << " cycles / " << legacy.totalOps << " ops, event-driven "
        << event.cycles << " cycles / " << event.totalOps << " ops)";
}

std::vector<KernelCase>
demoCases()
{
    std::vector<KernelCase> cases;
    cases.push_back(driver::makeSaxpyCase("saxpy", 24, 256, 2.0f));
    cases.push_back(
        driver::makeStridedSaxpyCase("strided", 16, 256, 4));
    cases.push_back(
        driver::makeSharedConflictCase("conflict", 8, 128, 4, 32));
    cases.push_back(driver::makeStencil1dCase("stencil1d", 16, 256));
    cases.push_back(driver::makeSpmvEllCase("spmv-ell", 96, 7));
    return cases;
}

std::vector<arch::GpuSpec>
specGrid()
{
    std::vector<arch::GpuSpec> specs;
    specs.push_back(arch::GpuSpec::gtx285());
    specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    specs.push_back(arch::GpuSpec::gtx285BigResources());
    specs.push_back(arch::GpuSpec::gtx285PrimeBanks());
    specs.push_back(arch::GpuSpec::gtx285SmallSegments(32));
    arch::GpuSpec tex = arch::GpuSpec::gtx285();
    tex.name = "GTX 285 + texture cache";
    tex.textureCacheEnabled = true;
    specs.push_back(tex);
    arch::GpuSpec fast = arch::GpuSpec::gtx285();
    fast.name = "GTX 285 + 25% core clock";
    fast.coreClockHz *= 1.25;
    specs.push_back(fast);
    return specs;
}

TEST(ReplayEngines, BitIdenticalAcrossDemoCaseSpecGrid)
{
    for (const arch::GpuSpec &spec : specGrid()) {
        for (const KernelCase &kc : demoCases()) {
            const auto res = simulate(kc, spec);
            expectEnginesAgree(spec, res.trace,
                               kc.name + " x " + spec.name);
        }
    }
}

TEST(ReplayEngines, BitIdenticalOnBarrierHeavyAndTinyLaunches)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    // One warp, one block: degenerate scheduling.
    {
        const auto res =
            simulate(driver::makeSaxpyCase("tiny", 1, 32, 1.0f), spec);
        expectEnginesAgree(spec, res.trace, "tiny");
    }
    // More blocks than resident slots: block-replacement waves.
    {
        const auto res = simulate(
            driver::makeStencil1dCase("waves", 4 * 30 * 3, 128), spec);
        expectEnginesAgree(spec, res.trace, "waves");
    }
    // Barrier-heavy (the stencil has a two-stage barrier structure)
    // under a machine whose occupancy differs.
    {
        const auto res = simulate(
            driver::makeStencil1dCase("bars", 90, 512),
            arch::GpuSpec::gtx285MoreBlocks());
        expectEnginesAgree(arch::GpuSpec::gtx285MoreBlocks(), res.trace,
                           "bars");
    }
}

TEST(ReplayEngines, BitIdenticalUnderRandomizedSpecFuzz)
{
    Rng rng(0x7411e5u);
    const auto cases = demoCases();
    for (int iter = 0; iter < 12; ++iter) {
        arch::GpuSpec s = arch::GpuSpec::gtx285();
        s.name = "fuzz-" + std::to_string(iter);
        // Timing-relevant knobs over valid ranges.
        s.smsPerCluster = static_cast<int>(rng.nextRange(1, 3));
        s.numSms =
            s.smsPerCluster * static_cast<int>(rng.nextRange(2, 10));
        s.aluDepCycles = static_cast<int>(rng.nextRange(4, 48));
        s.sharedDepCycles = static_cast<int>(rng.nextRange(24, 144));
        s.warpSharedPassIntervalCycles =
            static_cast<double>(rng.nextRange(2, 36));
        s.globalLatencyCycles = static_cast<int>(rng.nextRange(80, 900));
        s.transactionOverheadCycles =
            static_cast<int>(rng.nextRange(0, 8));
        s.issueOverheadCycles = 0.05 * rng.nextRange(0, 20);
        s.coreClockHz = 1e9 * (0.5 + rng.nextDouble());
        s.memClockHz = 1e9 * (1.0 + 2.0 * rng.nextDouble());
        s.maxBlocksPerSm = static_cast<int>(rng.nextRange(2, 16));
        s.registersPerSm = 8192 << rng.nextRange(0, 2);
        s.sharedMemPerSm = 16384 << rng.nextRange(0, 1);
        // Funcsim-relevant knobs too: the trace itself varies.
        s.numSharedBanks = static_cast<int>(rng.nextRange(8, 33));
        s.minSegmentBytes = 32 << rng.nextRange(0, 2);
        if (s.maxSegmentBytes < s.minSegmentBytes)
            s.maxSegmentBytes = s.minSegmentBytes;
        s.textureCacheEnabled = rng.nextBelow(2) == 0;
        s.validate();

        const KernelCase &kc = cases[rng.nextBelow(cases.size())];
        const auto res = simulate(kc, s);
        expectEnginesAgree(s, res.trace, s.name + " " + kc.name);
    }
}

TEST(ReplayEngines, BatchResultsIdenticalAcrossOneToEightThreads)
{
    const auto cases = demoCases();
    const std::vector<arch::GpuSpec> specs = {
        arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks()};
    driver::SweepSpec sweep;
    sweep.noBankConflicts = true;

    const auto tables = sharedFakeTables();
    std::vector<driver::BatchResult> reference;
    for (int threads = 1; threads <= 8; ++threads) {
        driver::BatchRunner::Options opts;
        opts.numThreads = threads;
        driver::BatchRunner runner(opts);
        for (const auto &s : specs)
            runner.adoptCalibration(s, tables);
        auto results = runner.run(cases, specs, sweep);
        ASSERT_EQ(results.size(), cases.size() * specs.size());
        for (const auto &r : results)
            ASSERT_TRUE(r.ok) << r.kernelName << ": " << r.error;
        if (threads == 1) {
            reference = std::move(results);
            continue;
        }
        for (size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(results[i].analysis.measurement.timing ==
                        reference[i].analysis.measurement.timing)
                << "cell " << i << " at " << threads << " threads";
            EXPECT_EQ(results[i].analysis.prediction.totalSeconds,
                      reference[i].analysis.prediction.totalSeconds);
        }
    }
}

TEST(TimingFingerprint, CapturesExactlyTheTimingRelevantSlice)
{
    const arch::GpuSpec base = arch::GpuSpec::gtx285();
    const arch::TimingFingerprint fp = arch::TimingFingerprint::of(base);

    // Timing-irrelevant edits: same fingerprint.
    arch::GpuSpec renamed = base;
    renamed.name = "other name";
    EXPECT_EQ(fp.key(), arch::TimingFingerprint::of(renamed).key());
    EXPECT_TRUE(fp == arch::TimingFingerprint::of(renamed));
    arch::GpuSpec banks = base;
    banks.numSharedBanks = 17;
    banks.coalesceGroup = 32;
    EXPECT_TRUE(fp == arch::TimingFingerprint::of(banks));

    // Timing-relevant edits: distinct fingerprints.
    arch::GpuSpec lat = base;
    lat.globalLatencyCycles *= 2;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(lat));
    arch::GpuSpec clk = base;
    clk.coreClockHz *= 1.25;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(clk));
    arch::GpuSpec occ = base;
    occ.maxBlocksPerSm = 16;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(occ));
    arch::GpuSpec tex = base;
    tex.textureCacheEnabled = true;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(tex));
}

TEST(TimingMemo, SharedTimingServesBitIdenticalCells)
{
    // Two specs that differ only in a timing-irrelevant way (the
    // name) share both the profile AND the timing replay; a spec with
    // different timing fields shares only the profile. Either way the
    // results must equal the per-cell pipeline (which shares nothing)
    // exactly.
    std::vector<KernelCase> cases = {
        driver::makeStencil1dCase("stencil1d", 16, 256),
        driver::makeSpmvEllCase("spmv-ell", 96, 7)};
    std::vector<arch::GpuSpec> specs;
    specs.push_back(arch::GpuSpec::gtx285());
    arch::GpuSpec renamed = arch::GpuSpec::gtx285();
    renamed.name = "GTX 285 (renamed)";
    specs.push_back(renamed);
    arch::GpuSpec slow = arch::GpuSpec::gtx285();
    slow.name = "GTX 285 slow memory";
    slow.globalLatencyCycles *= 2;
    specs.push_back(slow);

    const auto tables = sharedFakeTables();
    driver::BatchRunner::Options with;
    with.numThreads = 2;
    driver::BatchRunner::Options per_cell;
    per_cell.numThreads = 2;
    per_cell.shareProfiles = false;
    driver::BatchRunner memo_runner(with);
    driver::BatchRunner plain_runner(per_cell);
    for (const auto &s : specs) {
        memo_runner.adoptCalibration(s, tables);
        plain_runner.adoptCalibration(s, tables);
    }
    auto memoized = memo_runner.run(cases, specs);
    auto plain = plain_runner.run(cases, specs);
    EXPECT_EQ(memo_runner.timingsComputed(), 4u)
        << "the renamed spec must reuse its twin's replays";
    ASSERT_EQ(memoized.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        ASSERT_TRUE(memoized[i].ok) << memoized[i].error;
        ASSERT_TRUE(plain[i].ok) << plain[i].error;
        EXPECT_TRUE(memoized[i].analysis.measurement.timing ==
                    plain[i].analysis.measurement.timing)
            << "cell " << i;
        EXPECT_EQ(memoized[i].analysis.prediction.totalSeconds,
                  plain[i].analysis.prediction.totalSeconds);
    }
}

TEST(AutoEngine, SelectsTheScanPathForTinyAndLowOccupancyLaunches)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const TimingSimulator sim(spec, ReplayEngine::kAuto);
    EXPECT_EQ(sim.engine(), ReplayEngine::kAuto);

    // The ROADMAP's ~720-op saxpy: far under the op threshold, so the
    // legacy scan engine replays it.
    const auto tiny =
        simulate(driver::makeSaxpyCase("saxpy-tiny", 8, 128, 2.0f),
                 spec);
    EXPECT_LT(tiny.trace.totalOps(), kAutoMinOps);
    EXPECT_EQ(sim.resolveEngine(tiny.trace),
              ReplayEngine::kLegacyScan);

    // A big high-occupancy stencil crosses both thresholds: the
    // event-driven engine keeps its 3-4x win there.
    const auto big =
        simulate(driver::makeStencil1dCase("stencil-big", 128, 256),
                 spec);
    EXPECT_GE(big.trace.totalOps(), kAutoMinOps);
    EXPECT_EQ(sim.resolveEngine(big.trace),
              ReplayEngine::kEventDriven);

    // Many ops but low residency (a shared-memory footprint that
    // lets only one 4-warp block reside): the per-issue scan over a
    // handful of live warps is the cheap path.
    const auto narrow =
        simulate(driver::makeStencil1dCase("stencil-narrow", 256, 128),
                 spec);
    funcsim::LaunchTrace cramped = narrow.trace;
    cramped.sharedBytesPerBlock = spec.sharedMemPerSm / 2;
    EXPECT_GE(cramped.totalOps(), kAutoMinOps);
    EXPECT_EQ(sim.resolveEngine(cramped),
              ReplayEngine::kLegacyScan);

    // Explicit engines are never second-guessed.
    EXPECT_EQ(TimingSimulator(spec, ReplayEngine::kEventDriven)
                  .resolveEngine(tiny.trace),
              ReplayEngine::kEventDriven);
    EXPECT_EQ(TimingSimulator(spec, ReplayEngine::kLegacyScan)
                  .resolveEngine(big.trace),
              ReplayEngine::kLegacyScan);
}

TEST(AutoEngine, IsBitIdenticalToBothExplicitEnginesEitherWay)
{
    // kAuto must be a pure dispatch: whatever it picks, the
    // TimingResult equals both explicit engines exactly — pinned on a
    // launch from each side of the thresholds, end-to-end through a
    // kAuto AnalysisSession.
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    for (const KernelCase &kc :
         {driver::makeSaxpyCase("saxpy-tiny", 8, 128, 2.0f),
          driver::makeStencil1dCase("stencil-big", 64, 256)}) {
        const auto res = simulate(kc, spec);
        const TimingResult culled =
            TimingSimulator(spec, ReplayEngine::kAuto).run(res.trace);
        const TimingResult event =
            TimingSimulator(spec, ReplayEngine::kEventDriven)
                .run(res.trace);
        EXPECT_TRUE(culled == event) << kc.name;

        model::AnalysisSession plain(spec);
        model::SessionConfig autoConfig;
        autoConfig.engine = ReplayEngine::kAuto;
        model::AnalysisSession culling(spec, autoConfig);
        plain.adoptCalibration(sharedFakeTables());
        culling.adoptCalibration(sharedFakeTables());
        driver::PreparedLaunch a = kc.make();
        driver::PreparedLaunch b = kc.make();
        const auto pa =
            plain.analyze(a.kernel, a.cfg, *a.gmem, a.options);
        const auto pb =
            culling.analyze(b.kernel, b.cfg, *b.gmem, b.options);
        EXPECT_TRUE(pa.measurement.timing == pb.measurement.timing)
            << kc.name;
        EXPECT_EQ(pa.prediction.totalSeconds,
                  pb.prediction.totalSeconds)
            << kc.name;
    }
}

} // namespace
} // namespace timing
} // namespace gpuperf
