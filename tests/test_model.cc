/**
 * @file
 * Model-layer tests: calibration-table lookups, the info extractor,
 * the performance model's combination rules, the roofline baseline,
 * and the report metrics. Uses injected tables so no microbenchmark
 * sweep is needed — except the calibration pins, which run the real
 * sweep serially and on thread pools and compare the tables bit for
 * bit.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/thread_pool.h"
#include "model/extractor.h"
#include "model/perf_model.h"
#include "model/report.h"
#include "model/roofline.h"
#include "store/codecs.h"
#include "expect_sim_error.h"

namespace gpuperf {
namespace model {
namespace {

/** Hand-made tables: throughput proportional to warps, saturating. */
CalibrationTables
fakeTables()
{
    CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        const double peak = 2e10 / (1 << type);  // type II = 1e10
        for (int w = 1; w <= 32; ++w) {
            t.instrThroughput[type][w] =
                peak * std::min(1.0, w / 6.0);
        }
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 10.0);
    return t;
}

TEST(CalibrationTables, LookupInterpolatesAndClamps)
{
    CalibrationTables t = fakeTables();
    EXPECT_DOUBLE_EQ(t.lookupInstr(arch::InstrType::TypeII, 3.0),
                     1e10 * 0.5);
    // Linear interpolation between 3 and 4 warps.
    EXPECT_NEAR(t.lookupInstr(arch::InstrType::TypeII, 3.5),
                1e10 * (3.5 / 6.0), 1e6);
    // Clamped below 1 and above maxWarps.
    EXPECT_DOUBLE_EQ(t.lookupInstr(arch::InstrType::TypeII, 0.2),
                     t.lookupInstr(arch::InstrType::TypeII, 1.0));
    EXPECT_DOUBLE_EQ(t.lookupInstr(arch::InstrType::TypeII, 99.0), 1e10);
    EXPECT_DOUBLE_EQ(t.sharedBandwidth(10.0), 2e10 * 64);
}

funcsim::DynamicStats
makeStats(int grid, int block_dim)
{
    funcsim::DynamicStats stats;
    stats.gridDim = grid;
    stats.blockDim = block_dim;
    stats.warpsPerBlock = block_dim / 32;
    funcsim::StageStats s;
    s.typeCounts[1] = 1000;
    s.madCount = 800;
    s.totalWarpInstrs = 1200;
    s.sharedTransactions = 400;
    s.sharedTransactionsIdeal = 200;
    s.sharedBytes = 400 * 64;
    s.globalTransactions = 300;
    s.globalBytes = 300 * 64;
    s.globalRequestBytes = 300 * 32;
    s.globalXactBySize[64] = 300;
    s.activeWarpsPerBlock = stats.warpsPerBlock;
    stats.stages.push_back(s);
    return stats;
}

// --- The real microbenchmark sweep, serial vs fanned out ------------

/** The benchmark's base GPU: a GTX 285 cut to 6 SMs, 16 warps/SM. */
arch::GpuSpec
gt200Sm6()
{
    arch::GpuSpec s = arch::GpuSpec::gtx285();
    s.name = "GT200-6sm";
    s.numSms = 6;
    s.maxWarpsPerSm = 16;
    s.maxThreadsPerSm = 512;
    s.validate();
    return s;
}

/**
 * One-block max 8 warps under a 12-warp SM: warp counts 10 and 12 run
 * as two blocks, and 9 and 11 come from the gap fill.
 */
arch::GpuSpec
twoBlockCut()
{
    arch::GpuSpec s = arch::GpuSpec::gtx285();
    s.name = "GT200-3sm-two-block";
    s.numSms = 3;
    s.maxWarpsPerSm = 12;
    s.maxThreadsPerSm = 384;
    s.maxThreadsPerBlock = 256;
    s.validate();
    return s;
}

/** Fresh calibration of @p spec, on @p threads pool workers (0: none). */
std::shared_ptr<const CalibrationTables>
calibrateOn(const arch::GpuSpec &spec, int threads)
{
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0)
        pool = std::make_unique<ThreadPool>(threads);
    SimulatedDevice device(spec);
    Calibrator calibrator(device);
    return calibrator.sharedTables(pool.get());
}

void
expectBitIdentical(const std::vector<double> &want,
                   const std::vector<double> &got, const char *what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (size_t w = 0; w < want.size(); ++w)
        EXPECT_EQ(std::memcmp(&want[w], &got[w], sizeof(double)), 0)
            << what << " at " << w << " warps: " << want[w] << " vs "
            << got[w];
}

/**
 * Serial, 1-thread-pool and 4-thread-pool sweeps agree bit for bit,
 * and the serial tables match the digest the one-loop sweep produced
 * (the parallel sweep must change nothing but the wall time).
 */
void
expectPinnedSweep(const arch::GpuSpec &spec, uint64_t golden_digest)
{
    const auto serial = calibrateOn(spec, 0);
    EXPECT_EQ(store::tablesDigest(*serial), golden_digest)
        << spec.name << ": calibration tables moved";
    for (int threads : {1, 4}) {
        SCOPED_TRACE(spec.name + " on " + std::to_string(threads) +
                     " pool threads");
        const auto fanned = calibrateOn(spec, threads);
        EXPECT_EQ(fanned->maxWarps, serial->maxWarps);
        EXPECT_EQ(fanned->bytesPerPass, serial->bytesPerPass);
        for (int type = 0; type < arch::kNumInstrTypes; ++type)
            expectBitIdentical(serial->instrThroughput[type],
                               fanned->instrThroughput[type],
                               arch::instrTypeName(
                                   arch::kAllInstrTypes[type]));
        expectBitIdentical(serial->sharedPassThroughput,
                           fanned->sharedPassThroughput, "shared");
    }
}

TEST(Calibration, PoolSweepIsBitIdenticalToSerial)
{
    expectPinnedSweep(gt200Sm6(), 0xf92da283f48c4477ull);
}

TEST(Calibration, PoolSweepIsBitIdenticalWithTwoBlockConfigsAndGapFill)
{
    const arch::GpuSpec spec = twoBlockCut();
    const std::vector<int> sampled = Calibrator::sweepWarpCounts(spec);
    EXPECT_EQ(sampled, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 10, 12}));
    expectPinnedSweep(spec, 0x3df992a177192c60ull);
}

TEST(InfoExtractor, ComputesConcurrencyAndSerialization)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    InfoExtractor ex(spec);
    arch::KernelResources res{16, 1024, 128};

    // Plenty of blocks: residency-limited concurrency, overlapped.
    ModelInput many = ex.extract(makeStats(600, 128), res);
    EXPECT_GT(many.concurrentBlocksPerSm, 1);
    EXPECT_FALSE(many.stagesSerialized);

    // A single block per SM by shared-memory usage: serialized.
    arch::KernelResources fat{16, 10240, 256};
    ModelInput one = ex.extract(makeStats(600, 256), fat);
    EXPECT_EQ(one.concurrentBlocksPerSm, 1);
    EXPECT_TRUE(one.stagesSerialized);

    // A grid smaller than the machine also caps concurrency.
    ModelInput small = ex.extract(makeStats(30, 128), res);
    EXPECT_EQ(small.concurrentBlocksPerSm, 1);
}

TEST(InfoExtractor, Effective64TransactionsWeighSizes)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    InfoExtractor ex(spec);
    arch::KernelResources res{16, 0, 128};

    funcsim::DynamicStats stats = makeStats(600, 128);
    ModelInput a = ex.extract(stats, res);
    // 300 transactions of 64 B are exactly 300 effective units.
    EXPECT_NEAR(a.stages[0].effective64Xacts, 300.0, 1e-9);

    // The same byte volume in 32 B transactions costs more than half
    // (per-transaction overhead) but less than the same count of 64 B.
    stats.stages[0].globalXactBySize.clear();
    stats.stages[0].globalXactBySize[32] = 600;
    ModelInput b = ex.extract(stats, res);
    EXPECT_GT(b.stages[0].effective64Xacts, 300.0);
    EXPECT_LT(b.stages[0].effective64Xacts, 600.0);
}

TEST(InfoExtractor, ActiveWarpsScaleWithResidentBlocks)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    InfoExtractor ex(spec);
    arch::KernelResources res{10, 512, 64};  // 8 blocks resident
    ModelInput input = ex.extract(makeStats(600, 64), res);
    EXPECT_NEAR(input.stages[0].activeWarpsPerSm, 2.0 * 8, 1e-9);
}

class PerfModelTest : public ::testing::Test
{
  protected:
    PerfModelTest()
        : device_(arch::GpuSpec::gtx285()), calibrator_(device_)
    {
        calibrator_.setTablesForTesting(fakeTables());
    }

    SimulatedDevice device_;
    Calibrator calibrator_;
};

TEST_F(PerfModelTest, LinearCombinationAndBottleneck)
{
    PerformanceModel model(calibrator_);
    ModelInput input;
    input.gridDim = 600;
    input.blockDim = 128;
    input.concurrentBlocksPerSm = 4;
    input.stagesSerialized = false;
    StageInput s;
    s.typeCounts[1] = 1'000'000;  // type II @ 1e10/s -> 0.1 ms
    s.sharedTransactions = 10'000'000;  // @ 2e10/s -> 0.5 ms
    s.activeWarpsPerSm = 16;
    input.stages.push_back(s);

    Prediction p = model.predict(input);
    EXPECT_NEAR(p.tInstrTotal, 1e-4, 1e-6);
    EXPECT_NEAR(p.tSharedTotal, 5e-4, 1e-6);
    EXPECT_EQ(p.bottleneck, Component::kShared);
    EXPECT_EQ(p.nextBottleneck, Component::kInstruction);
    EXPECT_NEAR(p.totalSeconds, 5e-4, 1e-6);
}

TEST_F(PerfModelTest, SerializedStagesSumTheirMaxima)
{
    PerformanceModel model(calibrator_);
    ModelInput input;
    input.gridDim = 30;
    input.blockDim = 256;
    input.concurrentBlocksPerSm = 1;
    input.stagesSerialized = true;

    // At 8 warps the fake tables give 1e10 type II instr/s and
    // 1.6e10 shared passes/s.
    StageInput s1;
    s1.typeCounts[1] = 2'000'000;       // 0.2 ms instruction
    s1.sharedTransactions = 1'000'000;  // 0.0625 ms shared
    s1.activeWarpsPerSm = 8;
    StageInput s2;
    s2.typeCounts[1] = 500'000;         // 0.05 ms instruction
    s2.sharedTransactions = 8'000'000;  // 0.5 ms shared
    s2.activeWarpsPerSm = 8;
    input.stages = {s1, s2};

    Prediction p = model.predict(input);
    // Serialized: max(0.2, 0.0625) + max(0.05, 0.5) = 0.7 ms.
    EXPECT_NEAR(p.totalSeconds, 7e-4, 2e-6);
    EXPECT_EQ(p.stages[0].bottleneck, Component::kInstruction);
    EXPECT_EQ(p.stages[1].bottleneck, Component::kShared);

    // Overlapped instead: max(0.25, 0.5625) = 0.5625 ms.
    input.stagesSerialized = false;
    Prediction q = model.predict(input);
    EXPECT_NEAR(q.totalSeconds, 5.625e-4, 2e-6);
    EXPECT_LE(q.totalSeconds, p.totalSeconds);
}

TEST_F(PerfModelTest, LowParallelismRaisesPredictedTimes)
{
    PerformanceModel model(calibrator_);
    ModelInput input;
    input.gridDim = 600;
    input.blockDim = 64;
    input.concurrentBlocksPerSm = 8;
    StageInput s;
    s.typeCounts[1] = 1'000'000;
    s.activeWarpsPerSm = 16;
    input.stages.push_back(s);
    const double fast = model.predict(input).totalSeconds;
    input.stages[0].activeWarpsPerSm = 3;  // half throughput in tables
    const double slow = model.predict(input).totalSeconds;
    EXPECT_NEAR(slow / fast, 2.0, 0.01);
}

TEST(Roofline, VerdictsMatchPaperExamples)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    // GEMM-like: 400 GFLOPS sustained -> compute bound.
    RooflineAnalysis gemm =
        analyzeRoofline(spec, 4e11, 1.2e10, 1.0);
    EXPECT_EQ(gemm.verdict, RooflineVerdict::kComputeBound);
    // Streaming-like: 120 GB/s -> memory bound.
    RooflineAnalysis stream =
        analyzeRoofline(spec, 3e10, 1.2e11, 1.0);
    EXPECT_EQ(stream.verdict, RooflineVerdict::kMemoryBound);
    // CR-like: 6 GFLOPS, 7 GB/s -> unexplained (paper Section 5.2).
    RooflineAnalysis cr = analyzeRoofline(spec, 6e9, 7e9, 1.0);
    EXPECT_EQ(cr.verdict, RooflineVerdict::kUnexplained);
    EXPECT_LT(cr.computeFraction, 0.05);
    EXPECT_LT(cr.memoryFraction, 0.05);
}

TEST(RooflineErrors, RejectsNonPositiveTime)
{
    EXPECT_SIM_ERROR(analyzeRoofline(arch::GpuSpec::gtx285(), 1.0, 1.0, 0.0),
                     "non-positive");
}

TEST(Report, MetricsFromStats)
{
    funcsim::DynamicStats stats = makeStats(600, 128);
    ReportMetrics m = computeMetrics(stats);
    EXPECT_NEAR(m.computationalDensity, 800.0 / 1200.0, 1e-9);
    EXPECT_NEAR(m.bankConflictFactor, 2.0, 1e-9);
    EXPECT_NEAR(m.coalescingEfficiency, 0.5, 1e-9);
    EXPECT_NEAR(m.avgActiveWarpsPerBlock, 4.0, 1e-9);
}

TEST(Report, RelativeError)
{
    EXPECT_NEAR(relativeError(1.1, 1.0), 0.1, 1e-12);
    EXPECT_NEAR(relativeError(0.9, 1.0), 0.1, 1e-12);
    EXPECT_DOUBLE_EQ(relativeError(5.0, 0.0), 0.0);
}

TEST(Report, PrintsWithoutCrashing)
{
    Prediction p;
    StagePrediction sp;
    sp.tInstr = 1e-3;
    sp.tShared = 2e-3;
    sp.bottleneck = Component::kShared;
    sp.stageTime = 2e-3;
    p.stages.push_back(sp);
    p.tInstrTotal = 1e-3;
    p.tSharedTotal = 2e-3;
    p.totalSeconds = 2e-3;
    p.bottleneck = Component::kShared;
    p.nextBottleneck = Component::kInstruction;
    std::ostringstream os;
    printPrediction(os, p);
    EXPECT_NE(os.str().find("shared memory"), std::string::npos);
}

TEST(Components, NamesAndAccessors)
{
    EXPECT_STREQ(componentName(Component::kInstruction),
                 "instruction pipeline");
    EXPECT_STREQ(componentName(Component::kGlobal), "global memory");
    StagePrediction sp;
    sp.tInstr = 1;
    sp.tShared = 2;
    sp.tGlobal = 3;
    EXPECT_DOUBLE_EQ(sp.component(Component::kInstruction), 1);
    EXPECT_DOUBLE_EQ(sp.component(Component::kShared), 2);
    EXPECT_DOUBLE_EQ(sp.component(Component::kGlobal), 3);
}

} // namespace
} // namespace model
} // namespace gpuperf
