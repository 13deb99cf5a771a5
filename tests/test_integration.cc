/**
 * @file
 * End-to-end workflow tests: the full Figure 1 pipeline on the three
 * case studies, checking that the model's error against the simulated
 * machine stays within a documented band and that the bottleneck
 * identifications match the paper's findings.
 *
 * The calibration sweep is kept in a calibration store under the
 * working directory so only the first test process pays for it.
 */

#include <gtest/gtest.h>

#include "apps/matmul/gemm.h"
#include "apps/spmv/kernels.h"
#include "apps/spmv/traffic.h"
#include "apps/tridiag/cyclic_reduction.h"
#include "model/session.h"
#include "store/calibration_store.h"

namespace gpuperf {
namespace model {
namespace {

SessionConfig
cachedConfig()
{
    SessionConfig config;
    config.tables = store::CalibrationStore("integration_calibrations")
                        .loadOrCalibrate(arch::GpuSpec::gtx285());
    return config;
}

TEST(Integration, CalibrationTablesAreSane)
{
    AnalysisSession session(arch::GpuSpec::gtx285(), cachedConfig());
    const CalibrationTables &t = session.calibrator().tables();
    const arch::GpuSpec &spec = session.spec();
    for (arch::InstrType type : arch::kAllInstrTypes) {
        const double peak = arch::peakThroughput(spec, type);
        double prev = 0.0;
        for (int w = 1; w <= t.maxWarps; ++w) {
            const double v = t.lookupInstr(type, w);
            EXPECT_GT(v, 0.0);
            EXPECT_LT(v, peak);
            EXPECT_GT(v, prev * 0.97);  // near-monotone in warps
            prev = v;
        }
        // Saturated throughput within 25% of the hardware peak.
        EXPECT_GT(t.lookupInstr(type, t.maxWarps), 0.75 * peak);
    }
    const double shared_peak = spec.peakSharedBandwidth();
    EXPECT_LT(t.sharedBandwidth(t.maxWarps), shared_peak);
    EXPECT_GT(t.sharedBandwidth(t.maxWarps), 0.7 * shared_peak);
    // Shared memory saturates later than the instruction pipeline
    // (paper Figure 2): at 6 warps type II is near saturation while
    // shared bandwidth still has >25% headroom.
    EXPECT_GT(t.lookupInstr(arch::InstrType::TypeII, 6) /
                  t.lookupInstr(arch::InstrType::TypeII, 32),
              0.9);
    EXPECT_LT(t.sharedBandwidth(6) / t.sharedBandwidth(32), 0.75);
}

TEST(Integration, GlobalBenchSaturatesAndSawtooths)
{
    AnalysisSession session(arch::GpuSpec::gtx285(), cachedConfig());
    Calibrator &cal = session.calibrator();
    const double peak = session.spec().peakGlobalBandwidth();

    const double bw4 = cal.runGlobalBench(4, 256, 96).bandwidth;
    const double bw40 = cal.runGlobalBench(40, 256, 96).bandwidth;
    EXPECT_GT(bw40, 2.5 * bw4);        // latency-bound region scales
    EXPECT_LT(bw40, peak);
    EXPECT_GT(bw40, 0.6 * peak);       // near saturation

    // Cluster sawtooth: 40 blocks (a multiple of the 10 clusters)
    // beats 41, whose leftover block unbalances one cluster.
    const double bw41 = cal.runGlobalBench(41, 256, 96).bandwidth;
    EXPECT_GT(bw40, bw41);
}

TEST(Integration, GemmModelErrorWithinBand)
{
    AnalysisSession session(arch::GpuSpec::gtx285(), cachedConfig());
    // Moderate size keeps the test quick; tail-wave effects are larger
    // than at the paper's 1024 scale, hence the wider band here.
    for (int tile : {16, 32}) {
        funcsim::GlobalMemory gmem(16 << 20);
        apps::GemmProblem p = apps::makeGemmProblem(gmem, 512, tile);
        funcsim::RunOptions run;
        run.homogeneous = true;
        Analysis a = session.analyze(apps::makeGemmKernel(p), p.launch(),
                                     gmem, run);
        EXPECT_LT(a.errorFraction(), 0.35) << "tile " << tile;
        if (tile == 32) {
            EXPECT_EQ(a.prediction.bottleneck, Component::kShared)
                << "32x32 must be shared-memory bound (paper 5.1)";
        } else {
            EXPECT_EQ(a.prediction.bottleneck, Component::kInstruction)
                << "16x16 must be instruction bound (paper 5.1)";
        }
    }
}

TEST(Integration, CyclicReductionMatchesPaperStory)
{
    AnalysisSession session(arch::GpuSpec::gtx285(), cachedConfig());

    funcsim::GlobalMemory g1(64 << 20);
    apps::TridiagProblem cr = apps::makeTridiagProblem(g1, 512, 512,
                                                       false);
    funcsim::RunOptions run;
    run.homogeneous = true;
    Analysis a_cr = session.analyze(apps::makeCyclicReductionKernel(cr),
                                    cr.launch(), g1, run);
    EXPECT_LT(a_cr.errorFraction(), 0.20);
    EXPECT_EQ(a_cr.prediction.bottleneck, Component::kShared);
    EXPECT_TRUE(a_cr.prediction.serialized);

    funcsim::GlobalMemory g2(64 << 20);
    apps::TridiagProblem nbc = apps::makeTridiagProblem(g2, 512, 512,
                                                        true);
    Analysis a_nbc = session.analyze(apps::makeCyclicReductionKernel(nbc),
                                     nbc.launch(), g2, run);
    EXPECT_LT(a_nbc.errorFraction(), 0.20);
    EXPECT_EQ(a_nbc.prediction.bottleneck, Component::kInstruction);

    // The paper's 1.6x padding speedup, within a generous band.
    const double speedup =
        a_cr.measurement.seconds() / a_nbc.measurement.seconds();
    EXPECT_GT(speedup, 1.3);
    EXPECT_LT(speedup, 2.6);

    // The model predicts the optimization's benefit in advance:
    // predicted CR time / predicted NBC time agrees in direction.
    EXPECT_GT(a_cr.prediction.totalSeconds,
              a_nbc.prediction.totalSeconds);
}

TEST(Integration, SpmvIsGlobalBoundAndAccuratelyModeled)
{
    AnalysisSession session(arch::GpuSpec::gtx285(), cachedConfig());
    apps::BlockSparseMatrix m = apps::makeBandedBlockMatrix(2048, 13, 24);
    const apps::SpmvFormat formats[] = {apps::SpmvFormat::kEll,
                                        apps::SpmvFormat::kBellIm,
                                        apps::SpmvFormat::kBellImIv};
    double times[3];
    int i = 0;
    for (apps::SpmvFormat f : formats) {
        funcsim::GlobalMemory gmem(128 << 20);
        apps::SpmvVectors v = apps::makeVectors(gmem, m);
        isa::Kernel k = [&] {
            if (f == apps::SpmvFormat::kEll) {
                apps::EllDeviceMatrix ell = apps::buildEll(gmem, m);
                return apps::makeEllKernel(ell, v, false);
            }
            apps::BellDeviceMatrix bell = apps::buildBell(gmem, m, true);
            return apps::makeBellKernel(
                bell, v, f == apps::SpmvFormat::kBellImIv, false);
        }();
        const int work =
            f == apps::SpmvFormat::kEll ? m.rows() : m.blockRows;
        Analysis a = session.analyze(
            k, {apps::spmvGridDim(work), apps::kSpmvBlockDim}, gmem);
        EXPECT_EQ(a.prediction.bottleneck, Component::kGlobal)
            << apps::spmvFormatName(f);
        EXPECT_LT(a.errorFraction(), 0.20) << apps::spmvFormatName(f);
        times[i++] = a.measurement.seconds();
    }
    // Paper Figure 12 ordering without the cache:
    // ELL slowest, BELL+IM middle, BELL+IMIV fastest.
    EXPECT_GT(times[0], times[1]);
    EXPECT_GT(times[1], times[2]);
}

} // namespace
} // namespace model
} // namespace gpuperf
