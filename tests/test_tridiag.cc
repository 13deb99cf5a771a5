/**
 * @file
 * Cyclic reduction: functional correctness against the Thomas
 * reference, bank-conflict behavior of CR vs CR-NBC, stage structure,
 * and the shared-memory transaction identity of paper Figure 7(b).
 */

#include <gtest/gtest.h>

#include "apps/tridiag/cyclic_reduction.h"
#include "arch/occupancy.h"
#include "funcsim/interpreter.h"
#include "expect_sim_error.h"

namespace gpuperf {
namespace apps {
namespace {

arch::GpuSpec
spec()
{
    return arch::GpuSpec::gtx285();
}

struct CrCase
{
    int n;
    int systems;
    bool padded;
};

class CrCorrectness : public ::testing::TestWithParam<CrCase> {};

TEST_P(CrCorrectness, MatchesThomas)
{
    const CrCase c = GetParam();
    funcsim::GlobalMemory gmem(64 << 20);
    TridiagProblem p = makeTridiagProblem(gmem, c.n, c.systems, c.padded);
    isa::Kernel k = makeCyclicReductionKernel(p);
    funcsim::FunctionalSimulator sim(spec());
    sim.run(k, p.launch(), gmem);
    EXPECT_LT(tridiagMaxError(gmem, p), 5e-3)
        << "n=" << c.n << " systems=" << c.systems
        << " padded=" << c.padded;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CrCorrectness,
    ::testing::Values(CrCase{16, 1, false}, CrCase{16, 1, true},
                      CrCase{64, 4, false}, CrCase{64, 4, true},
                      CrCase{128, 3, false}, CrCase{256, 2, true},
                      CrCase{512, 2, false}, CrCase{512, 2, true}));

TEST(CyclicReduction, ThomasSolvesKnownSystem)
{
    // [2 1; 1 2] x = [3; 3] -> x = [1; 1].
    const float a[2] = {0.0f, 1.0f};
    const float b[2] = {2.0f, 2.0f};
    const float c[2] = {1.0f, 0.0f};
    const float d[2] = {3.0f, 3.0f};
    double x[2];
    cpuThomas(a, b, c, d, x, 2);
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(CyclicReduction, ConflictFactorDoublesPerForwardStep)
{
    // Paper Figure 5: step k has min(2^k, 16)-way conflicts.
    funcsim::GlobalMemory gmem(16 << 20);
    TridiagProblem p = makeTridiagProblem(gmem, 512, 1, false);
    isa::Kernel k = makeCyclicReductionKernel(p, /*forward_only=*/true);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(k, p.launch(), gmem);
    // Stage s = forward step s (stage 0 is the load).
    const auto &stages = res.stats.stages;
    ASSERT_GE(stages.size(), 10u);
    for (int step = 1; step <= 4; ++step) {
        const auto &s = stages[step];
        ASSERT_GT(s.sharedTransactionsIdeal, 0u) << "step " << step;
        const double factor =
            static_cast<double>(s.sharedTransactions) /
            s.sharedTransactionsIdeal;
        EXPECT_NEAR(factor, 1 << step, 0.45 * (1 << step))
            << "step " << step;
    }
}

TEST(CyclicReduction, PaddingRemovesMostConflicts)
{
    funcsim::GlobalMemory g1(16 << 20);
    funcsim::GlobalMemory g2(16 << 20);
    TridiagProblem cr = makeTridiagProblem(g1, 512, 1, false);
    TridiagProblem nbc = makeTridiagProblem(g2, 512, 1, true);
    funcsim::FunctionalSimulator sim(spec());
    auto r1 = sim.run(makeCyclicReductionKernel(cr), cr.launch(), g1);
    auto r2 = sim.run(makeCyclicReductionKernel(nbc), nbc.launch(), g2);

    const double f1 =
        static_cast<double>(r1.stats.totalSharedTransactions()) /
        std::max<uint64_t>(1, [&] {
            uint64_t v = 0;
            for (const auto &s : r1.stats.stages)
                v += s.sharedTransactionsIdeal;
            return v;
        }());
    const double f2 =
        static_cast<double>(r2.stats.totalSharedTransactions()) /
        std::max<uint64_t>(1, [&] {
            uint64_t v = 0;
            for (const auto &s : r2.stats.stages)
                v += s.sharedTransactionsIdeal;
            return v;
        }());
    EXPECT_GT(f1, 3.0);   // CR suffers heavy serialization
    EXPECT_LT(f2, 1.5);   // CR-NBC is nearly conflict-free
}

TEST(CyclicReduction, ForwardTransactionsStayFlatWithConflicts)
{
    // Paper Figure 7(b): the work halves per step but conflicts double,
    // so shared transactions stay roughly constant in steps 1..4.
    funcsim::GlobalMemory gmem(16 << 20);
    TridiagProblem p = makeTridiagProblem(gmem, 512, 1, false);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(makeCyclicReductionKernel(p, true), p.launch(),
                       gmem);
    const auto &st = res.stats.stages;
    const double s1 = static_cast<double>(st[1].sharedTransactions);
    for (int step = 2; step <= 4; ++step) {
        const double s =
            static_cast<double>(st[step].sharedTransactions);
        EXPECT_GT(s, 0.5 * s1) << "step " << step;
        EXPECT_LT(s, 1.6 * s1) << "step " << step;
    }
    // Without conflicts the transactions would halve per step.
    const double i1 =
        static_cast<double>(st[1].sharedTransactionsIdeal);
    const double i3 =
        static_cast<double>(st[3].sharedTransactionsIdeal);
    EXPECT_NEAR(i3, i1 / 4.0, 0.35 * i1);
}

TEST(CyclicReduction, ActiveWarpsHalvePerStep)
{
    funcsim::GlobalMemory gmem(16 << 20);
    TridiagProblem p = makeTridiagProblem(gmem, 512, 1, false);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(makeCyclicReductionKernel(p, true), p.launch(),
                       gmem);
    const auto &st = res.stats.stages;
    // Paper Figure 6: steps 1..3 run 8, 4, 2 warps; later steps 1.
    EXPECT_NEAR(st[1].activeWarpsPerBlock, 8.0, 0.01);
    EXPECT_NEAR(st[2].activeWarpsPerBlock, 4.0, 0.01);
    EXPECT_NEAR(st[3].activeWarpsPerBlock, 2.0, 0.01);
    EXPECT_NEAR(st[4].activeWarpsPerBlock, 1.0, 0.01);
    EXPECT_NEAR(st[5].activeWarpsPerBlock, 1.0, 0.01);
}

TEST(CyclicReduction, OneBlockPerSmBySharedUsage)
{
    funcsim::GlobalMemory gmem(16 << 20);
    TridiagProblem p = makeTridiagProblem(gmem, 512, 2, false);
    isa::Kernel k = makeCyclicReductionKernel(p);
    arch::KernelResources res{k.numRegisters(), k.sharedBytes(),
                              p.launch().blockDim};
    arch::Occupancy occ = arch::computeOccupancy(spec(), res);
    EXPECT_EQ(occ.residentBlocks, 1);
    EXPECT_EQ(occ.limit, arch::OccupancyLimit::SharedMemory);
}

TEST(CyclicReduction, StageCountMatchesStructure)
{
    funcsim::GlobalMemory gmem(16 << 20);
    TridiagProblem p = makeTridiagProblem(gmem, 64, 1, false);
    funcsim::FunctionalSimulator sim(spec());
    auto full = sim.run(makeCyclicReductionKernel(p), p.launch(), gmem);
    // load + 6 forward + solve + 6 backward + store = 15 stages.
    EXPECT_EQ(full.stats.stages.size(), 15u);
}

TEST(TridiagErrors, RejectsBadSizes)
{
    funcsim::GlobalMemory gmem(1 << 20);
    EXPECT_SIM_ERROR(makeTridiagProblem(gmem, 100, 1, false),
                     "power of two");
    EXPECT_SIM_ERROR(makeTridiagProblem(gmem, 8, 1, true),
                     "multiple of 16");
}

} // namespace
} // namespace apps
} // namespace gpuperf
