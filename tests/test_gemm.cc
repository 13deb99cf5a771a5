/**
 * @file
 * Dense matrix multiply: functional correctness against the CPU
 * reference, dynamic-count identities (MADs = N^3/warpSize), and the
 * Table 2 occupancy regimes.
 */

#include <gtest/gtest.h>

#include "apps/matmul/gemm.h"
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

class GemmTiles : public ::testing::TestWithParam<int> {};

TEST_P(GemmTiles, MatchesCpuReference)
{
    const int tile = GetParam();
    const int size = 128;
    funcsim::GlobalMemory gmem(16 << 20);
    GemmProblem p = makeGemmProblem(gmem, size, tile);
    isa::Kernel k = makeGemmKernel(p);
    funcsim::FunctionalSimulator sim(spec());
    sim.run(k, p.launch(), gmem);
    EXPECT_LT(gemmMaxError(gmem, p), 2e-4) << "tile " << tile;
}

TEST_P(GemmTiles, MadCountIsNCubedOverWarpSize)
{
    const int tile = GetParam();
    const int size = 128;
    funcsim::GlobalMemory gmem(16 << 20);
    GemmProblem p = makeGemmProblem(gmem, size, tile);
    isa::Kernel k = makeGemmKernel(p);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(k, p.launch(), gmem);
    const uint64_t expect =
        static_cast<uint64_t>(size) * size * size / 32;
    EXPECT_EQ(res.stats.totalMads(), expect);
}

TEST_P(GemmTiles, SharedTrafficTracksMads)
{
    // Every MAD reads its B operand from shared memory (broadcast, so
    // two conflict-free passes per warp MAD) — plus the tile stores.
    const int tile = GetParam();
    const int size = 128;
    funcsim::GlobalMemory gmem(16 << 20);
    GemmProblem p = makeGemmProblem(gmem, size, tile);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(makeGemmKernel(p), p.launch(), gmem);
    const uint64_t mads = res.stats.totalMads();
    const uint64_t shared = res.stats.totalSharedTransactions();
    EXPECT_GE(shared, 2 * mads);
    EXPECT_LE(shared, 2 * mads + mads / 2);
}

TEST_P(GemmTiles, HomogeneousSamplingMatchesFullCounts)
{
    const int tile = GetParam();
    const int size = 128;
    funcsim::GlobalMemory g1(16 << 20);
    funcsim::GlobalMemory g2(16 << 20);
    GemmProblem p1 = makeGemmProblem(g1, size, tile);
    GemmProblem p2 = makeGemmProblem(g2, size, tile);
    funcsim::FunctionalSimulator sim(spec());
    auto full = sim.run(makeGemmKernel(p1), p1.launch(), g1);
    funcsim::RunOptions opts;
    opts.homogeneous = true;
    auto sampled = sim.run(makeGemmKernel(p2), p2.launch(), g2, opts);
    EXPECT_EQ(full.stats.totalWarpInstrs(),
              sampled.stats.totalWarpInstrs());
    EXPECT_EQ(full.stats.totalGlobalTransactions(),
              sampled.stats.totalGlobalTransactions());
    EXPECT_EQ(full.stats.totalSharedTransactions(),
              sampled.stats.totalSharedTransactions());
}

INSTANTIATE_TEST_SUITE_P(Tiles, GemmTiles, ::testing::Values(8, 16, 32));

TEST(GemmOccupancy, Table2Regimes)
{
    // Paper Table 2: 8x8 and 16x16 run 8 blocks (16 warps); 32x32 is
    // squeezed to 3 blocks (6 warps) by its resource usage.
    funcsim::GlobalMemory gmem(64 << 20);
    const arch::GpuSpec s = spec();
    int expected_blocks[3] = {8, 8, 3};
    int tiles[3] = {8, 16, 32};
    for (int i = 0; i < 3; ++i) {
        GemmProblem p = makeGemmProblem(gmem, 256, tiles[i]);
        isa::Kernel k = makeGemmKernel(p);
        arch::KernelResources res{k.numRegisters(), k.sharedBytes(), 64};
        arch::Occupancy occ = arch::computeOccupancy(s, res);
        EXPECT_EQ(occ.residentBlocks, expected_blocks[i])
            << "tile " << tiles[i];
        EXPECT_EQ(occ.residentWarps, expected_blocks[i] * 2);
    }
}

TEST(GemmOccupancy, RegisterUsageGrowsWithTile)
{
    funcsim::GlobalMemory gmem(64 << 20);
    int prev = 0;
    for (int tile : {8, 16, 32}) {
        GemmProblem p = makeGemmProblem(gmem, 128, tile);
        isa::Kernel k = makeGemmKernel(p);
        EXPECT_GT(k.numRegisters(), prev);
        prev = k.numRegisters();
    }
}

TEST(GemmCounts, LargerTilesReduceGlobalTraffic)
{
    // Paper Figure 4(a): global transactions drop roughly 2x per tile
    // doubling; total instructions decrease while MADs stay constant.
    const int size = 256;
    uint64_t xacts[3];
    uint64_t instrs[3];
    funcsim::FunctionalSimulator sim(spec());
    int i = 0;
    for (int tile : {8, 16, 32}) {
        funcsim::GlobalMemory gmem(16 << 20);
        GemmProblem p = makeGemmProblem(gmem, size, tile);
        funcsim::RunOptions opts;
        opts.homogeneous = true;
        auto res = sim.run(makeGemmKernel(p), p.launch(), gmem, opts);
        xacts[i] = res.stats.totalGlobalTransactions();
        instrs[i] = res.stats.totalWarpInstrs();
        ++i;
    }
    EXPECT_GT(xacts[0], xacts[1]);
    EXPECT_GT(xacts[1], xacts[2]);
    EXPECT_NEAR(static_cast<double>(xacts[0]) / xacts[1], 2.0, 0.35);
    EXPECT_GT(instrs[0], instrs[1]);
    EXPECT_GT(instrs[1], instrs[2]);
}

TEST(GemmCounts, ColumnLoadsAreCoalesced)
{
    funcsim::GlobalMemory gmem(16 << 20);
    GemmProblem p = makeGemmProblem(gmem, 128, 16);
    funcsim::FunctionalSimulator sim(spec());
    funcsim::RunOptions opts;
    opts.homogeneous = true;
    auto res = sim.run(makeGemmKernel(p), p.launch(), gmem, opts);
    // Fully coalesced kernel: requested bytes == transferred bytes.
    uint64_t req = 0;
    uint64_t got = 0;
    for (const auto &s : res.stats.stages) {
        req += s.globalRequestBytes;
        got += s.globalBytes;
    }
    EXPECT_EQ(req, got);
}

TEST(GemmErrors, RejectsBadTile)
{
    funcsim::GlobalMemory gmem(1 << 20);
    EXPECT_SIM_ERROR(makeGemmProblem(gmem, 128, 12), "tile");
}

TEST(GemmErrors, RejectsNonPowerOfTwoSize)
{
    funcsim::GlobalMemory gmem(1 << 20);
    EXPECT_SIM_ERROR(makeGemmProblem(gmem, 100, 16), "power of two");
}

} // namespace
} // namespace apps
} // namespace gpuperf
