/**
 * @file
 * Occupancy calculator tests, including the paper's Table 2 regimes.
 */

#include <gtest/gtest.h>

#include "arch/occupancy.h"
#include "expect_sim_error.h"

namespace gpuperf {
namespace arch {
namespace {

TEST(Occupancy, BlockCeilingBindsSmallKernels)
{
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{/*regs*/ 10, /*smem*/ 512, /*threads*/ 64};
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_EQ(occ.residentBlocks, 8);
    EXPECT_EQ(occ.limit, OccupancyLimit::Blocks);
    EXPECT_EQ(occ.residentWarps, 16);
    EXPECT_EQ(occ.warpsPerBlock, 2);
}

TEST(Occupancy, SharedMemoryBindsLargeTiles)
{
    // The 32x32 GEMM regime of Table 2: ~4.2 KB shared per block.
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{44, 4224, 64};
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_EQ(occ.residentBlocks, 3);
    EXPECT_EQ(occ.limit, OccupancyLimit::SharedMemory);
    EXPECT_EQ(occ.residentWarps, 6);
}

TEST(Occupancy, RegistersBind)
{
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{60, 0, 256};
    // 60 * 256 = 15360 -> one block only.
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_EQ(occ.residentBlocks, 1);
    EXPECT_EQ(occ.limit, OccupancyLimit::Registers);
}

TEST(Occupancy, ThreadCeilingBinds)
{
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{4, 0, 512};
    // 1024 threads per SM -> 2 blocks of 512.
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_EQ(occ.residentBlocks, 2);
    EXPECT_EQ(occ.limit, OccupancyLimit::Threads);
    EXPECT_EQ(occ.residentWarps, 32);
}

TEST(Occupancy, CrSharedRegimeIsOneBlock)
{
    // Cyclic reduction: 5 arrays x 512 floats = 10240 B -> one block.
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{18, 10240, 256};
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_EQ(occ.residentBlocks, 1);
    EXPECT_EQ(occ.limit, OccupancyLimit::SharedMemory);
    EXPECT_EQ(occ.residentWarps, 8);
}

TEST(Occupancy, MoreBlocksVariantRaisesCeiling)
{
    GpuSpec spec = GpuSpec::gtx285MoreBlocks();
    KernelResources res{10, 512, 64};
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_EQ(occ.residentBlocks, 16);
    EXPECT_EQ(occ.residentWarps, 32);
}

TEST(Occupancy, BigResourcesVariantFitsMoreTiles)
{
    GpuSpec spec = GpuSpec::gtx285BigResources();
    KernelResources res{44, 4224, 64};
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_GE(occ.residentBlocks, 6);
}

TEST(Occupancy, RegisterAllocationRoundsPerBlock)
{
    GpuSpec spec = GpuSpec::gtx285();
    // 17 regs * 64 threads = 1088, rounded to 1536 -> 10 blocks by
    // registers (not 15).
    KernelResources res{17, 0, 64};
    Occupancy occ = computeOccupancy(spec, res);
    EXPECT_EQ(occ.blocksByRegisters, 16384 / 1536);
}

TEST(Occupancy, WarpCeilingBinds)
{
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{2, 0, 128};
    Occupancy occ = computeOccupancy(spec, res);
    // 128 threads = 4 warps; 32-warp ceiling and the 8-block ceiling
    // both give 8 blocks; the tie resolves to the first-listed limit.
    EXPECT_EQ(occ.residentBlocks, 8);
    EXPECT_EQ(occ.residentWarps, 32);
}

TEST(OccupancyErrors, RejectsOversizedBlocks)
{
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{4, 0, 1024};
    EXPECT_SIM_ERROR(computeOccupancy(spec, res), "block ceiling");
}

TEST(OccupancyErrors, RejectsKernelsThatDoNotFit)
{
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources res{4, 20000, 64};
    EXPECT_SIM_ERROR(computeOccupancy(spec, res), "does not fit");
}

struct OccCase
{
    int regs;
    int smem;
    int threads;
};

class OccupancyMonotonic : public ::testing::TestWithParam<OccCase> {};

TEST_P(OccupancyMonotonic, MoreResourcesNeverLowerOccupancy)
{
    const OccCase c = GetParam();
    GpuSpec base = GpuSpec::gtx285();
    GpuSpec big = GpuSpec::gtx285BigResources();
    KernelResources res{c.regs, c.smem, c.threads};
    EXPECT_GE(computeOccupancy(big, res).residentBlocks,
              computeOccupancy(base, res).residentBlocks);
}

TEST_P(OccupancyMonotonic, MoreRegistersPerThreadNeverRaiseOccupancy)
{
    const OccCase c = GetParam();
    GpuSpec spec = GpuSpec::gtx285();
    KernelResources lean{c.regs, c.smem, c.threads};
    KernelResources fat{c.regs + 8, c.smem, c.threads};
    EXPECT_LE(computeOccupancy(spec, fat).residentBlocks,
              computeOccupancy(spec, lean).residentBlocks);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OccupancyMonotonic,
    ::testing::Values(OccCase{10, 512, 64}, OccCase{20, 1088, 64},
                      OccCase{44, 4224, 64}, OccCase{18, 10240, 256},
                      OccCase{16, 0, 128}, OccCase{32, 2048, 256},
                      OccCase{8, 8192, 512}));

} // namespace
} // namespace arch
} // namespace gpuperf
