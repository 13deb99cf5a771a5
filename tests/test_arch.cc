/**
 * @file
 * Machine-description tests: the GTX 285 numbers of paper Section 4,
 * the what-if presets, and the Table 1 classification.
 */

#include <gtest/gtest.h>

#include "arch/gpu_spec.h"
#include "arch/instr_class.h"
#include "expect_sim_error.h"

namespace gpuperf {
namespace arch {
namespace {

TEST(GpuSpec, Gtx285PeaksMatchPaperSection4)
{
    const GpuSpec s = GpuSpec::gtx285();
    s.validate();
    // Peak MAD throughput: 8 * 1.476 GHz * 30 / 32 ~ 11.1 Ginstr/s.
    EXPECT_NEAR(peakThroughput(s, InstrType::TypeII) / 1e9, 11.1, 0.2);
    // Single precision peak ~ 710 GFLOPS.
    EXPECT_NEAR(peakFlops(s) / 1e9, 710.0, 5.0);
    // Shared memory peak ~ 1420 GB/s.
    EXPECT_NEAR(s.peakSharedBandwidth() / 1e9, 1420.0, 10.0);
    // Global memory peak ~ 160 GB/s (2.484 GHz x 512 bits).
    EXPECT_NEAR(s.peakGlobalBandwidth() / 1e9, 159.0, 1.0);
    EXPECT_EQ(s.numClusters(), 10);
}

TEST(GpuSpec, ClusterBytesPerCycle)
{
    const GpuSpec s = GpuSpec::gtx285();
    EXPECT_NEAR(s.clusterBytesPerCycle(),
                s.peakGlobalBandwidth() / 10 / s.coreClockHz, 1e-9);
}

TEST(GpuSpec, WhatIfPresets)
{
    EXPECT_EQ(GpuSpec::gtx285MoreBlocks().maxBlocksPerSm, 16);
    EXPECT_EQ(GpuSpec::gtx285BigResources().registersPerSm, 32768);
    EXPECT_EQ(GpuSpec::gtx285BigResources().sharedMemPerSm, 32768);
    EXPECT_EQ(GpuSpec::gtx285PrimeBanks().numSharedBanks, 17);
    EXPECT_EQ(GpuSpec::gtx285SmallSegments(16).minSegmentBytes, 16);
    EXPECT_EQ(GpuSpec::gtx285SmallSegments(4).minSegmentBytes, 4);
    for (const GpuSpec &s :
         {GpuSpec::gtx285MoreBlocks(), GpuSpec::gtx285BigResources(),
          GpuSpec::gtx285PrimeBanks(), GpuSpec::gtx285SmallSegments(16)})
        s.validate();
}

TEST(GpuSpecValidation, ValidationCatchesBadConfigs)
{
    GpuSpec s = GpuSpec::gtx285();
    s.numSms = 31;  // not divisible into clusters of 3
    EXPECT_SIM_ERROR(s.validate(), "not divisible");

    GpuSpec s2 = GpuSpec::gtx285();
    s2.minSegmentBytes = 48;  // not a power of two
    EXPECT_SIM_ERROR(s2.validate(), "power of two");

    GpuSpec s3 = GpuSpec::gtx285();
    s3.maxSegmentBytes = 16;  // below min
    EXPECT_SIM_ERROR(s3.validate(), "segment sizes");
}

TEST(InstrClass, Table1UnitCounts)
{
    const GpuSpec s = GpuSpec::gtx285();
    EXPECT_EQ(functionalUnits(s, InstrType::TypeI), 10);
    EXPECT_EQ(functionalUnits(s, InstrType::TypeII), 8);
    EXPECT_EQ(functionalUnits(s, InstrType::TypeIII), 4);
    EXPECT_EQ(functionalUnits(s, InstrType::TypeIV), 1);
}

TEST(InstrClass, IssueIntervals)
{
    const GpuSpec s = GpuSpec::gtx285();
    EXPECT_DOUBLE_EQ(issueIntervalCycles(s, InstrType::TypeI), 3.2);
    EXPECT_DOUBLE_EQ(issueIntervalCycles(s, InstrType::TypeII), 4.0);
    EXPECT_DOUBLE_EQ(issueIntervalCycles(s, InstrType::TypeIII), 8.0);
    EXPECT_DOUBLE_EQ(issueIntervalCycles(s, InstrType::TypeIV), 32.0);
}

TEST(InstrClass, NamesAndExamples)
{
    EXPECT_STREQ(instrTypeName(InstrType::TypeI), "Type I");
    EXPECT_STREQ(instrTypeName(InstrType::TypeIV), "Type IV");
    EXPECT_STREQ(instrTypeExamples(InstrType::TypeI), "mul");
    EXPECT_NE(std::string(instrTypeExamples(InstrType::TypeIII))
                  .find("rcp"),
              std::string::npos);
}

TEST(InstrClass, ThroughputOrdering)
{
    const GpuSpec s = GpuSpec::gtx285();
    EXPECT_GT(peakThroughput(s, InstrType::TypeI),
              peakThroughput(s, InstrType::TypeII));
    EXPECT_GT(peakThroughput(s, InstrType::TypeII),
              peakThroughput(s, InstrType::TypeIII));
    EXPECT_GT(peakThroughput(s, InstrType::TypeIII),
              peakThroughput(s, InstrType::TypeIV));
}

} // namespace
} // namespace arch
} // namespace gpuperf
