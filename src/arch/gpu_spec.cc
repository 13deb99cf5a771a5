#include "arch/gpu_spec.h"

#include <cstdint>
#include <cstdio>

#include "common/logging.h"

namespace gpuperf {
namespace arch {

double
GpuSpec::peakGlobalBandwidth() const
{
    return memClockHz * busWidthBits / 8.0;
}

double
GpuSpec::peakSharedBandwidth() const
{
    // Paper Section 4.2: numberSP * numberSM * frequency * 4 B.
    return static_cast<double>(spsPerSm) * numSms * coreClockHz *
           sharedBankWidth;
}

double
GpuSpec::clusterBytesPerCycle() const
{
    return peakGlobalBandwidth() / numClusters() / coreClockHz;
}

void
GpuSpec::validate() const
{
    // Divisors first: the rules after these may divide by them.
    if (numSms <= 0 || smsPerCluster <= 0 || numSms % smsPerCluster != 0)
        fatal("GpuSpec '%s': SM count %d not divisible into clusters of %d",
              name.c_str(), numSms, smsPerCluster);
    if (warpSize <= 0 || coalesceGroup <= 0 || warpSize % coalesceGroup != 0)
        fatal("GpuSpec '%s': warp size %d not a multiple of the coalescing "
              "group %d", name.c_str(), warpSize, coalesceGroup);
    if (warpSize > kMaxWarpLanes)
        fatal("GpuSpec '%s': warp size %d exceeds the %d-lane limit",
              name.c_str(), warpSize, kMaxWarpLanes);
    if (minSegmentBytes <= 0 || maxSegmentBytes < minSegmentBytes)
        fatal("GpuSpec '%s': bad segment sizes [%d, %d]", name.c_str(),
              minSegmentBytes, maxSegmentBytes);
    if ((minSegmentBytes & (minSegmentBytes - 1)) != 0)
        fatal("GpuSpec '%s': minimum segment size %d not a power of two",
              name.c_str(), minSegmentBytes);
    if (numSharedBanks <= 0 || sharedBankWidth <= 0 || sharedIssueGroup <= 0)
        fatal("GpuSpec '%s': bad shared-memory organization (%d banks, "
              "%d B wide, issue group %d)", name.c_str(), numSharedBanks,
              sharedBankWidth, sharedIssueGroup);
    if (spsPerSm <= 0 || sfuMulPerSm < 0 || sfuPerSm < 0 || dpPerSm < 0)
        fatal("GpuSpec '%s': bad functional-unit counts", name.c_str());
    // !(x > 0) also rejects NaN clocks (JSON can carry "nan").
    if (!(coreClockHz > 0) || !(memClockHz > 0) || busWidthBits <= 0)
        fatal("GpuSpec '%s': bad clocks or bus width", name.c_str());
    if (registersPerSm < 0 || sharedMemPerSm < 0 || maxThreadsPerSm <= 0 ||
        maxThreadsPerBlock <= 0 || maxBlocksPerSm <= 0 ||
        maxWarpsPerSm <= 0 || registerAllocUnit <= 0 ||
        sharedAllocUnit <= 0 || sharedStaticPerBlock < 0)
        fatal("GpuSpec '%s': bad per-SM resource ceilings", name.c_str());
    if (int64_t{maxWarpsPerSm} * warpSize < maxThreadsPerSm)
        fatal("GpuSpec '%s': warp ceiling %d cannot cover thread ceiling %d",
              name.c_str(), maxWarpsPerSm, maxThreadsPerSm);
    if (aluDepCycles < 0 || sharedDepCycles < 0 ||
        !(warpSharedPassIntervalCycles >= 0) || globalLatencyCycles < 0 ||
        transactionOverheadCycles < 0 || !(issueOverheadCycles >= 0))
        fatal("GpuSpec '%s': bad timing parameters", name.c_str());
    // The functional simulator records texture lines even with the
    // cache disabled, so the line size is always a divisor.
    if (textureCacheLineBytes <= 0 ||
        (textureCacheEnabled &&
         (textureCacheBytesPerCluster <= 0 || textureCacheWays <= 0 ||
          textureHitLatencyCycles < 0)))
        fatal("GpuSpec '%s': bad texture-cache parameters", name.c_str());
}

std::string
GpuSpec::fingerprint() const
{
    // Every field, in declaration order. Keep in sync with the struct
    // (see the header comment on fingerprint()). The name is
    // concatenated separately so an arbitrarily long name can never
    // truncate the numeric fields out of the key.
    char buf[512];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "|sms=%d|spc=%d|sp=%d|sfum=%d|sfu=%d|dp=%d|ws=%d|clk=%.17g|"
        "regs=%d|smem=%d|thr=%d|tpb=%d|blk=%d|warps=%d|rau=%d|sau=%d|"
        "ssb=%d|banks=%d|bw=%d|ig=%d|mem=%.17g|bus=%d|cg=%d|seg=%d-%d|"
        "alu=%d|shd=%d|pass=%.17g|lat=%d|ovh=%d|iss=%.17g|"
        "tex=%d-%d-%d-%d-%d",
        numSms, smsPerCluster, spsPerSm, sfuMulPerSm,
        sfuPerSm, dpPerSm, warpSize, coreClockHz, registersPerSm,
        sharedMemPerSm, maxThreadsPerSm, maxThreadsPerBlock,
        maxBlocksPerSm, maxWarpsPerSm, registerAllocUnit,
        sharedAllocUnit, sharedStaticPerBlock, numSharedBanks,
        sharedBankWidth, sharedIssueGroup, memClockHz, busWidthBits,
        coalesceGroup, minSegmentBytes, maxSegmentBytes, aluDepCycles,
        sharedDepCycles, warpSharedPassIntervalCycles,
        globalLatencyCycles, transactionOverheadCycles,
        issueOverheadCycles, textureCacheEnabled ? 1 : 0,
        textureCacheBytesPerCluster, textureCacheLineBytes,
        textureCacheWays, textureHitLatencyCycles);
    GPUPERF_ASSERT(n > 0 && n < static_cast<int>(sizeof(buf)),
                   "GpuSpec fingerprint overflow");
    // Length-prefix the free-form name so a name containing
    // "|field=" text can never collide with another spec's fields.
    return std::to_string(name.size()) + ":" + name + buf;
}

FuncsimFingerprint
FuncsimFingerprint::of(const GpuSpec &spec)
{
    FuncsimFingerprint fp;
    fp.warpSize = spec.warpSize;
    fp.coalesceGroup = spec.coalesceGroup;
    fp.minSegmentBytes = spec.minSegmentBytes;
    fp.maxSegmentBytes = spec.maxSegmentBytes;
    fp.numSharedBanks = spec.numSharedBanks;
    fp.sharedBankWidth = spec.sharedBankWidth;
    fp.sharedIssueGroup = spec.sharedIssueGroup;
    fp.textureCacheLineBytes = spec.textureCacheLineBytes;
    return fp;
}

std::string
FuncsimFingerprint::key() const
{
    char buf[160];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "ws=%d|cg=%d|seg=%d-%d|banks=%d|bw=%d|ig=%d|texline=%d",
        warpSize, coalesceGroup, minSegmentBytes, maxSegmentBytes,
        numSharedBanks, sharedBankWidth, sharedIssueGroup,
        textureCacheLineBytes);
    GPUPERF_ASSERT(n > 0 && n < static_cast<int>(sizeof(buf)),
                   "FuncsimFingerprint key overflow");
    return buf;
}

bool
FuncsimFingerprint::operator==(const FuncsimFingerprint &other) const
{
    return warpSize == other.warpSize &&
           coalesceGroup == other.coalesceGroup &&
           minSegmentBytes == other.minSegmentBytes &&
           maxSegmentBytes == other.maxSegmentBytes &&
           numSharedBanks == other.numSharedBanks &&
           sharedBankWidth == other.sharedBankWidth &&
           sharedIssueGroup == other.sharedIssueGroup &&
           textureCacheLineBytes == other.textureCacheLineBytes;
}

TimingFingerprint
TimingFingerprint::of(const GpuSpec &spec)
{
    TimingFingerprint fp;
    fp.numSms = spec.numSms;
    fp.smsPerCluster = spec.smsPerCluster;
    fp.spsPerSm = spec.spsPerSm;
    fp.sfuMulPerSm = spec.sfuMulPerSm;
    fp.sfuPerSm = spec.sfuPerSm;
    fp.dpPerSm = spec.dpPerSm;
    fp.warpSize = spec.warpSize;
    fp.coreClockHz = spec.coreClockHz;
    fp.registersPerSm = spec.registersPerSm;
    fp.sharedMemPerSm = spec.sharedMemPerSm;
    fp.maxThreadsPerSm = spec.maxThreadsPerSm;
    fp.maxThreadsPerBlock = spec.maxThreadsPerBlock;
    fp.maxBlocksPerSm = spec.maxBlocksPerSm;
    fp.maxWarpsPerSm = spec.maxWarpsPerSm;
    fp.registerAllocUnit = spec.registerAllocUnit;
    fp.sharedAllocUnit = spec.sharedAllocUnit;
    fp.sharedStaticPerBlock = spec.sharedStaticPerBlock;
    fp.sharedIssueGroup = spec.sharedIssueGroup;
    fp.memClockHz = spec.memClockHz;
    fp.busWidthBits = spec.busWidthBits;
    fp.aluDepCycles = spec.aluDepCycles;
    fp.sharedDepCycles = spec.sharedDepCycles;
    fp.warpSharedPassIntervalCycles = spec.warpSharedPassIntervalCycles;
    fp.globalLatencyCycles = spec.globalLatencyCycles;
    fp.transactionOverheadCycles = spec.transactionOverheadCycles;
    fp.issueOverheadCycles = spec.issueOverheadCycles;
    fp.textureCacheEnabled = spec.textureCacheEnabled;
    fp.textureCacheBytesPerCluster = spec.textureCacheBytesPerCluster;
    fp.textureCacheLineBytes = spec.textureCacheLineBytes;
    fp.textureCacheWays = spec.textureCacheWays;
    fp.textureHitLatencyCycles = spec.textureHitLatencyCycles;
    return fp;
}

std::string
TimingFingerprint::key() const
{
    char buf[512];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "sms=%d|spc=%d|sp=%d|sfum=%d|sfu=%d|dp=%d|ws=%d|clk=%.17g|"
        "regs=%d|smem=%d|thr=%d|tpb=%d|blk=%d|warps=%d|rau=%d|sau=%d|"
        "ssb=%d|ig=%d|mem=%.17g|bus=%d|alu=%d|shd=%d|pass=%.17g|"
        "lat=%d|ovh=%d|iss=%.17g|tex=%d-%d-%d-%d-%d",
        numSms, smsPerCluster, spsPerSm, sfuMulPerSm, sfuPerSm, dpPerSm,
        warpSize, coreClockHz, registersPerSm, sharedMemPerSm,
        maxThreadsPerSm, maxThreadsPerBlock, maxBlocksPerSm,
        maxWarpsPerSm, registerAllocUnit, sharedAllocUnit,
        sharedStaticPerBlock, sharedIssueGroup, memClockHz, busWidthBits,
        aluDepCycles, sharedDepCycles, warpSharedPassIntervalCycles,
        globalLatencyCycles, transactionOverheadCycles,
        issueOverheadCycles, textureCacheEnabled ? 1 : 0,
        textureCacheBytesPerCluster, textureCacheLineBytes,
        textureCacheWays, textureHitLatencyCycles);
    GPUPERF_ASSERT(n > 0 && n < static_cast<int>(sizeof(buf)),
                   "TimingFingerprint key overflow");
    return buf;
}

bool
TimingFingerprint::operator==(const TimingFingerprint &other) const
{
    return numSms == other.numSms &&
           smsPerCluster == other.smsPerCluster &&
           spsPerSm == other.spsPerSm &&
           sfuMulPerSm == other.sfuMulPerSm &&
           sfuPerSm == other.sfuPerSm && dpPerSm == other.dpPerSm &&
           warpSize == other.warpSize &&
           coreClockHz == other.coreClockHz &&
           registersPerSm == other.registersPerSm &&
           sharedMemPerSm == other.sharedMemPerSm &&
           maxThreadsPerSm == other.maxThreadsPerSm &&
           maxThreadsPerBlock == other.maxThreadsPerBlock &&
           maxBlocksPerSm == other.maxBlocksPerSm &&
           maxWarpsPerSm == other.maxWarpsPerSm &&
           registerAllocUnit == other.registerAllocUnit &&
           sharedAllocUnit == other.sharedAllocUnit &&
           sharedStaticPerBlock == other.sharedStaticPerBlock &&
           sharedIssueGroup == other.sharedIssueGroup &&
           memClockHz == other.memClockHz &&
           busWidthBits == other.busWidthBits &&
           aluDepCycles == other.aluDepCycles &&
           sharedDepCycles == other.sharedDepCycles &&
           warpSharedPassIntervalCycles ==
               other.warpSharedPassIntervalCycles &&
           globalLatencyCycles == other.globalLatencyCycles &&
           transactionOverheadCycles == other.transactionOverheadCycles &&
           issueOverheadCycles == other.issueOverheadCycles &&
           textureCacheEnabled == other.textureCacheEnabled &&
           textureCacheBytesPerCluster ==
               other.textureCacheBytesPerCluster &&
           textureCacheLineBytes == other.textureCacheLineBytes &&
           textureCacheWays == other.textureCacheWays &&
           textureHitLatencyCycles == other.textureHitLatencyCycles;
}

GpuSpec
GpuSpec::gtx285()
{
    return GpuSpec{};
}

GpuSpec
GpuSpec::gtx285MoreBlocks()
{
    GpuSpec s;
    s.name = "GTX 285 + 16 resident blocks";
    s.maxBlocksPerSm = 16;
    return s;
}

GpuSpec
GpuSpec::gtx285BigResources()
{
    GpuSpec s;
    s.name = "GTX 285 + 2x registers/shared memory";
    s.registersPerSm *= 2;
    s.sharedMemPerSm *= 2;
    return s;
}

GpuSpec
GpuSpec::gtx285PrimeBanks()
{
    GpuSpec s;
    s.name = "GTX 285 + 17 shared banks";
    s.numSharedBanks = 17;
    return s;
}

GpuSpec
GpuSpec::gtx285SmallSegments(int min_segment_bytes)
{
    GpuSpec s;
    s.name = "GTX 285 + " + std::to_string(min_segment_bytes) +
             "B transactions";
    s.minSegmentBytes = min_segment_bytes;
    if (s.maxSegmentBytes < min_segment_bytes)
        s.maxSegmentBytes = min_segment_bytes;
    return s;
}

} // namespace arch
} // namespace gpuperf
