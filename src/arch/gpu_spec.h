/**
 * @file
 * Machine description for the modeled GPU.
 *
 * The default preset reproduces the NVIDIA GeForce GTX 285 (GT200) as
 * described in Section 4 of Zhang & Owens (HPCA 2011). What-if variants
 * used for the paper's architectural-improvement studies (Section 5) are
 * provided as named presets as well.
 */

#ifndef GPUPERF_ARCH_GPU_SPEC_H
#define GPUPERF_ARCH_GPU_SPEC_H

#include <cstdint>
#include <string>

namespace gpuperf {
namespace arch {

/**
 * Hard upper bound on lanes per warp. The functional simulator's
 * active masks are uint32_t bitfields and its SoA scratch buffers are
 * fixed arrays of this size; GpuSpec::validate() rejects wider warps.
 * This constant is the single place the limit lives.
 */
constexpr int kMaxWarpLanes = 32;

/**
 * Static hardware parameters of the modeled GPU.
 *
 * All per-SM resource ceilings from the paper are represented: register
 * file size, shared memory size, maximum threads, maximum resident
 * blocks, and maximum resident warps. Timing-related parameters
 * (pipeline depths, memory latency) parameterize the timing simulator
 * that plays the role of the physical board.
 */
struct GpuSpec
{
    std::string name = "GTX 285";

    // --- Compute organization -------------------------------------------
    /** Number of streaming multiprocessors. */
    int numSms = 30;
    /** SMs per cluster (TPC); cluster shares one memory pipeline. */
    int smsPerCluster = 3;
    /** Scalar processors (FPUs) per SM. */
    int spsPerSm = 8;
    /** Extra multipliers in the special functional units per SM. */
    int sfuMulPerSm = 2;
    /** Special-function units usable for transcendental ops per SM. */
    int sfuPerSm = 4;
    /** Double-precision units per SM. */
    int dpPerSm = 1;
    /** Threads per warp. */
    int warpSize = 32;
    /** Core (shader) clock in Hz. */
    double coreClockHz = 1.476e9;

    // --- Per-SM resource ceilings ----------------------------------------
    int registersPerSm = 16384;
    int sharedMemPerSm = 16384;      ///< bytes
    int maxThreadsPerSm = 1024;      ///< 32 warps
    int maxThreadsPerBlock = 512;    ///< launch ceiling per block
    int maxBlocksPerSm = 8;
    int maxWarpsPerSm = 32;
    /** Register allocation granularity (registers rounded per block). */
    int registerAllocUnit = 512;
    /** Shared memory allocation granularity in bytes. */
    int sharedAllocUnit = 512;
    /** Shared memory reserved per block by the runtime (kernel args). */
    int sharedStaticPerBlock = 16;

    // --- Shared memory organization ---------------------------------------
    int numSharedBanks = 16;
    int sharedBankWidth = 4;         ///< bytes per bank per cycle
    /** Threads per shared-memory access issue group (half warp). */
    int sharedIssueGroup = 16;

    // --- Global memory ------------------------------------------------------
    /** Effective memory clock in Hz (DDR already folded in). */
    double memClockHz = 2.484e9;
    /** Memory bus width in bits. */
    int busWidthBits = 512;
    /** Threads per coalescing group (half warp for CC 1.2/1.3). */
    int coalesceGroup = 16;
    /** Minimum memory segment (transaction) size in bytes. */
    int minSegmentBytes = 32;
    /** Maximum memory segment size in bytes. */
    int maxSegmentBytes = 128;

    // --- Timing-simulator parameters (the "hardware") ---------------------
    /**
     * Register read-after-write latency of the arithmetic pipelines, in
     * core cycles. ~24 cycles gives the paper's observed saturation of
     * type II instructions at about 6 warps (issue interval 4 cycles).
     */
    int aluDepCycles = 24;
    /**
     * Dependency latency of the shared-memory pipeline in core cycles.
     * Longer than the ALU latency, so shared memory needs more warps to
     * saturate (paper Figure 2, right).
     */
    int sharedDepCycles = 72;
    /**
     * Minimum interval between shared-memory passes issued by ONE warp,
     * in core cycles (per-warp bank buffering limit). This is what
     * makes shared-memory throughput scale with warp-level parallelism
     * — the paper's central shared-memory observation — regardless of
     * whether the serialized passes come from bank conflicts or from
     * independent accesses. One warp alone sustains at most
     * 1/interval of the pipe's pass rate (the pipe serves one pass
     * per warpSize/sharedIssueGroup cycles).
     */
    double warpSharedPassIntervalCycles = 18.0;
    /** Round-trip global memory latency in core cycles. */
    int globalLatencyCycles = 520;
    /** Fixed cluster-port overhead charged per memory transaction. */
    int transactionOverheadCycles = 2;
    /** Issue overhead cycles charged by the scheduler per instruction. */
    double issueOverheadCycles = 0.35;

    // --- Texture cache (extension; used for Fig. 12 +Cache variants) ------
    bool textureCacheEnabled = false;
    int textureCacheBytesPerCluster = 24576;
    int textureCacheLineBytes = 32;
    int textureCacheWays = 8;
    int textureHitLatencyCycles = 40;

    // --- Derived quantities -----------------------------------------------
    int numClusters() const { return numSms / smsPerCluster; }

    /** Peak DRAM bandwidth in bytes/s: memClock * busWidth / 8. */
    double peakGlobalBandwidth() const;

    /** Peak shared-memory bandwidth in bytes/s (paper Section 4.2). */
    double peakSharedBandwidth() const;

    /** DRAM bytes per core cycle for one cluster's memory pipeline. */
    double clusterBytesPerCycle() const;

    /**
     * Check every spec rule (positive divisors, ceilings, clocks,
     * segment and texture geometry); fatal() on the first violation.
     */
    void validate() const;

    /**
     * Deterministic serialization of EVERY field, used to key shared
     * calibrations: two specs with equal fingerprints behave
     * identically under simulation and may share tables. When adding
     * a field to this struct, add it to fingerprint() and to its field
     * list (api/codecs.h) as well;
     * GpuSpecFields.EveryFieldReachesFingerprintAndBothCodecs
     * (tests/test_codecs.cc) checks that every listed field reaches
     * fingerprint() and both codecs.
     */
    std::string fingerprint() const;

    // --- Presets -----------------------------------------------------------
    /** The paper's evaluation platform. */
    static GpuSpec gtx285();

    /** GTX 285 with the max-resident-blocks ceiling raised to 16 (§5.1). */
    static GpuSpec gtx285MoreBlocks();

    /** GTX 285 with doubled register file and shared memory (§5.1). */
    static GpuSpec gtx285BigResources();

    /** GTX 285 with a prime (17) number of shared banks (§5.2). */
    static GpuSpec gtx285PrimeBanks();

    /** GTX 285 with a smaller minimum transaction granularity (§5.3). */
    static GpuSpec gtx285SmallSegments(int min_segment_bytes);
};

/**
 * The slice of a GpuSpec the functional simulator reads — a sub-key of
 * GpuSpec::fingerprint(). Two specs with equal funcsim fingerprints
 * produce bit-identical dynamic statistics and replay traces for any
 * kernel launch, so they may share one KernelProfile even when their
 * timing, clock or occupancy fields differ (the launch-ceiling checks
 * the functional simulator also performs are re-validated per spec by
 * the profile consumer).
 *
 * When the functional simulator or the memory-transaction models start
 * reading a new GpuSpec field, add it here and to key() as well —
 * exactly like the GpuSpec::fingerprint() contract.
 */
struct FuncsimFingerprint
{
    int warpSize = 0;
    /** Coalescing generation: group width and segment size range. */
    int coalesceGroup = 0;
    int minSegmentBytes = 0;
    int maxSegmentBytes = 0;
    /** Shared-memory organization (bank conflicts, pass counting). */
    int numSharedBanks = 0;
    int sharedBankWidth = 0;
    int sharedIssueGroup = 0;
    /** Texture line size (LDT line-id generation in traces). */
    int textureCacheLineBytes = 0;

    /** Extract the funcsim-relevant slice of @p spec. */
    static FuncsimFingerprint of(const GpuSpec &spec);

    /** Deterministic serialization, usable as a cache key component. */
    std::string key() const;

    bool operator==(const FuncsimFingerprint &other) const;
    bool operator!=(const FuncsimFingerprint &other) const
    {
        return !(*this == other);
    }
};

/**
 * The slice of a GpuSpec the timing simulator reads — the
 * timing-relevant complement of FuncsimFingerprint (a sub-key of
 * GpuSpec::fingerprint()). Two specs with equal timing fingerprints
 * replay any given KernelProfile to bit-identical TimingResults:
 * everything the replay engines, the occupancy calculation they embed,
 * and the per-spec launch-ceiling revalidation consult is included.
 * Fields read only by the functional simulator (coalescing generation,
 * shared-bank organization) and the free-form name are excluded — a
 * TimingResult may be shared across specs differing only in those.
 *
 * When the timing simulator or the occupancy calculator starts
 * reading a new GpuSpec field, add it here and to key() as well —
 * exactly like the GpuSpec::fingerprint() contract.
 */
struct TimingFingerprint
{
    // Compute organization (issue intervals, clusters, clocks).
    int numSms = 0;
    int smsPerCluster = 0;
    int spsPerSm = 0;
    int sfuMulPerSm = 0;
    int sfuPerSm = 0;
    int dpPerSm = 0;
    int warpSize = 0;
    double coreClockHz = 0.0;
    // Occupancy ceilings and allocation granularity.
    int registersPerSm = 0;
    int sharedMemPerSm = 0;
    int maxThreadsPerSm = 0;
    int maxThreadsPerBlock = 0;
    int maxBlocksPerSm = 0;
    int maxWarpsPerSm = 0;
    int registerAllocUnit = 0;
    int sharedAllocUnit = 0;
    int sharedStaticPerBlock = 0;
    /** Shared pass width: warpSize / sharedIssueGroup cycles. */
    int sharedIssueGroup = 0;
    // Cluster memory pipeline rate.
    double memClockHz = 0.0;
    int busWidthBits = 0;
    // Pipeline latencies and overheads.
    int aluDepCycles = 0;
    int sharedDepCycles = 0;
    double warpSharedPassIntervalCycles = 0.0;
    int globalLatencyCycles = 0;
    int transactionOverheadCycles = 0;
    double issueOverheadCycles = 0.0;
    // Texture cache (geometry and latencies).
    bool textureCacheEnabled = false;
    int textureCacheBytesPerCluster = 0;
    int textureCacheLineBytes = 0;
    int textureCacheWays = 0;
    int textureHitLatencyCycles = 0;

    /** Extract the timing-relevant slice of @p spec. */
    static TimingFingerprint of(const GpuSpec &spec);

    /** Deterministic serialization, usable as a cache key component. */
    std::string key() const;

    bool operator==(const TimingFingerprint &other) const;
    bool operator!=(const TimingFingerprint &other) const
    {
        return !(*this == other);
    }
};

} // namespace arch
} // namespace gpuperf

#endif // GPUPERF_ARCH_GPU_SPEC_H
