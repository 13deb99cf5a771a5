/**
 * @file
 * Binary codecs for the pipeline artifacts the stores persist:
 * functional-simulation profiles (stats + traces), calibration tables,
 * and full analysis/what-if results.
 *
 * Each type's encoding is its field list below, walked by the
 * visitors of store/fields.h; the writeX/readX functions are thin
 * entry points. The JSON codec (api/codecs.cc) walks the same lists,
 * so a member added here reaches both formats. Every readX returns
 * false on malformed input; callers discard the object when a read
 * fails. Doubles round-trip bit-exactly, so a loaded artifact drives
 * the model to bit-identical predictions.
 */

#ifndef GPUPERF_STORE_CODECS_H
#define GPUPERF_STORE_CODECS_H

#include "funcsim/profile.h"
#include "model/calibration.h"
#include "model/report.h"
#include "model/session.h"
#include "store/fields.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

void writeProfile(ByteWriter &w, const funcsim::KernelProfile &profile);
bool readProfile(ByteReader &r, funcsim::KernelProfile *profile);

/**
 * TimingResult round-trips bit-exactly (every double as raw IEEE-754
 * bits), which is what lets the persistent timing memo (TimingStore)
 * serve replays that are indistinguishable from recomputation.
 */
void writeTiming(ByteWriter &w, const timing::TimingResult &t);
bool readTiming(ByteReader &r, timing::TimingResult *t);

void writeTables(ByteWriter &w, const model::CalibrationTables &tables);
bool readTables(ByteReader &r, model::CalibrationTables *tables);

/**
 * Content digest of a table set (its serialized bytes hashed): part
 * of persistent result keys, so results computed under one
 * calibration are never served to a session using another.
 */
uint64_t tablesDigest(const model::CalibrationTables &tables);

// The batch-cell codec (writeBatchResult/readBatchResult) lives in
// store/result_store.h: BatchResult is a driver-layer type, and this
// header stays below the driver.

} // namespace store

namespace schema {

// --- Field lists of the store artifacts (see store/fields.h) ---------

template <>
struct EnumTraits<isa::UnitKind>
{
    static constexpr isa::UnitKind kLast = isa::UnitKind::kNone;
    static constexpr const char *kWhat = "trace unit";
};

template <>
struct EnumTraits<arch::OccupancyLimit>
{
    static constexpr arch::OccupancyLimit kLast =
        arch::OccupancyLimit::Warps;
    static constexpr const char *kWhat = "occupancy limit";
};

template <>
struct EnumTraits<model::Component>
{
    static constexpr model::Component kLast = model::Component::kGlobal;
    static constexpr const char *kWhat = "bottleneck component";
};

template <class V>
void
fields(V &v, funcsim::StageStats &x)
{
    v("typeCounts", x.typeCounts);
    v("madCount", x.madCount);
    v("totalWarpInstrs", x.totalWarpInstrs);
    v("sharedInstrs", x.sharedInstrs);
    v("globalInstrs", x.globalInstrs);
    v("sharedTransactions", x.sharedTransactions);
    v("sharedTransactionsIdeal", x.sharedTransactionsIdeal);
    v("sharedBytes", x.sharedBytes);
    v("globalTransactions", x.globalTransactions);
    v("globalBytes", x.globalBytes);
    v("globalRequestBytes", x.globalRequestBytes);
    v("globalXactBySize", x.globalXactBySize);
    v("activeWarpsPerBlock", x.activeWarpsPerBlock);
}

template <class V>
void
fields(V &v, funcsim::DynamicStats &x)
{
    v("stages", x.stages);
    v("gridDim", x.gridDim);
    v("blockDim", x.blockDim);
    v("warpsPerBlock", x.warpsPerBlock);
    v("barriersPerBlock", x.barriersPerBlock);
    v("sampledBlocks", x.sampledBlocks);
}

template <class V>
void
fields(V &v, funcsim::TraceOp &x)
{
    v("unit", x.unit);
    v("conflict", x.conflict);
    v("sharedPasses", x.sharedPasses);
    v("dst", x.dst);
    v("src0", x.src[0]);
    v("src1", x.src[1]);
    v("src2", x.src[2]);
    v("numXacts", x.numXacts);
    v("xactBytes", x.xactBytes);
    v("texIdx", x.texIdx);
}

template <class V>
void
fields(V &v, funcsim::WarpTrace &x)
{
    v("ops", x.ops);
    v("texLines", x.texLines);
}

template <class V>
void
fields(V &v, funcsim::BlockTrace &x)
{
    v("warpTraceIdx", x.warpTraceIdx);
}

template <class V>
void
fields(V &v, funcsim::LaunchTrace &x)
{
    v("pool", x.pool);
    v("blocks", x.blocks);
    v.check([&] {
        for (const funcsim::BlockTrace &b : x.blocks) {
            for (int idx : b.warpTraceIdx) {
                if (idx < 0 || static_cast<size_t>(idx) >= x.pool.size())
                    return "warp trace index out of range";
            }
        }
        return "";
    });
    v("blockDim", x.blockDim);
    v("warpsPerBlock", x.warpsPerBlock);
    v("registersPerThread", x.registersPerThread);
    v("sharedBytesPerBlock", x.sharedBytesPerBlock);
}

template <class V>
void
fields(V &v, funcsim::LaunchConfig &x)
{
    v("gridDim", x.gridDim);
    v("blockDim", x.blockDim);
}

template <class V>
void
fields(V &v, arch::FuncsimFingerprint &x)
{
    v("warpSize", x.warpSize);
    v("coalesceGroup", x.coalesceGroup);
    v("minSegmentBytes", x.minSegmentBytes);
    v("maxSegmentBytes", x.maxSegmentBytes);
    v("numSharedBanks", x.numSharedBanks);
    v("sharedBankWidth", x.sharedBankWidth);
    v("sharedIssueGroup", x.sharedIssueGroup);
    v("textureCacheLineBytes", x.textureCacheLineBytes);
}

template <class V>
void
fields(V &v, funcsim::ProfileKey &x)
{
    v("kernelHash", x.kernelHash);
    v("inputHash", x.inputHash);
    v("cfg", x.cfg);
    v("homogeneous", x.homogeneous);
    v("sampleBlocks", x.sampleBlocks);
    v("maxWarpOps", x.maxWarpOps);
    v("fingerprint", x.fingerprint);
}

template <class V>
void
fields(V &v, arch::KernelResources &x)
{
    v("registersPerThread", x.registersPerThread);
    v("sharedBytesPerBlock", x.sharedBytesPerBlock);
    v("threadsPerBlock", x.threadsPerBlock);
}

template <class V>
void
fields(V &v, funcsim::KernelProfile &x)
{
    v("key", x.key);
    v("kernelName", x.kernelName);
    v("resources", x.resources);
    v("stats", x.stats);
    v("trace", x.trace);
}

template <class V>
void
fields(V &v, arch::Occupancy &x)
{
    v("blocksByRegisters", x.blocksByRegisters);
    v("blocksBySharedMem", x.blocksBySharedMem);
    v("blocksByThreads", x.blocksByThreads);
    v("blocksByBlockLimit", x.blocksByBlockLimit);
    v("blocksByWarpLimit", x.blocksByWarpLimit);
    v("residentBlocks", x.residentBlocks);
    v("residentWarps", x.residentWarps);
    v("limit", x.limit);
    v("warpsPerBlock", x.warpsPerBlock);
}

template <class V>
void
fields(V &v, timing::TimingResult &x)
{
    v("cycles", x.cycles);
    v("seconds", x.seconds);
    v("totalOps", x.totalOps);
    v("arithBusyCycles", x.arithBusyCycles);
    v("sharedBusyCycles", x.sharedBusyCycles);
    v("portBusyCycles", x.portBusyCycles);
    v("texHits", x.texHits);
    v("texMisses", x.texMisses);
    v("occupancy", x.occupancy);
}

template <class V>
void
fields(V &v, model::StageInput &x)
{
    v("typeCounts", x.typeCounts);
    v("madCount", x.madCount);
    v("totalWarpInstrs", x.totalWarpInstrs);
    v("sharedTransactions", x.sharedTransactions);
    v("sharedTransactionsIdeal", x.sharedTransactionsIdeal);
    v("sharedBytes", x.sharedBytes);
    v("globalTransactions", x.globalTransactions);
    v("globalBytes", x.globalBytes);
    v("globalRequestBytes", x.globalRequestBytes);
    v("effective64Xacts", x.effective64Xacts);
    v("activeWarpsPerSm", x.activeWarpsPerSm);
}

template <class V>
void
fields(V &v, model::ModelInput &x)
{
    v("stages", x.stages);
    v("gridDim", x.gridDim);
    v("blockDim", x.blockDim);
    v("occupancy", x.occupancy);
    v("concurrentBlocksPerSm", x.concurrentBlocksPerSm);
    v("stagesSerialized", x.stagesSerialized);
}

template <class V>
void
fields(V &v, model::StagePrediction &x)
{
    v("tInstr", x.tInstr);
    v("tShared", x.tShared);
    v("tGlobal", x.tGlobal);
    v("bottleneck", x.bottleneck);
    v("stageTime", x.stageTime);
    v("activeWarpsPerSm", x.activeWarpsPerSm);
    v("sharedBandwidth", x.sharedBandwidth);
}

template <class V>
void
fields(V &v, model::Prediction &x)
{
    v("stages", x.stages);
    v("serialized", x.serialized);
    v("tInstrTotal", x.tInstrTotal);
    v("tSharedTotal", x.tSharedTotal);
    v("tGlobalTotal", x.tGlobalTotal);
    v("totalSeconds", x.totalSeconds);
    v("bottleneck", x.bottleneck);
    v("nextBottleneck", x.nextBottleneck);
}

template <class V>
void
fields(V &v, model::ReportMetrics &x)
{
    v("computationalDensity", x.computationalDensity);
    v("bankConflictFactor", x.bankConflictFactor);
    v("coalescingEfficiency", x.coalescingEfficiency);
    v("avgActiveWarpsPerBlock", x.avgActiveWarpsPerBlock);
}

template <class V>
void
fields(V &v, model::Measurement &x)
{
    v("stats", x.stats);
    v("timing", x.timing);
}

template <class V>
void
fields(V &v, model::Analysis &x)
{
    v.splice(x.measurement);
    v("input", x.input);
    v("prediction", x.prediction);
    v("metrics", x.metrics);
}

template <class V>
void
fields(V &v, model::CalibrationTables &x)
{
    v("maxWarps", x.maxWarps);
    v("bytesPerPass", x.bytesPerPass);
    v.check([&] {
        return x.maxWarps > 0 && x.maxWarps <= 1024
                   ? ""
                   : "maxWarps out of range";
    });
    v("instrThroughput", x.instrThroughput);
    v("sharedPassThroughput", x.sharedPassThroughput);
}

} // namespace schema
} // namespace gpuperf

#endif // GPUPERF_STORE_CODECS_H
