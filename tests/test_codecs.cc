/**
 * @file
 * Byte pins for the wire and store codecs. One deterministic fixture
 * covers both KernelJob shapes, every enum value the codecs carry,
 * NaN, +/-inf and -0.0, and non-empty globalXactBySize maps, trace
 * pools and what-if lists. The FNV-1a64 of each codec's output is
 * pinned: a refactor of the codecs must not move a single byte, or
 * existing store entries would stop decoding.
 *
 * Also here: the GpuSpec field list is checked against fingerprint()
 * and both codecs, and responsesEqual()'s bit-identity rule is pinned.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "api/codecs.h"
#include "common/fnv.h"
#include "store/codecs.h"
#include "store/fields.h"
#include "store/result_store.h"
#include "store/serializer.h"

namespace gpuperf {
namespace {

const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

/** A valid kernel that uses every opcode, cmp and special register. */
isa::Kernel
everyOpcodeKernel()
{
    using isa::Opcode;
    std::vector<isa::Instruction> instrs;
    const int num_ops = static_cast<int>(Opcode::kNumOpcodes);
    for (int op = 0; op < num_ops; ++op) {
        const Opcode o = static_cast<Opcode>(op);
        if (o >= Opcode::kIf && o != Opcode::kBar)
            continue;
        isa::Instruction in;
        in.op = o;
        in.dst = 2;
        in.src[0] = 0;
        in.src[1] = 1;
        in.imm = -7 * op;
        in.useImm = op % 2 == 0;
        in.pred = (o == Opcode::kSetpF || o == Opcode::kSetpI ||
                   o == Opcode::kSel)
                      ? 1
                      : isa::kNoPred;
        in.predNegate = op % 3 == 0;
        in.cmp = static_cast<isa::CmpOp>(op % 6);
        in.sreg = static_cast<isa::SpecialReg>(op % 6);
        instrs.push_back(in);
    }
    const auto control = [&](Opcode o, isa::Pred pred) {
        isa::Instruction in;
        in.op = o;
        in.pred = pred;
        instrs.push_back(in);
    };
    control(Opcode::kIf, 0);
    control(Opcode::kElse, isa::kNoPred);
    control(Opcode::kEndif, isa::kNoPred);
    control(Opcode::kLoop, isa::kNoPred);
    control(Opcode::kBrk, 1);
    control(Opcode::kEndloop, isa::kNoPred);
    control(Opcode::kExit, isa::kNoPred);
    return isa::Kernel("every-opcode", std::move(instrs), 8, 2, 96);
}

api::KernelJob
inlineJob()
{
    funcsim::LaunchConfig cfg{3, 64};
    funcsim::RunOptions options;
    options.collectTrace = true;
    options.homogeneous = true;
    options.sampleBlocks = 2;
    options.maxWarpOps = (uint64_t{1} << 60) + 3;
    api::InlineLaunch launch{everyOpcodeKernel(), cfg, options, 4096,
                             {}};
    for (int i = 0; i < 300; ++i)
        launch.memoryImage.push_back(static_cast<char>(i * 37));
    return api::KernelJob::fromInline("inline-every-op",
                                      std::move(launch));
}

/** Three requests: together they use every engine and delivery
 *  value. */
std::vector<api::AnalysisRequest>
fixtureRequests()
{
    using api::ExecutionPolicy;
    std::vector<api::AnalysisRequest> reqs(3);
    for (size_t i = 0; i < reqs.size(); ++i) {
        api::AnalysisRequest &req = reqs[i];
        req.jobName = "golden-" + std::to_string(i);
        req.clientId = i == 1 ? "tenant-b" : "";
        req.kernels.push_back(api::KernelJob::fromRef(
            "ref", api::CaseRef{"saxpy",
                                {8, -128, int64_t{1} << 52},
                                {2.0, -0.0, kNan, kInf, -kInf}}));
        req.kernels.push_back(inlineJob());
        arch::GpuSpec spec = arch::GpuSpec::gtx285();
        spec.name = "golden spec " + std::to_string(i);
        spec.textureCacheEnabled = i % 2 == 1;
        spec.issueOverheadCycles = 0.1 * static_cast<double>(i + 1);
        req.specs.push_back(spec);
        req.specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
        req.sweep.noBankConflicts = i != 2;
        req.sweep.warpsPerSm = {8.0, 16.5, -0.0};
        req.sweep.coalescingFractions = {0.5, kInf};
        req.store.storeDir = "/var/store-" + std::to_string(i);
        req.store.reuseStoredResults = i != 1;
        req.exec.numThreads = static_cast<int>(i) * 3;
        req.exec.engine = static_cast<timing::ReplayEngine>(i % 2);
        req.exec.delivery = i == 0 ? ExecutionPolicy::Delivery::kCollect
                                   : ExecutionPolicy::Delivery::kStream;
    }
    return reqs;
}

arch::Occupancy
fixtureOccupancy(int seed)
{
    arch::Occupancy o;
    o.blocksByRegisters = seed + 1;
    o.blocksBySharedMem = seed + 2;
    o.blocksByThreads = seed + 3;
    o.blocksByBlockLimit = seed + 4;
    o.blocksByWarpLimit = -seed;
    o.residentBlocks = seed * 7;
    o.residentWarps = seed * 11;
    o.limit = static_cast<arch::OccupancyLimit>(seed % 5);
    o.warpsPerBlock = 4;
    return o;
}

funcsim::StageStats
fixtureStage(int seed)
{
    funcsim::StageStats s;
    for (size_t t = 0; t < s.typeCounts.size(); ++t)
        s.typeCounts[t] = (uint64_t{1} << (50 + t)) + seed;
    s.madCount = 7 + seed;
    s.totalWarpInstrs = 100 + seed;
    s.sharedInstrs = 3;
    s.globalInstrs = 4;
    s.sharedTransactions = 5;
    s.sharedTransactionsIdeal = 6;
    s.sharedBytes = 7;
    s.globalTransactions = 8;
    s.globalBytes = 9;
    s.globalRequestBytes = 10;
    s.globalXactBySize[32] = 3;
    s.globalXactBySize[128] = (uint64_t{1} << 55) + 9;
    s.globalXactBySize[-1] = 1;
    s.activeWarpsPerBlock = seed == 0 ? -0.0 : 0.30000000000000004;
    return s;
}

timing::TimingResult
fixtureTiming(int seed)
{
    timing::TimingResult t;
    t.cycles = 1.0 / 3.0;
    t.seconds = 5e-324;
    t.totalOps = (uint64_t{1} << 62) + 1;
    t.arithBusyCycles = kNan;
    t.sharedBusyCycles = -kInf;
    t.portBusyCycles = -0.0;
    t.texHits = 17;
    t.texMisses = 0;
    t.occupancy = fixtureOccupancy(seed);
    return t;
}

model::Prediction
fixturePrediction(int seed)
{
    model::Prediction p;
    for (int i = 0; i < 3; ++i) {
        model::StagePrediction s;
        s.tInstr = 1e-6 * (i + seed);
        s.tShared = -0.0;
        s.tGlobal = i == 1 ? kNan : 2.5e-7;
        s.bottleneck = static_cast<model::Component>((i + seed) % 3);
        s.stageTime = 3e-6;
        s.activeWarpsPerSm = 24.0;
        s.sharedBandwidth = kInf;
        p.stages.push_back(s);
    }
    p.serialized = seed % 2 == 0;
    p.tInstrTotal = 1.2345678901234567e-5;
    p.tSharedTotal = 0.0;
    p.tGlobalTotal = -kInf;
    p.totalSeconds = 2.0 + seed;
    p.bottleneck = static_cast<model::Component>(seed % 3);
    p.nextBottleneck = static_cast<model::Component>((seed + 1) % 3);
    return p;
}

driver::BatchResult
fixtureCell(int seed)
{
    driver::BatchResult cell;
    cell.kernelName = "k" + std::to_string(seed);
    cell.specName = "s" + std::to_string(seed);
    cell.ok = seed != 2;
    cell.error = cell.ok ? "" : "factory exploded: \"quoted\"\npath\t/x";
    model::Analysis &a = cell.analysis;
    a.measurement.stats.stages = {fixtureStage(seed),
                                  fixtureStage(seed + 1)};
    a.measurement.stats.gridDim = 4 + seed;
    a.measurement.stats.blockDim = 128;
    a.measurement.stats.warpsPerBlock = 4;
    a.measurement.stats.barriersPerBlock = seed;
    a.measurement.stats.sampledBlocks = 1;
    a.measurement.timing = fixtureTiming(seed);
    model::StageInput in;
    for (size_t t = 0; t < in.typeCounts.size(); ++t)
        in.typeCounts[t] = 42 * t + seed;
    in.madCount = 1;
    in.totalWarpInstrs = 2;
    in.sharedTransactions = 3;
    in.sharedTransactionsIdeal = 4;
    in.sharedBytes = 5;
    in.globalTransactions = 6;
    in.globalBytes = 7;
    in.globalRequestBytes = 8;
    in.effective64Xacts = kNan;
    in.activeWarpsPerSm = kInf;
    a.input.stages = {in, in};
    a.input.gridDim = 4;
    a.input.blockDim = 128;
    a.input.occupancy = fixtureOccupancy(seed + 2);
    a.input.concurrentBlocksPerSm = 3;
    a.input.stagesSerialized = seed % 2 == 1;
    a.prediction = fixturePrediction(seed);
    a.metrics.computationalDensity = 0.1;
    a.metrics.bankConflictFactor = 16.000000000000004;
    a.metrics.coalescingEfficiency = -0.0;
    a.metrics.avgActiveWarpsPerBlock = kNan;
    for (int k = 0; k < 3; ++k) {
        driver::RankedWhatIf wi;
        wi.point.kind = static_cast<driver::SweepPoint::Kind>(k);
        wi.point.value = k == 2 ? -0.0 : 16.0 * k;
        wi.result.before = fixturePrediction(seed + k);
        wi.result.after = fixturePrediction(seed + k + 1);
        cell.whatifs.push_back(wi);
    }
    return cell;
}

api::AnalysisResponse
fixtureResponse()
{
    api::AnalysisResponse resp;
    resp.jobName = "golden-response";
    resp.numKernels = 5;
    resp.numSpecs = 1;
    for (int seed = 0; seed < 5; ++seed)
        resp.cells.push_back(fixtureCell(seed));
    return resp;
}

funcsim::KernelProfile
fixtureProfile()
{
    funcsim::KernelProfile p;
    p.key.kernelHash = 0x0123456789abcdefull;
    p.key.inputHash = 0xfedcba9876543210ull;
    p.key.cfg = {7, 96};
    p.key.homogeneous = true;
    p.key.sampleBlocks = 3;
    p.key.maxWarpOps = uint64_t{1} << 40;
    p.key.fingerprint =
        arch::FuncsimFingerprint::of(arch::GpuSpec::gtx285());
    p.kernelName = "golden-profile";
    p.resources = {12, 2048, 96};
    p.stats.stages = {fixtureStage(1), fixtureStage(2)};
    p.stats.gridDim = 7;
    p.stats.blockDim = 96;
    p.stats.warpsPerBlock = 3;
    p.stats.barriersPerBlock = 1;
    p.stats.sampledBlocks = 2;
    for (int w = 0; w < 2; ++w) {
        funcsim::WarpTrace wt;
        for (int u = 0; u <= static_cast<int>(isa::UnitKind::kNone);
             ++u) {
            funcsim::TraceOp op;
            op.unit = static_cast<isa::UnitKind>(u);
            op.conflict = static_cast<uint8_t>(1 + u);
            op.sharedPasses = static_cast<uint8_t>(u * w);
            op.dst = static_cast<uint16_t>(u + 1);
            op.src[0] = 1;
            op.src[1] = static_cast<uint16_t>(w);
            op.src[2] = 0xffff;
            op.numXacts = static_cast<uint16_t>(u * 2);
            op.xactBytes = 128u * u;
            op.texIdx = static_cast<uint32_t>(u);
            wt.ops.push_back(op);
        }
        wt.texLines = {1u, 0xffffffffu, static_cast<uint32_t>(w)};
        p.trace.pool.push_back(wt);
    }
    for (int b = 0; b < 7; ++b) {
        funcsim::BlockTrace bt;
        bt.warpTraceIdx = {b % 2, 1, 0};
        p.trace.blocks.push_back(bt);
    }
    p.trace.blockDim = 96;
    p.trace.warpsPerBlock = 3;
    p.trace.registersPerThread = 12;
    p.trace.sharedBytesPerBlock = 2048;
    return p;
}

model::CalibrationTables
fixtureTables()
{
    model::CalibrationTables t;
    t.maxWarps = 4;
    t.bytesPerPass = 64;
    for (size_t type = 0; type < t.instrThroughput.size(); ++type)
        t.instrThroughput[type] = {0.0, 1e10 * (type + 1), -0.0, kNan,
                                   kInf};
    t.sharedPassThroughput = {0.0, 2e10, 4e10, -kInf, 5e-324};
    return t;
}

template <class Write>
uint64_t
binaryHash(Write write)
{
    store::ByteWriter w;
    write(w);
    return fnv1a64(w.bytes());
}

// A pin changes only together with a kSchemaVersion (wire) or
// kFormatVersion (store) bump: every file written before must still
// decode to the same values.
//
// The request and response pins were last moved by schema 4, which
// dropped exec.pipeline and the "auto" engine.

TEST(CodecGolden, RequestBytesArePinned)
{
    std::string bin;
    std::string json;
    for (const api::AnalysisRequest &req : fixtureRequests()) {
        store::ByteWriter w;
        api::writeRequest(w, req);
        bin += w.bytes();
        json += api::requestToJson(req);
    }
    const uint64_t bin_hash = fnv1a64(bin);
    const uint64_t json_hash = fnv1a64(json);
    EXPECT_EQ(bin_hash, 0x9c723ee403dc1436ull) << std::hex << bin_hash;
    EXPECT_EQ(json_hash, 0xe40dbed5a9a78a4bull) << std::hex << json_hash;
}

TEST(CodecGolden, ResponseBytesArePinned)
{
    const api::AnalysisResponse resp = fixtureResponse();
    const uint64_t bin = binaryHash(
        [&](store::ByteWriter &w) { api::writeResponse(w, resp); });
    const uint64_t json = fnv1a64(api::responseToJson(resp));
    EXPECT_EQ(bin, 0x0ae5b18fa448af46ull) << std::hex << bin;
    EXPECT_EQ(json, 0x486ea9cf3845acfeull) << std::hex << json;
}

TEST(CodecGolden, StoreEntryBytesArePinned)
{
    const uint64_t profile = binaryHash([](store::ByteWriter &w) {
        store::writeProfile(w, fixtureProfile());
    });
    const uint64_t tables = store::tablesDigest(fixtureTables());
    const uint64_t timing = binaryHash([](store::ByteWriter &w) {
        store::writeTiming(w, fixtureTiming(3));
    });
    const uint64_t cell = binaryHash([](store::ByteWriter &w) {
        store::writeBatchResult(w, fixtureCell(1));
    });
    EXPECT_EQ(profile, 0x84de969a76d13bc4ull) << std::hex << profile;
    EXPECT_EQ(tables, 0x1c67618a5f987484ull) << std::hex << tables;
    EXPECT_EQ(timing, 0xa25d6652f492d771ull) << std::hex << timing;
    EXPECT_EQ(cell, 0xe822e9dbb3d24f79ull) << std::hex << cell;
}

TEST(CodecGolden, FixtureRoundTripsThroughEveryReader)
{
    for (const api::AnalysisRequest &req : fixtureRequests()) {
        store::ByteWriter w;
        api::writeRequest(w, req);
        store::ByteReader r(w.bytes());
        api::AnalysisRequest bin;
        ASSERT_TRUE(api::readRequest(r, &bin));
        EXPECT_TRUE(r.atEnd());
        api::AnalysisRequest json;
        std::string error;
        ASSERT_TRUE(
            api::requestFromJson(api::requestToJson(req), &json, &error))
            << error;
        for (const api::AnalysisRequest *back : {&bin, &json}) {
            store::ByteWriter again;
            api::writeRequest(again, *back);
            EXPECT_EQ(again.bytes(), w.bytes());
        }
    }

    const api::AnalysisResponse resp = fixtureResponse();
    store::ByteWriter w;
    api::writeResponse(w, resp);
    store::ByteReader r(w.bytes());
    api::AnalysisResponse bin;
    ASSERT_TRUE(api::readResponse(r, &bin));
    EXPECT_TRUE(r.atEnd());
    api::AnalysisResponse json;
    std::string error;
    ASSERT_TRUE(
        api::responseFromJson(api::responseToJson(resp), &json, &error))
        << error;
    for (const api::AnalysisResponse *back : {&bin, &json}) {
        store::ByteWriter again;
        api::writeResponse(again, *back);
        EXPECT_EQ(again.bytes(), w.bytes());
    }

    const funcsim::KernelProfile profile = fixtureProfile();
    store::ByteWriter pw;
    store::writeProfile(pw, profile);
    store::ByteReader pr(pw.bytes());
    funcsim::KernelProfile profile_back;
    ASSERT_TRUE(store::readProfile(pr, &profile_back));
    EXPECT_TRUE(pr.atEnd());
    store::ByteWriter pw2;
    store::writeProfile(pw2, profile_back);
    EXPECT_EQ(pw2.bytes(), pw.bytes());

    store::ByteWriter tw;
    store::writeTables(tw, fixtureTables());
    store::ByteReader tr(tw.bytes());
    model::CalibrationTables tables_back;
    ASSERT_TRUE(store::readTables(tr, &tables_back));
    EXPECT_TRUE(tr.atEnd());
    EXPECT_EQ(store::tablesDigest(tables_back),
              store::tablesDigest(fixtureTables()));
}

TEST(CodecGolden, RetiredEngineValueIsRejected)
{
    // Schema 4 dropped the per-launch "auto" engine: JSON names it as
    // unknown, and its binary value 2 is out of range.
    api::AnalysisRequest req = fixtureRequests()[0];
    req.exec.engine = timing::ReplayEngine::kLegacyScan;
    std::string json = api::requestToJson(req);
    const std::string named = "\"engine\": \"legacy-scan\"";
    const size_t at = json.find(named);
    ASSERT_NE(at, std::string::npos) << json;
    json.replace(at, named.size(), "\"engine\": \"auto\"");
    api::AnalysisRequest back;
    std::string error;
    EXPECT_FALSE(api::requestFromJson(json, &back, &error));
    EXPECT_NE(error.find("unknown engine 'auto'"), std::string::npos)
        << error;

    // The exec policy closes the request: numThreads (i32), then the
    // engine and delivery bytes.
    store::ByteWriter w;
    api::writeRequest(w, req);
    std::string bytes = w.bytes();
    ASSERT_GE(bytes.size(), 2u);
    const size_t engine_at = bytes.size() - 2;
    ASSERT_EQ(bytes[engine_at], 1) << "legacy-scan";
    {
        store::ByteReader r(bytes);
        ASSERT_TRUE(api::readRequest(r, &back));
        EXPECT_EQ(back.exec.engine, timing::ReplayEngine::kLegacyScan);
    }
    bytes[engine_at] = 2;
    store::ByteReader r(bytes);
    EXPECT_FALSE(api::readRequest(r, &back));
}

/** Changes the field at index @p target of a field list, and counts. */
struct PerturbOne : schema::Visitor<PerturbOne>
{
    int target = -1;
    int index = 0;
    std::string key;

    template <class T>
    void operator()(const char *k, T &x, uint64_t = schema::kUncapped)
    {
        if (index++ != target)
            return;
        key = k;
        if constexpr (std::is_same_v<T, bool>)
            x = !x;
        else if constexpr (std::is_same_v<T, std::string>)
            x += "'";
        else
            x = x * 2 + 1;
    }
};

TEST(GpuSpecFields, EveryFieldReachesFingerprintAndBothCodecs)
{
    const arch::GpuSpec base = arch::GpuSpec::gtx285();
    PerturbOne counter;
    arch::GpuSpec probe = base;
    schema::fields(counter, probe);
    ASSERT_GE(counter.index, 37);
    for (int i = 0; i < counter.index; ++i) {
        PerturbOne perturb;
        perturb.target = i;
        arch::GpuSpec spec = base;
        schema::fields(perturb, spec);
        SCOPED_TRACE(perturb.key);
        EXPECT_NE(spec.fingerprint(), base.fingerprint())
            << "the field is missing from GpuSpec::fingerprint()";

        api::AnalysisRequest req;
        req.specs.push_back(spec);
        store::ByteWriter w;
        api::writeRequest(w, req);
        store::ByteReader r(w.bytes());
        api::AnalysisRequest bin;
        ASSERT_TRUE(api::readRequest(r, &bin));
        ASSERT_EQ(bin.specs.size(), 1u);
        EXPECT_EQ(bin.specs[0].fingerprint(), spec.fingerprint());

        api::AnalysisRequest json;
        std::string error;
        ASSERT_TRUE(api::requestFromJson(api::requestToJson(req), &json,
                                         &error))
            << error;
        ASSERT_EQ(json.specs.size(), 1u);
        EXPECT_EQ(json.specs[0].fingerprint(), spec.fingerprint());
    }
}

TEST(ResponsesEqual, ComparesEveryFieldByBitPattern)
{
    const api::AnalysisResponse a = fixtureResponse();
    std::string why;
    // The fixture holds NaNs: the same bits compare equal.
    EXPECT_TRUE(api::responsesEqual(a, a, &why)) << why;

    api::AnalysisResponse b = a;
    ASSERT_EQ(std::signbit(a.cells[1].analysis.prediction.tSharedTotal),
              false);
    b.cells[1].analysis.prediction.tSharedTotal = -0.0;
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cells[1].analysis.prediction.tSharedTotal differs");
    EXPECT_FALSE(api::responsesEqual(b, a, &why));

    b = a;
    b.cells[3].whatifs[2].result.after.stages[1].tGlobal = -kNan;
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cells[3].whatifs[2].after.stages[1].tGlobal differs");

    b = a;
    b.cells[2].error += "!";
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cells[2].error differs");

    b = a;
    b.cells[4].whatifs.pop_back();
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cells[4].whatifs differs");

    b = a;
    b.cells[0].analysis.measurement.stats.stages[1].globalXactBySize[64] =
        1;
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cells[0].analysis.stats.stages[1].globalXactBySize "
                   "differs");
}

} // namespace
} // namespace gpuperf
