/**
 * @file
 * The unified AnalysisService API: request/response codecs round-trip
 * bit-exactly (binary and JSON, including non-finite doubles and
 * >2^53 counters), the service reproduces the pre-redesign
 * BatchRunner/runSerial results double for double across worker
 * counts and store warmth, and the spool-directory worker protocol
 * (claim, crash-steal, collect) delivers bit-identical responses.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <thread>

#include "api/codecs.h"
#include "api/endpoint.h"
#include "api/json.h"
#include "api/registry.h"
#include "api/request.h"
#include "api/service.h"
#include "api/spool.h"
#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "isa/builder.h"
#include "store/codecs.h"
#include "store/lease.h"
#include "store/serializer.h"

#include "expect_sim_error.h"
#include "poison_requests.h"

namespace gpuperf {
namespace api {
namespace {

std::string
freshDir(const std::string &tag)
{
    static int counter = 0;
    const std::string dir = ::testing::TempDir() + "gpuperf-api-" +
                            tag + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(counter++);
    (void)::system(("rm -rf " + dir).c_str());
    return dir;
}

/** The spool directory @p dir as an endpoint, with @p query options. */
Endpoint
spoolAt(const std::string &dir, const std::string &query = "")
{
    return Endpoint::parse("spool:" + dir + query);
}

model::CalibrationTables
fakeTables()
{
    model::CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        for (int w = 1; w <= 32; ++w)
            t.instrThroughput[type][w] = 1e10 * std::min(1.0, w / 8.0);
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    return std::make_shared<const model::CalibrationTables>(
        fakeTables());
}

/** A scaled-down machine whose microbenchmark calibration is quick —
 *  spool tests calibrate for real (workers share nothing in-memory). */
arch::GpuSpec
tinySpec()
{
    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny api";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();
    return tiny;
}

/** The standard request every execution test uses: 3 refs x 2 specs. */
AnalysisRequest
testRequest()
{
    AnalysisRequest req;
    req.jobName = "test-batch";
    req.kernels.push_back(KernelJob::fromRef(
        "saxpy-small", CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(KernelJob::fromRef(
        "conflicted", CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(KernelJob::fromRef(
        "hist", CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0, 32.0};
    req.sweep.coalescingFractions = {1.0};
    return req;
}

/** The same kernels as driver cases (for the pre-redesign paths). */
std::vector<driver::KernelCase>
testCases()
{
    return {driver::makeSaxpyCase("saxpy-small", 8, 128, 2.0f),
            driver::makeSharedConflictCase("conflicted", 8, 128, 8,
                                           32),
            driver::makeHistogramCase("hist", 6, 128, 8, 4)};
}

void
adoptAll(AnalysisService &service, const AnalysisRequest &req)
{
    for (const arch::GpuSpec &spec : req.specs)
        service.adoptCalibration(req, spec, sharedFakeTables());
}

/** Wrap pre-redesign results into a response for responsesEqual(). */
AnalysisResponse
asResponse(const AnalysisRequest &req,
           std::vector<driver::BatchResult> results)
{
    AnalysisResponse resp = makeResponseShell(req);
    resp.cells = std::move(results);
    return resp;
}

void
expectEqual(const AnalysisResponse &got, const AnalysisResponse &want)
{
    std::string why;
    EXPECT_TRUE(responsesEqual(got, want, &why)) << why;
}

/** A small inline job with a deterministic image. */
KernelJob
inlineSaxpyJob(const std::string &name)
{
    const int n = 4 * 128;
    funcsim::GlobalMemory gmem(1 << 20);
    const uint64_t x = gmem.alloc(static_cast<size_t>(n) * 4);
    const uint64_t y = gmem.alloc(static_cast<size_t>(n) * 4);
    for (int i = 0; i < n; ++i) {
        gmem.f32(x)[i] = 1.5f;
        gmem.f32(y)[i] = static_cast<float>(i % 3);
    }
    isa::KernelBuilder b("inline-saxpy");
    isa::Reg tid = b.reg();
    isa::Reg cta = b.reg();
    isa::Reg ntid = b.reg();
    isa::Reg gtid = b.reg();
    isa::Reg xa = b.reg();
    isa::Reg ya = b.reg();
    isa::Reg xv = b.reg();
    isa::Reg yv = b.reg();
    isa::Reg av = b.reg();
    b.s2r(tid, isa::SpecialReg::kTid);
    b.s2r(cta, isa::SpecialReg::kCtaid);
    b.s2r(ntid, isa::SpecialReg::kNtid);
    b.imad(gtid, cta, ntid, tid);
    b.shlImm(xa, gtid, 2);
    b.iaddImm(ya, xa, static_cast<int32_t>(y));
    b.iaddImm(xa, xa, static_cast<int32_t>(x));
    b.ldg(xv, xa);
    b.ldg(yv, ya);
    b.movImmF(av, 2.0f);
    b.fmad(yv, av, xv, yv);
    b.stg(ya, yv);
    funcsim::LaunchConfig cfg{4, 128};
    return KernelJob::fromInline(
        name, InlineLaunch::capture(b.build(), cfg, gmem));
}

// --- JSON primitives --------------------------------------------------

TEST(JsonTest, ParsesWhatItDumps)
{
    Json obj = Json::object();
    obj.set("s", Json::str("a \"quoted\"\nline\twith\\stuff"));
    obj.set("n", Json::number(-1.25e-17));
    obj.set("b", Json::boolean(true));
    obj.set("null", Json());
    Json arr = Json::array();
    arr.push(Json::number(1));
    arr.push(Json::str(""));
    arr.push(Json::array());
    arr.push(Json::object());
    obj.set("arr", std::move(arr));

    const std::string text = obj.dump();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &parsed, &error)) << error;
    // Insertion order is preserved, so re-dumping reproduces the
    // bytes — the property the api-smoke diff relies on.
    EXPECT_EQ(parsed.dump(), text);
    EXPECT_EQ(parsed.find("s")->asString(),
              "a \"quoted\"\nline\twith\\stuff");
    EXPECT_EQ(parsed.find("n")->asNumber(), -1.25e-17);
}

TEST(JsonTest, RejectsMalformedInput)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("{\"a\": }", &out, &error));
    EXPECT_FALSE(Json::parse("[1, 2", &out, &error));
    EXPECT_FALSE(Json::parse("\"unterminated", &out, &error));
    EXPECT_FALSE(Json::parse("{} trailing", &out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonTest, HexRoundTrips)
{
    std::string bytes;
    for (int i = 0; i < 256; ++i)
        bytes.push_back(static_cast<char>(i));
    std::string back;
    ASSERT_TRUE(hexDecode(hexEncode(bytes), &back));
    EXPECT_EQ(back, bytes);
    EXPECT_FALSE(hexDecode("abc", &back)) << "odd length";
    EXPECT_FALSE(hexDecode("zz", &back)) << "non-hex digits";
}

// --- Request round trips ----------------------------------------------

/** Binary serialization as the canonical struct-equality probe. */
std::string
requestBytes(const AnalysisRequest &req)
{
    store::ByteWriter w;
    writeRequest(w, req);
    return w.bytes();
}

TEST(RequestCodecTest, BinaryRoundTripIsExact)
{
    AnalysisRequest req = testRequest();
    req.kernels.push_back(inlineSaxpyJob("inline-saxpy"));
    req.store.storeDir = "/tmp/somewhere";
    req.exec.numThreads = 3;
    req.exec.engine = timing::ReplayEngine::kAuto;
    req.exec.pipeline = ExecutionPolicy::Pipeline::kPerCell;
    req.exec.delivery = ExecutionPolicy::Delivery::kStream;

    const std::string bytes = requestBytes(req);
    store::ByteReader r(bytes);
    AnalysisRequest back;
    ASSERT_TRUE(readRequest(r, &back));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(requestBytes(back), requestBytes(req));
    EXPECT_EQ(back.exec.engine, timing::ReplayEngine::kAuto);
    EXPECT_EQ(back.kernels.back().inlined->memoryImage,
              req.kernels.back().inlined->memoryImage);
}

TEST(RequestCodecTest, JsonRoundTripIsExact)
{
    AnalysisRequest req = testRequest();
    req.kernels.push_back(inlineSaxpyJob("inline-saxpy"));
    // Doubles that need every one of %.17g's digits.
    req.specs[0].coreClockHz = 1.4760000000000001e9;
    req.specs[0].warpSharedPassIntervalCycles = 18.000000000000004;
    req.kernels[0].ref.fargs = {0.1, 1.0 / 3.0,
                                std::numeric_limits<double>::min()};

    const std::string text = requestToJson(req);
    AnalysisRequest back;
    std::string error;
    ASSERT_TRUE(requestFromJson(text, &back, &error)) << error;
    // Byte-identical binary serialization == every field round-tripped
    // exactly, doubles included.
    EXPECT_EQ(requestBytes(back), requestBytes(req));
    // And the JSON itself is stable (dump of parse of dump).
    EXPECT_EQ(requestToJson(back), text);
}

TEST(RequestCodecTest, FileRoundTripValidatesKeyAndVersion)
{
    const std::string dir = freshDir("reqfile");
    ASSERT_TRUE(store::makeDirs(dir));
    const std::string path = dir + "/req.bin";
    const AnalysisRequest req = testRequest();
    ASSERT_TRUE(saveRequestFile(path, req, "job-1"));

    AnalysisRequest back;
    EXPECT_FALSE(loadRequestFile(path, &back, "job-2"))
        << "a foreign key must miss";
    ASSERT_TRUE(loadRequestFile(path, &back, "job-1"));
    EXPECT_EQ(requestBytes(back), requestBytes(req));
}

TEST(RequestCodecTest, RejectsWrongSchemaVersion)
{
    AnalysisRequest req = testRequest();
    req.schemaVersion = kSchemaVersion + 1;
    store::ByteWriter w;
    writeRequest(w, req);
    store::ByteReader r(w.bytes());
    AnalysisRequest back;
    EXPECT_FALSE(readRequest(r, &back));

    std::string error;
    std::string text = requestToJson(req);
    EXPECT_FALSE(requestFromJson(text, &back, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

/** Minimal inline-job request JSON around one instruction tuple. */
std::string
forgedInlineRequestJson(const std::string &instr_tuple, int regs)
{
    // 256 zero bytes of image (the minimum), 1 KiB capacity.
    const std::string image(512, '0');
    const std::string spec_json = [] {
        AnalysisRequest probe;
        probe.specs.push_back(arch::GpuSpec::gtx285());
        const std::string text = requestToJson(probe);
        const size_t begin = text.find("\"specs\"");
        const size_t open = text.find('{', begin);
        size_t depth = 0;
        for (size_t i = open; i < text.size(); ++i) {
            if (text[i] == '{')
                ++depth;
            else if (text[i] == '}' && --depth == 0)
                return text.substr(open, i - open + 1);
        }
        return std::string("{}");
    }();
    return "{\"schema\": 3, \"job\": \"forged\", \"kernels\": ["
           "{\"name\": \"bad\", \"inline\": {\"kernel\": "
           "{\"name\": \"bad\", \"registers\": " +
           std::to_string(regs) +
           ", \"predicates\": 1, \"sharedBytes\": 0, "
           "\"instructions\": [" +
           instr_tuple +
           "]}, \"gridDim\": 1, \"blockDim\": 32, \"options\": "
           "{\"collectTrace\": false, \"homogeneous\": false, "
           "\"sampleBlocks\": 1, \"maxWarpOps\": \"4294967296\"}, "
           "\"memory\": {\"capacity\": \"1024\", \"image\": \"" +
           image +
           "\"}}}], \"specs\": [" +
           spec_json +
           "], \"sweep\": {\"noBankConflicts\": false, "
           "\"warpsPerSm\": [], \"coalescingFractions\": []}, "
           "\"store\": {\"dir\": \"\", "
           "\"reuseStoredResults\": true}, \"exec\": "
           "{\"numThreads\": 1, \"engine\": \"event-driven\", "
           "\"pipeline\": \"shared\", "
           "\"delivery\": \"collect\"}}";
}

TEST(RequestCodecTest, ForgedKernelStreamsFailSoftly)
{
    // Structurally malformed instruction streams must FAIL the parse
    // — never reach the Kernel constructor, whose validation is a
    // process abort (a crashed spool worker parks its job for the
    // next worker to crash on).
    const int kIf = static_cast<int>(isa::Opcode::kIf);
    const int kMov = static_cast<int>(isa::Opcode::kMov);
    struct Case
    {
        const char *what;
        std::string tuple;
        int regs;
    };
    const Case cases[] = {
        {"IF without a guard predicate",
         "[" + std::to_string(kIf) +
             ", 65535, 65535, 65535, 65535, 0, 0, 255, 0, 0, 0]",
         1},
        {"unterminated IF",
         "[" + std::to_string(kIf) +
             ", 65535, 65535, 65535, 65535, 0, 0, 0, 0, 0, 0]",
         1},
        {"destination register out of range",
         "[" + std::to_string(kMov) +
             ", 5, 0, 65535, 65535, 0, 0, 255, 0, 0, 0]",
         1},
        {"out-of-range numeric field (cast UB guard)",
         "[1e300, 0, 0, 65535, 65535, 0, 0, 255, 0, 0, 0]", 1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        AnalysisRequest req;
        std::string error;
        EXPECT_FALSE(requestFromJson(
            forgedInlineRequestJson(c.tuple, c.regs), &req, &error));
        EXPECT_FALSE(error.empty());
    }
    // Sanity: the same skeleton with a well-formed instruction parses.
    AnalysisRequest ok;
    std::string error;
    EXPECT_TRUE(requestFromJson(
        forgedInlineRequestJson(
            "[" + std::to_string(kMov) +
                ", 0, 0, 65535, 65535, 0, 0, 255, 0, 0, 0]",
            1),
        &ok, &error))
        << error;
}

// --- Response round trips ---------------------------------------------

/** A synthetic response exercising the codec's edge cases. */
AnalysisResponse
syntheticResponse()
{
    AnalysisResponse resp;
    resp.jobName = "synthetic";
    resp.numKernels = 2;
    resp.numSpecs = 1;

    driver::BatchResult ok;
    ok.kernelName = "k0";
    ok.specName = "s0";
    ok.ok = true;
    funcsim::StageStats stage;
    stage.typeCounts[0] = 1;
    stage.typeCounts[1] = (1ull << 60) + 12345; // > 2^53: string path
    stage.madCount = 7;
    stage.globalXactBySize[32] = 3;
    stage.globalXactBySize[128] = (1ull << 55) + 9;
    stage.activeWarpsPerBlock = 0.30000000000000004;
    ok.analysis.measurement.stats.stages.push_back(stage);
    ok.analysis.measurement.stats.gridDim = 4;
    ok.analysis.measurement.timing.cycles = 1.0 / 3.0;
    ok.analysis.measurement.timing.seconds = 5e-324; // denormal min
    ok.analysis.measurement.timing.totalOps = (1ull << 62) + 1;
    ok.analysis.measurement.timing.occupancy.limit =
        arch::OccupancyLimit::Warps;
    model::StageInput in;
    in.typeCounts[2] = 42;
    in.effective64Xacts = std::nan(""); // non-finite survives JSON
    in.activeWarpsPerSm = HUGE_VAL;
    ok.analysis.input.stages.push_back(in);
    model::StagePrediction sp;
    sp.tShared = -0.0;
    sp.bottleneck = model::Component::kShared;
    ok.analysis.prediction.stages.push_back(sp);
    ok.analysis.prediction.totalSeconds = 1.2345678901234567e-5;
    ok.analysis.prediction.bottleneck = model::Component::kGlobal;
    ok.analysis.metrics.bankConflictFactor = 16.000000000000004;
    driver::RankedWhatIf wi;
    wi.point.kind = driver::SweepPoint::Kind::kWarpsPerSm;
    wi.point.value = 16.0;
    wi.result.before.totalSeconds = 2.0;
    wi.result.after.totalSeconds = 1.0;
    ok.whatifs.push_back(wi);
    resp.cells.push_back(ok);

    driver::BatchResult failed;
    failed.kernelName = "k1";
    failed.specName = "s0";
    failed.ok = false;
    failed.error = "factory exploded: \"quoted\"\npath\t/x";
    resp.cells.push_back(failed);
    return resp;
}

TEST(ResponseCodecTest, BinaryRoundTripIsExact)
{
    const AnalysisResponse resp = syntheticResponse();
    store::ByteWriter w;
    writeResponse(w, resp);
    store::ByteReader r(w.bytes());
    AnalysisResponse back;
    ASSERT_TRUE(readResponse(r, &back));
    EXPECT_TRUE(r.atEnd());
    std::string why;
    EXPECT_TRUE(responsesEqual(back, resp, &why)) << why;
}

TEST(ResponseCodecTest, JsonRoundTripIsExactIncludingNonFinite)
{
    const AnalysisResponse resp = syntheticResponse();
    const std::string text = responseToJson(resp);
    AnalysisResponse back;
    std::string error;
    ASSERT_TRUE(responseFromJson(text, &back, &error)) << error;
    std::string why;
    EXPECT_TRUE(responsesEqual(back, resp, &why)) << why;
    // NaN/Inf and the 2^60 counter really made it through.
    EXPECT_TRUE(std::isnan(
        back.cells[0].analysis.input.stages[0].effective64Xacts));
    EXPECT_TRUE(std::isinf(
        back.cells[0].analysis.input.stages[0].activeWarpsPerSm));
    EXPECT_EQ(back.cells[0].analysis.measurement.stats.stages[0]
                  .typeCounts[1],
              (1ull << 60) + 12345);
    // Dump-of-parse is byte-stable (the api-smoke diff contract).
    EXPECT_EQ(responseToJson(back), text);
}

TEST(ResponseCodecTest, MalformedNumbersAreRejectedNotWrapped)
{
    const std::string text = responseToJson(syntheticResponse());
    const auto replaced = [&text](const std::string &from,
                                  const std::string &to, size_t at) {
        const size_t pos = text.find(from, at);
        EXPECT_NE(pos, std::string::npos) << from;
        std::string out = text;
        if (pos != std::string::npos)
            out.replace(pos, from.size(), to);
        return out;
    };
    struct Case
    {
        const char *what;
        std::string json;
    };
    const Case cases[] = {
        // A sign used to wrap to 2^64-1, an overflow to saturate.
        {"negative u64 string",
         replaced("\"madCount\": \"7\"", "\"madCount\": \"-1\"", 0)},
        {"u64 string above 2^64",
         replaced("\"madCount\": \"7\"",
                  "\"madCount\": \"99999999999999999999999\"", 0)},
        {"u64 string with a plus sign",
         replaced("\"madCount\": \"7\"", "\"madCount\": \"+7\"", 0)},
        {"u64 string with leading whitespace",
         replaced("\"madCount\": \"7\"", "\"madCount\": \" 7\"", 0)},
        // A transaction size must pass the i32 range check before
        // its cast (float-cast-overflow under the sanitizers).
        {"globalXactBySize size beyond int",
         replaced("32,", "1e300,", text.find("\"globalXactBySize\""))},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        AnalysisResponse back;
        std::string error;
        EXPECT_FALSE(responseFromJson(c.json, &back, &error));
        EXPECT_FALSE(error.empty());
    }
}

// --- Registry ---------------------------------------------------------

TEST(RegistryTest, BuiltinsResolveAndValidate)
{
    for (const char *factory :
         {"saxpy", "saxpy-strided", "shared-conflict", "stencil1d",
          "reduction", "spmv-ell", "histogram"}) {
        EXPECT_TRUE(caseRegistered(factory)) << factory;
    }
    // Valid ref materializes into a working case.
    driver::KernelCase kc = materializeJob(KernelJob::fromRef(
        "h", CaseRef{"histogram", {4, 128, 8, 2}, {}}));
    EXPECT_EQ(kc.name, "h");
    driver::PreparedLaunch launch = kc.make();
    EXPECT_NE(launch.gmem, nullptr);

    // Unknown factory and malformed arguments throw (they become
    // failed cells, never aborts).
    EXPECT_THROW(materializeJob(KernelJob::fromRef(
                     "x", CaseRef{"no-such-factory", {}, {}})),
                 std::runtime_error);
    EXPECT_THROW(materializeJob(KernelJob::fromRef(
                     "x", CaseRef{"histogram", {4}, {}})),
                 std::runtime_error)
        << "missing required arguments";
    EXPECT_THROW(
        materializeJob(KernelJob::fromRef(
            "x", CaseRef{"histogram", {4, 128, 7, 2}, {}})),
        std::runtime_error)
        << "non-power-of-two bins";
}

TEST(RegistryTest, InlineJobsRebuildIdenticalImages)
{
    const KernelJob job = inlineSaxpyJob("inline");
    driver::KernelCase kc = materializeJob(job);
    driver::PreparedLaunch a = kc.make();
    driver::PreparedLaunch b = kc.make();
    ASSERT_NE(a.gmem, nullptr);
    ASSERT_NE(b.gmem, nullptr);
    // Repeatable factory: every rebuild digests identically (this is
    // what keys the shared-profile pipeline and the stores).
    EXPECT_EQ(a.gmem->contentHash(), b.gmem->contentHash());
    EXPECT_EQ(a.gmem->capacity(), job.inlined->memoryCapacity);
    EXPECT_EQ(a.gmem->used(), job.inlined->memoryImage.size());
    EXPECT_EQ(a.kernel.hash(), job.inlined->kernel.hash());
}

// --- Service == pre-redesign paths ------------------------------------

TEST(AnalysisServiceTest, MatchesBatchRunnerAndSerialBitForBit)
{
    const AnalysisRequest base = testRequest();

    // Pre-redesign reference 1: BatchRunner::run on the same cases.
    driver::BatchRunner::Options ropts;
    ropts.numThreads = 4;
    driver::BatchRunner runner(ropts);
    for (const auto &spec : base.specs)
        runner.adoptCalibration(spec, sharedFakeTables());
    const auto runner_results =
        runner.run(testCases(), base.specs, base.sweep);

    // Pre-redesign reference 2: the serial loop (shares calibration
    // state per spec like the runner, but single-threaded). It
    // calibrates for real, so compare it through the runner: the
    // StreamEqualsRun tests already pin runner == serial with
    // adopted tables; here adopt the same fakes into a 1-thread
    // runner as the stand-in.
    driver::BatchRunner::Options sopts;
    sopts.numThreads = 1;
    driver::BatchRunner serial_runner(sopts);
    for (const auto &spec : base.specs)
        serial_runner.adoptCalibration(spec, sharedFakeTables());
    const auto serial_results =
        serial_runner.run(testCases(), base.specs, base.sweep);

    const AnalysisResponse want = asResponse(base, runner_results);
    expectEqual(asResponse(base, serial_results), want);

    // The service, across worker counts: bit-identical to both.
    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE("threads = " + std::to_string(threads));
        AnalysisRequest req = base;
        req.exec.numThreads = threads;
        AnalysisService service;
        adoptAll(service, req);
        expectEqual(service.run(req), want);
    }

    // And through the per-cell reference pipeline.
    AnalysisRequest percell = base;
    percell.exec.pipeline = ExecutionPolicy::Pipeline::kPerCell;
    percell.exec.numThreads = 2;
    AnalysisService service;
    adoptAll(service, percell);
    expectEqual(service.run(percell), want);
}

TEST(AnalysisServiceTest, ColdAndWarmStoreAreBitIdentical)
{
    AnalysisRequest req = testRequest();
    req.exec.numThreads = 4;
    req.store.storeDir = freshDir("service-store");

    AnalysisService service;
    adoptAll(service, req);
    const AnalysisResponse cold = service.run(req);

    // A fresh service = a process restart: everything comes from the
    // persistent store (results included) — still bit-identical.
    AnalysisService warm_service;
    adoptAll(warm_service, req);
    const AnalysisResponse warm = warm_service.run(req);
    expectEqual(warm, cold);
    EXPECT_EQ(
        warm_service.executorFor(req).funcsimsComputed(), 0u)
        << "warm run must not simulate";

    // Reference without any store, same numbers.
    AnalysisRequest nostore = testRequest();
    nostore.exec.numThreads = 4;
    AnalysisService plain;
    adoptAll(plain, nostore);
    expectEqual(asResponse(req, plain.run(nostore).cells), cold);
}

TEST(AnalysisServiceTest, StreamingDeliversEveryCellOnce)
{
    AnalysisRequest req = testRequest();
    req.exec.delivery = ExecutionPolicy::Delivery::kStream;
    req.exec.numThreads = 4;
    AnalysisService service;
    adoptAll(service, req);

    std::vector<int> delivered(
        req.kernels.size() * req.specs.size(), 0);
    StreamStats stats;
    const AnalysisResponse resp = service.execute(
        req,
        [&delivered](size_t index, const driver::BatchResult &cell) {
            ASSERT_LT(index, delivered.size());
            EXPECT_TRUE(cell.ok) << cell.error;
            ++delivered[index];
        },
        &stats);
    for (size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], 1) << "cell " << i;
    EXPECT_EQ(stats.cells, delivered.size());

    AnalysisService collect_service;
    adoptAll(collect_service, req);
    expectEqual(collect_service.run(req), resp);
}

TEST(AnalysisServiceTest, BadJobsFailTheirCellsNotTheBatch)
{
    AnalysisRequest req = testRequest();
    req.kernels.push_back(KernelJob::fromRef(
        "broken", CaseRef{"no-such-factory", {}, {}}));
    req.kernels.push_back(KernelJob::fromRef(
        "bad-args", CaseRef{"histogram", {4, 128, 7, 2}, {}}));
    AnalysisService service;
    adoptAll(service, req);
    const AnalysisResponse resp = service.run(req);
    ASSERT_EQ(resp.cells.size(),
              req.kernels.size() * req.specs.size());
    for (const driver::BatchResult &cell : resp.cells) {
        if (cell.kernelName == "broken") {
            EXPECT_FALSE(cell.ok);
            EXPECT_NE(cell.error.find("no-such-factory"),
                      std::string::npos)
                << cell.error;
        } else if (cell.kernelName == "bad-args") {
            EXPECT_FALSE(cell.ok);
            EXPECT_NE(cell.error.find("power of two"),
                      std::string::npos)
                << cell.error;
        } else {
            EXPECT_TRUE(cell.ok) << cell.error;
        }
    }
}

TEST(AnalysisServiceTest, RejectsWrongSchemaVersion)
{
    AnalysisRequest req = testRequest();
    req.schemaVersion = kSchemaVersion + 7;
    AnalysisService service;
    EXPECT_THROW(service.run(req), std::runtime_error);
}

TEST(AnalysisServiceTest, MalformedWireSpecsAreRejectedNotFatal)
{
    // A spec that deserializes fine but would divide-by-zero or
    // fatal() inside the simulators must be rejected up front with a
    // throw (which a spool worker turns into a failed cell), never
    // crash the process.
    const auto rejected = [](void (*corrupt)(arch::GpuSpec *)) {
        AnalysisRequest req = testRequest();
        corrupt(&req.specs[0]);
        AnalysisService service;
        EXPECT_THROW(service.run(req), std::runtime_error);
    };
    rejected([](arch::GpuSpec *s) { s->numSms = 0; });
    rejected([](arch::GpuSpec *s) { s->coalesceGroup = 0; });
    rejected([](arch::GpuSpec *s) { s->numSharedBanks = 0; });
    rejected([](arch::GpuSpec *s) { s->warpSize = 0; });
    rejected([](arch::GpuSpec *s) { s->coreClockHz = 0.0; });
    rejected([](arch::GpuSpec *s) {
        s->coreClockHz = std::nan("");
    });
    rejected([](arch::GpuSpec *s) { s->maxThreadsPerBlock = 0; });
}

TEST(AnalysisServiceTest, EverySpecRuleThrowsOneMessageEverywhere)
{
    // One row per rule of GpuSpec::validate(): the spec itself and
    // validateRequest() must reject it with the same SimError.
    struct Row
    {
        const char *rule;
        void (*corrupt)(arch::GpuSpec *);
    };
    const Row rows[] = {
        {"not divisible into clusters",
         [](arch::GpuSpec *s) { s->smsPerCluster = 0; }},
        {"coalescing group",
         [](arch::GpuSpec *s) { s->coalesceGroup = 0; }},
        {"lane limit", [](arch::GpuSpec *s) { s->warpSize = 64; }},
        {"bad segment sizes",
         [](arch::GpuSpec *s) { s->maxSegmentBytes = 16; }},
        {"not a power of two",
         [](arch::GpuSpec *s) { s->minSegmentBytes = 48; }},
        {"shared-memory organization",
         [](arch::GpuSpec *s) { s->sharedIssueGroup = 0; }},
        {"functional-unit counts",
         [](arch::GpuSpec *s) { s->spsPerSm = 0; }},
        {"clocks or bus width",
         [](arch::GpuSpec *s) { s->memClockHz = std::nan(""); }},
        {"per-SM resource ceilings",
         [](arch::GpuSpec *s) { s->registerAllocUnit = 0; }},
        {"cannot cover thread ceiling",
         [](arch::GpuSpec *s) { s->maxWarpsPerSm = 8; }},
        {"timing parameters",
         [](arch::GpuSpec *s) { s->globalLatencyCycles = -1; }},
        {"texture-cache parameters",
         [](arch::GpuSpec *s) { s->textureCacheLineBytes = 0; }},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.rule);
        AnalysisRequest req = testRequest();
        row.corrupt(&req.specs[1]);
        const std::string direct = test_support::simErrorOf(
            [&] { req.specs[1].validate(); });
        EXPECT_NE(direct.find(row.rule), std::string::npos) << direct;
        EXPECT_NE(direct.find(req.specs[1].name), std::string::npos)
            << direct;
        EXPECT_EQ(test_support::simErrorOf([&] { validateRequest(req); }),
                  direct);
    }
}

TEST(AnalysisServiceTest, PoisonInputsFailTheirCellsNotTheProcess)
{
    const AnalysisRequest normal = testRequest();
    AnalysisService service;
    adoptAll(service, normal);
    for (const poison::Case &c : poison::cases(normal)) {
        SCOPED_TRACE(c.what);
        const AnalysisResponse resp = service.run(c.req);
        ASSERT_EQ(resp.cells.size(), 1u);
        EXPECT_FALSE(resp.cells[0].ok);
        EXPECT_NE(resp.cells[0].error.find(c.message), std::string::npos)
            << resp.cells[0].error;
    }
    // The same service still serves, bit-identically.
    AnalysisService reference;
    adoptAll(reference, normal);
    expectEqual(service.run(normal), reference.run(normal));
}

/**
 * @p req's response from a fresh service; a run still going after
 * @p limit aborts the test binary, a clear failure instead of a hang.
 */
AnalysisResponse
runOrAbortAfter(const AnalysisRequest &req, std::chrono::seconds limit)
{
    AnalysisService service;
    adoptAll(service, req);
    std::future<AnalysisResponse> result = std::async(
        std::launch::async, [&service, &req] { return service.run(req); });
    if (result.wait_for(limit) != std::future_status::ready) {
        std::fprintf(stderr, "request '%s' did not return within %lld s\n",
                     req.jobName.c_str(),
                     static_cast<long long>(limit.count()));
        std::abort();
    }
    return result.get();
}

TEST(AnalysisServiceTest, DuplicateKernelsCompleteOnOneThreadWithAStore)
{
    // Two jobs with one profile key (same factory and arguments,
    // different names) on a one-thread, store-backed executor: the
    // second case must share the first's profile node instead of
    // polling a lease its own process holds.
    AnalysisRequest req = testRequest();
    req.kernels = {req.kernels[0], req.kernels[0]};
    req.kernels[1].name = "saxpy-twin";
    req.exec.numThreads = 1;
    req.store.storeDir = freshDir("dup-kernels");

    const std::chrono::seconds limit(120);
    const AnalysisResponse one_thread = runOrAbortAfter(req, limit);
    ASSERT_EQ(one_thread.cells.size(), 4u);
    for (const driver::BatchResult &cell : one_thread.cells)
        EXPECT_TRUE(cell.ok) << cell.error;

    AnalysisRequest two_threads = req;
    two_threads.exec.numThreads = 2;
    two_threads.store.storeDir = freshDir("dup-kernels-2");
    expectEqual(one_thread, runOrAbortAfter(two_threads, limit));
    AnalysisRequest no_store = req;
    no_store.store.storeDir.clear();
    expectEqual(one_thread, runOrAbortAfter(no_store, limit));
}

TEST(AnalysisServiceTest, SharedProfilesKeepPerSpecLaunchCeilings)
{
    // Two specs with one funcsim fingerprint, differing only in the
    // block ceiling: the shared pipeline must fail exactly the cell
    // the per-cell pipeline fails, whichever spec comes first.
    arch::GpuSpec small = arch::GpuSpec::gtx285();
    small.name = "tpb-256";
    small.maxThreadsPerBlock = 256;
    AnalysisRequest req = testRequest();
    req.kernels = {KernelJob::fromRef(
        "saxpy-512", CaseRef{"saxpy", {8, 512}, {2.0}})};
    req.specs = {small, arch::GpuSpec::gtx285()};
    AnalysisService service;
    adoptAll(service, req);
    const AnalysisResponse shared = service.run(req);
    ASSERT_EQ(shared.cells.size(), 2u);
    EXPECT_FALSE(shared.cells[0].ok);
    EXPECT_NE(shared.cells[0].error.find("256-thread block ceiling"),
              std::string::npos)
        << shared.cells[0].error;
    EXPECT_TRUE(shared.cells[1].ok) << shared.cells[1].error;

    AnalysisRequest percell = req;
    percell.exec.pipeline = ExecutionPolicy::Pipeline::kPerCell;
    adoptAll(service, percell);
    expectEqual(shared, service.run(percell));
}

TEST(SpoolTest, MalformedSpecJobAnswersAsFailedCell)
{
    AnalysisRequest req = testRequest();
    req.kernels = {req.kernels[0]};
    req.specs = {tinySpec()};
    req.specs[0].numSharedBanks = 0; // poison

    // Parent side: submit refuses the poison request outright.
    const std::string spool = freshDir("spool-poison");
    EXPECT_THROW(spoolSubmit(spool, req), std::runtime_error);

    // Worker side: a poison job FILE (foreign submitter, corrupt
    // tooling) must be answered with a failed cell — a crash would
    // park the job for the next worker to crash on. Plant the file
    // directly, bypassing submit's validation.
    ASSERT_TRUE(store::makeDirs(spool + "/jobs"));
    ASSERT_TRUE(store::makeDirs(spool + "/responses"));
    const auto ids = spoolJobIds(req);
    ASSERT_EQ(ids.size(), 1u);
    ASSERT_TRUE(saveRequestFile(spool + "/jobs/" + ids[0] + ".job",
                                cellRequest(req, 0, 0), ids[0]));
    AnalysisService service;
    const ServeStats stats = spoolServe(spoolAt(spool), service);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.failedCells, 1u);

    std::string payload;
    ASSERT_TRUE(store::readEntryFile(
        spool + "/responses/" + ids[0] + ".resp", kSchemaVersion,
        ids[0], &payload));
    store::ByteReader r(payload);
    AnalysisResponse resp;
    ASSERT_TRUE(readResponse(r, &resp));
    ASSERT_EQ(resp.cells.size(), 1u);
    EXPECT_FALSE(resp.cells[0].ok);
    EXPECT_NE(resp.cells[0].error.find("shared-memory"),
              std::string::npos)
        << resp.cells[0].error;
}

// --- Spool protocol ---------------------------------------------------

TEST(SpoolTest, SpooledRunIsBitIdenticalToInProcess)
{
    AnalysisRequest req = testRequest();
    // A TINY spec keeps the real calibration quick (workers share
    // nothing in-memory with the in-process leg).
    req.specs = {tinySpec()};
    req.store.storeDir = freshDir("spool-store-inproc");
    req.exec.numThreads = 2;

    AnalysisService inproc;
    const AnalysisResponse direct = inproc.run(req);

    // The spooled leg gets its OWN store: it must recompute every
    // cell in the worker (not be served warm from the in-process
    // leg's results) and still come back bit-identical.
    AnalysisRequest spooled_req = req;
    spooled_req.store.storeDir = freshDir("spool-store-worker");
    const std::string spool = freshDir("spool");
    AnalysisService worker;
    const AnalysisResponse spooled =
        runSpooled(spoolAt(spool), spooled_req, worker);
    expectEqual(spooled, direct);
    EXPECT_GT(worker.executorFor(cellRequest(spooled_req, 0, 0))
                  .funcsimsComputed(),
              0u)
        << "the worker must have simulated, not served warm";
}

TEST(SpoolTest, SubmitIsIdempotentAndIdsAreDeterministic)
{
    AnalysisRequest req = testRequest();
    const std::string spool = freshDir("spool-idem");
    const auto ids1 = spoolSubmit(spool, req);
    const auto ids2 = spoolSubmit(spool, req);
    EXPECT_EQ(ids1, ids2);
    EXPECT_EQ(ids1, spoolJobIds(req));
    EXPECT_EQ(ids1.size(), req.kernels.size() * req.specs.size());
    // Ids are kernel-major and embed the cell position.
    EXPECT_EQ(ids1[0].substr(0, 9), "0000-0000");
    EXPECT_EQ(ids1[1].substr(0, 9), "0000-0001");
}

TEST(SpoolTest, LiveClaimsAreRespectedAndReleasedOnesServed)
{
    AnalysisRequest req = testRequest();
    req.kernels = {req.kernels[0]};
    req.specs = {tinySpec()};
    req.store.storeDir = freshDir("spool-claim-store");
    const std::string spool = freshDir("spool-claim");
    const auto ids = spoolSubmit(spool, req);
    ASSERT_EQ(ids.size(), 1u);

    // Another live worker (us) holds the claim: a single pass must
    // execute nothing.
    store::Lease claim = store::tryAcquireLease(
        spool + "/jobs/" + ids[0] + ".claim");
    ASSERT_TRUE(claim.held());
    AnalysisService service;
    // One claim pass (drain stays a call-site choice; everything
    // else comes off the spool: endpoint).
    const Endpoint worker =
        Endpoint::parse("spool:" + spool, Endpoint::Role::kWorker);
    EXPECT_EQ(spoolServe(worker, service, /*drain=*/false).executed, 0u);

    // Released: the next pass executes it.
    claim.release();
    EXPECT_EQ(spoolServe(worker, service, /*drain=*/false).executed, 1u);
}

TEST(SpoolTest, CrashedWorkersClaimIsStolen)
{
    AnalysisRequest req = testRequest();
    req.kernels = {req.kernels[0]};
    req.specs = {tinySpec()};
    req.store.storeDir = freshDir("spool-steal-store");
    const std::string spool = freshDir("spool-steal");
    const auto ids = spoolSubmit(spool, req);
    ASSERT_EQ(ids.size(), 1u);

    // A claim from a worker that died mid-job: dead pid, ancient
    // timestamp. Drain-mode serving must break it and answer the
    // job (the crash-steal path).
    {
        std::ofstream marker(spool + "/jobs/" + ids[0] + ".claim");
        marker << 999999999 << " " << 1 << "\n";
    }
    AnalysisService service;
    const ServeStats stats = spoolServe(spoolAt(spool), service);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.failedCells, 0u);

    const AnalysisResponse resp =
        spoolCollect(spoolAt(spool, "?timeout=10"), req);
    ASSERT_EQ(resp.cells.size(), 1u);
    EXPECT_TRUE(resp.cells[0].ok) << resp.cells[0].error;
}

TEST(SpoolTest, CollectTimesOutWithFailedCellsNotAHang)
{
    AnalysisRequest req = testRequest();
    const std::string spool = freshDir("spool-timeout");
    spoolSubmit(spool, req);
    // No worker serves: collect must come back with per-cell timeout
    // failures, names filled from the request.
    const AnalysisResponse resp =
        spoolCollect(spoolAt(spool, "?timeout=0.1"), req);
    ASSERT_EQ(resp.cells.size(),
              req.kernels.size() * req.specs.size());
    for (const driver::BatchResult &cell : resp.cells) {
        EXPECT_FALSE(cell.ok);
        EXPECT_NE(cell.error.find("timeout"), std::string::npos)
            << cell.error;
        EXPECT_FALSE(cell.kernelName.empty());
        EXPECT_FALSE(cell.specName.empty());
    }
}

TEST(SpoolTest, CollectSurvivesAnEmptyCellGrid)
{
    // Zero specs (or zero kernels) means zero cells: collect must
    // return the empty response shell immediately — the old failure
    // labeling divided the flat index by the spec count, which is a
    // division by zero here.
    AnalysisRequest req = testRequest();
    req.specs.clear();
    const std::string spool = freshDir("spool-empty");
    const AnalysisResponse resp =
        spoolCollect(spoolAt(spool, "?timeout=0.1"), req);
    EXPECT_TRUE(resp.cells.empty());
    EXPECT_EQ(resp.numKernels, req.kernels.size());
    EXPECT_EQ(resp.numSpecs, 0u);

    req = testRequest();
    req.kernels.clear();
    EXPECT_TRUE(
        spoolCollect(spoolAt(spool, "?timeout=0.1"), req).cells.empty());
}

TEST(SpoolTest, TimeoutCellsAreLabeledByPositionNotArithmetic)
{
    // A full sweep-expanded grid (3 kernels x 2 specs) that nobody
    // serves: every timeout cell must carry the kernel and spec name
    // of ITS OWN position, derived from the id mapping — not
    // reconstructed from the flat index.
    const AnalysisRequest req = testRequest();
    const std::string spool = freshDir("spool-labels");
    spoolSubmit(spool, req);
    const AnalysisResponse resp =
        spoolCollect(spoolAt(spool, "?timeout=0.1"), req);
    const auto cells = spoolCells(req);
    ASSERT_EQ(resp.cells.size(), cells.size());
    ASSERT_EQ(cells.size(),
              req.kernels.size() * req.specs.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_FALSE(resp.cells[i].ok);
        EXPECT_EQ(resp.cells[i].kernelName,
                  req.kernels[cells[i].kernel].name)
            << "cell " << i;
        EXPECT_EQ(resp.cells[i].specName,
                  req.specs[cells[i].spec].name)
            << "cell " << i;
        EXPECT_NE(resp.cells[i].error.find(cells[i].id),
                  std::string::npos)
            << "the error must name the job id: "
            << resp.cells[i].error;
    }
}

TEST(SpoolTest, MalformedResponseFileIsLabeledAndSurfaced)
{
    const AnalysisRequest req = testRequest();
    const std::string spool = freshDir("spool-malformed");
    const auto ids = spoolSubmit(spool, req);
    const auto cells = spoolCells(req);
    ASSERT_GE(cells.size(), 4u);

    // Plant a structurally valid entry file whose payload is NOT a
    // single-cell response, for a cell in the middle of the grid.
    const size_t victim = 3;
    ASSERT_TRUE(store::writeEntryFile(
        spool + "/responses/" + cells[victim].id + ".resp",
        kSchemaVersion, cells[victim].id, "not a response"));

    const AnalysisResponse resp =
        spoolCollect(spoolAt(spool, "?timeout=0.1"), req);
    ASSERT_EQ(resp.cells.size(), cells.size());
    EXPECT_FALSE(resp.cells[victim].ok);
    EXPECT_NE(resp.cells[victim].error.find("malformed"),
              std::string::npos)
        << resp.cells[victim].error;
    EXPECT_EQ(resp.cells[victim].kernelName,
              req.kernels[cells[victim].kernel].name);
    EXPECT_EQ(resp.cells[victim].specName,
              req.specs[cells[victim].spec].name);
}

TEST(SpoolTest, CollectBackoffStillDeliversLateResponses)
{
    // The exponential poll backoff must not make collect miss a
    // response that lands late: serve the jobs from a helper thread
    // after a delay longer than several initial poll periods.
    AnalysisRequest req = testRequest();
    req.kernels = {req.kernels[0]};
    req.specs = {tinySpec()};
    req.store.storeDir = freshDir("spool-late-store");
    const std::string spool = freshDir("spool-late");
    spoolSubmit(spool, req);

    std::thread server([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        AnalysisService service;
        spoolServe(spoolAt(spool), service);
    });
    const AnalysisResponse resp =
        spoolCollect(spoolAt(spool, "?timeout=60"), req);
    server.join();
    ASSERT_EQ(resp.cells.size(), 1u);
    EXPECT_TRUE(resp.cells[0].ok) << resp.cells[0].error;
}

TEST(SpoolTest, FailedCellsTravelThroughTheSpool)
{
    AnalysisRequest req = testRequest();
    req.kernels = {KernelJob::fromRef(
        "broken", CaseRef{"no-such-factory", {}, {}})};
    req.specs = {req.specs[0]};
    const std::string spool = freshDir("spool-failed");
    AnalysisService service;
    const AnalysisResponse resp =
        runSpooled(spoolAt(spool), req, service);
    ASSERT_EQ(resp.cells.size(), 1u);
    EXPECT_FALSE(resp.cells[0].ok);
    EXPECT_NE(resp.cells[0].error.find("no-such-factory"),
              std::string::npos)
        << resp.cells[0].error;
}

} // namespace
} // namespace api
} // namespace gpuperf
