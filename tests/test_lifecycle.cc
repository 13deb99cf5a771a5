/**
 * @file
 * Store lifecycle tests (src/store/lifecycle/): corrupt entries read
 * as misses and are quarantined by the verifier, never crash a
 * reader; GC evicts to its size/age budget in LRU order without ever
 * touching a leased or in-flight entry, and the disk-side usage scan
 * agrees with what it left; and the janitors (GC + verifier) racing a
 * live batch leave its response bit-identical to an undisturbed run.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/client.h"
#include "api/codecs.h"
#include "api/endpoint.h"
#include "api/request.h"
#include "api/server.h"
#include "api/service.h"
#include "model/session.h"
#include "store/lifecycle/gc.h"
#include "store/lifecycle/lifecycle.h"
#include "store/lifecycle/verifier.h"
#include "store/serializer.h"
#include "store/stats.h"

#include "scratch_dir.h"

namespace gpuperf {
namespace {

std::string
readWhole(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

bool
writeWhole(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    return static_cast<bool>(out);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
backdateMtime(const std::string &path, int64_t seconds_ago)
{
    struct utimbuf times;
    times.actime = ::time(nullptr) - seconds_ago;
    times.modtime = times.actime;
    ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
}

constexpr uint32_t kTestVersion = 7;

/** Fill @p root with one "profiles" subdir of synthetic entries. */
void
fillSyntheticRoot(const std::string &root, int entries,
                  size_t payload_bytes, std::vector<std::string> *names)
{
    const std::string dir = root + "/profiles";
    EXPECT_TRUE(store::makeDirs(dir));
    for (int i = 0; i < entries; ++i) {
        const std::string entry =
            "entry-" + std::to_string(i) + ".profile";
        const std::string payload(payload_bytes,
                                  static_cast<char>('a' + i % 26));
        EXPECT_TRUE(store::writeEntryFile(dir + "/" + entry,
                                          kTestVersion,
                                          "key-" + std::to_string(i),
                                          payload));
        if (names)
            names->push_back(entry);
    }
}

// --- File-kind classification and checksum framing --------------------

TEST(Lifecycle, ClassifiesEveryStoreCitizen)
{
    for (const char *entry :
         {"a.profile", "a.calibration", "a.bench", "a.timing",
          "a.result"})
        EXPECT_TRUE(store::isEntryFileName(entry)) << entry;
    for (const char *retired : {"a.obs", "pack-0.seg"})
        EXPECT_FALSE(store::isEntryFileName(retired)) << retired;
    EXPECT_FALSE(store::isEntryFileName("a.lease"));
    EXPECT_FALSE(store::isEntryFileName("a.profile.tmp.123.4"))
        << "in-flight temp files are not entries";

    EXPECT_TRUE(store::isTempFileName("a.profile.tmp.123.4"));
    EXPECT_FALSE(store::isTempFileName("a.profile"));

    EXPECT_TRUE(store::isLeaseFileName("a.lease"));
    EXPECT_TRUE(store::isLeaseFileName(store::kJanitorLeaseName));
    EXPECT_TRUE(store::isLeaseFileName("compact.lease"))
        << "an older build's janitor lease is swept like any lease";
    EXPECT_EQ(store::leaseNameFor("saxpy-0123.profile"),
              "saxpy-0123.lease");
    EXPECT_EQ(store::leaseNameFor("timing-0123.timing"),
              "timing-0123.lease");
}

TEST(Checksum, LegacyTrailerlessEntriesStayReadable)
{
    const ScratchDir scratch("lc-legacy");
    const std::string &root = scratch.path;
    ASSERT_TRUE(store::makeDirs(root));
    const std::string path = root + "/legacy.profile";

    // The pre-checksum format: magic + version + key + payload, no
    // trailer. Old stores on shared disks still hold these.
    store::ByteWriter w;
    w.u64(0x53465245'50555047ull);
    w.u32(kTestVersion);
    w.str("legacy-key");
    const std::string payload = "legacy payload bytes";
    w.u64(payload.size());
    ASSERT_TRUE(writeWhole(path, w.bytes() + payload));

    std::string got;
    EXPECT_TRUE(store::readEntryFile(path, kTestVersion, "legacy-key",
                                     &got));
    EXPECT_EQ(got, payload);
    EXPECT_TRUE(store::readEntryHeader(path, kTestVersion,
                                       "legacy-key"));
}

TEST(Checksum, TrailerCatchesSilentPayloadCorruption)
{
    const ScratchDir scratch("lc-bitflip");
    const std::string &root = scratch.path;
    ASSERT_TRUE(store::makeDirs(root));
    const std::string path = root + "/entry.profile";
    const std::string payload(256, 'x');
    ASSERT_TRUE(store::writeEntryFile(path, kTestVersion, "k",
                                      payload));

    // Flip one payload bit on disk. Every length still matches, so
    // only the checksum trailer can catch it.
    std::string bytes = readWhole(path);
    ASSERT_GT(bytes.size(), store::kChecksumTrailerBytes + 32);
    bytes[bytes.size() - store::kChecksumTrailerBytes - 8] ^= 0x01;
    ASSERT_TRUE(writeWhole(path, bytes));

    std::string got;
    EXPECT_FALSE(store::readEntryFile(path, kTestVersion, "k", &got))
        << "a bit-flipped payload must read as a miss, not as data";
}

// --- Corruption injection: reads degrade, verify quarantines ----------

TEST(Verifier, QuarantinesEveryCorruptionShapeAndKeepsValidEntries)
{
    const ScratchDir scratch("lc-verify");
    const std::string &root = scratch.path;
    const std::string dir = root + "/profiles";
    ASSERT_TRUE(store::makeDirs(dir));

    const std::string payload(512, 'p');
    ASSERT_TRUE(store::writeEntryFile(dir + "/good.profile",
                                      kTestVersion, "good", payload));

    // Four corruption shapes, all with entry suffixes so readers and
    // the verifier actually consider them.
    ASSERT_TRUE(writeWhole(dir + "/zero.profile", ""));
    ASSERT_TRUE(writeWhole(dir + "/magic.result",
                           std::string(64, 'Z')));
    const std::string good_bytes =
        readWhole(dir + "/good.profile");
    ASSERT_TRUE(writeWhole(dir + "/trunc.timing",
                           good_bytes.substr(0, good_bytes.size() / 2)));
    std::string flipped = good_bytes;
    flipped[flipped.size() - store::kChecksumTrailerBytes - 5] ^= 0x40;
    ASSERT_TRUE(writeWhole(dir + "/flip.bench", flipped));

    // Every corrupt shape is a miss for a reader, never an abort.
    for (const char *name :
         {"zero.profile", "magic.result", "trunc.timing", "flip.bench"}) {
        std::string got;
        EXPECT_FALSE(store::readStoreEntry(dir, name, kTestVersion,
                                           "good", &got))
            << name;
    }

    const store::VerifyReport report = store::runVerify(root, {});
    EXPECT_TRUE(report.ok);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.corruptEntries, 4u);
    EXPECT_EQ(report.quarantined, 4u);

    // The valid entry survives in place; the corpses moved aside.
    std::string got;
    EXPECT_TRUE(store::readStoreEntry(dir, "good.profile",
                                      kTestVersion, "good", &got));
    EXPECT_EQ(got, payload);
    for (const char *name :
         {"zero.profile", "magic.result", "trunc.timing", "flip.bench"}) {
        EXPECT_FALSE(fileExists(dir + "/" + name)) << name;
        EXPECT_TRUE(fileExists(dir + "/" +
                               store::kQuarantineDirName + "/" + name))
            << name;
    }

    // A second scan of the repaired store is clean.
    const store::VerifyReport again = store::runVerify(root, {});
    EXPECT_TRUE(again.clean());
    EXPECT_EQ(again.scannedEntries, 1u);
}

TEST(Verifier, SweepsStaleTempsAndLeasesButSparesFreshOnes)
{
    const ScratchDir scratch("lc-sweep");
    const std::string &root = scratch.path;
    const std::string dir = root + "/timing";
    ASSERT_TRUE(store::makeDirs(dir));

    // A dead writer's temp (old) and a live writer's temp (fresh).
    ASSERT_TRUE(writeWhole(dir + "/a.timing.tmp.999.0", "orphan"));
    backdateMtime(dir + "/a.timing.tmp.999.0", 3600);
    ASSERT_TRUE(writeWhole(dir + "/b.timing.tmp.999.1", "in-flight"));

    // A stale lease (hostname-less, governed by age alone) and a
    // fresh one.
    ASSERT_TRUE(writeWhole(dir + "/stale.lease", "999 1 \n"));
    const store::Lease fresh =
        store::tryAcquireLease(dir + "/fresh.lease");
    ASSERT_TRUE(fresh.held());

    const store::VerifyReport report = store::runVerify(root, {});
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.staleTemps, 1u);
    EXPECT_EQ(report.staleLeases, 1u);
    EXPECT_FALSE(fileExists(dir + "/a.timing.tmp.999.0"));
    EXPECT_TRUE(fileExists(dir + "/b.timing.tmp.999.1"))
        << "a fresh temp belongs to a live writer";
    EXPECT_FALSE(fileExists(dir + "/stale.lease"));
    EXPECT_TRUE(fileExists(dir + "/fresh.lease"));
}

TEST(Lifecycle, RetiredNamesAreIgnoredByScanVerifyAndGc)
{
    // Older builds left `.obs` cost observations and `pack-*` segment
    // files in store subdirectories. Neither is an entry any more: the
    // usage scan does not count them, the verifier does not quarantine
    // them (however they read) and the GC never evicts them.
    const ScratchDir scratch("lc-retired");
    const std::string &root = scratch.path;
    const std::string dir = root + "/timing";
    ASSERT_TRUE(store::makeDirs(dir));
    ASSERT_TRUE(store::writeEntryFile(dir + "/live.timing", kTestVersion,
                                      "live", std::string(256, 't')));
    const std::string retired[] = {"x.obs", "pack-0.seg"};
    for (const std::string &name : retired) {
        ASSERT_TRUE(writeWhole(dir + "/" + name, std::string(64, 'Z')));
        backdateMtime(dir + "/" + name, 3600);
    }
    backdateMtime(dir + "/live.timing", 3600);

    const store::StoreUsage usage = store::scanStoreUsage(root);
    EXPECT_EQ(usage.entries(), 1u);
    EXPECT_EQ(usage.liveBytes(), store::fileSizeOf(dir + "/live.timing"));

    const store::VerifyReport report = store::runVerify(root, {});
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.scannedEntries, 1u);
    EXPECT_EQ(report.quarantined, 0u);

    store::GcOptions opts;
    opts.maxBytes = 1; // evict everything evictable
    opts.minAgeMs = 0;
    const store::GcReport gc = store::runGc(root, opts);
    EXPECT_TRUE(gc.ok);
    EXPECT_EQ(gc.evicted, 1u) << "only the live entry is a candidate";
    EXPECT_FALSE(fileExists(dir + "/live.timing"));
    for (const std::string &name : retired) {
        EXPECT_TRUE(fileExists(dir + "/" + name)) << name;
        EXPECT_FALSE(fileExists(dir + "/" + store::kQuarantineDirName +
                                "/" + name))
            << name;
    }
}

// --- GC: budget, LRU order, lease- and age-protection -----------------

TEST(Gc, EvictsLeastRecentlyUsedToTheByteBudget)
{
    std::vector<std::string> names;
    const ScratchDir scratch("lc-gc-budget");
    const std::string &root = scratch.path;
    fillSyntheticRoot(root, 8, 1000, &names);
    const std::string dir = root + "/profiles";
    const uint64_t per_entry =
        store::fileSizeOf(dir + "/" + names[0]);

    // Ages 80..10 minutes: entry-0 oldest, entry-7 newest.
    for (int i = 0; i < 8; ++i)
        backdateMtime(dir + "/" + names[i], (8 - i) * 600);

    store::GcOptions opts;
    opts.maxBytes = per_entry * 3;
    opts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.evicted, 5u);
    EXPECT_LE(report.liveBytesAfter, opts.maxBytes);

    // LRU: the three NEWEST survive.
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(fileExists(dir + "/" + names[i])) << names[i];
    for (int i = 5; i < 8; ++i)
        EXPECT_TRUE(fileExists(dir + "/" + names[i])) << names[i];

    // The disk-side scan sees exactly what the GC left.
    const store::StoreUsage usage = store::scanStoreUsage(root);
    EXPECT_EQ(usage.entries(), 3u);
    EXPECT_EQ(usage.liveBytes(), report.liveBytesAfter);
}

TEST(Gc, NeverEvictsLeasedOrYoungEntriesEvenOverBudget)
{
    std::vector<std::string> names;
    const ScratchDir scratch("lc-gc-lease");
    const std::string &root = scratch.path;
    fillSyntheticRoot(root, 4, 1000, &names);
    const std::string dir = root + "/profiles";

    // All old enough to evict — but entry-0 is leased (in flight)
    // and entry-1 is younger than the min-age guard.
    for (int i = 0; i < 4; ++i)
        backdateMtime(dir + "/" + names[i], 3600);
    const store::Lease held = store::tryAcquireLease(
        dir + "/" + store::leaseNameFor(names[0]));
    ASSERT_TRUE(held.held());
    backdateMtime(dir + "/" + names[1], 10);

    store::GcOptions opts;
    opts.maxBytes = 1; // evict everything evictable
    opts.minAgeMs = 60 * 1000;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.keptLeased, 1u);
    EXPECT_EQ(report.keptYoung, 1u);
    EXPECT_EQ(report.evicted, 2u);
    EXPECT_TRUE(fileExists(dir + "/" + names[0]))
        << "a leased entry must never be evicted";
    EXPECT_TRUE(fileExists(dir + "/" + names[1]))
        << "an entry under the min-age guard must never be evicted";
}

TEST(Gc, DryRunReportsWithoutTouchingAnything)
{
    std::vector<std::string> names;
    const ScratchDir scratch("lc-gc-dry");
    const std::string &root = scratch.path;
    fillSyntheticRoot(root, 4, 1000, &names);
    const std::string dir = root + "/profiles";
    for (const std::string &n : names)
        backdateMtime(dir + "/" + n, 3600);

    store::GcOptions opts;
    opts.maxBytes = 1;
    opts.minAgeMs = 0;
    opts.dryRun = true;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_EQ(report.evicted, 4u);
    for (const std::string &n : names)
        EXPECT_TRUE(fileExists(dir + "/" + n)) << n;
}

TEST(Gc, AccessIndexBeatsMtimeForRecency)
{
    std::vector<std::string> names;
    const ScratchDir scratch("lc-gc-access");
    const std::string &root = scratch.path;
    fillSyntheticRoot(root, 2, 1000, &names);
    const std::string dir = root + "/profiles";
    // entry-0 has the OLDER mtime but was just read; entry-1 looks
    // newer on disk but is cold. LRU must trust the access index.
    backdateMtime(dir + "/" + names[0], 7200);
    backdateMtime(dir + "/" + names[1], 3600);
    store::recordAccess(dir, names[0]);
    store::flushAccessIndexes();

    store::GcOptions opts;
    opts.maxBytes = store::fileSizeOf(dir + "/" + names[0]);
    opts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_EQ(report.evicted, 1u);
    EXPECT_TRUE(fileExists(dir + "/" + names[0]))
        << "the just-read entry must survive";
    EXPECT_FALSE(fileExists(dir + "/" + names[1]));
}

TEST(Gc, AgeBoundEvictsIdleEntriesOnly)
{
    std::vector<std::string> names;
    const ScratchDir scratch("lc-gc-age");
    const std::string &root = scratch.path;
    fillSyntheticRoot(root, 3, 1000, &names);
    const std::string dir = root + "/profiles";
    backdateMtime(dir + "/" + names[0], 7200);
    backdateMtime(dir + "/" + names[1], 7200);
    // names[2] keeps its fresh mtime.

    store::GcOptions opts;
    opts.maxAgeMs = 3600 * 1000;
    opts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_EQ(report.evicted, 2u);
    EXPECT_TRUE(fileExists(dir + "/" + names[2]));
}

// --- Full-batch acceptance: racing janitors ---------------------------

arch::GpuSpec
tinySpec()
{
    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny lifecycle";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();
    return tiny;
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
            t.instrThroughput[type][w] =
                1e10 * std::min(1.0, w / 8.0) + type * 0.125;
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

api::AnalysisRequest
lifecycleRequest(const std::string &store_dir)
{
    api::AnalysisRequest req;
    req.jobName = "lifecycle-batch";
    req.kernels.push_back(api::KernelJob::fromRef(
        "saxpy-small", api::CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "conflicted",
        api::CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "hist", api::CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(tinySpec());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0};
    req.store.storeDir = store_dir;
    req.exec.numThreads = 2;
    return req;
}

void
adoptAll(api::AnalysisService &service, const api::AnalysisRequest &req)
{
    const auto tables =
        std::make_shared<const model::CalibrationTables>(fakeTables());
    for (const arch::GpuSpec &spec : req.specs)
        service.adoptCalibration(req, spec, tables);
}

TEST(Lifecycle, JanitorsRacingALiveBatchStayBitIdentical)
{
    // The reference: an undisturbed run on its own store.
    const ScratchDir ref_scratch("lc-race-ref");
    const std::string &ref_root = ref_scratch.path;
    api::AnalysisService ref_service;
    const api::AnalysisRequest ref_req = lifecycleRequest(ref_root);
    adoptAll(ref_service, ref_req);
    const api::AnalysisResponse ref = ref_service.run(ref_req);

    // The contested store: GC under maximal byte pressure (the
    // min-age guard is the only protection for in-flight entries)
    // and a fixing verifier, both looping while the batch runs.
    const ScratchDir scratch("lc-race-live");
    const std::string &root = scratch.path;
    std::atomic<bool> stop{false};
    std::thread janitor([&root, &stop] {
        store::GcOptions gc;
        gc.maxBytes = 1;
        while (!stop.load()) {
            (void)store::runGc(root, gc);
            (void)store::runVerify(root, {});
        }
    });

    api::AnalysisService service;
    const api::AnalysisRequest req = lifecycleRequest(root);
    adoptAll(service, req);
    const api::AnalysisResponse first = service.run(req);
    service.reset();
    adoptAll(service, req);
    const api::AnalysisResponse second = service.run(req);
    stop.store(true);
    janitor.join();

    std::string why;
    EXPECT_TRUE(api::responsesEqual(ref, first, &why))
        << "cold run raced by janitors: " << why;
    EXPECT_TRUE(api::responsesEqual(ref, second, &why))
        << "warm run raced by janitors: " << why;

    // The contested store must still verify clean afterwards.
    const store::VerifyReport report = store::runVerify(root, {});
    EXPECT_TRUE(report.clean());
}

// --- Telemetry plumbing -----------------------------------------------

TEST(StoreStats, ServiceAggregatesAcrossResetWithoutGoingBackwards)
{
    const ScratchDir scratch("lc-stats");
    const std::string &root = scratch.path;
    api::AnalysisService service;
    const api::AnalysisRequest req = lifecycleRequest(root);
    adoptAll(service, req);
    (void)service.run(req);

    const store::StoreLayerStats before = service.storeStats();
    EXPECT_GT(before.total().writes, 0u);

    // reset() retires every executor; its counters must fold into
    // the accumulator, not vanish.
    service.reset();
    const store::StoreLayerStats after = service.storeStats();
    EXPECT_GE(after.total().writes, before.total().writes);
    EXPECT_GE(after.total().hits + after.total().misses,
              before.total().hits + before.total().misses);
}

TEST(StoreStats, JsonCarriesEveryCounterAndTheLayerTotals)
{
    store::StoreStats s;
    s.hits = 3;
    s.leaseSteals = 1;
    const std::string json = store::storeStatsJson(s);
    EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"lease_steals\": 1"), std::string::npos);

    store::StoreLayerStats layer;
    layer.profiles.hits = 2;
    layer.results.writes = 5;
    const std::string layer_json = store::storeLayerStatsJson(layer);
    for (const char *key :
         {"\"profiles\"", "\"calibrations\"", "\"timings\"",
          "\"results\"", "\"total\""})
        EXPECT_NE(layer_json.find(key), std::string::npos) << key;

    api::ServerStats stats;
    const std::string server_json = api::statsToJson(stats);
    EXPECT_NE(server_json.find("\"store\""), std::string::npos);
    EXPECT_NE(server_json.find("\"gc_runs\""), std::string::npos);
}

TEST(StoreStats, ServerTakesItsSettingsFromTheFirstEndpoint)
{
    const api::Endpoint ep = api::Endpoint::parse(
        "unix:/tmp/x.sock?store=/tmp/s&gc-bytes=1048576&gc-age=7200&"
        "gc-interval=30",
        api::Endpoint::Role::kServer);
    EXPECT_EQ(ep.limits.gcBytes, 1048576u);
    EXPECT_EQ(ep.timeouts.gcAgeSeconds, 7200.0);
    EXPECT_EQ(ep.timeouts.gcIntervalSeconds, 30.0);
    EXPECT_EQ(ep.storeDir, "/tmp/s");
    EXPECT_THROW(api::Endpoint::parse("inproc:?gc-bytes=never"),
                 std::runtime_error)
        << "a non-numeric gc budget must fail fast";

    // The first endpoint's store and GC settings start the GC
    // thread; the second endpoint only adds a listener, so its
    // max-cells=1 quota does not apply.
    const ScratchDir scratch("lc-first-endpoint");
    const std::string &root = scratch.path;
    const ScratchDir sockets("lc-first-endpoint-sock");
    const std::string sock = sockets.socketPath("serve.sock");
    api::Server server(std::vector<api::Endpoint>{
        api::Endpoint::parse("unix:" + sock + "?store=" + root +
                                 "&gc-bytes=1&gc-interval=0.05",
                             api::Endpoint::Role::kServer),
        api::Endpoint::parse("tcp:127.0.0.1:0?max-cells=1",
                             api::Endpoint::Role::kServer)});
    server.start();
    const uint64_t first_runs = server.stats().gcRuns;
    for (int i = 0; i < 200 && server.stats().gcRuns <= first_runs; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GT(server.stats().gcRuns, first_runs)
        << "the GC thread must sweep every gc-interval";

    api::AnalysisRequest req = lifecycleRequest(root);
    req.kernels.resize(2);
    adoptAll(server.service(), req);
    api::ServeClient client =
        api::ServeClient::overTcp("127.0.0.1", server.tcpPort());
    const api::AnalysisResponse got = client.run(req);
    ASSERT_EQ(got.cells.size(), 2u);
    for (const auto &cell : got.cells)
        EXPECT_TRUE(cell.ok) << cell.error;
    EXPECT_EQ(server.stats().rejectedRequests, 0u);
    server.stop();

    // Only listeners make a server.
    for (const char *uri : {"inproc:", "inproc", ""}) {
        const api::Endpoint listener =
            api::Endpoint::parse(uri, api::Endpoint::Role::kServer);
        EXPECT_THROW(api::Server bad(listener), std::runtime_error)
            << uri;
    }
}

} // namespace
} // namespace gpuperf
