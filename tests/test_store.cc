/**
 * @file
 * Persistent-store tests: the binary serializer round-trips every
 * value bit-exactly, each store rejects stale/corrupt/foreign entries
 * (degrading to a recompute, never wrong data), and a warm store
 * drives BatchRunner to results bit-identical to a cold run while
 * skipping functional simulation and calibration.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "model/session.h"
#include "store/calibration_store.h"
#include "store/codecs.h"
#include "store/lease.h"
#include "store/profile_store.h"
#include "store/result_store.h"
#include "store/serializer.h"
#include "store/timing_store.h"

#include "reference_cells.h"
#include "scratch_dir.h"

namespace gpuperf {
namespace {

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

std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    return std::make_shared<const model::CalibrationTables>(fakeTables());
}

TEST(Serializer, RoundTripsScalarsBitExactly)
{
    store::ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i32(-42);
    w.b(true);
    w.f64(0.1);
    w.f64(-0.0);
    w.f64(1e-300);
    w.f64(6.02214076e23);
    w.str("hello|world");
    w.str("");

    store::ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_TRUE(r.b());
    // Bit-level equality, not approximate: the whole point of the
    // binary format is exact reproduction of model outputs.
    EXPECT_EQ(r.f64(), 0.1);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(r.f64(), 1e-300);
    EXPECT_EQ(r.f64(), 6.02214076e23);
    EXPECT_EQ(r.str(), "hello|world");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(Serializer, OverrunSticksAndReturnsZeros)
{
    store::ByteWriter w;
    w.u32(7);
    store::ByteReader r(w.bytes());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_EQ(r.u64(), 0u) << "reading past the end yields zero";
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0) << "failure is sticky";
}

TEST(Serializer, EntryFilesRejectForeignKeysAndVersions)
{
    const ScratchDir scratch("entries");
    const std::string &dir = scratch.path;
    ASSERT_TRUE(store::makeDirs(dir));
    const std::string path = dir + "/entry.bin";
    ASSERT_TRUE(store::writeEntryFile(path, 3, "the-key", "payload"));

    std::string payload;
    EXPECT_TRUE(store::readEntryFile(path, 3, "the-key", &payload));
    EXPECT_EQ(payload, "payload");
    EXPECT_FALSE(store::readEntryFile(path, 4, "the-key", &payload))
        << "format-version bump invalidates the entry";
    EXPECT_FALSE(store::readEntryFile(path, 3, "another-key", &payload))
        << "key mismatch (e.g. filename hash collision) is a miss";
    EXPECT_FALSE(
        store::readEntryFile(dir + "/absent.bin", 3, "k", &payload));

    std::ofstream(path, std::ios::binary) << "garbage";
    EXPECT_FALSE(store::readEntryFile(path, 3, "the-key", &payload))
        << "a corrupt entry is a miss, not an error";
}

TEST(ProfileStore, RoundTripDrivesBitIdenticalPredictions)
{
    auto kc = driver::makeStencil1dCase("stencil", 8, 128);
    auto launch = kc.make();
    model::AnalysisSession session(arch::GpuSpec::gtx285());
    session.adoptCalibration(sharedFakeTables());
    auto profile = session.profile(launch.kernel, launch.cfg, *launch.gmem);

    const ScratchDir scratch("profiles");
    store::ProfileStore ps(scratch.path);
    ASSERT_TRUE(ps.save(*profile));
    auto loaded = ps.load(profile->key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(ps.hits(), 1u);

    // The loaded artifact is the same object, field for field...
    EXPECT_EQ(loaded->key, profile->key);
    EXPECT_EQ(loaded->kernelName, profile->kernelName);
    EXPECT_EQ(loaded->resources.registersPerThread,
              profile->resources.registersPerThread);
    ASSERT_EQ(loaded->stats.stages.size(), profile->stats.stages.size());
    for (size_t i = 0; i < loaded->stats.stages.size(); ++i)
        EXPECT_TRUE(loaded->stats.stages[i] == profile->stats.stages[i]);
    ASSERT_EQ(loaded->trace.pool.size(), profile->trace.pool.size());
    for (size_t i = 0; i < loaded->trace.pool.size(); ++i)
        EXPECT_TRUE(loaded->trace.pool[i] == profile->trace.pool[i]);
    ASSERT_EQ(loaded->trace.blocks.size(), profile->trace.blocks.size());
    EXPECT_EQ(loaded->trace.totalOps(), profile->trace.totalOps());

    // ...so serialize -> load -> predict is exact.
    const model::Analysis from_memory = session.analyze(profile);
    const model::Analysis from_disk = session.analyze(loaded);
    EXPECT_EQ(from_disk.prediction.totalSeconds,
              from_memory.prediction.totalSeconds);
    EXPECT_EQ(from_disk.measurement.timing.cycles,
              from_memory.measurement.timing.cycles);
    EXPECT_EQ(from_disk.metrics.coalescingEfficiency,
              from_memory.metrics.coalescingEfficiency);
}

TEST(ProfileStore, MissesOnDifferentKey)
{
    auto kc = driver::makeSaxpyCase("saxpy", 4, 128, 2.0f);
    auto launch = kc.make();
    model::SimulatedDevice dev(arch::GpuSpec::gtx285());
    auto profile = dev.profile(launch.kernel, launch.cfg, *launch.gmem);

    const ScratchDir scratch("profile-miss");
    store::ProfileStore ps(scratch.path);
    ASSERT_TRUE(ps.save(*profile));
    funcsim::ProfileKey other = profile->key;
    other.cfg.gridDim += 1;
    EXPECT_EQ(ps.load(other), nullptr);
    other = profile->key;
    other.fingerprint.numSharedBanks = 17;
    EXPECT_EQ(ps.load(other), nullptr)
        << "funcsim fingerprint mismatch must recompute";
    EXPECT_EQ(ps.misses(), 2u);
}

TEST(CalibrationStore, RoundTripsTablesExactly)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const ScratchDir scratch("calibrations");
    store::CalibrationStore cs(scratch.path);
    EXPECT_EQ(cs.load(spec), nullptr);
    ASSERT_TRUE(cs.save(spec, fakeTables()));
    auto loaded = cs.load(spec);
    ASSERT_NE(loaded, nullptr);
    const model::CalibrationTables want = fakeTables();
    EXPECT_EQ(loaded->maxWarps, want.maxWarps);
    EXPECT_EQ(loaded->bytesPerPass, want.bytesPerPass);
    for (int type = 0; type < arch::kNumInstrTypes; ++type)
        EXPECT_EQ(loaded->instrThroughput[type],
                  want.instrThroughput[type]);
    EXPECT_EQ(loaded->sharedPassThroughput, want.sharedPassThroughput);

    arch::GpuSpec other = spec;
    other.aluDepCycles += 1;
    EXPECT_EQ(cs.load(other), nullptr)
        << "calibration keys on the FULL spec fingerprint";
}

TEST(ResultStore, RoundTripsABatchResultBitExactly)
{
    driver::BatchRunner runner;
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    runner.adoptCalibration(spec, sharedFakeTables());
    driver::SweepSpec sweep;
    sweep.noBankConflicts = true;
    sweep.warpsPerSm = {8.0, 32.0};
    const auto results = runner.run(
        {driver::makeStridedSaxpyCase("strided", 8, 128, 4)}, {spec},
        sweep);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;

    const ScratchDir scratch("results");
    store::ResultStore rs(scratch.path);
    ASSERT_TRUE(rs.save("cell-key", results[0]));
    auto loaded = rs.load("cell-key");
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->ok);
    EXPECT_EQ(loaded->kernelName, results[0].kernelName);
    EXPECT_EQ(loaded->analysis.prediction.totalSeconds,
              results[0].analysis.prediction.totalSeconds);
    EXPECT_EQ(loaded->analysis.measurement.timing.cycles,
              results[0].analysis.measurement.timing.cycles);
    EXPECT_EQ(loaded->analysis.measurement.stats.totalGlobalBytes(),
              results[0].analysis.measurement.stats.totalGlobalBytes());
    ASSERT_EQ(loaded->whatifs.size(), results[0].whatifs.size());
    for (size_t j = 0; j < loaded->whatifs.size(); ++j) {
        EXPECT_EQ(loaded->whatifs[j].point.kind,
                  results[0].whatifs[j].point.kind);
        EXPECT_EQ(loaded->whatifs[j].point.value,
                  results[0].whatifs[j].point.value);
        EXPECT_EQ(loaded->whatifs[j].result.before.totalSeconds,
                  results[0].whatifs[j].result.before.totalSeconds);
        EXPECT_EQ(loaded->whatifs[j].result.after.totalSeconds,
                  results[0].whatifs[j].result.after.totalSeconds);
        EXPECT_EQ(loaded->whatifs[j].speedup(),
                  results[0].whatifs[j].speedup());
    }
    EXPECT_EQ(rs.load("other-key"), nullptr);
}

TEST(ProfileStore, ReadKeyValidatesWithoutDeserializing)
{
    auto kc = driver::makeSaxpyCase("saxpy", 4, 128, 2.0f);
    auto launch = kc.make();
    model::SimulatedDevice dev(arch::GpuSpec::gtx285());
    auto profile = dev.profile(launch.kernel, launch.cfg, *launch.gmem);

    const ScratchDir scratch("profile-readkey");
    store::ProfileStore ps(scratch.path);
    EXPECT_FALSE(ps.readKey(profile->key)) << "nothing stored yet";
    ASSERT_TRUE(ps.save(*profile));
    EXPECT_TRUE(ps.readKey(profile->key));

    // Any key mutation misses, exactly like a full load.
    funcsim::ProfileKey other = profile->key;
    other.cfg.blockDim *= 2;
    EXPECT_FALSE(ps.readKey(other));
    other = profile->key;
    other.kernelHash ^= 1;
    EXPECT_FALSE(ps.readKey(other));

    // The key-only path is not a load: hit/miss counters untouched.
    EXPECT_EQ(ps.hits(), 0u);
    EXPECT_EQ(ps.misses(), 0u);

    // A truncated entry (torn write) is a miss, not a false positive.
    const std::string key_str = profile->key.str();
    const std::string path = ps.dir() + "/" +
                             store::fileStem("profile", key_str) +
                             ".profile";
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(data.size(), 16u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size() - 7));
    out.close();
    EXPECT_FALSE(ps.readKey(profile->key));
}

TEST(TimingStore, RoundTripsReplaysBitExactlyPerFingerprint)
{
    auto kc = driver::makeStencil1dCase("stencil", 8, 128);
    auto launch = kc.make();
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    model::SimulatedDevice dev(spec);
    auto profile = dev.profile(launch.kernel, launch.cfg, *launch.gmem);
    const timing::TimingResult replay =
        dev.timingSim().run(*profile);

    const ScratchDir scratch("timing-store");
    store::TimingStore ts(scratch.path);
    const arch::TimingFingerprint fp = arch::TimingFingerprint::of(spec);
    EXPECT_EQ(ts.load(profile->key, fp), nullptr);
    ASSERT_TRUE(ts.save(profile->key, fp, replay));
    auto loaded = ts.load(profile->key, fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(*loaded == replay) << "codec must round-trip exactly";

    // A different timing fingerprint (same profile) is a distinct
    // entry: the paper's what-if variants never alias each other.
    arch::GpuSpec slow = spec;
    slow.globalLatencyCycles *= 2;
    EXPECT_EQ(ts.load(profile->key,
                      arch::TimingFingerprint::of(slow)),
              nullptr);
    // ...and a timing-irrelevant spec edit maps to the same entry.
    arch::GpuSpec renamed = spec;
    renamed.name = "same machine, other label";
    EXPECT_NE(ts.load(profile->key,
                      arch::TimingFingerprint::of(renamed)),
              nullptr);
    EXPECT_EQ(ts.hits(), 2u);
    EXPECT_EQ(ts.misses(), 2u);
}

class WarmStoreTest : public ::testing::Test
{
  protected:
    WarmStoreTest()
    {
        kernels_.push_back(driver::makeSaxpyCase("saxpy", 8, 128, 2.0f));
        kernels_.push_back(
            driver::makeStencil1dCase("stencil", 8, 128));
        specs_ = {arch::GpuSpec::gtx285(),
                  arch::GpuSpec::gtx285MoreBlocks(),
                  arch::GpuSpec::gtx285BigResources(),
                  arch::GpuSpec::gtx285PrimeBanks()};
        sweep_.noBankConflicts = true;
        sweep_.warpsPerSm = {16.0};
    }

    std::unique_ptr<driver::BatchRunner>
    makeRunner(const std::string &store_dir, bool reuse_results = true)
    {
        driver::BatchRunner::Options opts;
        opts.numThreads = 2;
        opts.storeDir = store_dir;
        opts.reuseStoredResults = reuse_results;
        auto runner = std::make_unique<driver::BatchRunner>(opts);
        for (const auto &spec : specs_)
            runner->adoptCalibration(spec, sharedFakeTables());
        return runner;
    }

    void expectSame(const std::vector<driver::BatchResult> &got,
                    const std::vector<driver::BatchResult> &want)
    {
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            ASSERT_TRUE(got[i].ok) << got[i].error;
            EXPECT_EQ(got[i].kernelName, want[i].kernelName);
            EXPECT_EQ(got[i].specName, want[i].specName);
            EXPECT_EQ(got[i].analysis.prediction.totalSeconds,
                      want[i].analysis.prediction.totalSeconds);
            EXPECT_EQ(got[i].analysis.measurement.timing.cycles,
                      want[i].analysis.measurement.timing.cycles);
            ASSERT_EQ(got[i].whatifs.size(), want[i].whatifs.size());
            for (size_t j = 0; j < got[i].whatifs.size(); ++j)
                EXPECT_EQ(got[i].whatifs[j].speedup(),
                          want[i].whatifs[j].speedup());
        }
    }

    std::vector<driver::KernelCase> kernels_;
    std::vector<arch::GpuSpec> specs_;
    driver::SweepSpec sweep_;
};

TEST_F(WarmStoreTest, WarmRunsAreBitIdenticalAndSkipFunctionalSim)
{
    const ScratchDir scratch("warm-store");
    const std::string &dir = scratch.path;

    auto cold = makeRunner(dir);
    const auto cold_results = cold->run(kernels_, specs_, sweep_);
    // Cold: every profile lookup missed, then was stored. 3 of the 4
    // specs share one funcsim fingerprint, so 2 kernels x 2 distinct
    // fingerprints = 4 profile builds for 8 cells.
    ASSERT_NE(cold->profileStore(), nullptr);
    EXPECT_EQ(cold->profileStore()->hits(), 0u);
    EXPECT_EQ(cold->profileStore()->misses(), 4u);

    // Warm, results reused: whole cells come from the store.
    auto warm = makeRunner(dir);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);
    expectSame(warm_results, cold_results);
    EXPECT_EQ(warm->resultStore()->hits(),
              kernels_.size() * specs_.size());

    // Warm, result reuse off: profiles still come from the store
    // (functional simulation skipped), the rest recomputes — and the
    // numbers still match bit for bit.
    auto warm_profiles_only = makeRunner(dir, false);
    const auto reran = warm_profiles_only->run(kernels_, specs_, sweep_);
    expectSame(reran, cold_results);
    EXPECT_EQ(warm_profiles_only->profileStore()->hits(), 4u);
    EXPECT_EQ(warm_profiles_only->profileStore()->misses(), 0u);
    EXPECT_EQ(warm_profiles_only->resultStore()->hits(), 0u);
}

TEST_F(WarmStoreTest, WarmResultCellsTakeTheKeyOnlyPath)
{
    const ScratchDir scratch("warm-keyonly");
    const std::string &dir = scratch.path;
    auto cold = makeRunner(dir);
    const auto cold_results = cold->run(kernels_, specs_, sweep_);

    // Every cell is served from the result store, and the result key
    // is derived from the profile key alone: the profile files are
    // never opened, let alone deserialized.
    auto warm = makeRunner(dir);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);
    expectSame(warm_results, cold_results);
    EXPECT_EQ(warm->resultStore()->hits(),
              kernels_.size() * specs_.size());
    EXPECT_EQ(warm->profileStore()->hits(), 0u)
        << "warm result cells must not load profiles";
    EXPECT_EQ(warm->profileStore()->misses(), 0u);
    EXPECT_EQ(warm->timingStore()->hits(), 0u)
        << "warm result cells skip the timing memo too";
}

TEST_F(WarmStoreTest, ColdRunWritesOneTimingEntryPerReplayAndNoObs)
{
    const ScratchDir scratch("cold-timing-writes");
    const std::string &dir = scratch.path;
    auto cold = makeRunner(dir);
    for (const auto &r : cold->run(kernels_, specs_, sweep_))
        ASSERT_TRUE(r.ok) << r.error;

    const uint64_t replays = cold->timingsComputed();
    ASSERT_GT(replays, 0u);
    EXPECT_EQ(cold->storeStats().timings.writes, replays);
    size_t timing_files = 0;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(dir)) {
        EXPECT_NE(e.path().extension(), ".obs") << e.path();
        if (e.path().extension() == ".timing")
            ++timing_files;
    }
    EXPECT_EQ(timing_files, replays);
}

TEST_F(WarmStoreTest, WarmRunsRepublishOnlyInvalidEntries)
{
    const ScratchDir scratch("warm-republish");
    const std::string &dir = scratch.path;
    const size_t cells = kernels_.size() * specs_.size();
    const auto cold_results = makeRunner(dir)->run(kernels_, specs_, sweep_);
    std::vector<std::filesystem::path> entries;
    for (const auto &e : std::filesystem::directory_iterator(dir + "/results"))
        entries.push_back(e.path());
    ASSERT_EQ(entries.size(), cells);

    // Result reuse off: every cell recomputes, but a result is
    // deterministic in its key, so the run writes nothing at all.
    auto rerun = makeRunner(dir, false);
    expectSame(rerun->run(kernels_, specs_, sweep_), cold_results);
    const store::StoreLayerStats quiet = rerun->storeStats();
    EXPECT_EQ(quiet.results.writes, 0u);
    EXPECT_EQ(quiet.timings.writes, 0u);
    EXPECT_EQ(quiet.total().writes, 0u);

    // A stored result whose payload no longer matches its checksum is
    // not valid: the next recomputing run replaces it.
    {
        std::fstream f(entries[0], std::ios::in | std::ios::out |
                                       std::ios::binary);
        const auto size = std::filesystem::file_size(entries[0]);
        f.seekg(static_cast<std::streamoff>(size) - 20);
        const char byte = static_cast<char>(f.get());
        f.seekp(static_cast<std::streamoff>(size) - 20);
        f.put(static_cast<char>(byte ^ 0x5a));
    }
    auto healer = makeRunner(dir, false);
    expectSame(healer->run(kernels_, specs_, sweep_), cold_results);
    EXPECT_EQ(healer->storeStats().results.writes, 1u);

    auto warm = makeRunner(dir);
    expectSame(warm->run(kernels_, specs_, sweep_), cold_results);
    EXPECT_EQ(warm->resultStore()->hits(), cells);
}

TEST_F(WarmStoreTest, TimingMemoPersistsAcrossProcesses)
{
    const ScratchDir scratch("warm-timing");
    const std::string &dir = scratch.path;
    auto cold = makeRunner(dir);
    (void)cold->run(kernels_, specs_, sweep_);
    // 3 of the 4 specs share a funcsim fingerprint but all 4 have
    // distinct TIMING fingerprints, so the cold run replays (and
    // persists) one timing result per cell.
    ASSERT_NE(cold->timingStore(), nullptr);
    EXPECT_EQ(cold->timingStore()->misses(),
              kernels_.size() * specs_.size());

    // A "new process" with result reuse off: profiles and timing
    // replays both come from disk — the cells recompute only
    // extraction, prediction and the sweep.
    auto warm = makeRunner(dir, false);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);
    for (const auto &r : warm_results)
        ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(warm->timingStore()->hits(),
              kernels_.size() * specs_.size());
    EXPECT_EQ(warm->timingStore()->misses(), 0u);
}

TEST_F(WarmStoreTest, SyntheticBenchResultsPersistAcrossRunners)
{
    const ScratchDir scratch("bench-memo");
    const std::string &dir = scratch.path;
    auto cold = makeRunner(dir);
    (void)cold->run(kernels_, specs_, sweep_);

    // The cold batch measured synthetic global benchmarks (the model's
    // global component needs them); they must now be on disk...
    ASSERT_NE(cold->calibrationStore(), nullptr);
    const auto persisted =
        cold->calibrationStore()->loadBenchResults(specs_[0]);
    EXPECT_FALSE(persisted.empty());

    // ...and a fresh runner must serve them from the store, producing
    // identical results without re-measuring (bit-identity is checked
    // by the sibling tests; here we pin the round trip itself).
    auto warm = makeRunner(dir, false);
    auto memo = warm->benchMemoFor(specs_[0]);
    for (const auto &entry : persisted) {
        bool ran_compute = false;
        const auto served = memo->getOrCompute(entry.first, [&]() {
            ran_compute = true;
            return model::GlobalBenchResult{};
        });
        EXPECT_FALSE(ran_compute)
            << "persisted benchmark was re-measured";
        EXPECT_EQ(served.seconds, entry.second.seconds);
        EXPECT_EQ(served.xactThroughput, entry.second.xactThroughput);
    }
}

TEST_F(WarmStoreTest, SerialReferenceMatchesStoreServedResults)
{
    // The acceptance bar: store-served batches equal the serial
    // reference loop bit for bit, with the same fake tables.
    const ScratchDir scratch("store-vs-serial");
    const std::string &dir = scratch.path;
    auto cold = makeRunner(dir);
    (void)cold->run(kernels_, specs_, sweep_);
    auto warm = makeRunner(dir);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);

    const auto want =
        referenceCells(kernels_, specs_, sweep_, sharedFakeTables());
    expectSame(warm_results, want);
}

// --- Cross-process calibration lease -----------------------------------

TEST(CalibrationStoreLease, ExactlyOneProcessHoldsAFreshLease)
{
    const ScratchDir scratch("lease-basic");
    const std::string &dir = scratch.path;
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    // Two store objects = two cooperating processes' views.
    store::CalibrationStore a(dir);
    store::CalibrationStore b(dir);

    EXPECT_FALSE(a.leaseHeld(spec));
    store::Lease held = a.tryAcquireLease(spec);
    ASSERT_TRUE(held.held());
    EXPECT_TRUE(b.leaseHeld(spec))
        << "the marker must be visible through any store object";

    store::Lease lost = b.tryAcquireLease(spec);
    EXPECT_FALSE(lost.held())
        << "a fresh lease held by a live pid must not be taken";

    held.release();
    EXPECT_FALSE(b.leaseHeld(spec));
    store::Lease second = b.tryAcquireLease(spec);
    EXPECT_TRUE(second.held()) << "released leases are re-acquirable";
}

TEST(CalibrationStoreLease, StaleLeasesAreBrokenAndRetaken)
{
    const ScratchDir scratch("lease-stale");
    const std::string &dir = scratch.path;
    ASSERT_TRUE(store::makeDirs(dir));
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    store::CalibrationStore store(dir);

    const std::string lease_path =
        dir + "/" + store::fileStem(spec.name, spec.fingerprint()) +
        ".lease";

    // A lease from a process that no longer exists: broken at once.
    {
        std::ofstream marker(lease_path);
        marker << 999999999 << " " << 1 << "\n"; // dead pid, ancient
    }
    EXPECT_FALSE(store.leaseHeld(spec));
    store::Lease stolen = store.tryAcquireLease(spec);
    EXPECT_TRUE(stolen.held());
    stolen.release();

    // A lease from a LIVE pid (ours) but older than the stale
    // threshold: the holder is assumed wedged and the lease broken.
    const auto one_minute_ago =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count() -
        60'000;
    {
        std::ofstream marker(lease_path);
        marker << ::getpid() << " " << one_minute_ago << "\n";
    }
    EXPECT_TRUE(store.leaseHeld(spec))
        << "under the default 15-min threshold the lease is fresh";
    store.setLeaseStaleAfter(std::chrono::milliseconds(10));
    EXPECT_FALSE(store.leaseHeld(spec));
    store::Lease aged = store.tryAcquireLease(spec);
    EXPECT_TRUE(aged.held());
}

TEST(LeaseMarker, HostnameLessMarkersAreGovernedByAgeAlone)
{
    const ScratchDir scratch("lease-legacy");
    const std::string &dir = scratch.path;
    ASSERT_TRUE(store::makeDirs(dir));
    const std::string marker = dir + "/legacy.lease";
    const int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();

    // A hostname-less (legacy) marker names a pid of unknown
    // provenance: it may be recycled by an unrelated local process,
    // or probe as EPERM ("alive"), keeping a dead holder's lease
    // fresh forever. The pid probe must NOT apply — a young legacy
    // marker is fresh and an old one stale, pid notwithstanding.
    {
        std::ofstream out(marker);
        out << 999999999 << " " << now_ms << "\n"; // dead pid, young
    }
    EXPECT_TRUE(store::leaseFresh(marker))
        << "young legacy marker must be fresh even with a dead pid";
    {
        std::ofstream out(marker, std::ios::trunc);
        out << 999999999 << " " << now_ms - 60'000 << "\n";
    }
    EXPECT_FALSE(store::leaseFresh(marker, /*stale_after_ms=*/1000))
        << "aged-out legacy marker must be stale";

    // The same dead pid WITH a local hostname is probed and broken
    // immediately: provenance is known, so liveness can be trusted.
    char host[256] = {0};
    ASSERT_EQ(::gethostname(host, sizeof(host) - 1), 0);
    {
        std::ofstream out(marker, std::ios::trunc);
        out << 999999999 << " " << now_ms << " " << host << "\n";
    }
    EXPECT_FALSE(store::leaseFresh(marker))
        << "dead same-host holder must break the lease at once";

    // A live same-host holder (us) stays fresh.
    {
        std::ofstream out(marker, std::ios::trunc);
        out << ::getpid() << " " << now_ms << " " << host << "\n";
    }
    EXPECT_TRUE(store::leaseFresh(marker));
}

TEST(CalibrationStoreLease, ConcurrentRunnersSplitTheMicrobenchmarkSweep)
{
    // Two runners sharing one storeDir — stand-ins for two sharded
    // processes — calibrate the same spec concurrently: the lease
    // must hand the sweep to exactly one of them, the other waits
    // and loads the published entry. Pinned on the runners' computed
    // counter, not on timing.
    const ScratchDir scratch("lease-split");
    const std::string &dir = scratch.path;
    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny lease";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();

    driver::BatchRunner::Options opts;
    opts.numThreads = 1;
    opts.storeDir = dir;
    driver::BatchRunner first(opts);
    driver::BatchRunner second(opts);

    std::shared_ptr<const model::CalibrationTables> ta, tb;
    std::thread t1([&]() { ta = first.calibrationFor(tiny); });
    std::thread t2([&]() { tb = second.calibrationFor(tiny); });
    t1.join();
    t2.join();

    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(first.calibrationsComputed() +
                  second.calibrationsComputed(),
              1u)
        << "the sweep must run at most once between the two runners";

    // Both ended with the SAME calibration content: the waiter's
    // tables came from the holder's persisted entry.
    EXPECT_EQ(store::tablesDigest(*ta), store::tablesDigest(*tb));

    // A third, later runner starts fully warm.
    driver::BatchRunner third(opts);
    auto tc = third.calibrationFor(tiny);
    ASSERT_NE(tc, nullptr);
    EXPECT_EQ(third.calibrationsComputed(), 0u);
    EXPECT_EQ(store::tablesDigest(*tc), store::tablesDigest(*ta));
}

TEST(CalibrationStore, CountsOneLookupPerCalibration)
{
    // A cold run, then a warm run (fresh runner, same directory) of
    // one spec: one hit or miss per lookup, bytes_read only from the
    // counted load, no rewrite of unchanged bench results. Then a
    // corrupt entry: a miss and a fresh calibration, not an error.
    const ScratchDir scratch("cal-counters");
    const std::string &dir = scratch.path;
    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny counters";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();
    const std::vector<driver::KernelCase> kernels = {
        driver::makeSaxpyCase("saxpy", 8, 128, 2.0f)};

    driver::BatchRunner::Options opts;
    opts.numThreads = 1;
    opts.storeDir = dir;
    uint64_t computed = 0;
    const auto run = [&]() {
        driver::BatchRunner runner(opts);
        const auto results = runner.run(kernels, {tiny});
        EXPECT_TRUE(results.at(0).ok) << results.at(0).error;
        computed = runner.calibrationsComputed();
        return runner.storeStats().calibrations;
    };

    const store::StoreStats cold = run();
    EXPECT_EQ(computed, 1u);
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_EQ(cold.misses, 1u) << "the under-lease re-check is no lookup";
    EXPECT_EQ(cold.writes, 2u) << "the tables and the bench results";
    EXPECT_EQ(cold.bytesRead, 0u);

    const std::string entry =
        dir + "/calibrations/" +
        store::fileStem(tiny.name, tiny.fingerprint()) + ".calibration";
    std::string bytes;
    {
        std::ifstream in(entry, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(bytes.empty());

    const store::StoreStats warm = run();
    EXPECT_EQ(computed, 0u);
    EXPECT_EQ(warm.hits, 1u);
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(warm.writes, 0u) << "unchanged bench results rewritten";
    EXPECT_EQ(warm.bytesRead, bytes.size())
        << "only the counted tables load may add bytes_read";

    bytes[bytes.size() / 2] ^= 0x10;
    std::ofstream(entry, std::ios::binary | std::ios::trunc) << bytes;
    const store::StoreStats healed = run();
    EXPECT_EQ(computed, 1u) << "a corrupt entry must recalibrate";
    EXPECT_EQ(healed.hits, 0u);
    EXPECT_EQ(healed.misses, 1u);
    EXPECT_EQ(healed.writes, 1u);
    EXPECT_NE(store::CalibrationStore(dir + "/calibrations").load(tiny),
              nullptr)
        << "the fresh calibration replaced the corrupt entry";
}

TEST(StoreCounters, CountsOneLookupPerProfileAndTiming)
{
    // The profile and timing layers under the calibration rules: the
    // under-lease re-checks (readKey / exists) count nothing, not even
    // header bytes, so a cold lookup is one miss with 0 bytes_read
    // and a warm one a hit whose bytes_read is the entry it decoded.
    const ScratchDir scratch("lookup-counters");
    const std::string &dir = scratch.path;
    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny lookup counters";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();
    const std::vector<driver::KernelCase> kernels = {
        driver::makeSaxpyCase("saxpy", 8, 128, 2.0f)};

    driver::BatchRunner::Options opts;
    opts.numThreads = 1;
    opts.storeDir = dir;
    struct Counts
    {
        store::StoreStats profiles;
        store::StoreStats timings;
        uint64_t funcsims = 0;
        uint64_t replays = 0;
    };
    const auto run = [&]() {
        driver::BatchRunner runner(opts);
        const auto results = runner.run(kernels, {tiny});
        EXPECT_TRUE(results.at(0).ok) << results.at(0).error;
        const store::StoreLayerStats s = runner.storeStats();
        return Counts{s.profiles, s.timings, runner.funcsimsComputed(),
                      runner.timingsComputed()};
    };

    const Counts cold = run();
    EXPECT_EQ(cold.funcsims, 1u);
    EXPECT_EQ(cold.replays, 1u);
    EXPECT_EQ(cold.profiles.hits, 0u);
    EXPECT_EQ(cold.profiles.misses, 1u);
    EXPECT_EQ(cold.profiles.writes, 1u);
    EXPECT_EQ(cold.profiles.bytesRead, 0u);
    EXPECT_EQ(cold.timings.hits, 0u);
    EXPECT_EQ(cold.timings.misses, 1u);
    EXPECT_EQ(cold.timings.writes, 1u);
    EXPECT_EQ(cold.timings.bytesRead, 0u);

    const auto entrySize = [&](const std::string &sub,
                               const std::string &ext) {
        uint64_t bytes = 0;
        for (const auto &e : std::filesystem::directory_iterator(dir + sub))
            if (e.path().extension() == ext)
                bytes += e.file_size();
        return bytes;
    };
    const uint64_t profile_bytes = entrySize("/profiles", ".profile");
    const uint64_t timing_bytes = entrySize("/timing", ".timing");
    ASSERT_GT(profile_bytes, 0u);
    ASSERT_GT(timing_bytes, 0u);

    // Warm profile and timing layers: drop the result store, which
    // would otherwise serve the cell without a lookup below it.
    std::filesystem::remove_all(dir + "/results");
    const Counts warm = run();
    EXPECT_EQ(warm.funcsims, 0u);
    EXPECT_EQ(warm.replays, 0u);
    EXPECT_EQ(warm.profiles.hits, 1u);
    EXPECT_EQ(warm.profiles.misses, 0u);
    EXPECT_EQ(warm.profiles.writes, 0u);
    EXPECT_EQ(warm.profiles.bytesRead, profile_bytes);
    EXPECT_EQ(warm.timings.hits, 1u);
    EXPECT_EQ(warm.timings.misses, 0u);
    EXPECT_EQ(warm.timings.bytesRead, timing_bytes);

    // The probes themselves, on entries that exist (what the
    // re-check sees when another process published first).
    store::ProfileStore profiles(dir + "/profiles");
    store::TimingStore timings(dir + "/timing");
    driver::PreparedLaunch launch = kernels[0].make();
    funcsim::RunOptions profiled = launch.options;
    profiled.collectTrace = true;
    const funcsim::ProfileKey key = funcsim::makeProfileKey(
        launch.kernel, launch.cfg, profiled, tiny, *launch.gmem);
    EXPECT_TRUE(profiles.readKey(key));
    EXPECT_TRUE(timings.exists(key, arch::TimingFingerprint::of(tiny)));
    const store::StoreStats probed_profiles = profiles.stats();
    const store::StoreStats probed_timings = timings.stats();
    EXPECT_EQ(probed_profiles.hits + probed_profiles.misses, 0u);
    EXPECT_EQ(probed_profiles.bytesRead, 0u);
    EXPECT_EQ(probed_timings.hits + probed_timings.misses, 0u);
    EXPECT_EQ(probed_timings.bytesRead, 0u);
}

// --- Profile / timing in-flight leases (the generalized mechanism) ------

TEST(ProfileLease, ExactlyOneProcessHoldsAFreshLease)
{
    const ScratchDir scratch("profile-lease");
    const std::string &dir = scratch.path;
    store::ProfileStore a(dir);
    store::ProfileStore b(dir);
    funcsim::ProfileKey key;
    key.kernelHash = 0xabcdef;
    key.inputHash = 42;

    EXPECT_FALSE(a.leaseHeld(key));
    store::Lease held = a.tryAcquireLease(key);
    ASSERT_TRUE(held.held());
    EXPECT_TRUE(b.leaseHeld(key))
        << "the marker must be visible through any store object";
    store::Lease lost = b.tryAcquireLease(key);
    EXPECT_FALSE(lost.held());

    // A DIFFERENT key's lease is independent.
    funcsim::ProfileKey other = key;
    other.inputHash = 43;
    store::Lease independent = b.tryAcquireLease(other);
    EXPECT_TRUE(independent.held());

    held.release();
    EXPECT_FALSE(b.leaseHeld(key));
    store::Lease second = b.tryAcquireLease(key);
    EXPECT_TRUE(second.held()) << "released leases are re-acquirable";
}

TEST(ProfileLease, StaleLeasesAreBrokenAndRetaken)
{
    const ScratchDir scratch("profile-lease-stale");
    const std::string &dir = scratch.path;
    ASSERT_TRUE(store::makeDirs(dir));
    store::ProfileStore store(dir);
    funcsim::ProfileKey key;
    key.kernelHash = 7;

    const std::string lease_path =
        dir + "/" + store::fileStem("profile", key.str()) + ".lease";
    {
        std::ofstream marker(lease_path);
        marker << 999999999 << " " << 1 << "\n"; // dead pid, ancient
    }
    EXPECT_FALSE(store.leaseHeld(key));
    store::Lease stolen = store.tryAcquireLease(key);
    EXPECT_TRUE(stolen.held());
    stolen.release();

    // A live-pid lease ages out under a shrunk threshold.
    const auto one_minute_ago =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count() -
        60'000;
    {
        std::ofstream marker(lease_path);
        marker << ::getpid() << " " << one_minute_ago << "\n";
    }
    EXPECT_TRUE(store.leaseHeld(key));
    store.setLeaseStaleAfter(std::chrono::milliseconds(10));
    EXPECT_FALSE(store.leaseHeld(key));
    store::Lease aged = store.tryAcquireLease(key);
    EXPECT_TRUE(aged.held());
}

TEST(TimingLease, KeyedByProfileKeyAndTimingFingerprint)
{
    const ScratchDir scratch("timing-lease");
    const std::string &dir = scratch.path;
    store::TimingStore store(dir);
    funcsim::ProfileKey key;
    key.kernelHash = 11;
    const arch::TimingFingerprint fp =
        arch::TimingFingerprint::of(arch::GpuSpec::gtx285());
    const arch::TimingFingerprint fp2 =
        arch::TimingFingerprint::of(arch::GpuSpec::gtx285MoreBlocks());

    store::Lease held = store.tryAcquireLease(key, fp);
    ASSERT_TRUE(held.held());
    EXPECT_TRUE(store.leaseHeld(key, fp));
    EXPECT_FALSE(store.tryAcquireLease(key, fp).held());
    // The same profile under another timing fingerprint is another
    // replay — its lease is independent.
    EXPECT_TRUE(store.tryAcquireLease(key, fp2).held());

    held.release();
    EXPECT_FALSE(store.leaseHeld(key, fp));
}

/**
 * Runners sharing one storeDir — stand-ins for sharded processes —
 * each with one worker thread and adopted tables, so the store leases
 * are the only thing that can split the work between them.
 */
std::unique_ptr<driver::BatchRunner>
leaseRunner(const std::string &dir, const std::vector<arch::GpuSpec> &specs,
            bool reuse_results = true)
{
    driver::BatchRunner::Options opts;
    opts.numThreads = 1;
    opts.storeDir = dir;
    opts.reuseStoredResults = reuse_results;
    auto runner = std::make_unique<driver::BatchRunner>(opts);
    for (const auto &spec : specs)
        runner->adoptCalibration(spec, sharedFakeTables());
    return runner;
}

/** Two runners race run(@p kc, @p spec); returns both results. */
std::pair<driver::BatchResult, driver::BatchResult>
raceRuns(driver::BatchRunner &first, driver::BatchRunner &second,
         const driver::KernelCase &kc, const arch::GpuSpec &spec)
{
    std::vector<driver::BatchResult> ra, rb;
    std::thread t1([&]() { ra = first.run({kc}, {spec}); });
    std::thread t2([&]() { rb = second.run({kc}, {spec}); });
    t1.join();
    t2.join();
    EXPECT_EQ(ra.size(), 1u);
    EXPECT_EQ(rb.size(), 1u);
    return {ra.at(0), rb.at(0)};
}

TEST(ProfileLease, ConcurrentRunnersSplitTheFuncsim)
{
    // Two runners profile the same case concurrently: the lease must
    // hand the functional simulation (and the replay) to exactly one
    // of them; the other waits and loads the published entries.
    // Pinned on the runners' counters, not on timing.
    const ScratchDir scratch("profile-lease-split");
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const auto kc = driver::makeSaxpyCase("lease-saxpy", 8, 128, 2.0f);

    auto first = leaseRunner(scratch.path, {spec});
    auto second = leaseRunner(scratch.path, {spec});
    const auto [a, b] = raceRuns(*first, *second, kc, spec);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.analysis.measuredMs(), b.analysis.measuredMs());
    EXPECT_EQ(a.analysis.predictedMs(), b.analysis.predictedMs());
    EXPECT_EQ(first->funcsimsComputed() + second->funcsimsComputed(), 1u)
        << "the funcsim must run at most once between the runners";
    EXPECT_EQ(first->timingsComputed() + second->timingsComputed(), 1u)
        << "the replay must run at most once between the runners";

    // A third, later runner starts fully warm, even without the
    // result store: profile and replay both load.
    auto third = leaseRunner(scratch.path, {spec}, false);
    const auto c = third->run({kc}, {spec});
    ASSERT_TRUE(c.at(0).ok) << c.at(0).error;
    EXPECT_EQ(third->funcsimsComputed(), 0u);
    EXPECT_EQ(third->timingsComputed(), 0u);
    EXPECT_EQ(c.at(0).analysis.predictedMs(), a.analysis.predictedMs());
}

TEST(TimingLease, ConcurrentRunnersSplitTheReplay)
{
    // The profile is already published; two runners then race a spec
    // with the same funcsim fingerprint but another timing
    // fingerprint, so the replay lease alone splits the work.
    const ScratchDir scratch("timing-lease-split");
    const arch::GpuSpec base = arch::GpuSpec::gtx285();
    const arch::GpuSpec variant = arch::GpuSpec::gtx285MoreBlocks();
    ASSERT_TRUE(arch::FuncsimFingerprint::of(base) ==
                arch::FuncsimFingerprint::of(variant));
    ASSERT_TRUE(arch::TimingFingerprint::of(base) !=
                arch::TimingFingerprint::of(variant));
    const auto kc = driver::makeSaxpyCase("lease-saxpy-t", 8, 128,
                                          2.0f);
    auto warmup = leaseRunner(scratch.path, {base});
    ASSERT_TRUE(warmup->run({kc}, {base}).at(0).ok);
    ASSERT_EQ(warmup->funcsimsComputed(), 1u);

    auto first = leaseRunner(scratch.path, {variant});
    auto second = leaseRunner(scratch.path, {variant});
    const auto [a, b] = raceRuns(*first, *second, kc, variant);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    // Both sides produced the identical replay (bit-exact), and at
    // most one of them actually ran it.
    EXPECT_TRUE(a.analysis.measurement.timing ==
                b.analysis.measurement.timing);
    EXPECT_EQ(first->funcsimsComputed() + second->funcsimsComputed(), 0u);
    EXPECT_EQ(first->timingsComputed() + second->timingsComputed(), 1u)
        << "the replay must run at most once between the runners";

    auto third = leaseRunner(scratch.path, {variant}, false);
    const auto c = third->run({kc}, {variant});
    ASSERT_TRUE(c.at(0).ok) << c.at(0).error;
    EXPECT_EQ(third->funcsimsComputed(), 0u);
    EXPECT_EQ(third->timingsComputed(), 0u);
    EXPECT_TRUE(c.at(0).analysis.measurement.timing ==
                a.analysis.measurement.timing);
}

} // namespace
} // namespace gpuperf
