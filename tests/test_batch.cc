/**
 * @file
 * Batch-analysis driver tests: sweep grids rank what-if results best
 * speedup first (including the paper's "CR padding is worth it"
 * decision), and BatchRunner produces results identical to the serial
 * reference loop (reference_cells.h), deterministically, for any
 * worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>

#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "store/profile_store.h"

#include "reference_cells.h"
#include "scratch_dir.h"

namespace gpuperf {
namespace driver {
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

/**
 * A model input shaped like the paper's cyclic reduction before
 * padding: shared-memory bound with 4x bank-conflicted transactions,
 * already at saturating warp-level parallelism.
 */
model::ModelInput
crLikeInput()
{
    model::ModelInput input;
    input.gridDim = 600;
    input.blockDim = 128;
    input.concurrentBlocksPerSm = 4;
    input.stagesSerialized = false;
    model::StageInput s;
    s.typeCounts[1] = 1'000'000;           // 0.1 ms of instructions
    s.sharedTransactions = 8'000'000;      // conflicted: 0.4 ms
    s.sharedTransactionsIdeal = 2'000'000; // conflict-free: 0.1 ms
    s.activeWarpsPerSm = 16;
    input.stages.push_back(s);
    return input;
}

void
expectSameResults(const std::vector<BatchResult> &got,
                  const std::vector<BatchResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("result " + std::to_string(i));
        EXPECT_EQ(got[i].kernelName, want[i].kernelName);
        EXPECT_EQ(got[i].specName, want[i].specName);
        EXPECT_TRUE(got[i].ok) << got[i].error;
        ASSERT_TRUE(want[i].ok) << want[i].error;
        // The simulators and model are deterministic, so batch and
        // serial results must agree bit for bit, not just roughly.
        EXPECT_EQ(got[i].analysis.measuredMs(),
                  want[i].analysis.measuredMs());
        EXPECT_EQ(got[i].analysis.predictedMs(),
                  want[i].analysis.predictedMs());
        ASSERT_EQ(got[i].whatifs.size(), want[i].whatifs.size());
        for (size_t j = 0; j < got[i].whatifs.size(); ++j) {
            EXPECT_EQ(got[i].whatifs[j].point.kind,
                      want[i].whatifs[j].point.kind);
            EXPECT_EQ(got[i].whatifs[j].point.value,
                      want[i].whatifs[j].point.value);
            EXPECT_EQ(got[i].whatifs[j].speedup(),
                      want[i].whatifs[j].speedup());
        }
    }
}

TEST(SweepSpecTest, EnumeratesTheGridInDeclarationOrder)
{
    SweepSpec spec;
    spec.noBankConflicts = true;
    spec.warpsPerSm = {8.0, 16.0};
    spec.coalescingFractions = {0.5, 1.0};
    const auto points = spec.enumerate();
    ASSERT_EQ(points.size(), 5u);
    EXPECT_EQ(spec.size(), 5u);
    EXPECT_EQ(points[0].kind, SweepPoint::Kind::kNoBankConflicts);
    EXPECT_EQ(points[1].kind, SweepPoint::Kind::kWarpsPerSm);
    EXPECT_EQ(points[1].value, 8.0);
    EXPECT_EQ(points[2].value, 16.0);
    EXPECT_EQ(points[3].kind,
              SweepPoint::Kind::kCoalescingFraction);
    EXPECT_EQ(points[3].value, 0.5);
    EXPECT_EQ(points[4].value, 1.0);
}

TEST(SweepSpecTest, DefaultsCoverTheSpecsResidencyCeiling)
{
    const SweepSpec spec =
        SweepSpec::defaults(arch::GpuSpec::gtx285());
    EXPECT_TRUE(spec.noBankConflicts);
    ASSERT_FALSE(spec.warpsPerSm.empty());
    // 4, 8, 16, 32 for a 32-warp ceiling.
    EXPECT_EQ(spec.warpsPerSm.front(), 4.0);
    EXPECT_EQ(spec.warpsPerSm.back(), 32.0);
    EXPECT_FALSE(spec.coalescingFractions.empty());
}

class SweepRankingTest : public ::testing::Test
{
  protected:
    SweepRankingTest()
        : device_(arch::GpuSpec::gtx285()), calibrator_(device_),
          model_(calibrator_)
    {
        calibrator_.setTablesForTesting(fakeTables());
    }

    model::SimulatedDevice device_;
    model::Calibrator calibrator_;
    model::PerformanceModel model_;
};

TEST_F(SweepRankingTest, RanksBestSpeedupFirst)
{
    SweepSpec spec;
    spec.noBankConflicts = true;
    spec.warpsPerSm = {8.0, 16.0, 32.0};
    spec.coalescingFractions = {1.0};
    const auto ranked = runSweep(model_, crLikeInput(), spec);
    ASSERT_EQ(ranked.size(), 5u);
    for (size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_GE(ranked[i - 1].speedup(), ranked[i].speedup())
            << "rank " << i << " out of order";
    }
}

TEST_F(SweepRankingTest, CrPaddingIsWorthIt)
{
    // The paper's Section 6 decision: before implementing the padded
    // cyclic reduction, the model predicts that removing the shared
    // bank conflicts is the optimization worth doing. Regression-pin
    // that a conflict-heavy input ranks conflict removal first with
    // the full 4x conflict factor as its predicted speedup.
    const auto ranked =
        runSweep(model_, crLikeInput(),
                 SweepSpec::defaults(arch::GpuSpec::gtx285()));
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().point.kind,
              SweepPoint::Kind::kNoBankConflicts);
    EXPECT_NEAR(ranked.front().speedup(), 4.0, 0.01);
    // And it clearly beats every occupancy/coalescing alternative.
    for (size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GT(ranked.front().speedup(),
                  ranked[i].speedup() + 1.0);
}

TEST_F(SweepRankingTest, TiesKeepEnumerationOrder)
{
    model::ModelInput input = crLikeInput();
    input.stages[0].sharedTransactions =
        input.stages[0].sharedTransactionsIdeal; // nothing to gain
    SweepSpec spec;
    spec.noBankConflicts = true;
    spec.warpsPerSm = {16.0}; // already at 16: no gain either
    const auto ranked = runSweep(model_, input, spec);
    ASSERT_EQ(ranked.size(), 2u);
    // Both points predict 1.0x; stable sort keeps enumeration order.
    EXPECT_EQ(ranked[0].point.kind,
              SweepPoint::Kind::kNoBankConflicts);
    EXPECT_EQ(ranked[1].point.kind, SweepPoint::Kind::kWarpsPerSm);
}

class BatchRunnerTest : public ::testing::Test
{
  protected:
    BatchRunnerTest()
    {
        kernels_.push_back(makeSaxpyCase("saxpy-small", 8, 128, 2.0f));
        kernels_.push_back(makeSaxpyCase("saxpy-wide", 4, 256, 3.0f));
        specs_.push_back(arch::GpuSpec::gtx285());
        specs_.push_back(arch::GpuSpec::gtx285MoreBlocks());
        sweep_.noBankConflicts = true;
        sweep_.warpsPerSm = {8.0, 32.0};
        sweep_.coalescingFractions = {1.0};
    }

    std::unique_ptr<BatchRunner> makeRunner(int threads)
    {
        BatchRunner::Options opts;
        opts.numThreads = threads;
        auto runner = std::make_unique<BatchRunner>(opts);
        for (const auto &spec : specs_)
            runner->adoptCalibration(spec, sharedFakeTables());
        return runner;
    }

    std::vector<KernelCase> kernels_;
    std::vector<arch::GpuSpec> specs_;
    SweepSpec sweep_;
};

TEST_F(BatchRunnerTest, MatchesTheSerialLoopExactly)
{
    auto runner = makeRunner(4);
    const auto got = runner->run(kernels_, specs_, sweep_);
    const auto want =
        referenceCells(kernels_, specs_, sweep_, sharedFakeTables());
    expectSameResults(got, want);
    // The reference itself is order- and pool-independent.
    ThreadPool pool(3);
    expectSameResults(referenceCells(kernels_, specs_, sweep_,
                                     sharedFakeTables(), &pool),
                      want);
    // Kernel-major order: kernels[0] on every spec first.
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got[0].kernelName, "saxpy-small");
    EXPECT_EQ(got[0].specName, specs_[0].name);
    EXPECT_EQ(got[1].kernelName, "saxpy-small");
    EXPECT_EQ(got[1].specName, specs_[1].name);
    EXPECT_EQ(got[2].kernelName, "saxpy-wide");
}

TEST_F(BatchRunnerTest, DeterministicAcrossWorkerCounts)
{
    const auto reference =
        makeRunner(1)->run(kernels_, specs_, sweep_);
    for (int threads : {2, 3, 4, 8}) {
        SCOPED_TRACE("threads = " + std::to_string(threads));
        const auto got =
            makeRunner(threads)->run(kernels_, specs_, sweep_);
        expectSameResults(got, reference);
    }
}

TEST_F(BatchRunnerTest, EmptySweepStillAnalyzes)
{
    auto runner = makeRunner(2);
    const auto results =
        runner->run(kernels_, specs_, SweepSpec{});
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_TRUE(r.whatifs.empty());
        EXPECT_EQ(r.bestSpeedup(), 1.0);
        EXPECT_GT(r.analysis.predictedMs(), 0.0);
    }
}

TEST_F(BatchRunnerTest, FailingCaseDoesNotPoisonTheBatch)
{
    std::vector<KernelCase> kernels = kernels_;
    KernelCase broken;
    broken.name = "broken";
    broken.make = []() -> PreparedLaunch {
        throw std::runtime_error("factory exploded");
    };
    kernels.insert(kernels.begin() + 1, broken);

    auto runner = makeRunner(4);
    const auto results = runner->run(kernels, specs_, sweep_);
    ASSERT_EQ(results.size(), 6u);
    for (const auto &r : results) {
        if (r.kernelName == "broken") {
            EXPECT_FALSE(r.ok);
            EXPECT_NE(r.error.find("factory exploded"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(r.ok) << r.error;
        }
    }
}

TEST_F(BatchRunnerTest, MissingFactoryIsReportedNotFatal)
{
    KernelCase empty;
    empty.name = "no-factory";
    auto runner = makeRunner(1);
    const auto results =
        runner->run({empty}, {specs_[0]}, SweepSpec{});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("factory"), std::string::npos);
}

TEST_F(BatchRunnerTest, CalibrationIsSharedPerSpec)
{
    auto runner = makeRunner(2);
    const auto a = runner->calibrationFor(specs_[0]);
    const auto b = runner->calibrationFor(specs_[0]);
    const auto c = runner->calibrationFor(specs_[1]);
    EXPECT_EQ(a.get(), b.get()) << "same spec must share one table";
    EXPECT_NE(a.get(), c.get())
        << "distinct specs must not alias each other's memo entry";
}

TEST(DemoCaseTest, ConflictedSharedKernelRanksConflictRemovalFirst)
{
    // End-to-end CR-padding story on a really simulated kernel: a
    // stride-8 shared access pattern bank-conflicts 8-ways, and the
    // sweep must surface conflict removal as the top optimization.
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    BatchRunner::Options opts;
    opts.numThreads = 2;
    BatchRunner runner(opts);
    runner.adoptCalibration(spec, sharedFakeTables());

    SweepSpec sweep;
    sweep.noBankConflicts = true;
    sweep.warpsPerSm = {32.0};
    const auto results = runner.run(
        {makeSharedConflictCase("cr-like", 16, 128, 8)}, {spec},
        sweep);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;

    uint64_t conflicted = 0;
    uint64_t ideal = 0;
    for (const auto &s : results[0].analysis.input.stages) {
        conflicted += s.sharedTransactions;
        ideal += s.sharedTransactionsIdeal;
    }
    EXPECT_GT(conflicted, 4 * ideal)
        << "stride-8 pattern should conflict heavily";
    ASSERT_FALSE(results[0].whatifs.empty());
    EXPECT_EQ(results[0].whatifs.front().point.kind,
              SweepPoint::Kind::kNoBankConflicts);
    EXPECT_GT(results[0].bestSpeedup(), 1.5);
}

TEST_F(BatchRunnerTest, StreamEqualsRunEqualsSerialBitForBit)
{
    const auto serial =
        referenceCells(kernels_, specs_, sweep_, sharedFakeTables());
    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE("threads = " + std::to_string(threads));
        auto runner = makeRunner(threads);
        const auto batch = runner->run(kernels_, specs_, sweep_);
        expectSameResults(batch, serial);

        // Stream the same batch on a fresh runner and reorder by the
        // delivered kernel-major index: bit-identical again.
        auto streamer = makeRunner(threads);
        std::vector<BatchResult> streamed(batch.size());
        std::vector<int> delivered(batch.size(), 0);
        const auto stats = streamer->runStream(
            kernels_, specs_, sweep_,
            [&](size_t index, BatchResult r) {
                ASSERT_LT(index, streamed.size());
                ++delivered[index];
                streamed[index] = std::move(r);
            });
        expectSameResults(streamed, serial);
        for (size_t i = 0; i < delivered.size(); ++i)
            EXPECT_EQ(delivered[i], 1) << "cell " << i;
        EXPECT_EQ(stats.cells, batch.size());
        EXPECT_GT(stats.firstResultSeconds, 0.0);
        EXPECT_GE(stats.totalSeconds, stats.firstResultSeconds);
    }
}

TEST_F(BatchRunnerTest, StreamIsBitIdenticalColdAndWarmStore)
{
    const ScratchDir scratch("stream");
    const std::string &dir = scratch.path;
    const auto serial =
        referenceCells(kernels_, specs_, sweep_, sharedFakeTables());

    auto make_store_runner = [&]() {
        BatchRunner::Options opts;
        opts.numThreads = 4;
        opts.storeDir = dir;
        auto runner = std::make_unique<BatchRunner>(opts);
        for (const auto &spec : specs_)
            runner->adoptCalibration(spec, sharedFakeTables());
        return runner;
    };

    auto collect = [&](BatchRunner &runner) {
        std::vector<BatchResult> out(kernels_.size() * specs_.size());
        runner.runStream(kernels_, specs_, sweep_,
                         [&](size_t index, BatchResult r) {
                             out[index] = std::move(r);
                         });
        return out;
    };

    // Cold: simulates and fills the store.
    auto cold_runner = make_store_runner();
    const auto cold = collect(*cold_runner);
    expectSameResults(cold, serial);
    ASSERT_NE(cold_runner->resultStore(), nullptr);

    // Warm, fresh runner (a "process restart"): cells stream straight
    // from the result store, still bit-identical, zero simulations.
    auto warm_runner = make_store_runner();
    const auto warm = collect(*warm_runner);
    expectSameResults(warm, serial);
    EXPECT_EQ(warm_runner->profileStore()->hits() +
                  warm_runner->profileStore()->misses(),
              0u)
        << "warm streamed cells must not touch profile payloads";
}

TEST_F(BatchRunnerTest, CallbackExceptionDoesNotWedgeTheBatch)
{
    auto runner = makeRunner(4);
    std::atomic<int> invocations{0};
    bool threw = false;
    try {
        runner->runStream(kernels_, specs_, sweep_,
                          [&](size_t, BatchResult) {
                              ++invocations;
                              throw std::runtime_error(
                                  "consumer exploded");
                          });
    } catch (const std::runtime_error &e) {
        threw = true;
        EXPECT_STREQ(e.what(), "consumer exploded");
    }
    EXPECT_TRUE(threw) << "the callback's exception must surface";
    EXPECT_EQ(invocations.load(), 1)
        << "delivery stops after the first callback exception";

    // The runner survives: the same batch still runs to completion.
    const auto results = runner->run(kernels_, specs_, sweep_);
    ASSERT_EQ(results.size(), kernels_.size() * specs_.size());
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.error;
}

TEST_F(BatchRunnerTest, ThrowingFactoryRunsOncePerFingerprint)
{
    // Both specs share a funcsim fingerprint, so the broken case has
    // ONE prepare node: its factory must explode exactly once, with
    // the captured error reused by every spec variant's cell (it
    // used to pay a rebuild attempt per cell on the key-only path).
    auto counter = std::make_shared<std::atomic<int>>(0);
    KernelCase broken;
    broken.name = "broken";
    broken.make = [counter]() -> PreparedLaunch {
        ++*counter;
        throw std::runtime_error("factory exploded");
    };

    const ScratchDir scratch("broken");
    const std::string &dir = scratch.path;
    BatchRunner::Options opts;
    opts.numThreads = 4;
    opts.storeDir = dir; // the key-only warm path needs a store
    BatchRunner runner(opts);
    for (const auto &spec : specs_)
        runner.adoptCalibration(spec, sharedFakeTables());

    const auto results = runner.run({broken}, specs_, sweep_);
    ASSERT_EQ(results.size(), specs_.size());
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("factory exploded"), std::string::npos);
    }
    EXPECT_EQ(counter->load(), 1)
        << "sibling cells must reuse the captured factory error";
}

TEST(BatchRunnerRaceTest, SameContentCasesUnderDifferentNamesShareTiming)
{
    // Two cases with IDENTICAL kernel content under different names
    // share one content-keyed timing node but have distinct
    // position-keyed profile nodes: the second cell's analyze node
    // must wait for its OWN profile node, not just the shared timing
    // node (which is wired to the first cell's profile). Regression
    // for a scheduling race that aborted on a null profile; iterate a
    // few times to give any mis-ordering a chance to surface.
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const auto tables = sharedFakeTables();
    for (int iter = 0; iter < 10; ++iter) {
        SCOPED_TRACE("iteration " + std::to_string(iter));
        BatchRunner::Options opts;
        opts.numThreads = 8;
        BatchRunner runner(opts);
        runner.adoptCalibration(spec, tables);
        const auto results = runner.run(
            {makeSaxpyCase("twin-a", 16, 128, 2.0f),
             makeSaxpyCase("twin-b", 16, 128, 2.0f)},
            {spec}, SweepSpec{});
        ASSERT_EQ(results.size(), 2u);
        for (const auto &r : results)
            ASSERT_TRUE(r.ok) << r.error;
        // Identical content ⇒ identical timing and prediction.
        EXPECT_EQ(results[0].analysis.measuredMs(),
                  results[1].analysis.measuredMs());
        EXPECT_EQ(results[0].analysis.predictedMs(),
                  results[1].analysis.predictedMs());
    }
}

TEST(DemoCaseTest, ReductionMatchesTheHostReference)
{
    const int grid = 12;
    const int block = 256;
    auto kc = driver::makeReductionCase("reduce", grid, block);
    auto launch = kc.make();

    // Mirror the factory's allocation order (x then y, default
    // alignment) against an identically sized arena to locate the
    // arrays without exposing raw addresses in the case API.
    const size_t n = static_cast<size_t>(grid) * block;
    funcsim::GlobalMemory probe(n * 4 + grid * 4 + (1u << 20));
    const uint64_t x_base = probe.alloc(n * 4);
    const uint64_t y_base = probe.alloc(grid * 4);

    // Host reference: a plain per-block loop. The input values are
    // exact in f32 under any association, so the kernel's tree order
    // must reproduce this EXACTLY, not approximately.
    std::vector<float> want(grid, 0.0f);
    for (int b = 0; b < grid; ++b) {
        for (int t = 0; t < block; ++t)
            want[b] += launch.gmem->f32(x_base)[b * block + t];
    }

    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    funcsim::RunOptions opts;
    opts.collectTrace = true;
    auto res = sim.run(launch.kernel, launch.cfg, *launch.gmem, opts);

    for (int b = 0; b < grid; ++b) {
        EXPECT_EQ(launch.gmem->f32(y_base)[b], want[b])
            << "block " << b;
    }
    // One staging barrier plus log2(block) tree passes.
    EXPECT_EQ(res.stats.barriersPerBlock, 9);
}

TEST(DemoCaseTest, ReductionAnalyzesInABatch)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    BatchRunner::Options opts;
    opts.numThreads = 2;
    BatchRunner runner(opts);
    runner.adoptCalibration(spec, sharedFakeTables());
    const auto results = runner.run(
        {makeReductionCase("reduce", 16, 128)}, {spec}, SweepSpec{});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_GT(results[0].analysis.predictedMs(), 0.0);
    EXPECT_GT(results[0].analysis.measuredMs(), 0.0);
}

TEST(DemoCaseTest, HistogramMatchesTheHostReference)
{
    const int grid = 6;
    const int block = 128;
    const int bins = 8;
    const int items = 4;
    auto kc = driver::makeHistogramCase("hist", grid, block, bins,
                                        items);
    auto launch = kc.make();

    // Mirror the factory's allocation order (x then y) to locate the
    // arrays without exposing raw addresses in the case API.
    const int total = grid * block;
    const size_t n = static_cast<size_t>(total) * items;
    funcsim::GlobalMemory probe(n * 4 +
                                static_cast<size_t>(grid) * bins * 4 +
                                (1u << 20));
    const uint64_t x_base = probe.alloc(n * 4);
    const uint64_t y_base = probe.alloc(grid * bins * 4);

    // Host reference: integer counts per (block, bin) — the kernel's
    // privatized counters must reproduce them EXACTLY.
    std::vector<uint32_t> want(static_cast<size_t>(grid) * bins, 0);
    for (int t = 0; t < items; ++t) {
        for (int g = 0; g < total; ++g) {
            const size_t idx = static_cast<size_t>(g) +
                               static_cast<size_t>(t) * total;
            const uint32_t v = launch.gmem->u32(x_base)[idx];
            ++want[static_cast<size_t>(g / block) * bins +
                   (v & (bins - 1))];
        }
    }

    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    funcsim::RunOptions opts;
    opts.collectTrace = true;
    auto res = sim.run(launch.kernel, launch.cfg, *launch.gmem, opts);

    uint64_t counted = 0;
    for (int b = 0; b < grid; ++b) {
        for (int k = 0; k < bins; ++k) {
            EXPECT_EQ(launch.gmem->u32(y_base)[b * bins + k],
                      want[static_cast<size_t>(b) * bins + k])
                << "block " << b << " bin " << k;
            counted += launch.gmem->u32(y_base)[b * bins + k];
        }
    }
    EXPECT_EQ(counted, n) << "every input lands in exactly one bin";
    // One barrier between the binned passes and the merge tail.
    EXPECT_EQ(res.stats.barriersPerBlock, 1);

    // The data-dependent private-counter writes contend: the shared
    // traffic must be measurably conflicted (that is the point of the
    // workload), unlike a stride-1 pattern.
    uint64_t xacts = 0;
    uint64_t ideal = 0;
    for (const auto &s : res.stats.stages) {
        xacts += s.sharedTransactions;
        ideal += s.sharedTransactionsIdeal;
    }
    EXPECT_GT(xacts, ideal) << "privatized layout should bank-conflict";
}

TEST(DemoCaseTest, HistogramAnalyzesInABatch)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    BatchRunner::Options opts;
    opts.numThreads = 2;
    BatchRunner runner(opts);
    runner.adoptCalibration(spec, sharedFakeTables());
    const auto results = runner.run(
        {makeHistogramCase("hist", 8, 128, 8, 4)}, {spec},
        SweepSpec{});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_GT(results[0].analysis.predictedMs(), 0.0);
    EXPECT_GT(results[0].analysis.measuredMs(), 0.0);
}

} // namespace
} // namespace driver
} // namespace gpuperf
