/**
 * @file
 * The bit-identity reference for batch evaluation. Every cell runs the
 * paper's Figure-1 workflow end to end through its own
 * model::AnalysisSession — a fresh factory run, functional simulation,
 * timing replay, analysis and sweep — sharing only calibration
 * state: one table set for every spec and one GlobalBenchMemo per
 * distinct spec fingerprint. BatchRunner's shared task graph, the
 * AnalysisService and every transport are pinned bit-identical to it.
 *
 * Header-only, so tests and benches include it without a library
 * target.
 */

#ifndef GPUPERF_TESTS_REFERENCE_CELLS_H
#define GPUPERF_TESTS_REFERENCE_CELLS_H

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "driver/batch_runner.h"
#include "driver/sweep.h"
#include "model/session.h"

namespace gpuperf {

/**
 * Evaluate every kernel case on every spec, in kernel-major order
 * (kernels[0] x specs[0..M-1], then kernels[1] x ...). A case whose
 * factory or analysis throws yields ok == false with the message, as
 * in BatchRunner. Every session adopts @p tables. With @p pool, cells
 * run concurrently on it; the results are the same either way.
 */
inline std::vector<driver::BatchResult>
referenceCells(const std::vector<driver::KernelCase> &kernels,
               const std::vector<arch::GpuSpec> &specs,
               const driver::SweepSpec &sweep,
               std::shared_ptr<const model::CalibrationTables> tables,
               ThreadPool *pool = nullptr)
{
    using MemoPtr = std::shared_ptr<model::GlobalBenchMemo>;
    std::map<std::string, MemoPtr> memo_by_fingerprint;
    std::vector<MemoPtr> memos;
    for (const arch::GpuSpec &spec : specs) {
        MemoPtr &memo = memo_by_fingerprint[spec.fingerprint()];
        if (!memo)
            memo = std::make_shared<model::GlobalBenchMemo>();
        memos.push_back(memo);
    }

    std::vector<driver::BatchResult> results(kernels.size() *
                                             specs.size());
    ThreadPool::parallelFor(pool, results.size(), [&](size_t i) {
        const driver::KernelCase &kc = kernels[i / specs.size()];
        const arch::GpuSpec &spec = specs[i % specs.size()];
        driver::BatchResult &r = results[i];
        r.kernelName = kc.name;
        r.specName = spec.name;
        try {
            if (!kc.make)
                throw std::runtime_error("kernel case has no factory");
            driver::PreparedLaunch launch = kc.make();
            if (!launch.gmem)
                throw std::runtime_error("kernel case produced no memory");
            model::SessionConfig config;
            config.tables = tables;
            model::AnalysisSession session(spec, config);
            session.calibrator().shareGlobalMemo(memos[i % specs.size()]);
            r.analysis = session.analyze(launch.kernel, launch.cfg,
                                         *launch.gmem, launch.options);
            if (!sweep.empty()) {
                r.whatifs = driver::runSweep(session.model(),
                                             r.analysis.input, sweep,
                                             r.analysis.prediction);
            }
            r.ok = true;
        } catch (const std::exception &e) {
            r.ok = false;
            r.error = e.what();
        } catch (...) {
            r.ok = false;
            r.error = "unknown exception from kernel case";
        }
    });
    return results;
}

} // namespace gpuperf

#endif // GPUPERF_TESTS_REFERENCE_CELLS_H
