/**
 * @file
 * Batch what-if sweep quickstart: evaluate several kernels against
 * several machine variants concurrently, sharing one calibration per
 * machine, and print each analysis with its ranked what-if results —
 * the paper's "decide where to spend programming effort before
 * writing the optimization" workflow (Sections 3 and 6), at batch
 * scale.
 *
 * The kernel mix is chosen so different optimizations win: a
 * coalesced SAXPY (nothing to fix), a strided SAXPY (coalescing
 * wins), a bank-conflicted shared-memory kernel shaped like
 * unpadded cyclic reduction (conflict removal wins — and on the
 * prime-bank machine variant the conflicts vanish in hardware), and
 * a 3-point Jacobi stencil (tiled through shared memory with halo
 * loads; little to fix).
 *
 * The whole batch is ONE api::AnalysisRequest built from registry
 * case refs — the same wire-portable description `gpuperf-worker`
 * sends to a gpuperf-serve daemon and its fleet — executed here in
 * streaming mode: each cell prints the moment the batch task graph
 * completes it, then the ordered summary tables follow. The request's store makes reruns
 * start warm and skip both simulation and calibration.
 */

#include <iostream>
#include <vector>

#include "api/request.h"
#include "api/service.h"
#include "common/table.h"
#include "model/perf_model.h"

using namespace gpuperf;

int
main()
{
    api::AnalysisRequest request;
    request.jobName = "batch-sweep";
    request.specs = {
        arch::GpuSpec::gtx285(),
        arch::GpuSpec::gtx285PrimeBanks(),
    };
    request.kernels = {
        api::KernelJob::fromRef(
            "saxpy", api::CaseRef{"saxpy", {32, 256}, {2.0}}),
        api::KernelJob::fromRef(
            "saxpy-strided",
            api::CaseRef{"saxpy-strided", {16, 256, 8}, {}}),
        api::KernelJob::fromRef(
            "cr-like-conflicted",
            api::CaseRef{"shared-conflict", {16, 128, 8}, {}}),
        api::KernelJob::fromRef(
            "stencil1d", api::CaseRef{"stencil1d", {32, 256}, {}}),
    };
    request.sweep =
        driver::SweepSpec::defaults(request.specs[0]);
    // Persist profiles, calibrations and results: reruns skip the
    // functional simulations and the microbenchmark sweeps entirely.
    request.store.storeDir = "batch_sweep_store";
    request.exec.delivery = api::ExecutionPolicy::Delivery::kStream;

    api::AnalysisService service;
    std::cout << "Calibrating " << request.specs.size()
              << " machine variants and analyzing "
              << request.kernels.size() << " kernels...\n\n";

    // Stream results as the task graph finishes them: each cell is
    // announced the moment it completes — long before the slowest
    // calibration or simulation drains — and the response still
    // collects every cell in kernel-major order for the tables below.
    api::StreamStats stats;
    const api::AnalysisResponse response = service.execute(
        request,
        [](size_t, const driver::BatchResult &r) {
            std::cout << "  finished: " << r.kernelName << " x "
                      << r.specName << (r.ok ? "" : "  (FAILED)")
                      << "\n";
        },
        &stats);
    std::cout << "first result after "
              << Table::num(stats.firstResultSeconds, 2)
              << "s, batch drained in "
              << Table::num(stats.totalSeconds, 2) << "s\n";

    printBanner(std::cout, "batch analyses");
    Table summary({"kernel", "machine", "measured (ms)",
                   "predicted (ms)", "bottleneck", "best what-if",
                   "speedup"});
    for (const auto &r : response.cells) {
        if (!r.ok) {
            summary.addRow({r.kernelName, r.specName, "-", "-",
                            "FAILED: " + r.error, "-", "-"});
            continue;
        }
        summary.addRow(
            {r.kernelName, r.specName,
             Table::num(r.analysis.measuredMs(), 3),
             Table::num(r.analysis.predictedMs(), 3),
             model::componentName(r.analysis.prediction.bottleneck),
             r.whatifs.empty() ? "-"
                               : r.whatifs.front().point.label(),
             Table::num(r.bestSpeedup(), 2) + "x"});
    }
    summary.print(std::cout);

    // Zoom in on the paper's decision: is padding the conflicted
    // kernel worth the effort on the stock machine?
    printBanner(std::cout,
                "ranked what-ifs: cr-like-conflicted on GTX 285");
    for (const auto &r : response.cells) {
        if (r.kernelName != "cr-like-conflicted" ||
            r.specName != request.specs[0].name || !r.ok) {
            continue;
        }
        Table ranked({"rank", "what-if", "predicted speedup"});
        int rank = 1;
        for (const auto &w : r.whatifs) {
            ranked.addRow({std::to_string(rank++), w.point.label(),
                           Table::num(w.speedup(), 2) + "x"});
        }
        ranked.print(std::cout);
    }

    std::cout << "\nThe conflicted kernel's top what-if should be "
                 "bank-conflict removal on the stock machine, and "
                 "close to nothing on the 17-bank variant — the "
                 "paper's CR-padding and prime-banks stories.\n";
    return 0;
}
