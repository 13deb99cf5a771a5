/**
 * @file
 * Poison requests: well-formed requests whose input a simulator
 * rejects mid-run. Each must come back as one failed cell carrying
 * the simulator's message — through AnalysisService::run and through
 * a served transport alike — while the process keeps serving.
 */

#ifndef GPUPERF_TESTS_POISON_REQUESTS_H
#define GPUPERF_TESTS_POISON_REQUESTS_H

#include <string>
#include <utility>
#include <vector>

#include "api/request.h"
#include "isa/builder.h"

namespace gpuperf {
namespace api {
namespace poison {

/** A one-job request on @p base's policies and sweep. */
inline AnalysisRequest
oneJob(const AnalysisRequest &base, KernelJob job,
       std::vector<arch::GpuSpec> specs)
{
    AnalysisRequest req = base;
    req.jobName = "poison-" + job.name;
    req.kernels = {std::move(job)};
    req.specs = std::move(specs);
    return req;
}

/** @p kernel as an inline job over a small, empty memory image. */
inline KernelJob
inlineJob(isa::Kernel kernel, funcsim::LaunchConfig cfg,
          funcsim::RunOptions options = {})
{
    const std::string name = kernel.name();
    funcsim::GlobalMemory gmem(1 << 12);
    return KernelJob::fromInline(
        name, InlineLaunch::capture(std::move(kernel), cfg, gmem,
                                    options));
}

/** A barrier inside a lane-divergent IF. */
inline KernelJob
divergentBarrier()
{
    isa::KernelBuilder b("badbar");
    isa::Reg tid = b.reg();
    isa::Pred p = b.pred();
    b.s2r(tid, isa::SpecialReg::kTid);
    b.setpIImm(p, isa::CmpOp::kLt, tid, 1);
    b.beginIf(p);
    b.bar();
    b.endIf();
    return inlineJob(b.build(), {1, 32});
}

/** A loop that never breaks, under a small warp-op budget. */
inline KernelJob
runawayLoop()
{
    isa::KernelBuilder b("runaway");
    isa::Reg i = b.reg();
    isa::Pred p = b.pred();
    b.movImm(i, 0);
    b.beginLoop();
    b.setpIImm(p, isa::CmpOp::kLt, i, 0); // never true: never breaks
    b.brk(p);
    b.endLoop();
    funcsim::RunOptions options;
    options.maxWarpOps = 10000;
    return inlineJob(b.build(), {1, 32}, options);
}

/** Warp 0 waits at a barrier that warp 1 finishes without reaching
 *  (the IF is uniform within each warp, so neither warp diverges). */
inline KernelJob
barrierDisagreement()
{
    isa::KernelBuilder b("splitbar");
    isa::Reg tid = b.reg();
    isa::Pred p = b.pred();
    b.s2r(tid, isa::SpecialReg::kTid);
    b.setpIImm(p, isa::CmpOp::kLt, tid, 32);
    b.beginIf(p);
    b.bar();
    b.endIf();
    return inlineJob(b.build(), {1, 64});
}

/**
 * A spec that passes every spec rule but cannot be calibrated: the
 * 10-warp microbenchmark launches two 160-thread blocks, over its
 * 128-thread block ceiling. Three SMs keep the doomed calibration
 * short.
 */
inline arch::GpuSpec
smallBlockSpec()
{
    arch::GpuSpec spec = arch::GpuSpec::gtx285();
    spec.name = "tpb-128";
    spec.numSms = 3;
    spec.maxThreadsPerBlock = 128;
    return spec;
}

struct Case
{
    const char *what;
    AnalysisRequest req;
    /** A substring of the simulator's message the cell must carry. */
    const char *message;
};

/** The poison requests, built on @p base's specs and policies. */
inline std::vector<Case>
cases(const AnalysisRequest &base)
{
    return {
        {"divergent barrier",
         oneJob(base, divergentBarrier(), {base.specs[0]}),
         "barrier inside divergent control flow"},
        {"runaway loop", oneJob(base, runawayLoop(), {base.specs[0]}),
         "runaway loop"},
        {"barrier disagreement",
         oneJob(base, barrierDisagreement(), {base.specs[0]}),
         "warps disagree on barrier"},
        {"uncalibratable spec",
         oneJob(base,
                KernelJob::fromRef("saxpy",
                                   CaseRef{"saxpy", {8, 128}, {2.0}}),
                {smallBlockSpec()}),
         "exceeds the 128-thread block ceiling"},
    };
}

} // namespace poison
} // namespace api
} // namespace gpuperf

#endif // GPUPERF_TESTS_POISON_REQUESTS_H
