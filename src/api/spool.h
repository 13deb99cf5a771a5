/**
 * @file
 * The spool-directory worker protocol — the multi-process seam the
 * serializable job schema exists for. A parent process SUBMITS a
 * request by serializing one single-cell job file per (kernel, spec)
 * into a shared directory; cooperating `gpuperf-worker serve`
 * processes CLAIM jobs with the store lease mechanism, execute them
 * through their own AnalysisService, and write response files back;
 * the parent COLLECTS the responses into one ordered
 * AnalysisResponse, bit-identical to an in-process run.
 *
 * Layout under the spool directory:
 *
 *     jobs/<id>.job        binary single-cell AnalysisRequest
 *     jobs/<id>.claim      lease marker while a worker runs the job
 *     responses/<id>.resp  binary single-cell AnalysisResponse
 *
 * Job ids are DERIVED from the request (cell position + a content
 * hash of the serialized single-cell job), so submit and collect
 * agree without a side channel, and resubmitting the same request is
 * idempotent (same files). Claims are advisory store::Leases: a
 * worker that crashes mid-job leaves a claim that goes stale (dead
 * pid / aged marker) and is stolen by the next worker — the job runs
 * again, the response file is atomically replaced with bit-identical
 * content, and nothing is lost.
 *
 * Workers sharing the request's storeDir also share calibrations,
 * profiles and timings through the store leases, so an M-spec batch
 * spread over W workers still runs each microbenchmark sweep and
 * funcsim once GLOBALLY.
 */

#ifndef GPUPERF_API_SPOOL_H
#define GPUPERF_API_SPOOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/request.h"
#include "api/service.h"

namespace gpuperf {
namespace api {

struct Endpoint;

/** The per-cell job derived from @p req at (kernel ki, spec si). */
AnalysisRequest cellRequest(const AnalysisRequest &req, size_t ki,
                            size_t si);

/**
 * A single-cell response whose cell failed before (or instead of)
 * executing, labeled from the cell request. Shared by the spool
 * server, the dispatcher's local fallback, and registered workers —
 * every seam fails a cell the same way.
 */
AnalysisResponse cellFailureResponse(const AnalysisRequest &cell,
                                     const std::string &error);

/**
 * One spooled cell: its deterministic job id plus the (kernel, spec)
 * position it came from. Collect labels failure cells (timeouts,
 * malformed responses) from THIS mapping — never from arithmetic on a
 * flat index, which mislabels whenever the id list is not exactly a
 * dense kernels x specs grid and divides by zero on an empty spec
 * list.
 */
struct SpoolCell
{
    std::string id;
    size_t kernel = 0;
    size_t spec = 0;
};

/** The cells of @p req, kernel-major (submit/serve/collect agree). */
std::vector<SpoolCell> spoolCells(const AnalysisRequest &req);

/**
 * The deterministic job ids submit/serve/collect agree on, in
 * kernel-major cell order.
 */
std::vector<std::string> spoolJobIds(const AnalysisRequest &req);

/**
 * Serialize @p req's cells into @p dir (creating jobs/ and
 * responses/). Existing job files for the same ids are left in place
 * (idempotent resubmission). Returns the job ids, kernel-major.
 * Throws std::runtime_error on an invalid request or an unwritable
 * directory.
 */
std::vector<std::string> spoolSubmit(const std::string &dir,
                                     const AnalysisRequest &req);

struct ServeStats
{
    /** Jobs this worker claimed and executed. */
    size_t executed = 0;
    /** Executed jobs whose single cell reported ok == false. */
    size_t failedCells = 0;
};

/**
 * Work the spool directory @p ep.path: claim unanswered jobs, execute
 * each through @p service and write its response file. Never throws
 * for per-job problems — a malformed job file produces a failed-cell
 * response so the parent's collect terminates (a crash here would
 * instead park the job until its claim staled).
 *
 * Settings from @p ep: max-jobs (stop after N executed jobs, 0 =
 * unlimited), claim-stale-ms (crash-steal latency) and sched, the
 * claim order within each scan: kSjf claims the cheapest-predicted
 * unanswered job first; kFairShare
 * degrades to kSjf (a pull-based worker has no client queue to
 * arbitrate). Costs are predicted from the job file's launch shape
 * (api/cell_cost.h); responses stay bit-identical to kFifo — only
 * the claim order moves.
 *
 * @p drain keeps scanning (and stealing stale claims) until every
 * job in the directory has a response; false = one pass: claim what
 * is claimable now, then return.
 */
ServeStats spoolServe(const Endpoint &ep, AnalysisService &service,
                      bool drain = true);

/**
 * Wait for every response of @p req under @p ep.path and assemble
 * them into one kernel-major AnalysisResponse — bit-identical to an
 * in-process AnalysisService::run(req) (pinned by tests and the CI
 * api-smoke diff). Cells whose responses have not appeared within
 * the endpoint's timeout (`?timeout=`, default 600 s — sized for a
 * large COLD batch) come back ok == false with a timeout error,
 * labeled with their (kernel, spec) names from the request. The
 * response scan backs off exponentially while nothing new arrives
 * (and snaps back on progress), so a small hot batch is picked up in
 * milliseconds while a large cold one doesn't burn a CPU polling.
 */
AnalysisResponse spoolCollect(const Endpoint &ep,
                              const AnalysisRequest &req);

/**
 * Convenience: submit, serve in-process until drained, collect.
 * Exercises the full wire path (serialize -> claim -> execute ->
 * deserialize) inside one process; tests use it to pin spool ==
 * in-process bit-identity without forking.
 */
AnalysisResponse runSpooled(const Endpoint &ep,
                            const AnalysisRequest &req,
                            AnalysisService &service);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_SPOOL_H
