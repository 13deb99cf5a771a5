#include "api/spool.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "api/cell_cost.h"
#include "api/codecs.h"
#include "api/endpoint.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {

namespace {

/** Collect: first sleep between response scans, and its backoff cap. */
constexpr double kPollInitialSeconds = 0.002;
constexpr double kPollMaxSeconds = 0.25;
/** Serve: seconds between scans while other workers hold the claims. */
constexpr double kIdlePollSeconds = 0.05;

std::string
jobsDir(const std::string &dir)
{
    return dir + "/jobs";
}

std::string
responsesDir(const std::string &dir)
{
    return dir + "/responses";
}

std::string
jobPath(const std::string &dir, const std::string &id)
{
    return jobsDir(dir) + "/" + id + ".job";
}

std::string
claimPath(const std::string &dir, const std::string &id)
{
    return jobsDir(dir) + "/" + id + ".claim";
}

std::string
responsePath(const std::string &dir, const std::string &id)
{
    return responsesDir(dir) + "/" + id + ".resp";
}

/** The id of one serialized cell job: position + content hash. */
std::string
jobId(size_t ki, size_t si, const AnalysisRequest &cell)
{
    store::ByteWriter w;
    writeRequest(w, cell);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%04zu-%04zu-%016llx", ki, si,
                  static_cast<unsigned long long>(
                      fnv1a64(w.bytes())));
    return buf;
}

/** Jobs present in @p dir (ids, sorted), by directory listing. */
std::vector<std::string>
listJobs(const std::string &dir)
{
    std::vector<std::string> ids;
    DIR *d = ::opendir(jobsDir(dir).c_str());
    if (!d)
        return ids;
    while (struct dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        const std::string suffix = ".job";
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            ids.push_back(name.substr(0, name.size() - suffix.size()));
        }
    }
    ::closedir(d);
    std::sort(ids.begin(), ids.end());
    return ids;
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

} // namespace

AnalysisResponse
cellFailureResponse(const AnalysisRequest &cell, const std::string &error)
{
    AnalysisResponse resp = makeResponseShell(cell);
    driver::BatchResult r;
    r.kernelName = cell.kernels.empty() ? std::string("?")
                                        : cell.kernels[0].name;
    r.specName = cell.specs.empty() ? std::string("?")
                                    : cell.specs[0].name;
    r.ok = false;
    r.error = error;
    resp.cells.push_back(std::move(r));
    return resp;
}

AnalysisRequest
cellRequest(const AnalysisRequest &req, size_t ki, size_t si)
{
    AnalysisRequest cell;
    cell.schemaVersion = req.schemaVersion;
    cell.jobName = req.jobName;
    cell.clientId = req.clientId;
    cell.kernels = {req.kernels[ki]};
    cell.specs = {req.specs[si]};
    cell.sweep = req.sweep;
    cell.store = req.store;
    cell.exec = req.exec;
    // One cell needs one worker thread, and a spooled job always
    // collects (streaming is the parent's concern).
    cell.exec.numThreads = 1;
    cell.exec.delivery = ExecutionPolicy::Delivery::kCollect;
    return cell;
}

std::vector<SpoolCell>
spoolCells(const AnalysisRequest &req)
{
    std::vector<SpoolCell> cells;
    cells.reserve(req.kernels.size() * req.specs.size());
    for (size_t ki = 0; ki < req.kernels.size(); ++ki) {
        for (size_t si = 0; si < req.specs.size(); ++si) {
            cells.push_back(SpoolCell{
                jobId(ki, si, cellRequest(req, ki, si)), ki, si});
        }
    }
    return cells;
}

std::vector<std::string>
spoolJobIds(const AnalysisRequest &req)
{
    std::vector<std::string> ids;
    const std::vector<SpoolCell> cells = spoolCells(req);
    ids.reserve(cells.size());
    for (const SpoolCell &cell : cells)
        ids.push_back(cell.id);
    return ids;
}

std::vector<std::string>
spoolSubmit(const std::string &dir, const AnalysisRequest &req)
{
    validateRequest(req);
    if (!store::makeDirs(jobsDir(dir)) ||
        !store::makeDirs(responsesDir(dir))) {
        throw std::runtime_error("cannot create spool directory '" +
                                 dir + "'");
    }
    std::vector<std::string> ids;
    ids.reserve(req.kernels.size() * req.specs.size());
    for (size_t ki = 0; ki < req.kernels.size(); ++ki) {
        for (size_t si = 0; si < req.specs.size(); ++si) {
            const AnalysisRequest cell = cellRequest(req, ki, si);
            const std::string id = jobId(ki, si, cell);
            ids.push_back(id);
            const std::string path = jobPath(dir, id);
            // Content-addressed ids make resubmission idempotent: an
            // existing file IS this job (same bytes), so the write —
            // and any worker already running it — can be left alone.
            if (fileExists(path))
                continue;
            if (!saveRequestFile(path, cell, id)) {
                throw std::runtime_error("cannot write job file '" +
                                         path + "'");
            }
        }
    }
    return ids;
}

ServeStats
spoolServe(const Endpoint &ep, AnalysisService &service, bool drain)
{
    const std::string &dir = ep.path;
    ServeStats stats;
    // Claim-order pricing: job files are content-addressed and
    // immutable, so an id priced once stays priced across passes.
    // Pricing never executes anything — a job file that fails to
    // deserialize costs 0 here and produces its failure response at
    // claim time like before.
    std::map<std::string, double> costs;
    sched::CostModel costModel;
    const bool costed = ep.schedPolicy != sched::SchedPolicy::kFifo;
    for (;;) {
        bool executedThisPass = false;
        bool allAnswered = true;
        std::vector<std::string> ids = listJobs(dir);
        if (costed) {
            for (const std::string &id : ids) {
                if (costs.count(id) ||
                    fileExists(responsePath(dir, id)))
                    continue;
                AnalysisRequest cell;
                double cost = 0.0;
                if (loadRequestFile(jobPath(dir, id), &cell, id))
                    cost = estimateCellCost(costModel, cell);
                costs.emplace(id, cost);
            }
            // stable_sort over the sorted listing: ties (answered
            // jobs, equal costs) keep deterministic id order.
            std::stable_sort(
                ids.begin(), ids.end(),
                [&costs](const std::string &a, const std::string &b) {
                    const auto ia = costs.find(a);
                    const auto ib = costs.find(b);
                    const double ca =
                        ia == costs.end() ? 0.0 : ia->second;
                    const double cb =
                        ib == costs.end() ? 0.0 : ib->second;
                    return ca < cb;
                });
        }
        for (const std::string &id : ids) {
            if (ep.limits.maxJobs &&
                stats.executed >= ep.limits.maxJobs)
                return stats;
            if (fileExists(responsePath(dir, id)))
                continue;
            allAnswered = false;
            store::Lease claim = store::tryAcquireLease(
                claimPath(dir, id), ep.timeouts.claimStaleMs);
            if (!claim.held())
                continue; // another live worker has it
            // Re-check under the claim: the previous holder may have
            // answered between our scan and this acquisition.
            if (fileExists(responsePath(dir, id)))
                continue;

            AnalysisRequest cell;
            AnalysisResponse resp;
            if (!loadRequestFile(jobPath(dir, id), &cell, id)) {
                // Malformed or foreign job file: answer it with a
                // failure so the parent's collect terminates instead
                // of timing out (and the bad file stays inspectable).
                resp = cellFailureResponse(
                    AnalysisRequest{},
                    "spool job '" + id +
                        "' failed to deserialize (schema mismatch "
                        "or corrupt file)");
                resp.jobName = id;
            } else {
                try {
                    resp = service.run(cell);
                } catch (const std::exception &e) {
                    resp = cellFailureResponse(cell, e.what());
                }
            }
            ++stats.executed;
            for (const driver::BatchResult &r : resp.cells)
                stats.failedCells += r.ok ? 0 : 1;
            store::ByteWriter w;
            writeResponse(w, resp);
            if (!store::writeEntryFile(responsePath(dir, id),
                                       kSchemaVersion, id,
                                       w.bytes())) {
                // An unanswerable job (full disk, unwritable
                // responses/) must not become a hot loop: drain mode
                // would immediately re-claim it and re-run the whole
                // analysis, forever. Stop serving and let the caller
                // (or another worker with working storage) retry.
                warn("spool: cannot write response for job '%s' — "
                     "stopping this serve loop",
                     id.c_str());
                return stats;
            }
            executedThisPass = true;
            // claim releases here (RAII) — after the response landed.
        }
        if (allAnswered || !drain)
            return stats;
        if (!executedThisPass) {
            // Everything unanswered is claimed by live workers (or
            // freshly stalled): wait for them, stealing once their
            // claims go stale.
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kIdlePollSeconds));
        }
    }
}

AnalysisResponse
spoolCollect(const Endpoint &ep, const AnalysisRequest &req)
{
    validateRequest(req);
    const std::string &dir = ep.path;
    const std::vector<SpoolCell> cells = spoolCells(req);
    AnalysisResponse resp = makeResponseShell(req);
    resp.cells.resize(cells.size());
    std::vector<bool> have(cells.size(), false);
    size_t missing = cells.size();

    // Failure cells are labeled from the cell's OWN (kernel, spec)
    // position, never reconstructed by dividing the flat index by the
    // spec count — that arithmetic mislabels any non-dense id grid
    // and divides by zero on an empty spec list.
    const auto failCell = [&](size_t i, const std::string &error) {
        resp.cells[i].kernelName = req.kernels[cells[i].kernel].name;
        resp.cells[i].specName = req.specs[cells[i].spec].name;
        resp.cells[i].ok = false;
        resp.cells[i].error = error;
    };

    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               ep.timeouts.collectSeconds));
    double poll_seconds = kPollInitialSeconds;
    while (missing > 0) {
        bool progressed = false;
        for (size_t i = 0; i < cells.size(); ++i) {
            if (have[i])
                continue;
            const std::string path = responsePath(dir, cells[i].id);
            std::string payload;
            if (!store::readEntryFile(path, kSchemaVersion,
                                      cells[i].id, &payload)) {
                continue;
            }
            AnalysisResponse one;
            store::ByteReader r(payload);
            if (!readResponse(r, &one) || !r.atEnd() ||
                one.cells.size() != 1) {
                // A half-valid response file is a worker bug, not a
                // reason to hang: surface it as the cell's failure.
                failCell(i, "spool response for job '" + cells[i].id +
                                "' is malformed");
            } else {
                resp.cells[i] = std::move(one.cells[0]);
            }
            have[i] = true;
            --missing;
            progressed = true;
        }
        if (missing == 0)
            break;
        if (Clock::now() >= deadline) {
            for (size_t i = 0; i < cells.size(); ++i) {
                if (!have[i]) {
                    failCell(i, "spool job '" + cells[i].id +
                                    "' produced no response before "
                                    "the timeout");
                }
            }
            break;
        }
        // Exponential backoff while idle (snapping back on progress):
        // hot responses are picked up within milliseconds, a long
        // cold batch is polled a few times a second instead of 50.
        poll_seconds = progressed ? kPollInitialSeconds
                                  : std::min(poll_seconds * 2.0,
                                             kPollMaxSeconds);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(poll_seconds));
    }
    return resp;
}

AnalysisResponse
runSpooled(const Endpoint &ep, const AnalysisRequest &req,
           AnalysisService &service)
{
    spoolSubmit(ep.path, req);
    spoolServe(ep, service);
    return spoolCollect(ep, req);
}

} // namespace api
} // namespace gpuperf
