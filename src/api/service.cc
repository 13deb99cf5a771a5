#include "api/service.h"

#include <stdexcept>
#include <utility>

#include "api/codecs.h"
#include "api/registry.h"

namespace gpuperf {
namespace api {

namespace {

/**
 * Materialize every kernel job up front. A job whose materialization
 * fails (unknown factory, bad arguments) still occupies its batch
 * row — its cells must fail, not vanish — so it becomes a case whose
 * factory rethrows the materialization error.
 */
std::vector<driver::KernelCase>
materializeAll(const AnalysisRequest &req)
{
    std::vector<driver::KernelCase> cases;
    cases.reserve(req.kernels.size());
    for (const KernelJob &job : req.kernels) {
        try {
            cases.push_back(materializeJob(job));
        } catch (const std::exception &e) {
            driver::KernelCase broken;
            broken.name = job.name;
            const std::string message = e.what();
            broken.make = [message]() -> driver::PreparedLaunch {
                throw std::runtime_error(message);
            };
            cases.push_back(std::move(broken));
        }
    }
    return cases;
}

} // namespace

void
validateRequest(const AnalysisRequest &req)
{
    if (req.schemaVersion != kSchemaVersion) {
        throw std::runtime_error(
            "request schema version " +
            std::to_string(req.schemaVersion) +
            " is not supported (expected " +
            std::to_string(kSchemaVersion) + ")");
    }
    // Specs first: the launch rules below read spec ceilings.
    for (const arch::GpuSpec &spec : req.specs)
        spec.validate();
    for (const KernelJob &job : req.kernels) {
        if (!job.isInline() && job.ref.factory.empty()) {
            throw std::runtime_error(
                "kernel job '" + job.name +
                "' has neither a case ref nor an inline launch");
        }
        if (!job.isInline())
            continue;
        // An inline launch carries its shape on the wire: reject it
        // up front under every spec of the request.
        const InlineLaunch &in = *job.inlined;
        for (const arch::GpuSpec &spec : req.specs) {
            funcsim::checkLaunch(in.kernel.name(), in.cfg,
                                 in.kernel.sharedBytes(),
                                 in.options.sampleBlocks, spec);
        }
        // Wire-only cap: no simulator rule bounds the thread count,
        // but a forged launch must not make the worker allocate for
        // billions of threads.
        if (int64_t{in.cfg.gridDim} * in.cfg.blockDim >
            (int64_t{1} << 32)) {
            throw std::runtime_error("inline job '" + job.name +
                                     "': launch is unreasonably large");
        }
    }
}

AnalysisResponse
makeResponseShell(const AnalysisRequest &req)
{
    AnalysisResponse resp;
    resp.jobName = req.jobName;
    resp.numKernels = static_cast<uint32_t>(req.kernels.size());
    resp.numSpecs = static_cast<uint32_t>(req.specs.size());
    return resp;
}

driver::BatchRunner::Options
AnalysisService::executorOptions(const AnalysisRequest &req)
{
    driver::BatchRunner::Options opts;
    opts.numThreads = req.exec.numThreads;
    opts.storeDir = req.store.storeDir;
    opts.reuseStoredResults = req.store.reuseStoredResults;
    opts.engine = req.exec.engine;
    return opts;
}

std::shared_ptr<driver::BatchRunner>
AnalysisService::executorHandleFor(const AnalysisRequest &req)
{
    const driver::BatchRunner::Options opts = executorOptions(req);
    std::lock_guard<std::mutex> lock(mutex_);
    // Executors are shared per distinct policy so repeated requests
    // reuse in-memory memos; the key serializes every option field.
    const std::string key =
        std::to_string(opts.numThreads) + "|" + opts.storeDir + "|" +
        (opts.reuseStoredResults ? "R" : "r") +
        std::to_string(static_cast<int>(opts.engine));
    Executor &executor = executors_[key];
    if (!executor.runner)
        executor.runner = std::make_shared<driver::BatchRunner>(opts);
    executor.lastUse = ++useCounter_;
    // Bounded cache: a long-lived worker serving many distinct store
    // policies (one per parent's temp store) must not hoard a thread
    // pool and memo set per policy forever. Evict the LRU entry; an
    // executor mid-run survives through the caller's shared_ptr.
    while (executors_.size() > kMaxExecutors) {
        auto victim = executors_.end();
        for (auto it = executors_.begin(); it != executors_.end();
             ++it) {
            if (it->first != key &&
                (victim == executors_.end() ||
                 it->second.lastUse < victim->second.lastUse)) {
                victim = it;
            }
        }
        if (victim == executors_.end())
            break;
        // Fold the doomed executor's store counters into the retired
        // accumulator: eviction must never make a stats() counter go
        // backwards.
        retired_ += victim->second.runner->storeStats();
        executors_.erase(victim);
    }
    return executor.runner;
}

driver::BatchRunner &
AnalysisService::executorFor(const AnalysisRequest &req)
{
    return *executorHandleFor(req);
}

AnalysisResponse
AnalysisService::execute(const AnalysisRequest &req,
                         const CellCallback &onCell, StreamStats *stats)
{
    validateRequest(req);
    AnalysisResponse resp = makeResponseShell(req);
    resp.cells.resize(req.kernels.size() * req.specs.size());
    if (resp.cells.empty()) {
        if (stats)
            *stats = StreamStats{};
        return resp;
    }

    const std::vector<driver::KernelCase> cases = materializeAll(req);
    // Hold the handle across the whole batch: LRU eviction by a
    // concurrent request for another policy must not destroy a
    // running executor.
    const std::shared_ptr<driver::BatchRunner> executorHold =
        executorHandleFor(req);
    driver::BatchRunner &executor = *executorHold;

    const bool stream =
        onCell && req.exec.delivery == ExecutionPolicy::Delivery::kStream;
    const StreamStats got = executor.runStream(
        cases, req.specs, req.sweep,
        [&resp, &onCell, stream](size_t index,
                                 driver::BatchResult cell) {
            if (stream)
                onCell(index, cell);
            resp.cells[index] = std::move(cell);
        });
    if (stats)
        *stats = got;
    return resp;
}

std::shared_ptr<const model::CalibrationTables>
AnalysisService::calibrationFor(const AnalysisRequest &req,
                                const arch::GpuSpec &spec)
{
    return executorHandleFor(req)->calibrationFor(spec);
}

void
AnalysisService::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : executors_)
        retired_ += entry.second.runner->storeStats();
    executors_.clear();
}

store::StoreLayerStats
AnalysisService::storeStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    store::StoreLayerStats s = retired_;
    for (const auto &entry : executors_)
        s += entry.second.runner->storeStats();
    return s;
}

void
AnalysisService::adoptCalibration(
    const AnalysisRequest &req, const arch::GpuSpec &spec,
    std::shared_ptr<const model::CalibrationTables> tables)
{
    executorHandleFor(req)->adoptCalibration(spec, std::move(tables));
}

} // namespace api
} // namespace gpuperf
