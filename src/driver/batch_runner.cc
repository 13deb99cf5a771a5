#include "driver/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/task_graph.h"
#include "store/calibration_store.h"
#include "store/codecs.h"
#include "store/profile_store.h"
#include "store/result_store.h"
#include "store/serializer.h"
#include "store/timing_store.h"

namespace gpuperf {
namespace driver {

namespace {

using TablesPtr = std::shared_ptr<const model::CalibrationTables>;

using BenchMemoPtr = std::shared_ptr<model::GlobalBenchMemo>;

/**
 * Error packaging shared by every cell outcome: run @p body,
 * converting any exception into a failed-but-present result so one
 * bad case never aborts the batch (even for exotic non-std
 * exceptions).
 */
template <typename Body>
BatchResult
guardedCell(const std::string &kernel_name, const std::string &spec_name,
            Body body)
{
    BatchResult r;
    r.kernelName = kernel_name;
    r.specName = spec_name;
    try {
        body(r);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    } catch (...) {
        r.ok = false;
        r.error = "unknown exception from kernel case";
    }
    return r;
}

/**
 * Analysis core of one cell: a fresh session adopting the per-spec
 * calibration state analyzes the shared profile and timing replay,
 * then the sweep runs on the analysis.
 */
void
analyzeInto(BatchResult &r, const arch::GpuSpec &spec, TablesPtr tables,
            BenchMemoPtr memo, const SweepSpec &sweep,
            timing::ReplayEngine engine,
            const std::shared_ptr<const funcsim::KernelProfile> &profile,
            const std::shared_ptr<const timing::TimingResult> &timing)
{
    model::SessionConfig config;
    config.engine = engine;
    config.tables = std::move(tables);
    model::AnalysisSession session(spec, config);
    if (memo)
        session.calibrator().shareGlobalMemo(std::move(memo));
    r.analysis = session.analyze(profile, timing);
    if (!sweep.empty()) {
        // The analysis already predicted the unmodified input; the
        // sweep reuses that as every hypothesis's baseline.
        r.whatifs = runSweep(session.model(), r.analysis.input, sweep,
                             r.analysis.prediction);
    }
    r.ok = true;
}

/** Run @p kc's factory, validating the case and its output. */
PreparedLaunch
makeLaunch(const KernelCase &kc)
{
    if (!kc.make)
        throw std::runtime_error("kernel case has no factory");
    PreparedLaunch launch = kc.make();
    if (!launch.gmem)
        throw std::runtime_error("kernel case produced no memory");
    return launch;
}

/** The options a profile run uses: trace collection forced on. */
funcsim::RunOptions
profileOptions(const PreparedLaunch &launch)
{
    funcsim::RunOptions options = launch.options;
    options.collectTrace = true;
    return options;
}

/** The profile key of @p launch (pristine memory image) on @p spec. */
funcsim::ProfileKey
profileKeyOf(const PreparedLaunch &launch, const arch::GpuSpec &spec)
{
    return funcsim::makeProfileKey(launch.kernel, launch.cfg,
                                   profileOptions(launch), spec,
                                   *launch.gmem);
}

/** Functionally simulate @p launch into a profile under @p key. */
std::shared_ptr<const funcsim::KernelProfile>
simulateProfile(const arch::GpuSpec &spec, PreparedLaunch &launch,
                const funcsim::ProfileKey &key)
{
    funcsim::FunctionalSimulator sim(spec);
    return std::make_shared<const funcsim::KernelProfile>(
        funcsim::profileKernel(sim, launch.kernel, launch.cfg,
                               *launch.gmem, profileOptions(launch),
                               key));
}

/**
 * Guard a profile rebuild against a factory that violates the
 * documented repeatability contract: a launch rebuilt after the key
 * was derived must still digest to that key, or the simulation would
 * be persisted under another image's identity — poisoning the store
 * for every later run. The image hash is noise next to the
 * functional simulation that follows.
 */
void
requireRepeatableFactory(const KernelCase &kc,
                         const PreparedLaunch &launch,
                         const arch::GpuSpec &spec,
                         const funcsim::ProfileKey &key)
{
    if (profileKeyOf(launch, spec) != key) {
        throw std::runtime_error(
            "kernel case '" + kc.name +
            "' is not repeatable: a rebuilt launch no longer matches "
            "the profile key derived from its first factory run");
    }
}

/**
 * One kernel case's factory output together with its profile key,
 * shared run-locally per (case position, funcsim fingerprint): the
 * factory runs ONCE whether a cell needs only the key (warm
 * result-store path) or the key and then, on a profile-store miss,
 * the launch itself — the profile build takes the stashed launch
 * instead of re-running the factory.
 */
struct PreparedCase
{
    funcsim::ProfileKey key;
    /** What the launch rules read, kept past the launch's discard. */
    std::string kernelName;
    int sharedBytes = 0;
    std::mutex mutex;
    std::unique_ptr<PreparedLaunch> launch;  ///< null once consumed

    /** Drop the stashed input image (idempotent). */
    void discardLaunch()
    {
        std::lock_guard<std::mutex> lock(mutex);
        launch.reset();
    }
};

/**
 * Content identity of one finished cell for the persistent result
 * store: the case name, the profile's full key (kernel hash, input
 * hash, launch, options, funcsim fingerprint), the target spec's
 * full fingerprint, the digest of the calibration tables the
 * prediction used (adopted toy tables must never alias a real
 * calibration), and the sweep grid. Any change to any of them misses
 * and the cell recomputes.
 */
std::string
resultKey(const std::string &case_name,
          const funcsim::ProfileKey &profile_key,
          const arch::GpuSpec &spec, uint64_t tables_digest,
          const SweepSpec &sweep)
{
    char cal[32];
    std::snprintf(cal, sizeof(cal), "%016llx",
                  static_cast<unsigned long long>(tables_digest));
    return std::to_string(case_name.size()) + ":" + case_name + "|" +
           profile_key.str() + "|spec=" + spec.fingerprint() +
           "|cal=" + cal + "|sweep=" + sweep.fingerprint();
}

// --- Per-batch task-graph node outputs ---------------------------------
//
// Graph nodes communicate through these slots instead of futures: a
// producing node stores its value OR the exception it caught, and
// consuming nodes translate a stored exception into a failed
// BatchResult — so node bodies themselves never throw, every cell is
// delivered exactly once, and one bad stage never aborts the batch.

/** Output of the calibrate + bench-memo nodes for one distinct spec. */
struct SpecSlot
{
    TablesPtr tables;
    BenchMemoPtr memo;
    /** Result-store calibration digest (0 without a result store). */
    uint64_t digest = 0;
    std::exception_ptr calError;
    std::exception_ptr memoError;
};

/**
 * Output of the prepare node for one (case, funcsim fingerprint):
 * the factory runs ONCE — sibling cells across spec variants reuse
 * the profile key, the stashed launch, and (the fix this slot
 * exists for) a captured factory error, instead of paying a
 * rebuild-and-rethrow attempt per cell.
 */
struct PreparedSlot
{
    std::shared_ptr<PreparedCase> pc;
    std::exception_ptr error;
};

/** Output of the profile node for one (case, funcsim fingerprint). */
struct ProfileSlot
{
    std::shared_ptr<const funcsim::KernelProfile> profile;
    std::exception_ptr error;
};

/** Output of the timing node for one (profile key, timing fp). */
struct TimingSlot
{
    std::shared_ptr<const timing::TimingResult> result;
    std::exception_ptr error;
};

/** A failed result carrying @p error, via the usual packaging. */
BatchResult
failedCell(const std::string &kernel_name, const std::string &spec_name,
           const std::exception_ptr &error)
{
    return guardedCell(kernel_name, spec_name, [&](BatchResult &) {
        std::rethrow_exception(error);
    });
}

/**
 * The shared lease dance (same protocol as calibrate()'s): serve a
 * store-backed artifact, waiting out another process's in-flight
 * computation. @p load returns the published artifact or null;
 * @p acquire tries the artifact's lease; @p probe is a CHEAP
 * header-only existence re-check under a freshly won lease (so the
 * common cold path counts exactly one store miss). Returns the
 * artifact, or null with *@p lease held — the caller computes,
 * saves, then releases. Advisory and crash-safe: a holder that dies
 * leaves a stale lease the next acquire breaks, so the worst failure
 * mode is one duplicated computation, never a stuck process.
 */
template <typename LoadFn, typename AcquireFn, typename ProbeFn>
auto
awaitPublished(const LoadFn &load, const AcquireFn &acquire,
               const ProbeFn &probe, store::Lease *lease, int poll_ms)
    -> decltype(load())
{
    for (;;) {
        if (auto artifact = load())
            return artifact;
        *lease = acquire();
        if (lease->held()) {
            // Re-check under the lease: the previous holder may have
            // published between our miss and this acquisition.
            if (probe()) {
                if (auto artifact = load()) {
                    lease->release();
                    return artifact;
                }
            }
            return nullptr;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(poll_ms));
    }
}

} // namespace

BatchRunner::BatchRunner() : BatchRunner(Options{}) {}

BatchRunner::BatchRunner(Options options)
    : options_(std::move(options)), pool_(options_.numThreads)
{
    if (!options_.storeDir.empty()) {
        profileStore_ = std::make_unique<store::ProfileStore>(
            options_.storeDir + "/profiles");
        calibrationStore_ = std::make_unique<store::CalibrationStore>(
            options_.storeDir + "/calibrations");
        resultStore_ = std::make_unique<store::ResultStore>(
            options_.storeDir + "/results");
        timingStore_ = std::make_unique<store::TimingStore>(
            options_.storeDir + "/timing");
    }
}

BatchRunner::~BatchRunner() = default;

store::StoreLayerStats
BatchRunner::storeStats() const
{
    store::StoreLayerStats s;
    if (profileStore_)
        s.profiles = profileStore_->stats();
    if (calibrationStore_)
        s.calibrations = calibrationStore_->stats();
    if (timingStore_)
        s.timings = timingStore_->stats();
    if (resultStore_)
        s.results = resultStore_->stats();
    return s;
}

std::string
BatchRunner::specKey(const arch::GpuSpec &spec)
{
    // GpuSpec::fingerprint() serializes every field, so two specs
    // that differ in anything simulation-relevant never alias.
    return spec.fingerprint();
}

std::shared_ptr<const model::CalibrationTables>
BatchRunner::runCalibration(const arch::GpuSpec &spec)
{
    ++calibrationsComputed_;
    model::AnalysisSession session(spec);
    return session.shareCalibration(&pool_);
}

std::shared_ptr<const model::CalibrationTables>
BatchRunner::calibrate(const arch::GpuSpec &spec)
{
    if (!calibrationStore_)
        return runCalibration(spec);

    // Concurrent processes sharing this store split the
    // microbenchmark sweeps: only the holder of the spec's lease
    // runs this one, everyone else polls for the published entry
    // (awaitPublished — the same dance profiles and timings use).
    // The under-lease probe is an uncounted full read (a corrupt
    // entry fails it too), so a lookup counts one hit or miss.
    store::Lease lease;
    if (auto tables = awaitPublished(
            [&] { return calibrationStore_->load(spec); },
            [&] { return calibrationStore_->tryAcquireLease(spec); },
            [&] { return calibrationStore_->exists(spec); }, &lease,
            /*poll_ms=*/20)) {
        return tables;
    }
    auto tables = runCalibration(spec);
    calibrationStore_->save(spec, *tables);
    return tables; // lease marker removed after the save
}

std::shared_ptr<const funcsim::KernelProfile>
BatchRunner::profileAwait(const funcsim::ProfileKey &key,
                          store::Lease *lease)
{
    if (!profileStore_)
        return nullptr;
    // Only the holder of the key's lease simulates; everyone else
    // polls for the published entry (see awaitPublished).
    return awaitPublished(
        [&] { return profileStore_->load(key); },
        [&] { return profileStore_->tryAcquireLease(key); },
        [&] { return profileStore_->readKey(key); }, lease,
        /*poll_ms=*/10);
}

std::shared_ptr<const timing::TimingResult>
BatchRunner::replayOf(
    const std::shared_ptr<const funcsim::KernelProfile> &profile,
    const arch::GpuSpec &spec)
{
    GPUPERF_ASSERT(profile != nullptr, "timing of a null profile");
    const arch::TimingFingerprint fp = arch::TimingFingerprint::of(spec);
    const std::string key = store::TimingStore::keyFor(profile->key, fp);
    return timings_.getOrCompute(
        key, [&]() -> std::shared_ptr<const timing::TimingResult> {
            // Same lease dance as profiles/calibrations: only the
            // holder replays; losers poll for the published entry.
            store::Lease lease;
            if (timingStore_) {
                if (auto stored = awaitPublished(
                        [&] { return timingStore_->load(profile->key, fp); },
                        [&] {
                            return timingStore_->tryAcquireLease(
                                profile->key, fp);
                        },
                        [&] { return timingStore_->exists(profile->key, fp); },
                        &lease, /*poll_ms=*/5)) {
                    return stored;
                }
            }
            // A standalone simulator for the spec replays exactly what
            // a session's device would (both are deterministic
            // functions of the trace and the timing fingerprint).
            timing::TimingSimulator sim(spec, options_.engine);
            auto result = std::make_shared<const timing::TimingResult>(
                sim.run(*profile));
            ++timingsComputed_;
            if (timingStore_)
                timingStore_->save(profile->key, fp, *result);
            return result; // the held lease releases after the save
        });
}

std::shared_ptr<const model::CalibrationTables>
BatchRunner::calibrationFor(const arch::GpuSpec &spec)
{
    const std::string key = specKey(spec);
    return calibrations_.getOrCompute(
        key, [&]() { return calibrate(spec); });
}

std::shared_ptr<model::GlobalBenchMemo>
BatchRunner::benchMemoFor(const arch::GpuSpec &spec)
{
    return benchMemos_.getOrCompute(specKey(spec), [&]() {
        auto memo = std::make_shared<model::GlobalBenchMemo>();
        if (calibrationStore_) {
            for (auto &entry :
                 calibrationStore_->loadBenchResults(spec)) {
                memo->put(entry.first, entry.second);
            }
        }
        return memo;
    });
}

void
BatchRunner::adoptCalibration(
    const arch::GpuSpec &spec,
    std::shared_ptr<const model::CalibrationTables> tables)
{
    GPUPERF_ASSERT(tables != nullptr, "cannot adopt null tables");
    calibrations_.put(specKey(spec), std::move(tables));
}

std::vector<BatchResult>
BatchRunner::run(const std::vector<KernelCase> &kernels,
                 const std::vector<arch::GpuSpec> &specs,
                 const SweepSpec &sweep)
{
    // Collect-and-reorder wrapper over the streaming core:
    // deliveries arrive in completion order carrying their
    // kernel-major index; placing them by index restores the
    // deterministic order. Deliveries are serialized, so the vector
    // needs no locking.
    std::vector<BatchResult> results(kernels.size() * specs.size());
    runStream(kernels, specs, sweep,
              [&results](size_t index, BatchResult r) {
                  results[index] = std::move(r);
              });
    return results;
}

BatchRunner::StreamStats
BatchRunner::runStream(const std::vector<KernelCase> &kernels,
                       const std::vector<arch::GpuSpec> &specs,
                       const SweepSpec &sweep,
                       const ResultCallback &onResult)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    const auto since = [t0]() {
        return std::chrono::duration<double>(Clock::now() - t0)
            .count();
    };

    StreamStats stats;
    stats.cells = kernels.size() * specs.size();

    TaskGraph graph(pool_);

    // State shared by node lambdas: the dedup maps behind the
    // dynamically created profile/timing nodes, and the serialized
    // delivery channel. Nodes die when graph.run() returns, but a
    // shared_ptr keeps every capture trivially safe.
    struct Shared
    {
        std::mutex buildMutex;
        std::map<std::string, std::pair<TaskGraph::NodeId,
                                        std::shared_ptr<ProfileSlot>>>
            profiles;
        std::map<std::string, std::pair<TaskGraph::NodeId,
                                        std::shared_ptr<TimingSlot>>>
            timings;

        /**
         * Never held across user code — nodes stamp stream stats
         * here without queueing behind a slow onResult callback.
         */
        std::mutex statsMutex;
        bool firstDelivered = false;
        double firstResultSec = 0.0;
        double lastCalibrationSec = 0.0;

        /** Held across onResult: serializes the delivery channel. */
        std::mutex deliverMutex;
        bool callbackBroken = false;
        std::exception_ptr callbackError;
    };
    auto shared = std::make_shared<Shared>();

    // Serialized completion-order delivery. After the callback's
    // first exception the channel is closed (later results are
    // dropped) but the batch still drains — a throwing consumer must
    // not wedge workers or skip store writes.
    const auto deliver = [shared, &onResult, &since](size_t index,
                                                     BatchResult r) {
        {
            std::lock_guard<std::mutex> lock(shared->statsMutex);
            if (!shared->firstDelivered) {
                shared->firstDelivered = true;
                shared->firstResultSec = since();
            }
        }
        std::lock_guard<std::mutex> lock(shared->deliverMutex);
        if (shared->callbackBroken)
            return;
        try {
            onResult(index, std::move(r));
        } catch (...) {
            shared->callbackBroken = true;
            shared->callbackError = std::current_exception();
        }
    };

    // --- calibrate(spec) + benchMemo(spec): one node each per
    // distinct fingerprint; duplicate specs share slot and nodes. ---
    std::vector<std::shared_ptr<SpecSlot>> spec_slots(specs.size());
    std::vector<TaskGraph::NodeId> cal_nodes(specs.size());
    std::vector<TaskGraph::NodeId> memo_nodes(specs.size());
    std::map<std::string, size_t> spec_owner;
    for (size_t si = 0; si < specs.size(); ++si) {
        const arch::GpuSpec *spec = &specs[si];
        const auto [it, fresh] = spec_owner.emplace(specKey(*spec), si);
        if (!fresh) {
            spec_slots[si] = spec_slots[it->second];
            cal_nodes[si] = cal_nodes[it->second];
            memo_nodes[si] = memo_nodes[it->second];
            continue;
        }
        auto slot = std::make_shared<SpecSlot>();
        spec_slots[si] = slot;
        cal_nodes[si] = graph.add(
            "calibrate:" + spec->name,
            [this, spec, slot, shared, since]() {
                try {
                    slot->tables = calibrationFor(*spec);
                    if (resultStore_ && slot->tables)
                        slot->digest =
                            store::tablesDigest(*slot->tables);
                } catch (...) {
                    slot->calError = std::current_exception();
                }
                std::lock_guard<std::mutex> lock(shared->statsMutex);
                shared->lastCalibrationSec =
                    std::max(shared->lastCalibrationSec, since());
            });
        memo_nodes[si] =
            graph.add("bench-memo:" + spec->name, [this, spec, slot]() {
                try {
                    slot->memo = benchMemoFor(*spec);
                } catch (...) {
                    slot->memoError = std::current_exception();
                }
            });
    }

    // --- Lazy shared simulation chain: profile(profile key) and
    // timing(profile key, timing fp) nodes exist only when some cell
    // actually misses the result store. ---
    const auto ensure_profile =
        [this, &graph,
         shared](const std::string &pkey, const KernelCase *kc,
                 const arch::GpuSpec *spec,
                 std::shared_ptr<PreparedSlot> pslot,
                 TaskGraph::NodeId prep_node) {
            std::lock_guard<std::mutex> lock(shared->buildMutex);
            const auto it = shared->profiles.find(pkey);
            if (it != shared->profiles.end())
                return it->second;
            auto slot = std::make_shared<ProfileSlot>();
            const auto id = graph.add(
                "profile:" + kc->name,
                [this, kc, spec, pslot, slot]() {
                    try {
                        auto pc = pslot->pc;
                        store::Lease lease;
                        if (auto p = profileAwait(pc->key, &lease)) {
                            slot->profile = std::move(p);
                            pc->discardLaunch();
                            return;
                        }
                        std::unique_ptr<PreparedLaunch> launch;
                        {
                            std::lock_guard<std::mutex> l(pc->mutex);
                            launch = std::move(pc->launch);
                        }
                        if (!launch) {
                            // A finished sibling cell already
                            // discarded the stash; rebuild, holding
                            // the factory to its repeatability
                            // contract.
                            launch = std::make_unique<PreparedLaunch>(
                                makeLaunch(*kc));
                            requireRepeatableFactory(*kc, *launch,
                                                     *spec, pc->key);
                        }
                        slot->profile =
                            simulateProfile(*spec, *launch, pc->key);
                        ++funcsimsComputed_;
                        // Saved before the node returns: the lease
                        // releases after the save, so every runner
                        // polling the key loads the entry instead of
                        // duplicating the funcsim — and never waits on
                        // a node that is not running.
                        if (profileStore_)
                            profileStore_->save(*slot->profile);
                    } catch (...) {
                        slot->error = std::current_exception();
                    }
                },
                {prep_node});
            const auto entry = std::make_pair(id, slot);
            shared->profiles.emplace(pkey, entry);
            return entry;
        };

    const auto ensure_timing =
        [this, &graph,
         shared](const std::string &tkey, const KernelCase *kc,
                 const arch::GpuSpec *spec,
                 std::pair<TaskGraph::NodeId,
                           std::shared_ptr<ProfileSlot>>
                     prof) {
            std::lock_guard<std::mutex> lock(shared->buildMutex);
            const auto it = shared->timings.find(tkey);
            if (it != shared->timings.end())
                return it->second;
            auto slot = std::make_shared<TimingSlot>();
            auto prof_slot = prof.second;
            const auto id = graph.add(
                "timing:" + kc->name,
                [this, spec, prof_slot, slot]() {
                    if (prof_slot->error) {
                        slot->error = prof_slot->error;
                        return;
                    }
                    try {
                        slot->result =
                            replayOf(prof_slot->profile, *spec);
                    } catch (...) {
                        slot->error = std::current_exception();
                    }
                },
                {prof.first});
            const auto entry = std::make_pair(id, slot);
            shared->timings.emplace(tkey, entry);
            return entry;
        };

    // --- One cell(case, spec) node per batch cell. ---
    const size_t num_specs = specs.size();
    std::map<std::string, std::pair<TaskGraph::NodeId,
                                    std::shared_ptr<PreparedSlot>>>
        prepared;
    for (size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelCase *kc = &kernels[ki];
        for (size_t si = 0; si < num_specs; ++si) {
            const arch::GpuSpec *spec = &specs[si];
            const size_t index = ki * num_specs + si;
            auto sslot = spec_slots[si];

            // prepare(case, funcsim fp): the factory runs once per
            // distinct fingerprint; sibling cells reuse the key, the
            // stashed launch AND a captured factory error.
            const std::string pkey =
                std::to_string(ki) + "#" +
                arch::FuncsimFingerprint::of(*spec).key();
            auto pit = prepared.find(pkey);
            if (pit == prepared.end()) {
                auto pslot = std::make_shared<PreparedSlot>();
                const auto pid = graph.add(
                    "prepare:" + kc->name, [kc, spec, pslot]() {
                        try {
                            auto pc = std::make_shared<PreparedCase>();
                            pc->launch =
                                std::make_unique<PreparedLaunch>(
                                    makeLaunch(*kc));
                            pc->key = profileKeyOf(*pc->launch, *spec);
                            pc->kernelName = pc->launch->kernel.name();
                            pc->sharedBytes =
                                pc->launch->kernel.sharedBytes();
                            pslot->pc = std::move(pc);
                        } catch (...) {
                            pslot->error = std::current_exception();
                        }
                    });
                pit = prepared
                          .emplace(pkey, std::make_pair(pid, pslot))
                          .first;
            }
            const TaskGraph::NodeId prep_node = pit->second.first;
            auto pslot = pit->second.second;

            // The cell's probe half: settle dependency errors, try
            // the warm result store, otherwise extend the graph with
            // the shared simulation chain and an analyze node behind
            // it. Runs once per cell; never throws.
            graph.add(
                "cell:" + kc->name + "@" + spec->name,
                [this, &graph, kc, spec, sslot, pslot, &sweep, index,
                 deliver, prep_node, ensure_profile,
                 ensure_timing]() {
                    // Exactly-once delivery even if this body throws
                    // somewhere unexpected (allocation, store I/O):
                    // an undelivered cell would surface as a silent
                    // default-empty result.
                    bool delivered = false;
                    const auto deliver_cell = [&](BatchResult r) {
                        delivered = true;
                        deliver(index, std::move(r));
                    };
                    try {
                    std::exception_ptr dep_error;
                    if (sslot->calError)
                        dep_error = sslot->calError;
                    else if (sslot->memoError)
                        dep_error = sslot->memoError;
                    else if (pslot->error)
                        dep_error = pslot->error;
                    if (dep_error) {
                        deliver_cell(failedCell(kc->name, spec->name,
                                                dep_error));
                        return;
                    }
                    auto pc = pslot->pc;
                    std::string rkey;
                    if (resultStore_) {
                        // Key-only warmth probe: the result key needs
                        // the profile's identity, not the profile — a
                        // warm cell deserializes (and simulates)
                        // nothing.
                        rkey = resultKey(kc->name, pc->key, *spec,
                                         sslot->digest, sweep);
                        if (options_.reuseStoredResults) {
                            if (auto stored =
                                    resultStore_->load(rkey)) {
                                // Names come from the current batch
                                // so a renamed case or spec can never
                                // leak a stale label.
                                stored->kernelName = kc->name;
                                stored->specName = spec->name;
                                deliver_cell(std::move(*stored));
                                pc->discardLaunch();
                                return;
                            }
                        }
                    }
                    // A profile node simulates under the spec of the
                    // cell that creates it, so only a spec that
                    // accepts the launch may create one; a sibling
                    // spec with a lower ceiling fails in analyze.
                    funcsim::checkLaunch(pc->kernelName, pc->key.cfg,
                                         pc->sharedBytes,
                                         pc->key.sampleBlocks, *spec);
                    // Profile nodes are keyed by CONTENT, not by
                    // case: two cases with one profile key share a
                    // node instead of one polling the store lease the
                    // other's node holds.
                    auto prof = ensure_profile(pc->key.str(), kc, spec,
                                               pslot, prep_node);
                    // One timing node per content key: profile
                    // nodes are per content key too, so a timing
                    // node always reads the one profile slot its key
                    // names.
                    const std::string tkey = store::TimingStore::keyFor(
                        pc->key, arch::TimingFingerprint::of(*spec));
                    const auto timing =
                        ensure_timing(tkey, kc, spec, prof);
                    const std::shared_ptr<TimingSlot> tslot =
                        timing.second;
                    auto prof_slot = prof.second;
                    // The analyze node depends on its own profile
                    // node explicitly as well as the timing node:
                    // belt and braces against any future re-keying
                    // of the timing dedup detaching a cell from the
                    // profile slot it reads.
                    graph.add(
                        "analyze:" + kc->name + "@" + spec->name,
                        [this, &graph, kc, spec, sslot, prof_slot,
                         tslot, pc, &sweep, index, deliver,
                         rkey]() {
                            bool delivered = false;
                            try {
                            BatchResult r = guardedCell(
                                kc->name, spec->name,
                                [&](BatchResult &r) {
                                    if (prof_slot->error)
                                        std::rethrow_exception(
                                            prof_slot->error);
                                    if (tslot->error)
                                        std::rethrow_exception(
                                            tslot->error);
                                    analyzeInto(r, *spec, sslot->tables,
                                                sslot->memo, sweep,
                                                options_.engine,
                                                prof_slot->profile,
                                                tslot->result);
                                });
                            if (resultStore_ && r.ok) {
                                // Writer node: the cell's latency
                                // ends at delivery, not at the disk.
                                // A result is deterministic in its
                                // key, so a valid stored entry
                                // already says what this one would:
                                // a warm run re-publishes nothing.
                                auto copy =
                                    std::make_shared<BatchResult>(r);
                                graph.add("write-result:" + kc->name,
                                          [this, rkey, copy]() {
                                              if (!resultStore_->exists(
                                                      rkey))
                                                  resultStore_->save(
                                                      rkey, *copy);
                                          });
                            }
                            delivered = true;
                            deliver(index, std::move(r));
                            // Siblings get the profile from the
                            // shared node (or the store); megabytes
                            // of stashed input image buy nothing now.
                            pc->discardLaunch();
                            } catch (...) {
                                if (!delivered) {
                                    deliver(
                                        index,
                                        failedCell(
                                            kc->name, spec->name,
                                            std::current_exception()));
                                }
                            }
                        },
                        {prof.first, timing.first});
                    } catch (...) {
                        if (!delivered) {
                            deliver(index,
                                    failedCell(
                                        kc->name, spec->name,
                                        std::current_exception()));
                        }
                    }
                },
                {cal_nodes[si], memo_nodes[si], prep_node});
        }
    }

    graph.run();

    // Safety net: node bodies package their own failures into
    // delivered results, so a failed node here is a scheduler-level
    // surprise — surface it instead of silently returning an empty
    // cell.
    for (TaskGraph::NodeId id : graph.failures()) {
        try {
            std::rethrow_exception(graph.error(id));
        } catch (const std::exception &e) {
            warn("batch task-graph node '%s' failed unexpectedly: %s",
                 graph.name(id).c_str(), e.what());
        } catch (...) {
            warn("batch task-graph node '%s' failed unexpectedly",
                 graph.name(id).c_str());
        }
    }

    // Persist what the batch measured: every synthetic-benchmark
    // result lands in the store so the next process starts warm.
    if (calibrationStore_) {
        std::map<std::string, size_t> distinct;
        for (size_t si = 0; si < specs.size(); ++si)
            distinct.emplace(specKey(specs[si]), si);
        for (const auto &[key, si] : distinct) {
            (void)key;
            if (spec_slots[si]->memo) {
                calibrationStore_->saveBenchResults(
                    specs[si], spec_slots[si]->memo->snapshot());
            }
        }
    }

    stats.firstResultSeconds = shared->firstResultSec;
    stats.lastCalibrationSeconds = shared->lastCalibrationSec;
    stats.totalSeconds = since();

    if (shared->callbackError)
        std::rethrow_exception(shared->callbackError);
    return stats;
}

} // namespace driver
} // namespace gpuperf
