#include "store/calibration_store.h"

#include "common/thread_pool.h"
#include "model/device.h"
#include "store/codecs.h"
#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

CalibrationStore::CalibrationStore(std::string dir)
    : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::string
CalibrationStore::path(const arch::GpuSpec &spec,
                       const std::string &key) const
{
    return dir_ + "/" + fileStem(spec.name, key) + ".calibration";
}

std::shared_ptr<const model::CalibrationTables>
CalibrationStore::read(const arch::GpuSpec &spec,
                       StoreCounters *counters) const
{
    const std::string key = spec.fingerprint();
    std::string payload;
    if (!readStoreEntry(dir_, fileStem(spec.name, key) + ".calibration",
                        kFormatVersion, key, &payload, counters))
        return nullptr;
    auto tables = std::make_shared<model::CalibrationTables>();
    ByteReader r(payload);
    if (!readTables(r, tables.get()) || !r.atEnd())
        return nullptr;
    return tables;
}

std::shared_ptr<const model::CalibrationTables>
CalibrationStore::load(const arch::GpuSpec &spec) const
{
    auto tables = read(spec, &counters_);
    if (tables)
        counters_.hit();
    else
        counters_.miss();
    return tables;
}

bool
CalibrationStore::exists(const arch::GpuSpec &spec) const
{
    return read(spec, nullptr) != nullptr;
}

std::shared_ptr<const model::CalibrationTables>
CalibrationStore::loadOrCalibrate(const arch::GpuSpec &spec) const
{
    if (auto tables = load(spec))
        return tables;
    model::SimulatedDevice device(spec);
    model::Calibrator calibrator(device);
    ThreadPool pool(0);
    auto tables = calibrator.sharedTables(&pool);
    save(spec, *tables);
    return tables;
}

bool
CalibrationStore::save(const arch::GpuSpec &spec,
                       const model::CalibrationTables &tables) const
{
    const std::string key = spec.fingerprint();
    ByteWriter w;
    writeTables(w, tables);
    return writeEntryFile(path(spec, key), kFormatVersion, key,
                          w.bytes(), &counters_);
}

bool
CalibrationStore::saveBenchResults(const arch::GpuSpec &spec,
                                   std::vector<BenchEntry> entries) const
{
    // Merge with what is already stored so shapes measured by earlier
    // batches survive a batch that happened not to need them.
    std::vector<BenchEntry> merged = loadBenchResults(spec);
    const size_t stored = merged.size();
    for (BenchEntry &e : entries) {
        bool known = false;
        for (const BenchEntry &m : merged) {
            if (m.first == e.first) {
                known = true;
                break;
            }
        }
        if (!known)
            merged.push_back(std::move(e));
    }
    if (merged.size() == stored)
        return true; // nothing new: the stored entry already says it

    const std::string key = "bench|" + spec.fingerprint();
    ByteWriter w;
    w.u64(merged.size());
    for (const BenchEntry &e : merged) {
        w.i32(std::get<0>(e.first));
        w.i32(std::get<1>(e.first));
        w.i32(std::get<2>(e.first));
        w.f64(e.second.seconds);
        w.u64(e.second.transactions);
        w.u64(e.second.requestBytes);
        w.f64(e.second.bandwidth);
        w.f64(e.second.xactThroughput);
    }
    return writeEntryFile(dir_ + "/" + fileStem(spec.name, key) +
                              ".bench",
                          kFormatVersion, key, w.bytes(), &counters_);
}

std::string
CalibrationStore::leasePath(const arch::GpuSpec &spec) const
{
    return dir_ + "/" + fileStem(spec.name, spec.fingerprint()) +
           ".lease";
}

Lease
CalibrationStore::tryAcquireLease(const arch::GpuSpec &spec) const
{
    return store::tryAcquireLease(leasePath(spec), leaseStaleAfterMs_,
                                  &counters_);
}

bool
CalibrationStore::leaseHeld(const arch::GpuSpec &spec) const
{
    return leaseFresh(leasePath(spec), leaseStaleAfterMs_);
}

std::vector<CalibrationStore::BenchEntry>
CalibrationStore::loadBenchResults(const arch::GpuSpec &spec) const
{
    const std::string key = "bench|" + spec.fingerprint();
    std::string payload;
    if (!readStoreEntry(dir_, fileStem(spec.name, key) + ".bench",
                        kFormatVersion, key, &payload)) {
        return {};
    }
    ByteReader r(payload);
    std::vector<BenchEntry> entries;
    const uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        BenchEntry e;
        const int blocks = r.i32();
        const int threads = r.i32();
        const int requests = r.i32();
        e.first = std::make_tuple(blocks, threads, requests);
        e.second.seconds = r.f64();
        e.second.transactions = r.u64();
        e.second.requestBytes = r.u64();
        e.second.bandwidth = r.f64();
        e.second.xactThroughput = r.f64();
        entries.push_back(std::move(e));
    }
    if (!r.atEnd())
        return {};
    return entries;
}

} // namespace store
} // namespace gpuperf
