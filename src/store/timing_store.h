/**
 * @file
 * Persistent on-disk memo of timing-simulator replays, keyed by
 * (ProfileKey, arch::TimingFingerprint) — the exact inputs a replay
 * depends on: the profile key determines the trace bit-for-bit, the
 * timing fingerprint the machine behaviour replaying it. A warm store
 * lets a batch cell skip the timing simulation entirely and still
 * produce bit-identical results (the codec round-trips every double
 * exactly).
 *
 * This is the timing-side complement of the ProfileStore: the profile
 * store deduplicates the paper's expensive Barra runs across spec
 * variants, the timing store deduplicates the "hardware measurement"
 * across sweep grids, calibrations and case renames — all of which
 * change the result-store key but not the replay.
 */

#ifndef GPUPERF_STORE_TIMING_STORE_H
#define GPUPERF_STORE_TIMING_STORE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "arch/gpu_spec.h"
#include "funcsim/profile.h"
#include "store/lease.h"
#include "store/stats.h"
#include "timing/simulator.h"

namespace gpuperf {
namespace store {

/** Thread-safe; load/save may be called from any worker. */
class TimingStore
{
  public:
    /**
     * Bump on ANY change that alters what a cached entry would
     * contain — the payload encoding OR the replay behaviour that
     * computed it (either timing engine; they are bit-identical by
     * contract, so one version covers both).
     */
    static constexpr uint32_t kFormatVersion = 1;

    /** @param dir store directory, created if absent. */
    explicit TimingStore(std::string dir);

    /**
     * The full content key of a replay — one definition shared by
     * this store's entries and BatchRunner's in-memory timing memo,
     * so the two can never drift apart.
     */
    static std::string keyFor(const funcsim::ProfileKey &key,
                              const arch::TimingFingerprint &fp);

    /** The stored replay for (@p key, @p fp), or nullptr on a miss. */
    std::shared_ptr<const timing::TimingResult>
    load(const funcsim::ProfileKey &key,
         const arch::TimingFingerprint &fp) const;

    /**
     * Key-only lookup: true iff a valid entry exists (header
     * validated, payload untouched). Counts nothing (no hit, miss or
     * bytes read) — the lease dance probes with this so a cold replay
     * still registers exactly one miss (see ProfileStore::readKey).
     */
    bool exists(const funcsim::ProfileKey &key,
                const arch::TimingFingerprint &fp) const;

    /** Persist @p result under (@p key, @p fp). */
    bool save(const funcsim::ProfileKey &key,
              const arch::TimingFingerprint &fp,
              const timing::TimingResult &result) const;

    const std::string &dir() const { return dir_; }

    /** Successful loads since construction. */
    uint64_t hits() const { return counters_.hits(); }
    /** Failed loads (absent, stale or corrupt entry). */
    uint64_t misses() const { return counters_.misses(); }

    /** Full cache-health snapshot (hits, misses, bytes, steals...). */
    StoreStats stats() const { return counters_.snapshot(); }

    // --- Cross-process in-flight lease --------------------------------
    //
    // Same protocol as the calibration/profile leases (store/lease.h):
    // before replaying (@p key, @p fp), take its lease; losers poll
    // load() for the published entry instead of duplicating the
    // replay. Advisory, crash-safe by staleness.

    /** Try to take the in-flight lease for the (@p key, @p fp) replay. */
    Lease tryAcquireLease(const funcsim::ProfileKey &key,
                          const arch::TimingFingerprint &fp) const;

    /** True while some process holds a fresh lease on the replay. */
    bool leaseHeld(const funcsim::ProfileKey &key,
                   const arch::TimingFingerprint &fp) const;

    /** Lease staleness threshold (see ProfileStore::setLeaseStaleAfter). */
    void setLeaseStaleAfter(std::chrono::milliseconds age)
    {
        leaseStaleAfterMs_ = age.count();
    }

  private:
    std::string leasePath(const std::string &key_str) const;

    std::string dir_;
    int64_t leaseStaleAfterMs_ = kLeaseStaleAfterMsDefault;
    mutable StoreCounters counters_;
};

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_TIMING_STORE_H
