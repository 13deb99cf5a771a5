/**
 * @file
 * Persistent on-disk store of KernelProfiles, keyed by the full
 * ProfileKey (kernel hash x launch shape x run options x funcsim
 * fingerprint). Repeated batch runs — in the same process or across
 * restarts — load the profile and skip functional simulation entirely.
 *
 * Invalidation is by key mismatch: any change to the kernel, the
 * launch, the run options, the funcsim-relevant machine fields, or the
 * store format version makes the lookup miss and the profile is
 * recomputed. Entries are self-validating (the full key is stored in
 * the file), so filename hash collisions and stale files degrade to
 * misses, never to wrong data.
 */

#ifndef GPUPERF_STORE_PROFILE_STORE_H
#define GPUPERF_STORE_PROFILE_STORE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "funcsim/profile.h"
#include "store/lease.h"
#include "store/stats.h"

namespace gpuperf {
namespace store {

/** Thread-safe; load/save may be called from any worker. */
class ProfileStore
{
  public:
    /**
     * Bump on ANY change that alters what a cached entry would
     * contain — the payload encoding OR the behaviour that computed
     * it (functional simulator, memxact models, trace generation).
     * The key only identifies the inputs; the version identifies the
     * computation, and a stale version must never be served.
     */
    static constexpr uint32_t kFormatVersion = 1;

    /** @param dir store directory, created if absent. */
    explicit ProfileStore(std::string dir);

    /** The stored profile for @p key, or nullptr on any miss. */
    std::shared_ptr<const funcsim::KernelProfile>
    load(const funcsim::ProfileKey &key) const;

    /**
     * Key-only lookup: true iff a valid entry for @p key exists —
     * header validated (magic, format version, full key echo, length)
     * WITHOUT deserializing the profile payload. For callers that
     * need an entry's existence or validity (warmth probes, tooling)
     * a header read replaces a trace decode; batch cells go further
     * and derive their result keys without touching the store at all
     * (funcsim::makeProfileKey). Counts nothing: no hit, no miss,
     * no bytes read (it is the lease dance's under-lease re-check).
     */
    bool readKey(const funcsim::ProfileKey &key) const;

    /** Persist @p profile under its own key. */
    bool save(const funcsim::KernelProfile &profile) const;

    const std::string &dir() const { return dir_; }

    /** Successful loads since construction. */
    uint64_t hits() const { return counters_.hits(); }
    /** Failed loads (absent, stale or corrupt entry). */
    uint64_t misses() const { return counters_.misses(); }

    /** Full cache-health snapshot (hits, misses, bytes, steals...). */
    StoreStats stats() const { return counters_.snapshot(); }

    // --- Cross-process in-flight lease --------------------------------
    //
    // Same protocol as the calibration lease (store/lease.h): sharded
    // processes pointing at one store split the functional simulations
    // instead of duplicating them — before simulating @p key's
    // profile, take its lease; losers poll load() for the published
    // entry. Advisory and crash-safe by staleness; the worst case of
    // any race is one duplicated funcsim, never wrong data.

    /**
     * Try to take the in-flight lease for @p key's profile. Returns a
     * held lease on success; an empty (not held) one while another
     * LIVE process holds it. A stale lease is broken and re-acquired.
     */
    Lease tryAcquireLease(const funcsim::ProfileKey &key) const;

    /**
     * True while some process (possibly this one) holds a fresh lease
     * on @p key's profile.
     */
    bool leaseHeld(const funcsim::ProfileKey &key) const;

    /**
     * Age threshold beyond which a lease whose holder cannot be
     * probed is considered abandoned. The default (15 min) is far
     * above any real funcsim; tests shrink it to exercise stealing.
     */
    void setLeaseStaleAfter(std::chrono::milliseconds age)
    {
        leaseStaleAfterMs_ = age.count();
    }

  private:
    std::string path(const funcsim::ProfileKey &key,
                     const std::string &key_str) const;
    std::string leasePath(const funcsim::ProfileKey &key) const;

    std::string dir_;
    int64_t leaseStaleAfterMs_ = kLeaseStaleAfterMsDefault;
    mutable StoreCounters counters_;
};

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_PROFILE_STORE_H
