/**
 * @file
 * Shared scaffolding for the store lifecycle subsystem (GC, verify,
 * usage telemetry): what KIND of file each name in a store directory
 * is, which subdirectories a store root owns, the one read path every
 * store uses (loose entry file + last-access touch), the last-access
 * sidecar index the GC's LRU runs on, and the disk-side usage scan
 * that complements the process-side StoreCounters.
 *
 * A store directory holds exactly these citizens:
 *   entries     *.profile *.calibration *.bench *.timing *.result
 *   leases      *.lease (advisory in-flight markers, store/lease.h)
 *   temps       *<anything>.tmp.<pid>.<seq> (in-flight atomic writes)
 *   sidecar     access.idx (last-access index, this file)
 *   janitor     janitor.lease (one GC per dir at a time)
 *   quarantine/ corrupt entries the Verifier moved aside
 *
 * Anything else is not a store citizen and is ignored. Two retired
 * names in particular may still sit in stores older builds wrote,
 * and may be deleted:
 *   pack-*      segment files; never read (their entries miss,
 *               recompute and are written loose again)
 *   *.obs       per-replay cost observations; nothing reads them
 */

#ifndef GPUPERF_STORE_LIFECYCLE_LIFECYCLE_H
#define GPUPERF_STORE_LIFECYCLE_LIFECYCLE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "store/stats.h"

namespace gpuperf {
namespace store {

extern const char kAccessIndexName[];   // "access.idx"
extern const char kQuarantineDirName[]; // "quarantine"
extern const char kJanitorLeaseName[];  // "janitor.lease"

/** True for the entry suffixes every store writes. */
bool isEntryFileName(const std::string &name);
/** True for in-flight atomic-write temp files (".tmp." infix). */
bool isTempFileName(const std::string &name);
/** True for lease markers (entry leases and the janitor lease). */
bool isLeaseFileName(const std::string &name);

/**
 * The entry's lease-marker filename ("profile-abc.profile" ->
 * "profile-abc.lease"): the convention every store follows, which is
 * what lets the GC check holder-ship without asking the stores.
 */
std::string leaseNameFor(const std::string &entry_name);

/** Immediate subdirectories of @p root (quarantine excluded). */
std::vector<std::string> listStoreSubdirs(const std::string &root);

/** Plain files directly in @p dir, unsorted. */
std::vector<std::string> listDirFiles(const std::string &dir);

/** st_size of @p path, or 0 when it cannot be stat'ed. */
uint64_t fileSizeOf(const std::string &path);
/** st_mtime of @p path in ms since epoch, or 0. */
int64_t fileMtimeMs(const std::string &path);

// --- The store read path ----------------------------------------------
//
// The two calls every store uses in place of bare readEntryFile /
// readEntryHeader: the same loose-file read, plus a recordAccess()
// touch on a hit so the GC sees the entry as recently used.

/**
 * readEntryFile(@p dir/@p name) (version, key echo and checksum
 * validated) and, on a hit, recordAccess(@p dir, @p name).
 */
bool readStoreEntry(const std::string &dir, const std::string &name,
                    uint32_t version, const std::string &key,
                    std::string *payload,
                    StoreCounters *counters = nullptr);

/**
 * readEntryHeader(@p dir/@p name) and, on a hit, recordAccess(). The
 * stores' uncounted existence probe.
 */
bool storeEntryExists(const std::string &dir, const std::string &name,
                      uint32_t version, const std::string &key);

// --- Last-access sidecar ----------------------------------------------
//
// The GC's LRU order. Touches are buffered in memory by a
// process-wide tracker (the read path pays one mutexed map insert,
// no I/O) and folded into dir/access.idx every few hundred touches
// and on demand — merge-max against whatever is on disk, so
// concurrent processes only ever advance a timestamp. An entry absent
// from the index falls back to its file mtime, so a lost flush costs
// recency precision, never correctness.

/** Buffer "this process read @p name in @p dir just now". */
void recordAccess(const std::string &dir, const std::string &name);

/** Fold every buffered touch into its directory's access.idx. */
void flushAccessIndexes();

/**
 * The merged view of @p dir's access.idx plus this process's
 * unflushed touches: name -> last-access ms. Unreadable or torn
 * sidecars read as empty (mtime fallback covers the gap).
 */
void loadAccessIndex(const std::string &dir,
                     std::map<std::string, int64_t> *out);

// --- Disk-side usage --------------------------------------------------

/** What a scan of one store subdirectory found. */
struct DirUsage
{
    uint64_t entries = 0;
    uint64_t liveBytes = 0;
    uint64_t leases = 0;
    uint64_t tempFiles = 0;
    uint64_t quarantined = 0;
};

/** The whole store root, by subdirectory. */
struct StoreUsage
{
    std::map<std::string, DirUsage> dirs;

    uint64_t entries() const;
    uint64_t liveBytes() const;
    uint64_t leases() const;
    uint64_t quarantined() const;
};

/**
 * Scan @p root (a --store directory: profiles/, calibrations/,
 * timing/, results/ beneath it). Read-only; safe to run against a
 * live store.
 */
StoreUsage scanStoreUsage(const std::string &root);

/** Deterministic JSON for the scan (per-dir objects + totals). */
std::string storeUsageJson(const StoreUsage &usage,
                           const std::string &indent = "");

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_LIFECYCLE_LIFECYCLE_H
