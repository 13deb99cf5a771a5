/**
 * @file
 * Indexed segment files: the many-small-files cure for 10^5+-entry
 * store directories. A segment concatenates loose entry files
 * byte-for-byte (each slice is exactly what writeEntryFile() put on
 * disk, checksum trailer included) and appends a name->slice index
 * plus a self-validating footer. The Compactor folds loose files into
 * segments under a lease; every store READS through transparently —
 * loose file first (always fresher: writes stay loose), then the
 * newest segment holding the name — so the hot paths never know the
 * layout changed and a warm run is bit-identical either way.
 *
 * Concurrency story: segments are immutable once published (atomic
 * temp+rename, like entries). A rewrite (GC eviction, verifier
 * dropping a corrupt slice, compactor merging) publishes a NEW
 * segment and unlinks the old, so a reader holding a stale index
 * simply fails to open the old file, refreshes its catalog once, and
 * retries; the worst case of every race is a cache miss, never wrong
 * data (slices re-validate magic/version/key/checksum on read).
 *
 * File layout:
 *   [entry blob 0][entry blob 1]...            (the slices)
 *   index: u32 count, then per entry
 *          str name, u64 offset, u64 length
 *   footer (32 bytes, fixed, at EOF):
 *          u64 index_offset, u64 index_length,
 *          u64 fnv1a64(index bytes), u64 segment magic
 */

#ifndef GPUPERF_STORE_LIFECYCLE_SEGMENT_H
#define GPUPERF_STORE_LIFECYCLE_SEGMENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "store/stats.h"

namespace gpuperf {
namespace store {

/** Segment file suffix (segments live beside the loose entries). */
extern const char kSegmentSuffix[]; // ".seg"

/** One named slice of a segment file. */
struct SegmentEntry
{
    std::string name; ///< the loose filename this slice replaces
    uint64_t offset = 0;
    uint64_t length = 0;
};

/**
 * Segment files in @p dir, sorted by name. Names embed a fixed-width
 * hex timestamp, so this order is also publication order — later
 * segments shadow earlier ones for a duplicated name.
 */
std::vector<std::string> listSegmentFiles(const std::string &dir);

/**
 * Parse @p seg_path's index. False on a missing, torn, or
 * wrong-magic segment (the verifier treats that as a corrupt segment;
 * readers treat it as "holds nothing").
 */
bool readSegmentIndex(const std::string &seg_path,
                      std::vector<SegmentEntry> *out);

/** Read one slice's raw blob bytes. False on I/O failure. */
bool readSegmentSlice(const std::string &seg_path, uint64_t offset,
                      uint64_t length, std::string *blob);

/**
 * Accumulates named blobs and publishes them as one segment file.
 * Duplicate names keep the LAST add (the freshest loose version).
 */
class SegmentWriter
{
  public:
    /** Queue @p blob (exact loose-file bytes) under @p name. */
    void add(const std::string &name, const std::string &blob);

    size_t count() const { return entries_.size(); }
    uint64_t blobBytes() const;

    /**
     * Atomically publish into @p dir as pack-<stamp>.seg (temp file +
     * rename; the stamp sorts after every existing segment so this
     * one shadows them). Returns the published path, or empty on
     * failure — in which case nothing was made visible and the loose
     * files stay authoritative.
     */
    std::string publish(const std::string &dir,
                        StoreCounters *counters = nullptr);

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

// --- Transparent read-through ----------------------------------------
//
// The two calls every store uses in place of bare readEntryFile /
// readEntryHeader. Loose file first; on a loose miss, a process-wide
// per-directory catalog of segment indexes answers from the newest
// slice. The catalog refreshes itself when the directory's segment
// set changes (compact/gc publish or unlink), so long-lived workers
// follow rewrites without restarts.

/**
 * readEntryFile() through the segment layer: loose @p dir/@p name
 * first, then segments. Validates version, key echo and checksum
 * exactly like the loose path.
 */
bool readStoreEntry(const std::string &dir, const std::string &name,
                    uint32_t version, const std::string &key,
                    std::string *payload,
                    StoreCounters *counters = nullptr);

/**
 * readEntryHeader() through the segment layer: true iff a valid entry
 * for @p key exists loose or in a segment. Counts nothing: it is the
 * stores' uncounted existence probe.
 */
bool storeEntryExists(const std::string &dir, const std::string &name,
                      uint32_t version, const std::string &key);

/**
 * Drop the cached catalog for @p dir (or every directory when empty).
 * The compactor/GC/verifier call this after rewriting segments in
 * their own process; other processes converge via refresh-on-miss.
 */
void invalidateSegmentCatalog(const std::string &dir = std::string());

/**
 * Rewrite every segment in @p dir that holds a name in @p drop,
 * republishing the surviving slices and unlinking the originals; a
 * segment left empty is simply unlinked. The GC's and Verifier's
 * eviction primitive — the caller MUST hold @p dir's compact lease.
 * @p dropped_bytes (optional) accumulates the evicted slice bytes.
 * False when any rewrite failed to publish (the original segment is
 * kept in that case — over-retention, never data loss).
 */
bool rewriteSegmentsDropping(const std::string &dir,
                             const std::vector<std::string> &drop,
                             uint64_t *dropped_bytes = nullptr,
                             StoreCounters *counters = nullptr);

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_LIFECYCLE_SEGMENT_H
