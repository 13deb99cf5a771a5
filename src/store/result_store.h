/**
 * @file
 * Persistent on-disk store of finished batch-analysis results, keyed
 * by the full content identity of one cell: kernel-case name, profile
 * key (kernel hash x launch x options x funcsim fingerprint), target
 * spec fingerprint, and sweep-grid fingerprint. A warm store lets a
 * repeated batch skip the whole cell — timing replay, extraction,
 * prediction and sweep — and still return bit-identical results,
 * because every number round-trips through the binary codec exactly.
 *
 * Only successful (ok) results are stored; failures are recomputed so
 * transient errors never stick.
 */

#ifndef GPUPERF_STORE_RESULT_STORE_H
#define GPUPERF_STORE_RESULT_STORE_H

#include <cstdint>
#include <memory>
#include <string>

#include "driver/batch_runner.h"
#include "store/codecs.h"
#include "store/fields.h"
#include "store/serializer.h"
#include "store/stats.h"

namespace gpuperf {
namespace store {

/**
 * The payload half of a finished batch cell — names, analysis and
 * ranked what-ifs. ok/error are NOT encoded: the result store only
 * persists successes (its load() re-stamps ok), while the api
 * response codec adds them (see fields(driver::BatchResult) below).
 * Declared here rather than store/codecs.h so the generic codec
 * header stays below the driver layer.
 */
void writeBatchResult(ByteWriter &w, const driver::BatchResult &r);
bool readBatchResult(ByteReader &r, driver::BatchResult *result);

/** Thread-safe; load/save may be called from any worker. */
class ResultStore
{
  public:
    /**
     * Bump on ANY change that alters what a cached entry would
     * contain — the payload encoding OR the pipeline behaviour that
     * computed it (timing simulator, extractor, model, sweep
     * evaluation); see ProfileStore::kFormatVersion.
     */
    static constexpr uint32_t kFormatVersion = 1;

    /** @param dir store directory, created if absent. */
    explicit ResultStore(std::string dir);

    /** The stored result for @p key, or nullptr on any miss. */
    std::unique_ptr<driver::BatchResult>
    load(const std::string &key) const;

    /**
     * True iff a valid entry (version, key echo and checksum) for
     * @p key is stored. Uncounted: a writer's probe, not a lookup.
     */
    bool exists(const std::string &key) const;

    /** Persist @p result (callers only pass ok results). */
    bool save(const std::string &key,
              const driver::BatchResult &result) const;

    uint64_t hits() const { return counters_.hits(); }
    uint64_t misses() const { return counters_.misses(); }

    /** Full cache-health snapshot (hits, misses, bytes, steals...). */
    StoreStats stats() const { return counters_.snapshot(); }

    const std::string &dir() const { return dir_; }

  private:
    std::string path(const std::string &key) const;

    std::string dir_;
    mutable StoreCounters counters_;
};

} // namespace store

namespace schema {

// --- Field lists of a batch cell (see store/fields.h) ----------------

template <>
struct EnumTraits<driver::SweepPoint::Kind>
{
    static constexpr driver::SweepPoint::Kind kLast =
        driver::SweepPoint::Kind::kCoalescingFraction;
    static constexpr const char *kWhat = "what-if kind";
    static constexpr const char *kNames[] = {
        "no-bank-conflicts", "warps-per-sm", "coalescing-fraction"};
};

template <class V>
void
fields(V &v, driver::SweepPoint &x)
{
    v("kind", x.kind);
    v("value", x.value);
}

template <class V>
void
fields(V &v, model::WhatIfResult &x)
{
    v("before", x.before);
    v("after", x.after);
}

template <class V>
void
fields(V &v, driver::RankedWhatIf &x)
{
    v.splice(x.point);
    v.splice(x.result);
}

/**
 * The cell wrapper: ok/error lead a cell in the binary response
 * (visitors built with cellStatus), follow kernel/spec in JSON, and
 * are absent from result-store entries.
 */
template <class V>
void
fields(V &v, driver::BatchResult &x)
{
    v.status(StatusSlot::kLeading, x.ok, x.error);
    v("kernel", x.kernelName);
    v("spec", x.specName);
    v.status(StatusSlot::kAfterNames, x.ok, x.error);
    v("analysis", x.analysis);
    v("whatifs", x.whatifs);
}

} // namespace schema
} // namespace gpuperf

#endif // GPUPERF_STORE_RESULT_STORE_H
