#include "store/timing_store.h"

#include "store/codecs.h"
#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

std::string
TimingStore::keyFor(const funcsim::ProfileKey &key,
                    const arch::TimingFingerprint &fp)
{
    return key.str() + "|timing=" + fp.key();
}

TimingStore::TimingStore(std::string dir) : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::shared_ptr<const timing::TimingResult>
TimingStore::load(const funcsim::ProfileKey &key,
                  const arch::TimingFingerprint &fp) const
{
    const std::string key_str = keyFor(key, fp);
    std::string payload;
    if (!readStoreEntry(dir_, fileStem("timing", key_str) + ".timing",
                        kFormatVersion, key_str, &payload,
                        &counters_)) {
        counters_.miss();
        return nullptr;
    }
    auto result = std::make_shared<timing::TimingResult>();
    ByteReader r(payload);
    if (!readTiming(r, result.get()) || !r.atEnd()) {
        counters_.miss();
        return nullptr;
    }
    counters_.hit();
    return result;
}

bool
TimingStore::exists(const funcsim::ProfileKey &key,
                    const arch::TimingFingerprint &fp) const
{
    const std::string key_str = keyFor(key, fp);
    return storeEntryExists(dir_,
                            fileStem("timing", key_str) + ".timing",
                            kFormatVersion, key_str);
}

std::string
TimingStore::leasePath(const std::string &key_str) const
{
    return dir_ + "/" + fileStem("timing", key_str) + ".lease";
}

Lease
TimingStore::tryAcquireLease(const funcsim::ProfileKey &key,
                             const arch::TimingFingerprint &fp) const
{
    return store::tryAcquireLease(leasePath(keyFor(key, fp)),
                                  leaseStaleAfterMs_, &counters_);
}

bool
TimingStore::leaseHeld(const funcsim::ProfileKey &key,
                       const arch::TimingFingerprint &fp) const
{
    return leaseFresh(leasePath(keyFor(key, fp)), leaseStaleAfterMs_);
}

bool
TimingStore::save(const funcsim::ProfileKey &key,
                  const arch::TimingFingerprint &fp,
                  const timing::TimingResult &result) const
{
    const std::string key_str = keyFor(key, fp);
    const std::string path =
        dir_ + "/" + fileStem("timing", key_str) + ".timing";
    ByteWriter w;
    writeTiming(w, result);
    return writeEntryFile(path, kFormatVersion, key_str, w.bytes(),
                          &counters_);
}

} // namespace store
} // namespace gpuperf
