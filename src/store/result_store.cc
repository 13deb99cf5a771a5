#include "store/result_store.h"

#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

void
writeBatchResult(ByteWriter &w, const driver::BatchResult &r)
{
    schema::write(w, r);
}

bool
readBatchResult(ByteReader &r, driver::BatchResult *result)
{
    return schema::read(r, result);
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::string
ResultStore::path(const std::string &key) const
{
    return dir_ + "/" + fileStem("result", key) + ".result";
}

std::unique_ptr<driver::BatchResult>
ResultStore::load(const std::string &key) const
{
    std::string payload;
    if (!readStoreEntry(dir_, fileStem("result", key) + ".result",
                        kFormatVersion, key, &payload, &counters_)) {
        counters_.miss();
        return nullptr;
    }
    auto result = std::make_unique<driver::BatchResult>();
    ByteReader r(payload);
    if (!readBatchResult(r, result.get()) || !r.atEnd()) {
        counters_.miss();
        return nullptr;
    }
    // Only ok results are ever persisted; re-stamp that on the way
    // out (the payload codec carries no ok/error framing).
    result->ok = true;
    result->error.clear();
    counters_.hit();
    return result;
}

bool
ResultStore::exists(const std::string &key) const
{
    std::string payload;
    return readStoreEntry(dir_, fileStem("result", key) + ".result",
                          kFormatVersion, key, &payload);
}

bool
ResultStore::save(const std::string &key,
                  const driver::BatchResult &result) const
{
    ByteWriter w;
    writeBatchResult(w, result);
    return writeEntryFile(path(key), kFormatVersion, key, w.bytes(),
                          &counters_);
}

} // namespace store
} // namespace gpuperf
