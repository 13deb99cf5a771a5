#include "store/codecs.h"

#include "common/fnv.h"

namespace gpuperf {
namespace store {

void
writeProfile(ByteWriter &w, const funcsim::KernelProfile &profile)
{
    schema::write(w, profile);
}

bool
readProfile(ByteReader &r, funcsim::KernelProfile *profile)
{
    return schema::read(r, profile);
}

void
writeTiming(ByteWriter &w, const timing::TimingResult &t)
{
    schema::write(w, t);
}

bool
readTiming(ByteReader &r, timing::TimingResult *t)
{
    return schema::read(r, t);
}

void
writeTables(ByteWriter &w, const model::CalibrationTables &tables)
{
    schema::write(w, tables);
}

bool
readTables(ByteReader &r, model::CalibrationTables *tables)
{
    return schema::read(r, tables);
}

uint64_t
tablesDigest(const model::CalibrationTables &tables)
{
    ByteWriter w;
    writeTables(w, tables);
    return fnv1a64(w.bytes());
}

} // namespace store
} // namespace gpuperf
