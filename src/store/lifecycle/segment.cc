#include "store/lifecycle/segment.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>

#include "common/fnv.h"
#include "common/logging.h"
#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

const char kSegmentSuffix[] = ".seg";

namespace {

/** "GPUPERFG" as little-endian bytes — closes a segment footer. */
constexpr uint64_t kSegmentMagic = 0x47465245'50555047ull;
constexpr size_t kFooterBytes = 32;

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

int64_t
wallClockMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** Where a name resolves inside a directory's segment set. */
struct SliceLoc
{
    std::string segPath;
    uint64_t offset = 0;
    uint64_t length = 0;
};

/**
 * One directory's loaded segment indexes. `segments` remembers which
 * files the map was built from so a cheap listing comparison detects
 * publishes and unlinks.
 */
struct DirCatalog
{
    std::set<std::string> segments;
    std::map<std::string, SliceLoc> byName;
};

/**
 * Process-wide segment catalog: every store instance in this process
 * shares one cache of parsed indexes, so a 10^5-entry segment is
 * parsed once, not once per store object.
 */
class SegmentCatalog
{
  public:
    static SegmentCatalog &instance()
    {
        static SegmentCatalog cat;
        return cat;
    }

    /**
     * Find @p name in @p dir's segments, refreshing the cached
     * indexes when the directory's segment listing changed. False
     * when no segment holds the name.
     */
    bool locate(const std::string &dir, const std::string &name,
                SliceLoc *loc, StoreCounters *counters)
    {
        std::lock_guard<std::mutex> lock(mu_);
        DirCatalog &cat = dirs_[dir];
        auto it = cat.byName.find(name);
        if (it == cat.byName.end()) {
            // Miss against the cached view: reconcile with the disk
            // listing (a compactor here or elsewhere may have
            // published or rewritten segments) and look again.
            if (!refreshLocked(dir, &cat, counters))
                return false;
            it = cat.byName.find(name);
            if (it == cat.byName.end())
                return false;
        }
        *loc = it->second;
        return true;
    }

    /** Force-reload @p dir on next lookup (or everything when empty). */
    void invalidate(const std::string &dir)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (dir.empty())
            dirs_.clear();
        else
            dirs_.erase(dir);
    }

  private:
    /**
     * Reload any segment files the cached view doesn't match. True
     * when the view changed (worth re-looking-up the name).
     */
    bool refreshLocked(const std::string &dir, DirCatalog *cat,
                       StoreCounters *counters)
    {
        std::vector<std::string> files = listSegmentFiles(dir);
        std::set<std::string> listing(files.begin(), files.end());
        if (listing == cat->segments)
            return false;
        cat->segments = std::move(listing);
        cat->byName.clear();
        // Sorted order == publication order: a later segment's slice
        // for a name shadows an earlier one's (the compactor folds
        // fresher loose files into newer segments).
        for (const std::string &file : files) {
            const std::string path = dir + "/" + file;
            std::vector<SegmentEntry> index;
            if (!readSegmentIndex(path, &index))
                continue; // torn segment: holds nothing (verify fixes)
            if (counters)
                counters->read(kFooterBytes); // index parse I/O (approx)
            for (SegmentEntry &e : index) {
                SliceLoc loc;
                loc.segPath = path;
                loc.offset = e.offset;
                loc.length = e.length;
                cat->byName[e.name] = loc;
            }
        }
        return true;
    }

    std::mutex mu_;
    std::map<std::string, DirCatalog> dirs_;
};

/**
 * Resolve @p name via the catalog and read+validate its blob. One
 * refresh-and-retry absorbs a segment rewrite racing this read.
 */
bool
readThroughSegments(const std::string &dir, const std::string &name,
                    uint32_t version, const std::string &key,
                    std::string *payload, StoreCounters *counters)
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        SliceLoc loc;
        if (!SegmentCatalog::instance().locate(dir, name, &loc,
                                               counters))
            return false;
        std::string blob;
        if (readSegmentSlice(loc.segPath, loc.offset, loc.length,
                             &blob)) {
            if (counters)
                counters->read(blob.size());
            std::string stored_key;
            std::string stored_payload;
            if (parseEntryBlob(blob, version, &stored_key,
                               &stored_payload) &&
                stored_key == key) {
                *payload = std::move(stored_payload);
                return true;
            }
            // A valid slice with the wrong content never self-heals;
            // don't retry into the same answer.
            return false;
        }
        // The segment vanished under us (rewrite): reload and retry.
        SegmentCatalog::instance().invalidate(dir);
    }
    return false;
}

} // namespace

std::vector<std::string>
listSegmentFiles(const std::string &dir)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (hasSuffix(name, kSegmentSuffix))
            out.push_back(name);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

bool
readSegmentIndex(const std::string &seg_path,
                 std::vector<SegmentEntry> *out)
{
    std::ifstream in(seg_path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    const std::streamoff file_size = in.tellg();
    if (file_size < static_cast<std::streamoff>(kFooterBytes))
        return false;
    in.seekg(file_size - static_cast<std::streamoff>(kFooterBytes));
    std::string footer(kFooterBytes, '\0');
    in.read(&footer[0], static_cast<std::streamsize>(kFooterBytes));
    if (!in)
        return false;
    ByteReader f(footer);
    const uint64_t index_offset = f.u64();
    const uint64_t index_length = f.u64();
    const uint64_t index_hash = f.u64();
    if (f.u64() != kSegmentMagic || !f.ok())
        return false;
    const uint64_t blob_end = index_offset;
    if (index_offset + index_length + kFooterBytes !=
        static_cast<uint64_t>(file_size))
        return false;
    in.seekg(static_cast<std::streamoff>(index_offset));
    std::string index_bytes(index_length, '\0');
    in.read(&index_bytes[0],
            static_cast<std::streamsize>(index_length));
    if (!in ||
        fnv1a64(index_bytes.data(), index_bytes.size()) != index_hash)
        return false;
    ByteReader r(index_bytes);
    const uint32_t count = r.u32();
    std::vector<SegmentEntry> entries;
    for (uint32_t i = 0; i < count && r.ok(); ++i) {
        SegmentEntry e;
        e.name = r.str();
        e.offset = r.u64();
        e.length = r.u64();
        if (e.offset + e.length < e.offset ||
            e.offset + e.length > blob_end) {
            return false;
        }
        entries.push_back(std::move(e));
    }
    if (!r.atEnd())
        return false;
    *out = std::move(entries);
    return true;
}

bool
readSegmentSlice(const std::string &seg_path, uint64_t offset,
                 uint64_t length, std::string *blob)
{
    std::ifstream in(seg_path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(static_cast<std::streamoff>(offset));
    std::string data(length, '\0');
    in.read(&data[0], static_cast<std::streamsize>(length));
    if (in.gcount() != static_cast<std::streamsize>(length))
        return false;
    *blob = std::move(data);
    return true;
}

void
SegmentWriter::add(const std::string &name, const std::string &blob)
{
    for (auto &e : entries_) {
        if (e.first == name) {
            e.second = blob; // freshest version wins
            return;
        }
    }
    entries_.emplace_back(name, blob);
}

uint64_t
SegmentWriter::blobBytes() const
{
    uint64_t total = 0;
    for (const auto &e : entries_)
        total += e.second.size();
    return total;
}

std::string
SegmentWriter::publish(const std::string &dir, StoreCounters *counters)
{
    if (entries_.empty())
        return std::string();

    ByteWriter index;
    index.u32(static_cast<uint32_t>(entries_.size()));
    uint64_t offset = 0;
    for (const auto &e : entries_) {
        index.str(e.first);
        index.u64(offset);
        index.u64(e.second.size());
        offset += e.second.size();
    }
    ByteWriter footer;
    footer.u64(offset); // index offset == total blob bytes
    footer.u64(index.bytes().size());
    footer.u64(fnv1a64(index.bytes().data(), index.bytes().size()));
    footer.u64(kSegmentMagic);

    // A stamp that sorts after every live segment: wall-clock ms in
    // fixed-width hex, then pid + a per-process sequence for
    // uniqueness under concurrent compactors.
    static std::atomic<uint64_t> seg_seq{0};
    char stamp[64];
    std::snprintf(stamp, sizeof(stamp), "pack-%016llx-%ld-%llu",
                  static_cast<unsigned long long>(wallClockMs()),
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(
                      seg_seq.fetch_add(1)));
    const std::string path =
        dir + "/" + stamp + kSegmentSuffix;
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(seg_seq.fetch_add(1));
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
        warn("segment: cannot write '%s'", path.c_str());
        if (counters)
            counters->writeFailed();
        return std::string();
    }
    uint64_t written = 0;
    for (const auto &e : entries_) {
        out.write(e.second.data(),
                  static_cast<std::streamsize>(e.second.size()));
        written += e.second.size();
    }
    out.write(index.bytes().data(),
              static_cast<std::streamsize>(index.bytes().size()));
    out.write(footer.bytes().data(),
              static_cast<std::streamsize>(footer.bytes().size()));
    out.close();
    if (!out) {
        warn("segment: short write to '%s'", path.c_str());
        std::remove(tmp.c_str());
        if (counters)
            counters->writeFailed();
        return std::string();
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("segment: cannot move segment into '%s'", path.c_str());
        std::remove(tmp.c_str());
        if (counters)
            counters->writeFailed();
        return std::string();
    }
    if (counters)
        counters->wrote(written + index.bytes().size() +
                        footer.bytes().size());
    return path;
}

bool
readStoreEntry(const std::string &dir, const std::string &name,
               uint32_t version, const std::string &key,
               std::string *payload, StoreCounters *counters)
{
    if (readEntryFile(dir + "/" + name, version, key, payload,
                      counters)) {
        recordAccess(dir, name);
        return true;
    }
    if (readThroughSegments(dir, name, version, key, payload,
                            counters)) {
        recordAccess(dir, name);
        return true;
    }
    return false;
}

bool
storeEntryExists(const std::string &dir, const std::string &name,
                 uint32_t version, const std::string &key)
{
    if (readEntryHeader(dir + "/" + name, version, key)) {
        recordAccess(dir, name);
        return true;
    }
    // Segment slices have no cheap header-only path (the slice is in
    // one contiguous read anyway); validate the whole blob.
    std::string payload;
    if (readThroughSegments(dir, name, version, key, &payload,
                            nullptr)) {
        recordAccess(dir, name);
        return true;
    }
    return false;
}

void
invalidateSegmentCatalog(const std::string &dir)
{
    SegmentCatalog::instance().invalidate(dir);
}

bool
rewriteSegmentsDropping(const std::string &dir,
                        const std::vector<std::string> &drop,
                        uint64_t *dropped_bytes,
                        StoreCounters *counters)
{
    const std::set<std::string> victims(drop.begin(), drop.end());
    bool ok = true;
    for (const std::string &seg : listSegmentFiles(dir)) {
        const std::string seg_path = dir + "/" + seg;
        std::vector<SegmentEntry> index;
        if (!readSegmentIndex(seg_path, &index))
            continue; // torn segment is the Verifier's problem
        bool touched = false;
        for (const SegmentEntry &e : index) {
            if (victims.count(e.name)) {
                touched = true;
                break;
            }
        }
        if (!touched)
            continue;
        SegmentWriter writer;
        bool readable = true;
        for (const SegmentEntry &e : index) {
            if (victims.count(e.name)) {
                if (dropped_bytes)
                    *dropped_bytes += e.length;
                continue;
            }
            std::string blob;
            if (!readSegmentSlice(seg_path, e.offset, e.length,
                                  &blob)) {
                readable = false;
                break;
            }
            writer.add(e.name, blob);
        }
        if (!readable) {
            ok = false;
            continue; // keep the original rather than lose slices
        }
        if (writer.count() > 0 &&
            writer.publish(dir, counters).empty()) {
            ok = false;
            continue;
        }
        ::unlink(seg_path.c_str());
    }
    invalidateSegmentCatalog(dir);
    return ok;
}

} // namespace store
} // namespace gpuperf
