#include "service/result_cache.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/hash.h"
#include "common/logging.h"

namespace soma {

namespace {

ResultCache::Options
SanitizeOptions(ResultCache::Options options)
{
    if (options.capacity < 1) options.capacity = 1;
    return options;
}

}  // namespace

ResultCache::ResultCache(Options options)
    : options_(SanitizeOptions(std::move(options)))
{
}

std::string
ResultCache::PathFor(std::uint64_t fingerprint) const
{
    MutexLock lock(mutex_);
    return PathForLocked(fingerprint);
}

std::string
ResultCache::PathForLocked(std::uint64_t fingerprint) const
{
    if (options_.persist_dir.empty()) return std::string();
    return options_.persist_dir + "/" + HexU64(fingerprint) + ".json";
}

namespace {

/** Version + payload-length header prepended to persisted entries.
 *  The payload after the newline is the exact result text a cold run
 *  serialized, so the cached == recomputed byte-for-byte contract is
 *  untouched; the recorded length lets the loader reject torn files. */
std::string
VersionHeader(std::uint64_t version, std::size_t payload_bytes)
{
    return "somacache " + std::to_string(version) + " " +
           std::to_string(payload_bytes) + "\n";
}

/** Parse "somacache <version> <bytes>\n" at the head of @p raw. On
 *  success sets @p version / @p payload_offset / @p payload_bytes.
 *  @p versioned_header reports that a *complete* header line naming a
 *  version was present — either the current format or the legacy
 *  length-less "somacache <version>\n" of PR 4 builds (legacy parses
 *  as "success" with payload_bytes UINT64_MAX so the caller's length
 *  check rejects it as version-classifiable). An incomplete or
 *  malformed header — e.g. a file torn before the newline — leaves it
 *  false: that is corruption, not version skew. */
bool
ParseHeader(const std::string &raw, std::uint64_t *version,
            std::size_t *payload_offset, std::uint64_t *payload_bytes,
            bool *versioned_header)
{
    static constexpr char kMagic[] = "somacache ";
    static constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
    *versioned_header = false;
    if (raw.compare(0, kMagicLen, kMagic) != 0) return false;
    const std::size_t eol = raw.find('\n', kMagicLen);
    if (eol == std::string::npos) return false;
    const std::string line = raw.substr(kMagicLen, eol - kMagicLen);
    const std::size_t space = line.find(' ');
    errno = 0;
    char *end = nullptr;
    const std::string ver =
        space == std::string::npos ? line : line.substr(0, space);
    *version = std::strtoull(ver.c_str(), &end, 10);
    if (errno != 0 || end != ver.c_str() + ver.size() || ver.empty())
        return false;
    if (space == std::string::npos) {
        // Complete legacy (PR 4) header: versioned, but length-less.
        *versioned_header = true;
        *payload_offset = eol + 1;
        *payload_bytes = UINT64_MAX;
        return false;
    }
    const std::string len = line.substr(space + 1);
    *payload_bytes = std::strtoull(len.c_str(), &end, 10);
    if (errno != 0 || end != len.c_str() + len.size() || len.empty())
        return false;
    *versioned_header = true;
    *payload_offset = eol + 1;
    return true;
}

}  // namespace

bool
ResultCache::LoadFromDisk(std::uint64_t fingerprint, std::string *text)
{
    if (options_.persist_dir.empty()) return false;
    std::ifstream in(PathForLocked(fingerprint), std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!in.good() && !in.eof()) return false;
    std::string raw = ss.str();
    // Entries from another schema/behaviour version — including the
    // header-less files of pre-versioning builds and the length-less
    // PR 4 headers — are stale: a search under this binary could
    // produce different bytes, so they load as misses and get
    // overwritten by the next Put. Only files carrying a *complete*
    // version-naming header count as version_mismatches; anything else
    // — foreign files, or a file torn mid-header — is a plain miss
    // (the counter measures version skew, not corruption). A
    // current-version file whose payload length disagrees with its
    // header is torn — also a plain miss, never garbage bytes.
    std::uint64_t version = 0, payload_bytes = 0;
    std::size_t payload_offset = 0;
    bool versioned_header = false;
    if (!ParseHeader(raw, &version, &payload_offset, &payload_bytes,
                     &versioned_header)) {
        if (versioned_header) ++stats_.version_mismatches;
        return false;
    }
    if (version != options_.version) {
        ++stats_.version_mismatches;
        return false;
    }
    if (raw.size() - payload_offset != payload_bytes ||
        payload_bytes == 0) {
        SOMA_WARN << "result cache: torn entry " << PathForLocked(fingerprint)
                  << " (" << (raw.size() - payload_offset) << " of "
                  << payload_bytes << " payload bytes); treating as miss";
        return false;
    }
    *text = raw.substr(payload_offset);
    return true;
}

void
ResultCache::InsertLocked(std::uint64_t fingerprint,
                          const std::string &text)
{
    auto it = index_.find(fingerprint);
    if (it != index_.end()) {
        it->second->text = text;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{fingerprint, text});
    index_[fingerprint] = lru_.begin();
    ++stats_.insertions;
    while (lru_.size() > options_.capacity) {
        index_.erase(lru_.back().fingerprint);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

bool
ResultCache::Get(std::uint64_t fingerprint, std::string *result_json)
{
    MutexLock lock(mutex_);
    auto it = index_.find(fingerprint);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        *result_json = it->second->text;
        ++stats_.hits;
        return true;
    }
    std::string text;
    if (LoadFromDisk(fingerprint, &text)) {
        InsertLocked(fingerprint, text);
        *result_json = std::move(text);
        ++stats_.hits;
        ++stats_.disk_hits;
        return true;
    }
    ++stats_.misses;
    return false;
}

void
ResultCache::Put(std::uint64_t fingerprint, const std::string &result_json)
{
    MutexLock lock(mutex_);
    InsertLocked(fingerprint, result_json);
    if (options_.persist_dir.empty()) return;
    if (!dir_ready_) {
        std::error_code ec;
        std::filesystem::create_directories(options_.persist_dir, ec);
        if (ec) {
            SOMA_WARN << "result cache: cannot create "
                      << options_.persist_dir << ": " << ec.message()
                      << " (persistence disabled)";
            options_.persist_dir.clear();
            return;
        }
        dir_ready_ = true;
    }
    // Publish atomically: write a writer-unique temp file in the same
    // directory, then rename over the destination. Two sweep shards —
    // or two caches in one process — racing on one fingerprint each
    // publish a complete file; readers (this process or a third one)
    // can never observe an interleaved or partial write. The suffix
    // must be unique per *writer*, not just per process: the pid
    // disambiguates across processes, the counter across cache
    // instances and calls within one.
    static std::atomic<std::uint64_t> tmp_serial{0};
    const std::string path = PathForLocked(fingerprint);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        "." + std::to_string(tmp_serial.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!(out << VersionHeader(options_.version, result_json.size())
                  << result_json)) {
            SOMA_WARN << "result cache: cannot write " << tmp;
            out.close();
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        SOMA_WARN << "result cache: cannot publish " << path << ": "
                  << ec.message();
        std::filesystem::remove(tmp, ec);
        return;
    }
    ++stats_.disk_writes;
}

std::size_t
ResultCache::size() const
{
    MutexLock lock(mutex_);
    return lru_.size();
}

ResultCache::Stats
ResultCache::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

}  // namespace soma
