/**
 * @file
 * ResultCache: a thread-safe in-memory LRU of serialized ScheduleResult
 * JSON keyed by request fingerprint, with optional write-through
 * persistence (one JSON file per fingerprint under persist_dir).
 *
 * The cache stores the exact result *text* — the same bytes a cold run
 * serializes — so a hit reproduces the cold result bit-for-bit without
 * trusting any re-serialization step. Persistence is write-through:
 * every Put also lands on disk, so entries evicted from memory (and
 * entries from earlier processes) come back as disk hits. Disk usage is
 * unbounded; prune the directory externally if that matters.
 *
 * Crash/concurrency safety: entries are written to a process-unique
 * temp file and published with an atomic rename, so readers — however
 * many processes share the directory, e.g. `somac sweep --shard`
 * pointed at one --cache-dir — only ever observe a complete file or no
 * file. Each entry's header additionally records the payload length;
 * a file torn by any other means (partial copy, truncation, a
 * pre-atomic-rename writer) fails the length check and loads as a
 * plain miss, never as garbage bytes.
 */
#ifndef SOMA_SERVICE_RESULT_CACHE_H
#define SOMA_SERVICE_RESULT_CACHE_H

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace soma {

/**
 * Schema/build-behaviour version stamped into every persisted cache
 * entry. Request fingerprints assume the binary's search behaviour is
 * fixed, so any build that changes what a request computes — search
 * budgets, SA operators, evaluator semantics, result serialization —
 * MUST bump this: on-disk entries written by other versions then load
 * as misses (and are overwritten on the next Put) instead of replaying
 * stale results.
 *
 * History: 1 = the first persisted format (PR 3, unversioned header-
 * less files — every versioned build loads them as misses);
 * 2 = incremental LFA pipeline + raised default/full search budgets;
 * 3 = length-stamped header (`somacache <version> <payload-bytes>`)
 * for torn-file detection, written via temp-file + atomic rename;
 * 4 = tile costs computed from each tile's exact input bytes, which
 * changes core energies and, through the latency x energy objective,
 * some schemes.
 */
inline constexpr std::uint64_t kResultCacheSchemaVersion = 4;

class ResultCache {
  public:
    struct Options {
        /** Max in-memory entries; at least 1 is enforced. */
        std::size_t capacity = 256;
        /** When non-empty: write-through persistence directory (created
         *  on first use; one `<fingerprint-hex>.json` per entry). */
        std::string persist_dir;
        /** Version stamped into persisted entries; entries carrying any
         *  other version (or none) are ignored on load. */
        std::uint64_t version = kResultCacheSchemaVersion;
    };

    /** Counters since construction (disk_hits are also counted as
     *  hits; misses count lookups that found nothing anywhere). */
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t insertions = 0;
        std::uint64_t disk_hits = 0;
        std::uint64_t disk_writes = 0;
        /** On-disk entries skipped for carrying another version. */
        std::uint64_t version_mismatches = 0;
    };

    ResultCache() : ResultCache(Options{}) {}
    explicit ResultCache(Options options);

    /** Looks up @p fingerprint, falling back to the persistence dir on
     *  a memory miss (a disk hit repopulates memory). True on hit with
     *  the stored text in @p result_json. */
    bool Get(std::uint64_t fingerprint, std::string *result_json)
        SOMA_EXCLUDES(mutex_);

    /** Inserts (or refreshes) an entry, evicting the LRU tail beyond
     *  capacity, and writes it through to the persistence dir. */
    void Put(std::uint64_t fingerprint, const std::string &result_json)
        SOMA_EXCLUDES(mutex_);

    std::size_t size() const SOMA_EXCLUDES(mutex_);
    Stats stats() const SOMA_EXCLUDES(mutex_);

    /** The file an entry persists to (empty when persistence is off). */
    std::string PathFor(std::uint64_t fingerprint) const
        SOMA_EXCLUDES(mutex_);

  private:
    struct Entry {
        std::uint64_t fingerprint;
        std::string text;
    };

    std::string PathForLocked(std::uint64_t fingerprint) const
        SOMA_REQUIRES(mutex_);
    bool LoadFromDisk(std::uint64_t fingerprint, std::string *text)
        SOMA_REQUIRES(mutex_);
    void InsertLocked(std::uint64_t fingerprint, const std::string &text)
        SOMA_REQUIRES(mutex_);

    /** Lock order: leaf — never takes another lock while held (the
     *  service may hold its own mutex when calling into the cache). */
    mutable Mutex mutex_;
    /** Mutated in Put: persist_dir is cleared when the directory cannot
     *  be created (persistence turns itself off). */
    Options options_ SOMA_GUARDED_BY(mutex_);
    std::list<Entry> lru_ SOMA_GUARDED_BY(mutex_);  ///< front = MRU
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
        SOMA_GUARDED_BY(mutex_);
    Stats stats_ SOMA_GUARDED_BY(mutex_);
    bool dir_ready_ SOMA_GUARDED_BY(mutex_) =
        false;  ///< persist_dir has been created
};

}  // namespace soma

#endif  // SOMA_SERVICE_RESULT_CACHE_H
