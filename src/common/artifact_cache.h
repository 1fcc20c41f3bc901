#pragma once

/**
 * @file
 * Layered content-addressed artifact cache.
 *
 * Compilation artifacts (auto-schedules today; any serializable
 * by-product tomorrow) are keyed by what *produced* them rather than
 * where they came from:
 *
 *   (artifact kind, content fingerprint, device fingerprint, salt)
 *
 * - `kind` names the artifact family ("schedule", "module", ...) so
 *   different payload formats never alias.
 * - `content` is the structural fingerprint of the IR the artifact was
 *   derived from (see te/fingerprint.h) — rename-invariant, so the
 *   same GEMM cached for one model hits for every other model that
 *   contains it.
 * - `device` is the behavioral device-spec fingerprint (gpu/device.h);
 *   retuning for a different device never reuses stale artifacts.
 * - `salt` carries the producing pass's options that affect the
 *   artifact (e.g. scheduler mode) as an explicit string, so adding an
 *   option to a producer is a one-line invalidation.
 *
 * Two layers: a byte-capacity in-memory LRU (always on) and an
 * optional on-disk directory of one JSON file per artifact (survives
 * process restarts; hits are promoted into memory). Payloads are
 * opaque strings — producers serialize/deserialize their own artifact
 * format, typically as JSON via JsonWriter/JsonReader with
 * `setDoublePrecision(17)` so doubles round-trip exactly.
 *
 * ## Thread safety
 *
 * `get`/`put`/`stats` are safe to call concurrently: the memory layer
 * is sharded — each key hashes to one of `shards` independent LRU
 * sub-caches with its own mutex and `capacity / shards` byte budget —
 * so parallel schedule searches contend only when they touch the same
 * shard. Counters are atomics. With more than one shard the byte
 * bound and LRU order therefore hold *per shard* (the global bound
 * still holds exactly; eviction picks the coldest entry of the
 * inserting shard, not of the whole cache). Tests that pin exact
 * global LRU order construct the cache with `shards = 1`.
 * `setDiskDir` is setup-time configuration and must not race with
 * get/put.
 *
 * ## Crash safety & concurrent writers (disk layer)
 *
 * Disk writes go through a temp file in the cache directory followed
 * by an atomic `rename(2)` onto the final name. A reader therefore
 * never observes a partially-written artifact (a crash mid-write
 * leaves only a stale `*.tmp.*` file, never a corrupt entry), and any
 * number of processes or threads may write the same key concurrently:
 * each writes its own temp file and the last rename wins. Because keys
 * are content addresses, concurrent writers of one key carry identical
 * payloads, so "last writer wins" is indistinguishable from "first
 * writer wins" — and `loadFromDisk` verifies the full embedded key on
 * every read regardless, so even a hash-colliding foreign file reads
 * as a miss, never as a wrong artifact.
 */

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"

namespace souffle {

/** Full content address of one cached artifact. */
struct ArtifactKey
{
    /** Artifact family, e.g. "schedule". */
    std::string kind;
    /** Structural fingerprint of the producing IR. */
    Fingerprint content;
    /** Behavioral device fingerprint. */
    Fingerprint device;
    /** Producer options that affect the artifact. */
    std::string salt;

    /** Canonical string form, used as the index key and in logs. */
    std::string toString() const;

    bool
    operator==(const ArtifactKey &other) const
    {
        return kind == other.kind && content == other.content
               && device == other.device && salt == other.salt;
    }
};

/** Monotonic counters; see ArtifactCache::stats(). */
struct ArtifactCacheStats
{
    /** get() served from the in-memory layer. */
    int64_t hits = 0;
    /** get() found in neither layer. */
    int64_t misses = 0;
    /** get() served from disk (also counted in hits). */
    int64_t diskHits = 0;
    int64_t inserts = 0;
    /** Entries dropped to respect the memory byte capacity. */
    int64_t evictions = 0;
    int64_t diskWrites = 0;
    /** Payload bytes currently held in memory. */
    int64_t bytesInMemory = 0;
};

/**
 * The cache. get()/put() never throw on I/O problems: an unreadable
 * or corrupt disk entry is treated as a miss (with a warning), an
 * unwritable directory degrades to memory-only. Artifacts larger than
 * a shard's capacity are still persisted to disk when enabled.
 */
class ArtifactCache
{
  public:
    /** Memory-shard count balancing lock contention vs LRU quality. */
    static constexpr int kDefaultShards = 8;

    /**
     * @p memory_capacity_bytes bounds the in-memory payload bytes
     * (split evenly across @p shards independent LRU sub-caches).
     */
    explicit ArtifactCache(int64_t memory_capacity_bytes = 64 << 20,
                           int shards = kDefaultShards);

    /**
     * Attach an on-disk layer rooted at @p dir (created if absent).
     * Pass an empty string to detach. Setup-time only: must not race
     * with concurrent get/put.
     */
    void setDiskDir(const std::string &dir);
    const std::string &diskDir() const { return diskRoot; }

    /** Look up @p key in memory, then (if attached) on disk. */
    std::optional<std::string> get(const ArtifactKey &key);

    /** Insert/overwrite @p key; persists to disk when attached. */
    void put(const ArtifactKey &key, const std::string &payload);

    /** Consistent snapshot of the monotonic counters. */
    ArtifactCacheStats stats() const;

    int64_t size() const;
    int64_t capacityBytes() const { return capacity; }
    int numShards() const { return static_cast<int>(shards.size()); }

  private:
    struct Entry
    {
        std::string indexKey;
        std::string payload;
    };

    /** One independent LRU sub-cache under its own lock. */
    struct Shard
    {
        mutable std::mutex mutex;
        /** MRU-first entry list; `index` maps key string → node. */
        std::list<Entry> lru;
        std::unordered_map<std::string, std::list<Entry>::iterator>
            index;
        int64_t bytes = 0;
    };

    Shard &shardFor(const std::string &index_key);

    /** Path of @p key's artifact file under the disk root. */
    std::string diskPathFor(const ArtifactKey &key) const;
    /** Insert into a shard's LRU, evicting from its cold end as
     *  needed. Caller must hold the shard's mutex. */
    void insertMemoryLocked(Shard &shard, const std::string &index_key,
                            const std::string &payload);
    std::optional<std::string> loadFromDisk(const ArtifactKey &key);
    void storeToDisk(const ArtifactKey &key, const std::string &payload);

    int64_t capacity;
    int64_t shardCapacity;
    std::string diskRoot;
    std::vector<std::unique_ptr<Shard>> shards;

    std::atomic<int64_t> hitCount{0};
    std::atomic<int64_t> missCount{0};
    std::atomic<int64_t> diskHitCount{0};
    std::atomic<int64_t> insertCount{0};
    std::atomic<int64_t> evictionCount{0};
    std::atomic<int64_t> diskWriteCount{0};
    std::atomic<int64_t> bytesInMemory{0};
    /** Uniquifier for concurrent temp files from one process. */
    std::atomic<uint64_t> tempSerial{0};
};

} // namespace souffle
