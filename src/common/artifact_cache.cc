#include "common/artifact_cache.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <functional>

#include "common/file_io.h"
#include "common/json.h"
#include "common/logging.h"

namespace souffle {

std::string
ArtifactKey::toString() const
{
    std::string result = kind;
    result += '/';
    result += content.toHex();
    result += '/';
    result += device.toHex();
    result += '/';
    result += salt;
    return result;
}

ArtifactCache::ArtifactCache(int64_t memory_capacity_bytes, int num_shards)
    : capacity(memory_capacity_bytes)
{
    SOUFFLE_REQUIRE(capacity >= 0,
                    "artifact cache capacity must be non-negative, got "
                        << capacity);
    SOUFFLE_REQUIRE(num_shards >= 1,
                    "artifact cache needs >= 1 shard, got "
                        << num_shards);
    shards.reserve(static_cast<size_t>(num_shards));
    for (int i = 0; i < num_shards; ++i)
        shards.push_back(std::make_unique<Shard>());
    shardCapacity = capacity / num_shards;
}

ArtifactCache::Shard &
ArtifactCache::shardFor(const std::string &index_key)
{
    if (shards.size() == 1)
        return *shards[0];
    // std::hash is fine here: the shard choice affects only lock
    // contention and eviction locality, never lookup results.
    const size_t slot =
        std::hash<std::string>{}(index_key) % shards.size();
    return *shards[slot];
}

void
ArtifactCache::setDiskDir(const std::string &dir)
{
    diskRoot = dir;
    if (diskRoot.empty())
        return;
    // mkdir -p for a single level; nested parents must already exist
    // (callers pass flat cache dirs). EEXIST is the common warm case.
    if (::mkdir(diskRoot.c_str(), 0755) != 0 && errno != EEXIST) {
        SOUFFLE_WARN("cannot create cache dir '"
                     << diskRoot << "'; disk layer disabled");
        diskRoot.clear();
    }
}

std::string
ArtifactCache::diskPathFor(const ArtifactKey &key) const
{
    // File name = fingerprint of the full key string, so arbitrary
    // kind/salt strings never need filesystem escaping.
    FingerprintHasher hasher;
    hasher.absorb(key.toString());
    return diskRoot + "/" + hasher.finish().toHex() + ".json";
}

std::optional<std::string>
ArtifactCache::get(const ArtifactKey &key)
{
    const std::string index_key = key.toString();
    Shard &shard = shardFor(index_key);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto found = shard.index.find(index_key);
        if (found != shard.index.end()) {
            // Refresh recency: splice the node to the MRU end.
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             found->second);
            hitCount.fetch_add(1, std::memory_order_relaxed);
            return found->second->payload;
        }
    }
    if (!diskRoot.empty()) {
        // Disk I/O runs outside the shard lock; two threads missing
        // the same key may both read the file and both promote it —
        // benign, the payloads are identical by construction.
        std::optional<std::string> payload = loadFromDisk(key);
        if (payload) {
            hitCount.fetch_add(1, std::memory_order_relaxed);
            diskHitCount.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(shard.mutex);
            insertMemoryLocked(shard, index_key, *payload);
            return payload;
        }
    }
    missCount.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
}

void
ArtifactCache::put(const ArtifactKey &key, const std::string &payload)
{
    const std::string index_key = key.toString();
    insertCount.fetch_add(1, std::memory_order_relaxed);
    {
        Shard &shard = shardFor(index_key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        insertMemoryLocked(shard, index_key, payload);
    }
    if (!diskRoot.empty())
        storeToDisk(key, payload);
}

void
ArtifactCache::insertMemoryLocked(Shard &shard,
                                  const std::string &index_key,
                                  const std::string &payload)
{
    auto found = shard.index.find(index_key);
    if (found != shard.index.end()) {
        const int64_t old =
            static_cast<int64_t>(found->second->payload.size());
        shard.bytes -= old;
        bytesInMemory.fetch_sub(old, std::memory_order_relaxed);
        shard.lru.erase(found->second);
        shard.index.erase(found);
    }
    const int64_t bytes = static_cast<int64_t>(payload.size());
    if (bytes > shardCapacity)
        return; // Oversized for the memory layer; disk still has it.
    while (shard.bytes + bytes > shardCapacity && !shard.lru.empty()) {
        const int64_t victim =
            static_cast<int64_t>(shard.lru.back().payload.size());
        shard.bytes -= victim;
        bytesInMemory.fetch_sub(victim, std::memory_order_relaxed);
        shard.index.erase(shard.lru.back().indexKey);
        shard.lru.pop_back();
        evictionCount.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.push_front(Entry{index_key, payload});
    shard.index.emplace(index_key, shard.lru.begin());
    shard.bytes += bytes;
    bytesInMemory.fetch_add(bytes, std::memory_order_relaxed);
}

ArtifactCacheStats
ArtifactCache::stats() const
{
    ArtifactCacheStats out;
    out.hits = hitCount.load(std::memory_order_relaxed);
    out.misses = missCount.load(std::memory_order_relaxed);
    out.diskHits = diskHitCount.load(std::memory_order_relaxed);
    out.inserts = insertCount.load(std::memory_order_relaxed);
    out.evictions = evictionCount.load(std::memory_order_relaxed);
    out.diskWrites = diskWriteCount.load(std::memory_order_relaxed);
    out.bytesInMemory = bytesInMemory.load(std::memory_order_relaxed);
    return out;
}

int64_t
ArtifactCache::size() const
{
    int64_t total = 0;
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += static_cast<int64_t>(shard->index.size());
    }
    return total;
}

std::optional<std::string>
ArtifactCache::loadFromDisk(const ArtifactKey &key)
{
    std::string path = diskPathFor(key);
    const std::optional<std::string> text = readFileContents(path);
    if (!text)
        return std::nullopt;
    try {
        // Verify the full key, not just the hashed file name: a hash
        // collision or a foreign file must read as a miss, never as a
        // wrong artifact. Members come in storeToDisk's order.
        JsonReader reader(*text);
        const auto member = [&reader](std::string_view name) {
            reader.key(name);
            return reader.readString();
        };
        reader.beginObject();
        if (member("kind") != key.kind
            || member("content") != key.content.toHex()
            || member("device") != key.device.toHex()
            || member("salt") != key.salt) {
            SOUFFLE_WARN("cache file '" << path
                                        << "' holds a different key; "
                                           "treating as a miss");
            return std::nullopt;
        }
        std::string payload = member("payload");
        reader.endObject();
        reader.finish();
        return payload;
    } catch (const FatalError &err) {
        SOUFFLE_WARN("corrupt cache file '" << path << "' ("
                                            << err.what()
                                            << "); treating as a miss");
        return std::nullopt;
    }
}

void
ArtifactCache::storeToDisk(const ArtifactKey &key,
                           const std::string &payload)
{
    const std::string path = diskPathFor(key);
    JsonWriter writer;
    writer.beginObject()
        .newline()
        .field("kind", key.kind)
        .newline()
        .field("content", key.content.toHex())
        .newline()
        .field("device", key.device.toHex())
        .newline()
        .field("salt", key.salt)
        .newline()
        .field("payload", payload)
        .newline()
        .endObject();
    // Temp-file + rename: the final name only ever points at a fully
    // written artifact, so concurrent readers (and readers after a
    // crash) never see a partial file. The temp name is unique per
    // (process, write), so concurrent writers of one key each write
    // their own temp file; the last rename wins with identical bytes.
    const uint64_t serial =
        tempSerial.fetch_add(1, std::memory_order_relaxed);
    const std::string temp = path + ".tmp." + std::to_string(::getpid())
                             + "." + std::to_string(serial);
    {
        std::ofstream file(temp, std::ios::trunc);
        if (!file) {
            SOUFFLE_WARN("cannot write cache file '" << temp << "'");
            return;
        }
        file << writer.str() << '\n';
        if (!file.good()) {
            SOUFFLE_WARN("short write to cache file '" << temp << "'");
            file.close();
            std::remove(temp.c_str());
            return;
        }
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        SOUFFLE_WARN("cannot publish cache file '" << path << "'");
        std::remove(temp.c_str());
        return;
    }
    diskWriteCount.fetch_add(1, std::memory_order_relaxed);
}

} // namespace souffle
