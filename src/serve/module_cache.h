#pragma once

/**
 * @file
 * Per-bucket compiled-module cache for the serving simulator.
 *
 * Serving dispatches batches in bucket sizes, and each (model, batch,
 * SouffleLevel) triple needs its own compiled module: Souffle's
 * transformations are shape-specialized, so a batch-8 BERT is a
 * different program than a batch-1 BERT. The cache compiles through
 * the existing PassManager pipeline — built once per level and reused
 * across buckets (`compileWithPipeline`) — on first use, and pairs
 * every module with its device-model SimResult so the event loop
 * charges a dispatched batch by table lookup instead of re-simulating
 * per dispatch.
 *
 * Module-level lookups layer on the content-addressed ArtifactCache
 * (common/artifact_cache.h): the cache ensures every bucket compile
 * shares one schedule cache, so a batch-8 compile reuses the
 * batch-independent schedules a batch-1 compile already searched for.
 * Callers can pre-seed `options.artifactCache` (e.g. with a disk-
 * backed instance) to share across processes; otherwise the
 * constructor creates a private in-memory one.
 *
 * Thread safety: `get` may be called concurrently and deduplicates
 * compiles per bucket (single-flight): the first caller of a missing
 * bucket compiles it while later callers of the same bucket block on
 * the result instead of compiling again, so each bucket is compiled
 * exactly once no matter how many threads race on it (observable via
 * `compileCount`). Distinct buckets compile concurrently — the mutex
 * covers only map/counter bookkeeping, never a compile. A failed
 * compile propagates its exception to the owner and every waiter and
 * erases the slot, so a later `get` retries (same behavior as the
 * serial cache, which never cached failures).
 */

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/artifact_cache.h"
#include "compiler/souffle.h"
#include "gpu/sim.h"

namespace souffle::serve {

/** Compile + simulate results for one (model, batch, level) bucket. */
struct CachedModule
{
    Compiled compiled;
    /** Device-model timing of one dispatch of this bucket, simulated
     *  once at fill time (cheap per-dispatch re-use). */
    SimResult sim;
};

/** Lazy compile cache keyed by (model, batch, SouffleLevel). */
class ModuleCache
{
  public:
    /**
     * @p tiny selects the test-sized zoo variants. @p options fixes
     * the level/device every cached compile uses; the pipeline is
     * built once here. A non-empty @p artifact_dir names a
     * compiled-artifact store (compiler/artifact_io.h): a bucket
     * whose artifact exists there is *loaded* instead of compiled —
     * no scheduling, no codegen, zero candidate evaluations — and
     * only falls back to the compile pipeline on a store miss.
     */
    ModuleCache(bool tiny, SouffleOptions options,
                std::string artifact_dir = "");

    /**
     * The compiled module + timing for @p batch copies of @p model,
     * compiling on first use (single-flight under concurrency).
     * Throws UnsupportedError for batch > 1 on models without a
     * batched builder. The returned reference stays valid for the
     * cache's lifetime.
     */
    const CachedModule &get(const std::string &model, int batch);

    /**
     * Compile the cross product of @p models x @p batches up front,
     * fanning the bucket compiles out across the global ThreadPool.
     * Buckets a model does not support (batch > 1 without a batched
     * builder) are skipped, matching what a serving run could ever
     * request. Counts as misses, like lazy fills.
     */
    void warmup(const std::vector<std::string> &models,
                const std::vector<int> &batches);

    int hits() const;
    int misses() const;
    /** Total wall-clock compile time spent filling the cache (ms). */
    double compileMsTotal() const;
    int size() const;
    /** Times a compile was started for this bucket (single-flight
     *  keeps this at 1 under any concurrent burst; a failed compile
     *  plus retry shows up as 2). */
    int compileCount(const std::string &model, int batch) const;

    /** Schedule-level artifact-cache hits/misses across all compiles. */
    int64_t scheduleCacheHits() const;
    int64_t scheduleCacheMisses() const;

    /** Bucket fills served by loading a compiled artifact from the
     *  store instead of compiling (each is still a `miss`). */
    int artifactLoads() const { return artifactLoadCount.load(); }

    /** The shared artifact cache every bucket compile consults. */
    ArtifactCache &artifactCache() { return *opts.artifactCache; }

    const SouffleOptions &options() const { return opts; }
    bool tinyModels() const { return tiny; }
    /** Compiled-artifact store root (empty: always compile). */
    const std::string &artifactStore() const { return artifactDir; }

  private:
    using Key = std::pair<std::string, int>;

    /** One bucket: `module == nullptr` means a compile is in flight. */
    struct Slot
    {
        std::unique_ptr<CachedModule> module;
    };

    /** Compile + simulate one bucket (no locks held). */
    std::unique_ptr<CachedModule> build(const std::string &model,
                                        int batch);

    bool tiny;
    SouffleOptions opts;
    PassManager pipeline;
    /** Compiled-artifact store root (empty: always compile). */
    std::string artifactDir;
    std::atomic<int> artifactLoadCount{0};

    mutable std::mutex mutex;
    /** Signalled whenever a slot becomes ready or is erased. */
    std::condition_variable cv;
    /** (model, batch) -> slot; the level is fixed per cache. Node
     *  addresses are stable, so ready modules can be handed out by
     *  reference while other buckets insert. */
    std::map<Key, Slot> entries;
    /** Compile starts per bucket; survives failed-compile erases. */
    std::map<Key, int> compileStarts;
    int hitCount = 0;
    int missCount = 0;
    double compileMs = 0.0;
};

} // namespace souffle::serve
