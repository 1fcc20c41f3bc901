#pragma once

/**
 * @file
 * Per-TE schedules and the auto-scheduler (the Ansor stand-in).
 *
 * Souffle uses Ansor only to obtain, for each TE, a tiled schedule
 * with its launch dimensions and register/shared-memory occupancy
 * (paper Sec. 5.4 "Get required resource" and Sec. 6.3). This module
 * provides the same interface: a deterministic search over tile-size
 * candidates ranked by an analytic cost model on the device spec.
 */

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/analysis.h"
#include "gpu/device.h"
#include "te/program.h"

namespace souffle {

class ArtifactCache;

/** A scheduled TE: tiling decisions plus resource/launch info. */
struct Schedule
{
    int teId = -1;

    /** Tile of the two innermost output dims and the reduction dim. */
    int64_t tileM = 1;
    int64_t tileN = 1;
    int64_t tileK = 1;

    int threadsPerBlock = 256;
    int64_t numBlocks = 1;
    int64_t sharedMemBytes = 0;
    int64_t regsPerThread = 32;
    bool useTensorCore = false;
    /** Grid-stride loop: block count clamped to a resident wave. */
    bool gridStride = false;

    /** Cost-model estimate of standalone kernel time (us). */
    double estTimeUs = 0.0;
    /** Estimated global traffic of the standalone kernel (bytes). */
    double estGlobalBytes = 0.0;

    int64_t regsPerBlock() const
    {
        return regsPerThread * threadsPerBlock;
    }

    std::string toString() const;
};

/**
 * Artifact-cache payload format for a Schedule: a JSON object holding
 * every field except `teId` (schedules are content-addressed by TE
 * structure, so the binding to a concrete TE id happens at lookup).
 * Doubles are written with 17 significant digits so a deserialized
 * schedule is bit-identical to the one serialized — the invariant the
 * cached-vs-uncached byte-identity guarantee rests on.
 */
std::string serializeSchedule(const Schedule &sched);

/** Inverse of `serializeSchedule`; throws FatalError on bad input. */
Schedule deserializeSchedule(std::string_view payload);

/**
 * Whole-program schedule array for the compiled-artifact format
 * (compiler/artifact_io.h). Unlike the cache payload above this
 * *does* record `teId`: the artifact pins the binding of every
 * schedule to its TE, so a reloaded module needs no scheduling at
 * all (zero candidate evaluations).
 */
std::string serializeSchedules(const std::vector<Schedule> &schedules);

/** Inverse of `serializeSchedules`; throws FatalError on bad input. */
std::vector<Schedule> deserializeSchedules(std::string_view text);

/** Schedule-search strategy. */
enum class SchedulerMode : uint8_t
{
    /** Enumerate tile candidates, rank by the analytic cost model
     *  (the Ansor stand-in; default). */
    kSearch,
    /**
     * Roller-style construction (paper Sec. 8.5 cites Roller as the
     * faster optimizer): pick the largest hardware-aligned tiles that
     * fit shared memory directly, evaluating a single candidate.
     */
    kRoller,
};

/**
 * Deterministic tile-size auto-scheduler with an analytic cost model
 * (drop-in for Ansor from the paper's perspective). Results are
 * memoized by TE shape signature, which keeps scheduling of
 * fully-unrolled models (e.g. the 10x100-cell LSTM) fast.
 *
 * When handed an ArtifactCache the scheduler additionally consults it
 * on every intra-program memo miss, keyed by the TE's structural
 * fingerprint + the device fingerprint + @p options_salt. Because the
 * search is deterministic and the fingerprint covers every search
 * input, a cache hit returns exactly the schedule the search would
 * have produced — compilation results are byte-identical with or
 * without the cache, only `candidatesEvaluated()` changes.
 *
 * Thread safety: `schedule` may be called concurrently —
 * `scheduleAll` fans the per-TE searches out over the global
 * ThreadPool. The memo is sharded by signature hash under one mutex
 * per shard and is single-flight per signature: the first worker to
 * miss a signature consults the artifact cache and searches, and any
 * worker that asks for the same signature meanwhile waits for that
 * result and counts a memo hit. So each signature is searched (or
 * loaded) once per scheduler, and a same-compile race never shows up
 * as an artifact-cache hit. Which TE of a signature goes first still
 * decides the fingerprint its schedule is cached under, so hits
 * against a cache shared across compiles may vary with thread count.
 *
 * Hashing is hoisted off the hot path: the device fingerprint is
 * computed once per scheduler (or taken precomputed from the caller),
 * and a TE is fingerprinted only when its signature misses the memo,
 * so a warm `scheduleAll` does no redundant hashing.
 */
class AutoScheduler
{
  public:
    AutoScheduler(const TeProgram &program, const GlobalAnalysis &analysis,
                  DeviceSpec device,
                  SchedulerMode mode = SchedulerMode::kSearch,
                  ArtifactCache *cache = nullptr,
                  std::string options_salt = "",
                  Fingerprint device_fp = {});

    /** Schedule one TE (thread-safe). */
    Schedule schedule(int te_id);

    /** Schedule every TE in the program, fanning the tile searches
     *  out across the global ThreadPool. Results are index-ordered:
     *  byte-identical to the serial loop at every thread count. */
    std::vector<Schedule> scheduleAll();

    const DeviceSpec &device() const { return deviceSpec; }

    /** Number of cost-model evaluations performed (for stats/tests). */
    int64_t candidatesEvaluated() const { return evaluated; }
    /** Number of memoization hits (for stats/tests). */
    int64_t memoHits() const { return hits; }
    /** Artifact-cache hits/misses (0 when no cache is attached). */
    int64_t cacheHits() const { return artifactHits; }
    int64_t cacheMisses() const { return artifactMisses; }

  private:
    /** Memo shard count (fixed; shard choice never affects results). */
    static constexpr size_t kMemoShards = 16;

    struct MemoShard
    {
        std::mutex mutex;
        /** Signalled whenever a slot fills or is erased. */
        std::condition_variable ready;
        /** Signature -> schedule; empty while its search runs. */
        std::unordered_map<std::string, std::optional<Schedule>>
            schedules;
    };

    MemoShard &shardFor(const std::string &signature);

    Schedule scheduleContraction(const TensorExpr &te, const TeInfo &info);
    Schedule scheduleElementwise(const TensorExpr &te, const TeInfo &info);
    Schedule scheduleReduction(const TensorExpr &te, const TeInfo &info);
    std::string signatureOf(const TensorExpr &te) const;
    /** Artifact-cache lookup, else the tile search (no locks held). */
    Schedule search(int te_id);

    const TeProgram &prog;
    const GlobalAnalysis &analysis;
    DeviceSpec deviceSpec;
    SchedulerMode mode;
    ArtifactCache *cache;
    std::string salt;
    Fingerprint deviceFp;
    std::array<MemoShard, kMemoShards> memo;
    std::atomic<int64_t> evaluated{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> artifactHits{0};
    std::atomic<int64_t> artifactMisses{0};
};

} // namespace souffle
