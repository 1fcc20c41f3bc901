#pragma once

/**
 * @file
 * The serving simulator: one `cluster::Replica` (src/cluster/replica.h)
 * driven by a request stream, admitting batched requests onto N
 * simulated CUDA streams over the analytic A100 device model. The
 * replica is the one device loop; this driver only feeds it.
 *
 * Event model (three event sources, always advancing simulated time):
 *
 *  1. request arrival — admit into the replica (or shed when its
 *     queue is at the admission bound);
 *  2. batch deadline — the oldest queued request has waited
 *     `maxQueueDelayUs`, forcing a partial batch out (only actionable
 *     while a stream is free);
 *  3. stream completion — a busy stream frees and can pick up the
 *     next batch.
 *
 * A dispatched batch is charged its bucket module's one-time
 * `SimResult::totalUs` (from the ModuleCache), scaled by the device's
 * stream-contention factor for the number of concurrently busy
 * streams, plus the per-dispatch host overhead `streamDispatchUs`.
 * Models without a batched builder are served in bucket {1}. The
 * simulator does NOT charge: host pre/post-processing, PCIe transfer,
 * or compile time (compiles are reported separately — a production
 * server warms the cache before taking traffic).
 */

#include <string>

#include "compiler/options.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/module_cache.h"
#include "serve/workload.h"

namespace souffle::serve {

/** Full configuration of one serving simulation. */
struct ServeConfig
{
    /** Zoo model name (served in bucket {1} when it has no batched
     *  builder, whatever `batcher.buckets` says). */
    std::string model = "BERT";
    /** Use the test-sized zoo variant. */
    bool tiny = false;
    /** Compiler level + device model shared by every bucket compile. */
    SouffleOptions compiler;
    /** Number of concurrent CUDA streams (execution lanes). */
    int numStreams = 2;
    BatcherConfig batcher;
    WorkloadSpec workload;
    /**
     * Compile every configured bucket up front — in parallel across
     * the global ThreadPool — before the event loop starts, like a
     * production server warming its cache before taking traffic. The
     * report's cacheMisses/compileMsTotal then cover only event-loop
     * compiles (partial flush sizes outside the bucket list may still
     * fill lazily). Off by default so cold-start behavior stays
     * observable.
     */
    bool prewarm = false;
    /**
     * Compiled-artifact store root (compiler/artifact_io.h). When
     * non-empty, bucket fills load offline-compiled artifacts
     * instead of compiling — the offline compile → online serve
     * split; buckets missing from the store still compile lazily.
     */
    std::string artifactDir;
};

/**
 * Run the simulation end to end with a fresh ModuleCache.
 * Deterministic: same config -> identical report.
 */
ServingReport runServeSim(const ServeConfig &config);

/**
 * Run against a caller-owned @p cache (whose level must match
 * `config.compiler`; the simulated device is the cache's own) so
 * arrival-rate sweeps re-use bucket compiles.
 */
ServingReport runServeSim(const ServeConfig &config, ModuleCache &cache);

} // namespace souffle::serve
