#pragma once

/**
 * @file
 * Everything measured over one fleet simulation, rendered as text or
 * JSON (mirroring serve::ServingReport).
 *
 * The JSON rendering is a determinism surface: `tests/test_cluster.cc`
 * and the CI gate diff it byte-for-byte across repeated runs and
 * across `--jobs` settings at a fixed seed. It therefore carries only
 * simulated-time quantities and counters that are functions of the
 * simulation (queue/routing/fault/autoscaler state, bucket fills,
 * fleet compiles) — never wall-clock compile milliseconds and never
 * the tile-search candidate/schedule-cache counters, which depend on
 * what the shared artifact cache already holds, keyed by whichever TE
 * of a signature a compile schedules first (see src/sched/schedule.h).
 * Those stay available on the struct for tests and text rendering.
 */

#include <string>
#include <vector>

#include "common/stats.h"

namespace souffle::cluster {

/** Per-tenant outcomes and latency summary. */
struct TenantStats
{
    std::string name;
    std::string model;
    int priority = 0;
    double sloTargetUs = 0.0;

    /** Requests the trace offered this tenant. */
    int offered = 0;
    int completed = 0;
    /** Admission-control rejections (all attempts exhausted by
     *  shedding count here too). */
    int shedRequests = 0;
    /** Requests lost to replica failures after exhausting retries. */
    int failedRequests = 0;
    /** Re-dispatches after a replica failure. */
    int retries = 0;
    /** Completions within the SLO latency target. */
    int sloAttained = 0;

    /** Summary over completed end-to-end latencies (us). */
    LatencySummary latency;

    /** SLO attainment over offered load: attained / offered. */
    double attainment() const;
};

/** Per-replica utilization and serving counters. */
struct ReplicaStats
{
    int id = 0;
    std::string device;
    int numStreams = 0;
    /** replicaStateName at the end of the run. */
    std::string finalState;

    double upUs = 0.0;
    double busyUs = 0.0;
    int batches = 0;
    int served = 0;
    /** (model, bucket) warm-set fills — the replica's share of fleet
     *  compile work (cache-affinity routing minimizes the sum). */
    int bucketFills = 0;
    int shedRequests = 0;

    /** busy time over up time, across the stream pool. */
    double utilization() const;
};

/** One autoscaler or failure timeline entry. */
struct TimelineEvent
{
    double timeUs = 0.0;
    /** "fail" / "recover" / "scale-up" / "ready" / "scale-down". */
    std::string kind;
    int replica = 0;
    /** Event payload: stranded requests for "fail", live replica
     *  count after the event for autoscaler entries, 0 otherwise. */
    int detail = 0;
};

/** One replica spin-up (autoscale or recovery) warm record — the
 *  zero-candidate-eval pin in tests/test_cluster.cc reads these. */
struct SpinUpRecord
{
    int replica = 0;
    double atUs = 0.0;
    /** Buckets warmed from the fleet cache. */
    int fills = 0;
    /** Tile-search candidate evaluations during the warm — zero by
     *  construction (warming only what the fleet already compiled). */
    int64_t candidateEvals = 0;
};

class FleetReport
{
  public:
    // ----- run configuration echo ----------------------------------------
    std::string policy;
    uint64_t seed = 0;
    int initialReplicas = 0;
    bool retryEnabled = true;
    bool autoscalerEnabled = false;

    // ----- fleet-wide outcomes -------------------------------------------
    int totalRequests = 0;
    int completedRequests = 0;
    int shedRequests = 0;
    int failedRequests = 0;
    int retriedRequests = 0;
    double makespanUs = 0.0;

    /** Sum of per-replica bucket fills — total fleet compile work. */
    int compileCount = 0;
    /** Distinct fleet-cold compiles the shared service performed. */
    int fleetCompiles = 0;
    /** Candidate evaluations across those compiles. NOT in JSON:
     *  varies with compile thread count. */
    int64_t candidateEvals = 0;
    /** Wall-clock compile ms. NOT in JSON: wall clock. */
    double compileMsTotal = 0.0;

    std::vector<TenantStats> tenants;
    std::vector<ReplicaStats> replicas;
    std::vector<TimelineEvent> failureTimeline;
    std::vector<TimelineEvent> autoscalerTimeline;
    std::vector<SpinUpRecord> spinUps;

    // ----- derived --------------------------------------------------------
    /** Completed requests per second of simulated makespan. */
    double throughputRps() const;
    /** Fleet-wide SLO attainment: sum attained / sum offered. */
    double attainment() const;

    // ----- renderers ------------------------------------------------------
    std::string renderText() const;
    /** Byte-stable at fixed seed (see file comment). */
    std::string renderJson() const;
};

} // namespace souffle::cluster
