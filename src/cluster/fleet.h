#pragma once

/**
 * @file
 * Configuration types for souffle-fleet, the cluster-level serving
 * simulator (src/cluster/fleet_sim.h): tenants with SLO classes,
 * heterogeneous replica specs, routing policies, retry/backoff,
 * autoscaling and fault injection. Everything is seeded and
 * wall-clock-free, so a `FleetConfig` reproduces bit-for-bit.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/traffic.h"
#include "compiler/options.h"
#include "serve/batcher.h"

namespace souffle::cluster {

/** Service-level objective of one tenant class. */
struct SloClass
{
    /**
     * Admission priority: 0 is the most important. As a replica's
     * queue fills, lower-priority (numerically higher) tenants are
     * shed earlier — priority p is admitted only while the queue
     * holds fewer than `maxQueueDepth >> p` requests.
     */
    int priority = 0;
    /** A completed request attains its SLO when its end-to-end
     *  latency (completion - first arrival) is within this bound. */
    double latencyTargetUs = 100.0e3;
};

/** One traffic class: a model plus its SLO and traffic share. */
struct TenantSpec
{
    std::string name = "default";
    /** Zoo model this tenant's requests run. */
    std::string model = "BERT";
    /** Relative share of generated traffic. */
    double weight = 1.0;
    SloClass slo;
};

/** One replica slot: a device preset plus its execution lanes. */
struct ReplicaSpec
{
    /** Device class: a DeviceSpec::byName preset ("a100", "v100",
     *  "h100"), or the device name of a cache the compile service
     *  adopted. */
    std::string device = "a100";
    /** Concurrent simulated streams on this replica. */
    int numStreams = 2;
};

/** Request-to-replica routing policy. */
enum class RouterPolicy : uint8_t {
    kRoundRobin,  ///< rotate over live replicas
    kLeastLoaded, ///< smallest queue depth (tie: lowest index)
    kCacheAffinity, ///< prefer replicas where the model is warm
};

/** Short policy name ("round-robin", "least-loaded",
 *  "cache-affinity"). */
const char *routerPolicyName(RouterPolicy policy);

/** Inverse of `routerPolicyName`; throws FatalError on unknown
 *  names, listing the valid ones. */
RouterPolicy routerPolicyByName(const std::string &name);

/** Retry policy for requests stranded by a replica failure. */
struct RetryConfig
{
    bool enabled = true;
    /** Total attempts including the first dispatch. */
    int maxAttempts = 3;
    /** Backoff before attempt k+1: base * multiplier^(k-1). */
    double backoffBaseUs = 2000.0;
    double backoffMultiplier = 2.0;
};

/** Queue-depth-driven autoscaler. */
struct AutoscalerConfig
{
    bool enabled = false;
    /** Scale-down floor on live replicas. */
    int minReplicas = 1;
    /** Scale-up ceiling on total replicas ever added. */
    int maxReplicas = 8;
    /** Evaluation cadence. */
    double evalIntervalUs = 10.0e3;
    /** Mean live queue depth above which a replica is added. */
    double scaleUpDepth = 12.0;
    /** Mean live queue depth below which an idle replica retires. */
    double scaleDownDepth = 0.5;
    /** Provisioning delay before a new replica starts warming. */
    double spinUpDelayUs = 20.0e3;
    /** Spec of scaled-up replicas. */
    ReplicaSpec newReplica;
};

/** One scheduled replica outage. */
struct FaultEvent
{
    int replica = 0;
    double failAtUs = 0.0;
    double recoverAtUs = 0.0;
};

/** Fault injection: an explicit schedule and/or a seeded generator. */
struct FaultSpec
{
    /** Explicit outages, used verbatim. */
    std::vector<FaultEvent> schedule;
    /** Mean time between failures per replica; 0 = generator off. */
    double mtbfUs = 0.0;
    /** Mean time to recovery for generated failures. */
    double mttrUs = 20.0e3;
    uint64_t seed = 7;
};

/**
 * Expand @p spec into a sorted outage list over @p num_replicas
 * replicas and @p duration_us: the explicit schedule plus seeded
 * exponential failures (inverse-transform over the counter PRNG).
 */
std::vector<FaultEvent> generateFaults(const FaultSpec &spec,
                                       int num_replicas,
                                       double duration_us);

/** Full configuration of one fleet simulation. */
struct FleetConfig
{
    /** Use the test-sized zoo variants. */
    bool tiny = false;
    /** Compiler level shared by every bucket compile; the device is
     *  overridden per replica from its `ReplicaSpec::device`. */
    SouffleOptions compiler;

    std::vector<TenantSpec> tenants = {TenantSpec{}};
    std::vector<ReplicaSpec> replicas = {ReplicaSpec{},
                                         ReplicaSpec{}};

    RouterPolicy policy = RouterPolicy::kLeastLoaded;
    /** Cache-affinity spills to least-loaded when the best warm
     *  replica's queue is deeper than this. */
    int affinitySpillDepth = 16;

    /** Batching knobs shared by every (replica, model) queue; the
     *  queue bound is the fleet-level `maxQueueDepthPerReplica`. */
    serve::BatcherConfig batcher;
    /** Total queued requests one replica holds before shedding
     *  (graduated per priority, see SloClass::priority). */
    int maxQueueDepthPerReplica = 64;

    /** Generated traffic; ignored when `trace` is non-empty. */
    TrafficSpec traffic;
    /** Pre-generated or replayed trace (tenant indices must be in
     *  range of `tenants`). */
    std::vector<FleetRequest> trace;

    RetryConfig retry;
    AutoscalerConfig autoscaler;
    FaultSpec faults;

    /** Simulated stall charged when a dispatch (or spin-up warm)
     *  needs a bucket the fleet has never compiled for this device
     *  class — the cold tile-search + codegen time. */
    double coldCompileUs = 30.0e3;
    /** Simulated stall for warming a bucket from the fleet's shared
     *  compile cache (artifact fetch + load, no search). */
    double warmLoadUs = 500.0;

    /**
     * Compiled-artifact store root (compiler/artifact_io.h) shared
     * by every device-class module cache. A bucket whose artifact
     * exists there is loaded, not compiled: the acquire counts as
     * fleet-warm (charged `warmLoadUs`, zero candidate evaluations)
     * even on its first touch.
     */
    std::string artifactDir;
};

} // namespace souffle::cluster
