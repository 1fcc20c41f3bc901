#pragma once

/**
 * @file
 * One replica: the one device loop of the serving simulators
 * (bucketed dynamic batching over N simulated streams with
 * contention), as an event-driven node. `serve::runServeSim`
 * (src/serve/server.h) drives a single replica; the cluster simulator
 * routes to many, fails, recovers and autoscales them.
 *
 * Device loop: a dispatch takes the lowest-numbered free stream and
 * charges the bucket module's `SimResult::totalUs`, scaled by the
 * device's stream-contention factor for the streams busy with it,
 * plus the per-dispatch host overhead `streamDispatchUs`. A model
 * without a batched builder is batched in bucket {1} only.
 *
 * Fleet-level concerns on top:
 *
 *  - *multi-model*: a replica holds one `serve::DynamicBatcher` per
 *    model it serves (batches never mix models — each (model, bucket)
 *    is its own compiled module). Dispatch picks, among ready
 *    batchers, the one whose oldest request has waited longest.
 *  - *priority admission*: one total queue bound covers all of a
 *    replica's queues, graduated by SLO priority — priority p is
 *    admitted only below `maxQueueDepth >> p`, so best-effort
 *    traffic sheds first as the queue fills (the batchers queue
 *    whatever they are given; shedding is decided here only).
 *  - *warm set*: the first dispatch of a (model, bucket) this replica
 *    has not warmed charges a compile stall from the fleet's shared
 *    `FleetCompileService` — `coldCompileUs` when the fleet itself is
 *    cold, `warmLoadUs` when the bucket warms from the fleet cache.
 *  - *lifecycle*: up / starting (spin-up delay + warm) / down, with
 *    `fail()` harvesting queued and in-flight requests for the
 *    retry machinery and up-time accounting for utilization.
 */

#include <map>
#include <span>
#include <string>
#include <vector>

#include "cluster/compile_service.h"
#include "cluster/fleet.h"
#include "gpu/device.h"
#include "serve/batcher.h"

namespace souffle::cluster {

enum class ReplicaState : uint8_t { kUp, kStarting, kDown };

/** Short state name ("up", "starting", "down"). */
const char *replicaStateName(ReplicaState state);

/** One completed request, reported when simulated time passes it. */
struct Completion
{
    int requestId = 0;
    double doneUs = 0.0;
};

/** One batch put on a stream by `Replica::dispatch`. */
struct Dispatch
{
    /** The (model, bucket) module the batch runs. */
    const serve::CachedModule *module = nullptr;
    /** Stream time charged, compile stall included. */
    double serviceUs = 0.0;
    double doneUs = 0.0;
    /** Member requests, oldest first. */
    std::vector<int> requestIds;
};

class Replica
{
  public:
    /**
     * @p batcher_cfg seeds every per-model queue (the batchers do not
     * shed: admission is the replica-level @p max_queue_depth,
     * graduated by priority). Initial replicas start kUp; autoscaled
     * replicas are created kDown and go through beginSpinUp once
     * provisioned.
     */
    Replica(int id, ReplicaSpec spec, serve::BatcherConfig batcher_cfg,
            int max_queue_depth, double cold_compile_us,
            double warm_load_us, FleetCompileService &service,
            ReplicaState initial_state = ReplicaState::kUp);

    // ----- identity & state ----------------------------------------------
    int id() const { return replicaId; }
    const ReplicaSpec &spec() const { return replicaSpec; }
    const DeviceSpec &device() const { return deviceSpec; }
    ReplicaState state() const { return lifecycle; }
    bool isUp() const { return lifecycle == ReplicaState::kUp; }
    /** When a kStarting replica turns kUp. */
    double readyAtUs() const { return readyUs; }

    // ----- routing-visible load ------------------------------------------
    /** Total queued requests across every model queue. */
    int queueDepth() const;
    /** True when any bucket of @p model is warm on this replica. */
    bool warmFor(const std::string &model) const;
    /** Streams busy at @p now_us. */
    int busyStreams(double now_us) const;
    /** True when no request is queued and no stream is busy. */
    bool idle(double now_us) const;

    // ----- admission ------------------------------------------------------
    /**
     * Admit a request for @p model at @p priority, or shed (returns
     * false) when the graduated queue bound is reached. @p request_id
     * is the fleet-wide id; @p now_us stamps the queue-delay clock.
     */
    bool admit(int request_id, const std::string &model, int priority,
               double now_us);

    // ----- event loop -----------------------------------------------------
    /**
     * Dispatch every ready batch onto free streams at @p now_us
     * (acquiring modules — and compile stalls — from the fleet
     * service). @p drain forces partial batches out. Returns the
     * batches dispatched, in dispatch order; the view is valid until
     * the replica next changes.
     */
    std::span<const Dispatch> dispatch(double now_us, bool drain);

    /** Pop completions with doneUs <= @p now_us, oldest first. */
    std::vector<Completion> collectCompletions(double now_us);

    /** Next self-generated event strictly after @p now_us (stream
     *  completion or forced-flush deadline); +inf when none. */
    double nextEventUs(double now_us) const;

    // ----- lifecycle ------------------------------------------------------
    /**
     * Fail at @p now_us: every queued and in-flight request is
     * returned (for retry/failure accounting), the warm set is lost
     * (a recovered node starts cold), and busy time is credited only
     * up to the failure.
     */
    std::vector<int> fail(double now_us);

    /**
     * Begin spin-up at @p now_us (after provisioning): warm every
     * bucket the fleet cache holds for this device class, charging
     * `warmLoadUs` each, and become kUp when that completes. Returns
     * the simulated warm time (0 when the fleet has nothing yet).
     */
    double beginSpinUp(double now_us);
    /** Promote kStarting -> kUp once readyAtUs() has passed. */
    void completeSpinUp(double now_us);
    /** Retire an idle replica (autoscaler scale-down). */
    void shutDown(double now_us);

    /** Close the up-time ledger at the end of the simulation. */
    void finalize(double now_us);

    // ----- accounting -----------------------------------------------------
    double upUs() const { return upTotalUs; }
    double busyUs() const { return busyTotalUs; }
    int batchesDispatched() const { return batches; }
    int requestsServed() const { return served; }
    /** (model, bucket) fills on this replica (warm-set inserts). */
    int bucketFills() const { return fills; }
    /** Candidate evaluations this replica's fills triggered. */
    int64_t candidateEvals() const { return evals; }
    /** Fills/evals of the most recent beginSpinUp call. */
    int lastSpinUpFills() const { return spinUpFills; }
    int64_t lastSpinUpEvals() const { return spinUpEvals; }
    int shedCount() const { return shed; }

  private:
    /** The queue for @p model, created on first use. */
    serve::DynamicBatcher &queueFor(const std::string &model);
    /** Warm (model, bucket), charging the fleet-cold or fleet-warm
     *  stall; returns (module, stall_us). */
    std::pair<const serve::CachedModule *, double>
    warmBucket(const std::string &model, int bucket);

    int replicaId;
    ReplicaSpec replicaSpec;
    DeviceSpec deviceSpec;
    serve::BatcherConfig batcherTemplate;
    int maxQueueDepth;
    double coldCompileUs;
    double warmLoadUs;
    FleetCompileService &service;

    ReplicaState lifecycle = ReplicaState::kUp;
    double readyUs = 0.0;
    /** Up-time ledger: when the current kUp stretch began. */
    double upSinceUs = 0.0;
    double upTotalUs = 0.0;

    /** Model -> its bucketed queue (ordered: deterministic sweeps). */
    std::map<std::string, serve::DynamicBatcher> queues;
    /** (model, bucket) warm on this replica. */
    std::set<std::pair<std::string, int>> warmSet;

    /** Per-stream next-free time. */
    std::vector<double> freeAt;
    /** In-flight batches, in dispatch order. */
    std::vector<Dispatch> inFlight;

    double busyTotalUs = 0.0;
    int batches = 0;
    int served = 0;
    int fills = 0;
    int64_t evals = 0;
    int spinUpFills = 0;
    int64_t spinUpEvals = 0;
    int shed = 0;
};

} // namespace souffle::cluster
