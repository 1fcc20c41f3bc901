#pragma once

/**
 * @file
 * Metrics for one serving-simulation run: request latency percentiles
 * (p50/p95/p99), sustained throughput, queue-depth-over-time, shed
 * count, batch-size histogram, stream utilization, aggregated device
 * counters (folded with `SimCounters::operator+=`) and compile-cache
 * statistics. Rendered as text or JSON, mirroring the lint-report
 * renderer pattern.
 */

#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "gpu/sim.h"

namespace souffle::serve {

/** Queue depth observed at one event-loop step. */
struct QueueSample
{
    double timeUs = 0.0;
    int depth = 0;
};

/** Everything measured over one simulated serving run. */
class ServingReport
{
  public:
    // ----- run configuration echo (filled by the server) ----------------
    std::string model;
    int level = 4;
    double arrivalRatePerSec = 0.0;
    double durationUs = 0.0;
    int numStreams = 0;
    std::vector<int> buckets;
    double maxQueueDelayUs = 0.0;
    int maxQueueDepth = 0;

    // ----- outcomes ------------------------------------------------------
    int completed = 0;
    int shedCount = 0;
    int batchesDispatched = 0;
    /** End of the simulated timeline: last completion (or the
     *  workload horizon when nothing completed). */
    double makespanUs = 0.0;
    /** Dispatched batch sizes -> count. */
    std::map<int, int> batchHistogram;
    /** Device counters summed over every dispatched batch. */
    SimCounters counters;
    /** Total busy time across all streams (us). */
    double streamBusyUs = 0.0;
    std::vector<QueueSample> queueDepth;

    // ----- compile cache -------------------------------------------------
    int cacheHits = 0;
    int cacheMisses = 0;
    double compileMsTotal = 0.0;
    /** Schedule-level artifact-cache traffic across bucket compiles
     *  (the content-addressed layer under the module cache). */
    int64_t scheduleCacheHits = 0;
    int64_t scheduleCacheMisses = 0;

    // ----- recording (event-loop interface) ------------------------------
    void recordLatency(double latency_us);
    void recordBatch(int batch, double service_us,
                     const SimCounters &batch_counters);
    void sampleQueueDepth(double time_us, int depth);

    // ----- derived -------------------------------------------------------
    /** Nearest-rank latency percentiles (common/stats); each call
     *  sorts the samples once. */
    LatencySummary latencySummary() const
    {
        return summarizeLatencies(latencyUs);
    }
    double p50Us() const { return latencySummary().p50Us; }
    double p95Us() const { return latencySummary().p95Us; }
    double p99Us() const { return latencySummary().p99Us; }
    /** Completed requests per second of simulated makespan. */
    double throughputRps() const;
    /** Average dispatched batch size. */
    double meanBatchSize() const;
    /** Busy fraction across the stream pool over the makespan. */
    double streamUtilization() const;
    int maxQueueDepthSeen() const;

    const std::vector<double> &latencies() const { return latencyUs; }

    // ----- renderers -----------------------------------------------------
    std::string renderText() const;
    std::string renderJson() const;

  private:
    /** Per-request latency samples (us), in dispatch order. */
    std::vector<double> latencyUs;
};

} // namespace souffle::serve
