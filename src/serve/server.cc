#include "serve/server.h"

#include <algorithm>
#include <limits>

#include "cluster/replica.h"
#include "common/logging.h"

namespace souffle::serve {

ServingReport
runServeSim(const ServeConfig &config, ModuleCache &cache)
{
    SOUFFLE_REQUIRE(
        cache.options().level == config.compiler.level,
        "module cache level does not match the serve config");

    const std::vector<Request> requests =
        generateWorkload(config.workload);
    // Normalized bucket list (and a validated config) for the echo.
    const BatcherConfig batcher = DynamicBatcher(config.batcher).config();

    // One replica over the caller's cache, on its exact device. No
    // compile stall is simulated: compiles are reported separately,
    // as a production server warms its cache before taking traffic.
    cluster::FleetCompileService service(cache);
    cluster::Replica replica(
        0, cluster::ReplicaSpec{cache.options().device.name,
                                config.numStreams},
        batcher, batcher.maxQueueDepth, /*cold_compile_us=*/0.0,
        /*warm_load_us=*/0.0, service);

    if (config.prewarm)
        cache.warmup({config.model}, batcher.buckets);

    ServingReport report;
    report.model = config.model;
    report.level = static_cast<int>(config.compiler.level);
    report.arrivalRatePerSec =
        config.workload.traceArrivalsUs.empty()
            ? config.workload.arrivalRatePerSec
            : 0.0;
    report.durationUs = config.workload.durationUs;
    report.numStreams = config.numStreams;
    report.buckets = batcher.buckets;
    report.maxQueueDelayUs = batcher.maxQueueDelayUs;
    report.maxQueueDepth = batcher.maxQueueDepth;
    const int cache_hits0 = cache.hits();
    const int cache_misses0 = cache.misses();
    const double compile_ms0 = cache.compileMsTotal();
    const int64_t sched_hits0 = cache.scheduleCacheHits();
    const int64_t sched_misses0 = cache.scheduleCacheMisses();

    size_t next = 0; // next undelivered arrival
    double now = 0.0;
    while (true) {
        while (next < requests.size()
               && requests[next].arrivalUs <= now) {
            replica.admit(requests[next].id, config.model,
                          /*priority=*/0, now);
            ++next;
        }
        const bool drain = next >= requests.size();
        for (const cluster::Dispatch &batch :
             replica.dispatch(now, drain)) {
            for (int id : batch.requestIds)
                report.recordLatency(
                    batch.doneUs
                    - requests[static_cast<size_t>(id)].arrivalUs);
            report.recordBatch(static_cast<int>(batch.requestIds.size()),
                               batch.serviceUs,
                               batch.module->sim.counters);
        }
        report.sampleQueueDepth(now, replica.queueDepth());
        // Retire finished batches; their latencies are recorded.
        replica.collectCompletions(now);

        double next_time = replica.nextEventUs(now);
        if (next < requests.size())
            next_time = std::min(next_time, requests[next].arrivalUs);
        if (next_time == std::numeric_limits<double>::infinity())
            break; // drained: no arrivals, empty queue, idle streams
        now = next_time;
    }

    report.makespanUs = std::max(
        config.workload.traceArrivalsUs.empty()
            ? config.workload.durationUs
            : 0.0,
        now);
    report.shedCount = replica.shedCount();
    report.cacheHits = cache.hits() - cache_hits0;
    report.cacheMisses = cache.misses() - cache_misses0;
    report.compileMsTotal = cache.compileMsTotal() - compile_ms0;
    report.scheduleCacheHits = cache.scheduleCacheHits() - sched_hits0;
    report.scheduleCacheMisses =
        cache.scheduleCacheMisses() - sched_misses0;
    return report;
}

ServingReport
runServeSim(const ServeConfig &config)
{
    ModuleCache cache(config.tiny, config.compiler,
                      config.artifactDir);
    return runServeSim(config, cache);
}

} // namespace souffle::serve
