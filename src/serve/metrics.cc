#include "serve/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace souffle::serve {

void
ServingReport::recordLatency(double latency_us)
{
    latencyUs.push_back(latency_us);
    ++completed;
}

void
ServingReport::recordBatch(int batch, double service_us,
                           const SimCounters &batch_counters)
{
    ++batchesDispatched;
    ++batchHistogram[batch];
    streamBusyUs += service_us;
    counters += batch_counters;
}

void
ServingReport::sampleQueueDepth(double time_us, int depth)
{
    queueDepth.push_back(QueueSample{time_us, depth});
}

double
ServingReport::throughputRps() const
{
    if (makespanUs <= 0.0)
        return 0.0;
    return static_cast<double>(completed) / (makespanUs / 1.0e6);
}

double
ServingReport::meanBatchSize() const
{
    if (batchesDispatched == 0)
        return 0.0;
    return static_cast<double>(completed)
           / static_cast<double>(batchesDispatched);
}

double
ServingReport::streamUtilization() const
{
    if (makespanUs <= 0.0 || numStreams <= 0)
        return 0.0;
    return streamBusyUs / (makespanUs * numStreams);
}

int
ServingReport::maxQueueDepthSeen() const
{
    int depth = 0;
    for (const QueueSample &sample : queueDepth)
        depth = std::max(depth, sample.depth);
    return depth;
}

std::string
ServingReport::renderText() const
{
    const LatencySummary latency = latencySummary();
    std::ostringstream os;
    os << "serve-sim: " << model << " V" << level << ", "
       << arrivalRatePerSec << " req/s for "
       << timeToString(durationUs) << ", " << numStreams
       << " stream(s), buckets " << joinToString(buckets, "/")
       << ", max delay " << timeToString(maxQueueDelayUs)
       << ", queue bound " << maxQueueDepth << "\n";
    os << "  requests: " << completed << " completed, " << shedCount
       << " shed, " << batchesDispatched
       << " batches (mean batch " << meanBatchSize() << ")\n";
    os << "  latency: p50 " << timeToString(latency.p50Us) << ", p95 "
       << timeToString(latency.p95Us) << ", p99 "
       << timeToString(latency.p99Us)
       << ", mean " << timeToString(latency.meanUs) << "\n";
    os << "  throughput: " << throughputRps()
       << " req/s over makespan " << timeToString(makespanUs)
       << ", stream utilization " << streamUtilization() * 100.0
       << "%\n";
    os << "  queue: max depth " << maxQueueDepthSeen() << " (bound "
       << maxQueueDepth << ")\n";
    os << "  batches:";
    for (const auto &[batch, count] : batchHistogram)
        os << " " << count << "x b" << batch;
    os << "\n";
    os << "  device: " << counters.kernelLaunches
       << " kernel launches, loaded "
       << bytesToString(counters.bytesLoaded) << ", stored "
       << bytesToString(counters.bytesStored) << ", "
       << counters.gridSyncs << " grid syncs\n";
    os << "  compile cache: " << cacheHits << " hit(s), "
       << cacheMisses << " miss(es), "
       << compileMsTotal << " ms compiling\n";
    os << "  schedule cache: " << scheduleCacheHits << " hit(s), "
       << scheduleCacheMisses << " miss(es)\n";
    return os.str();
}

std::string
ServingReport::renderJson() const
{
    const LatencySummary latency = latencySummary();
    JsonWriter json;
    json.beginObject()
        .newline()
        .field("model", model)
        .newline()
        .field("level", level)
        .newline()
        .field("arrival_rate_rps", arrivalRatePerSec)
        .newline()
        .field("duration_us", durationUs)
        .newline()
        .field("num_streams", numStreams)
        .newline()
        .key("buckets")
        .beginArray();
    for (int bucket : buckets)
        json.value(bucket);
    json.endArray()
        .newline()
        .field("max_queue_delay_us", maxQueueDelayUs)
        .newline()
        .field("max_queue_depth", maxQueueDepth)
        .newline()
        .field("completed", completed)
        .newline()
        .field("shed", shedCount)
        .newline()
        .field("batches", batchesDispatched)
        .newline()
        .field("mean_batch", meanBatchSize())
        .newline()
        .field("latency_p50_us", latency.p50Us)
        .newline()
        .field("latency_p95_us", latency.p95Us)
        .newline()
        .field("latency_p99_us", latency.p99Us)
        .newline()
        .field("latency_mean_us", latency.meanUs)
        .newline()
        .field("throughput_rps", throughputRps())
        .newline()
        .field("makespan_us", makespanUs)
        .newline()
        .field("stream_utilization", streamUtilization())
        .newline()
        .field("max_queue_depth_seen", maxQueueDepthSeen())
        .newline()
        .key("batch_histogram")
        .beginObject();
    for (const auto &[batch, count] : batchHistogram)
        json.field(std::to_string(batch), count);
    json.endObject()
        .newline()
        .key("queue_depth")
        .beginArray();
    for (const QueueSample &sample : queueDepth) {
        json.beginObject()
            .field("t_us", sample.timeUs)
            .field("depth", sample.depth)
            .endObject();
    }
    json.endArray()
        .newline()
        .key("device")
        .beginObject()
        .field("kernel_launches", counters.kernelLaunches)
        .field("grid_syncs", counters.gridSyncs)
        .field("bytes_loaded", counters.bytesLoaded)
        .field("bytes_stored", counters.bytesStored)
        .field("bytes_cached", counters.bytesCached)
        .endObject()
        .newline()
        .key("compile_cache")
        .beginObject()
        .field("hits", cacheHits)
        .field("misses", cacheMisses)
        .field("compile_ms", compileMsTotal)
        .field("schedule_hits", scheduleCacheHits)
        .field("schedule_misses", scheduleCacheMisses)
        .endObject()
        .newline()
        .endObject();
    return json.str() + "\n";
}

} // namespace souffle::serve
