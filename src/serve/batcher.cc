#include "serve/batcher.h"

#include <algorithm>

#include "common/logging.h"

namespace souffle::serve {

DynamicBatcher::DynamicBatcher(BatcherConfig config)
    : cfg(std::move(config))
{
    for (int bucket : cfg.buckets)
        SOUFFLE_REQUIRE(bucket >= 1,
                        "batch bucket must be >= 1, got " << bucket);
    cfg.buckets.push_back(1);
    std::sort(cfg.buckets.begin(), cfg.buckets.end());
    cfg.buckets.erase(
        std::unique(cfg.buckets.begin(), cfg.buckets.end()),
        cfg.buckets.end());
    SOUFFLE_REQUIRE(cfg.maxQueueDelayUs >= 0.0,
                    "maxQueueDelayUs must be >= 0");
}

void
DynamicBatcher::enqueue(const Request &request)
{
    queue.push_back(request);
}

int
DynamicBatcher::readyBatch(double now_us, bool drain) const
{
    if (queue.empty())
        return 0;
    const int largest = cfg.buckets.back();
    if (depth() >= largest)
        return largest;
    const bool overdue =
        now_us - queue.front().arrivalUs >= cfg.maxQueueDelayUs;
    if (!overdue && !drain)
        return 0;
    // Largest bucket that the queue can fill (>= 1: bucket 1 exists).
    int best = 1;
    for (int bucket : cfg.buckets) {
        if (bucket <= depth())
            best = bucket;
    }
    return best;
}

std::vector<Request>
DynamicBatcher::pop(int batch)
{
    SOUFFLE_REQUIRE(batch >= 1 && batch <= depth(),
                    "pop(" << batch << ") with queue depth "
                           << depth());
    std::vector<Request> out(queue.begin(), queue.begin() + batch);
    queue.erase(queue.begin(), queue.begin() + batch);
    return out;
}

double
DynamicBatcher::nextDeadlineUs() const
{
    if (queue.empty())
        return kNever;
    return queue.front().arrivalUs + cfg.maxQueueDelayUs;
}

} // namespace souffle::serve
