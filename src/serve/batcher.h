#pragma once

/**
 * @file
 * Dynamic batching with batch-size buckets.
 *
 * Requests queue in arrival order. The batcher dispatches in *bucket*
 * sizes only — each bucket has a compiled module in the serving cache
 * (one compile per (model, bucket, level)), so arbitrary batch sizes
 * never trigger new compiles. Dispatch policy:
 *
 *  - as soon as a full largest bucket is queued, dispatch it;
 *  - otherwise, once the oldest queued request has waited
 *    `maxQueueDelayUs` (or the request stream has drained), dispatch
 *    the largest bucket that fits the queue;
 *  - otherwise hold, accumulating a bigger batch.
 *
 * The batcher queues every request it is given. Admission control
 * lives one level up, in `cluster::Replica::admit`: one bound over
 * all of a replica's queues, graduated by priority, configured from
 * `maxQueueDepth`.
 */

#include <deque>
#include <limits>
#include <vector>

#include "serve/workload.h"

namespace souffle::serve {

/** Batching/admission knobs (defaults suit the tiny-model tests). */
struct BatcherConfig
{
    /** Allowed batch sizes; normalized to sorted unique, with 1
     *  always present so timeout flushes can dispatch. */
    std::vector<int> buckets = {1, 2, 4, 8};
    /** Max time the oldest request may wait before a forced flush. */
    double maxQueueDelayUs = 2000.0;
    /** Queue bound beyond which the replica sheds arrivals. */
    int maxQueueDepth = 64;
};

/** FIFO queue with bucketed dispatch decisions. */
class DynamicBatcher
{
  public:
    explicit DynamicBatcher(BatcherConfig config);

    /** Queue @p request behind every earlier one. */
    void enqueue(const Request &request);

    /**
     * Batch size to dispatch at @p now_us, or 0 to keep waiting.
     * @p drain signals that no further arrivals will come, which
     * forces partial batches out without waiting for the delay bound.
     */
    int readyBatch(double now_us, bool drain) const;

    /** Remove and return the oldest @p batch requests. */
    std::vector<Request> pop(int batch);

    /**
     * Absolute time of the next forced flush (oldest arrival +
     * maxQueueDelayUs), or +inf when the queue is empty. Event loops
     * use this to wake exactly when a partial batch becomes due.
     */
    double nextDeadlineUs() const;

    int depth() const { return static_cast<int>(queue.size()); }
    const BatcherConfig &config() const { return cfg; }

    static constexpr double kNever =
        std::numeric_limits<double>::infinity();

  private:
    BatcherConfig cfg;
    std::deque<Request> queue;
};

} // namespace souffle::serve
