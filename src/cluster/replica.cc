#include "cluster/replica.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "models/zoo.h"

namespace souffle::cluster {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

} // namespace

const char *
replicaStateName(ReplicaState state)
{
    switch (state) {
      case ReplicaState::kUp:
        return "up";
      case ReplicaState::kStarting:
        return "starting";
      case ReplicaState::kDown:
        return "down";
    }
    return "unknown";
}

Replica::Replica(int id, ReplicaSpec spec,
                 serve::BatcherConfig batcher_cfg, int max_queue_depth,
                 double cold_compile_us, double warm_load_us,
                 FleetCompileService &service,
                 ReplicaState initial_state)
    : replicaId(id), replicaSpec(std::move(spec)),
      deviceSpec(service.deviceFor(replicaSpec.device)),
      batcherTemplate(std::move(batcher_cfg)),
      maxQueueDepth(max_queue_depth), coldCompileUs(cold_compile_us),
      warmLoadUs(warm_load_us), service(service),
      lifecycle(initial_state)
{
    SOUFFLE_REQUIRE(replicaSpec.numStreams >= 1,
                    "replica needs >= 1 stream, got "
                        << replicaSpec.numStreams);
    SOUFFLE_REQUIRE(maxQueueDepth >= 1,
                    "replica queue bound must be >= 1, got "
                        << maxQueueDepth);
    freeAt.assign(static_cast<size_t>(replicaSpec.numStreams), 0.0);
}

serve::DynamicBatcher &
Replica::queueFor(const std::string &model)
{
    auto it = queues.find(model);
    if (it == queues.end()) {
        serve::BatcherConfig config = batcherTemplate;
        if (!modelSupportsBatching(model))
            config.buckets = {1};
        it = queues
                 .emplace(model,
                          serve::DynamicBatcher(std::move(config)))
                 .first;
    }
    return it->second;
}

int
Replica::queueDepth() const
{
    int depth = 0;
    for (const auto &[model, queue] : queues)
        depth += queue.depth();
    return depth;
}

bool
Replica::warmFor(const std::string &model) const
{
    auto it = warmSet.lower_bound(std::make_pair(model, 0));
    return it != warmSet.end() && it->first == model;
}

int
Replica::busyStreams(double now_us) const
{
    int busy = 0;
    for (double free : freeAt)
        if (free > now_us)
            ++busy;
    return busy;
}

bool
Replica::idle(double now_us) const
{
    return queueDepth() == 0 && busyStreams(now_us) == 0
           && inFlight.empty();
}

bool
Replica::admit(int request_id, const std::string &model, int priority,
               double now_us)
{
    SOUFFLE_REQUIRE(isUp(), "admit on a replica that is "
                                << replicaStateName(lifecycle));
    const int shift = std::clamp(priority, 0, 30);
    const int bound = std::max(1, maxQueueDepth >> shift);
    if (queueDepth() >= bound) {
        ++shed;
        return false;
    }
    queueFor(model).enqueue(serve::Request{request_id, now_us});
    return true;
}

std::pair<const serve::CachedModule *, double>
Replica::warmBucket(const std::string &model, int bucket)
{
    const AcquireResult acquired =
        service.acquire(replicaSpec.device, model, bucket);
    const auto key = std::make_pair(model, bucket);
    double stall_us = 0.0;
    if (warmSet.insert(key).second) {
        stall_us = acquired.fleetCold ? coldCompileUs : warmLoadUs;
        ++fills;
        evals += acquired.candidateEvals;
    }
    return {acquired.module, stall_us};
}

std::span<const Dispatch>
Replica::dispatch(double now_us, bool drain)
{
    if (!isUp())
        return {};
    size_t dispatched = 0;
    while (true) {
        int stream = -1;
        for (size_t i = 0; i < freeAt.size(); ++i) {
            if (freeAt[i] <= now_us) {
                stream = static_cast<int>(i);
                break;
            }
        }
        if (stream < 0)
            break;

        // Among ready batchers, serve the one whose oldest request
        // has waited longest (ties: model-name order via the map).
        serve::DynamicBatcher *best = nullptr;
        std::string best_model;
        int best_batch = 0;
        double best_arrival = kNever;
        for (auto &[model, queue] : queues) {
            const int batch = queue.readyBatch(now_us, drain);
            if (batch == 0)
                continue;
            const double arrival = queue.nextDeadlineUs()
                                   - queue.config().maxQueueDelayUs;
            if (arrival < best_arrival) {
                best = &queue;
                best_model = model;
                best_batch = batch;
                best_arrival = arrival;
            }
        }
        if (best == nullptr)
            break;

        const std::vector<serve::Request> batch =
            best->pop(best_batch);
        const auto [module, stall_us] =
            warmBucket(best_model, best_batch);
        const int busy = busyStreams(now_us) + 1;
        const double service_us =
            module->sim.totalUs
                * deviceSpec.streamContentionFactor(busy)
            + deviceSpec.streamDispatchUs + stall_us;
        Dispatch flight;
        flight.module = module;
        flight.serviceUs = service_us;
        flight.doneUs = now_us + service_us;
        flight.requestIds.reserve(batch.size());
        for (const serve::Request &request : batch)
            flight.requestIds.push_back(request.id);
        freeAt[static_cast<size_t>(stream)] = flight.doneUs;
        busyTotalUs += service_us;
        ++batches;
        served += best_batch;
        ++dispatched;
        inFlight.push_back(std::move(flight));
    }
    return std::span<const Dispatch>(inFlight).last(dispatched);
}

std::vector<Completion>
Replica::collectCompletions(double now_us)
{
    std::vector<Completion> completions;
    std::vector<Dispatch> due;
    for (size_t i = 0; i < inFlight.size();) {
        if (inFlight[i].doneUs <= now_us) {
            due.push_back(std::move(inFlight[i]));
            inFlight.erase(inFlight.begin()
                           + static_cast<ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const Dispatch &a, const Dispatch &b) {
                         return a.doneUs < b.doneUs;
                     });
    for (const Dispatch &flight : due) {
        for (int id : flight.requestIds)
            completions.push_back(Completion{id, flight.doneUs});
    }
    return completions;
}

double
Replica::nextEventUs(double now_us) const
{
    double next = kNever;
    if (!isUp())
        return next;
    for (double free : freeAt)
        if (free > now_us)
            next = std::min(next, free);
    for (const auto &[model, queue] : queues) {
        const double deadline = queue.nextDeadlineUs();
        if (deadline > now_us)
            next = std::min(next, deadline);
    }
    return next;
}

std::vector<int>
Replica::fail(double now_us)
{
    SOUFFLE_REQUIRE(lifecycle != ReplicaState::kDown,
                    "failing replica " << replicaId
                                       << " which is already down");
    std::vector<int> stranded;
    for (auto &[model, queue] : queues) {
        while (queue.depth() > 0) {
            for (const serve::Request &request : queue.pop(1))
                stranded.push_back(request.id);
        }
    }
    std::stable_sort(inFlight.begin(), inFlight.end(),
                     [](const Dispatch &a, const Dispatch &b) {
                         return a.doneUs < b.doneUs;
                     });
    for (const Dispatch &flight : inFlight) {
        // Credit only the busy time actually spent before the crash.
        if (flight.doneUs > now_us)
            busyTotalUs -= flight.doneUs - now_us;
        for (int id : flight.requestIds)
            stranded.push_back(id);
    }
    inFlight.clear();
    queues.clear();
    warmSet.clear(); // a recovered node restarts cold
    std::fill(freeAt.begin(), freeAt.end(), 0.0);
    if (lifecycle == ReplicaState::kUp)
        upTotalUs += now_us - upSinceUs;
    lifecycle = ReplicaState::kDown;
    return stranded;
}

double
Replica::beginSpinUp(double now_us)
{
    SOUFFLE_REQUIRE(lifecycle == ReplicaState::kDown,
                    "spin-up of replica "
                        << replicaId << " which is "
                        << replicaStateName(lifecycle));
    lifecycle = ReplicaState::kStarting;
    const int fills_before = fills;
    const int64_t evals_before = evals;
    double warm_us = 0.0;
    for (const auto &[model, bucket] :
         service.warmEntries(replicaSpec.device))
        warm_us += warmBucket(model, bucket).second;
    spinUpFills = fills - fills_before;
    spinUpEvals = evals - evals_before;
    readyUs = now_us + warm_us;
    return warm_us;
}

void
Replica::completeSpinUp(double now_us)
{
    SOUFFLE_REQUIRE(lifecycle == ReplicaState::kStarting,
                    "completing spin-up of replica "
                        << replicaId << " which is "
                        << replicaStateName(lifecycle));
    lifecycle = ReplicaState::kUp;
    upSinceUs = now_us;
}

void
Replica::shutDown(double now_us)
{
    SOUFFLE_REQUIRE(isUp() && idle(now_us),
                    "scale-down requires an idle up replica");
    upTotalUs += now_us - upSinceUs;
    lifecycle = ReplicaState::kDown;
}

void
Replica::finalize(double now_us)
{
    if (lifecycle == ReplicaState::kUp) {
        upTotalUs += now_us - upSinceUs;
        upSinceUs = now_us;
    }
}

} // namespace souffle::cluster
