/**
 * @file
 * Tests for the serving simulator: workload determinism, batcher
 * policy (bucket selection, timeout flush, admission control), the
 * per-bucket module cache, and end-to-end properties of the event
 * loop — most importantly that dynamic batching strictly beats the
 * batch=1 configuration at saturation, which is the reason the
 * subsystem exists.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/replica.h"
#include "common/hash.h"
#include "common/logging.h"
#include "models/zoo.h"
#include "serve/server.h"

namespace souffle::serve {
namespace {

WorkloadSpec
poisson(double rate_rps, double duration_us, uint64_t seed = 42)
{
    WorkloadSpec spec;
    spec.arrivalRatePerSec = rate_rps;
    spec.durationUs = duration_us;
    spec.seed = seed;
    return spec;
}

TEST(Workload, DeterministicAndSeedSensitive)
{
    const std::vector<Request> a =
        generateWorkload(poisson(5000, 100e3, 1));
    const std::vector<Request> b =
        generateWorkload(poisson(5000, 100e3, 1));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_DOUBLE_EQ(a[i].arrivalUs, b[i].arrivalUs);
    }

    const std::vector<Request> c =
        generateWorkload(poisson(5000, 100e3, 2));
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].arrivalUs != c[i].arrivalUs;
    EXPECT_TRUE(differs) << "different seeds must differ";
}

TEST(Workload, ArrivalsAreSortedDenseAndInHorizon)
{
    const std::vector<Request> requests =
        generateWorkload(poisson(2000, 50e3));
    ASSERT_FALSE(requests.empty());
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(requests[i].id, static_cast<int>(i));
        EXPECT_GT(requests[i].arrivalUs, 0.0);
        EXPECT_LE(requests[i].arrivalUs, 50e3);
        if (i > 0) {
            EXPECT_GE(requests[i].arrivalUs,
                      requests[i - 1].arrivalUs);
        }
    }
}

TEST(Workload, RateScalesTheArrivalCount)
{
    // 2000 req/s over 100 ms ~ 200 arrivals; allow generous slack
    // (the process is random but deterministic for a fixed seed).
    const size_t low = generateWorkload(poisson(1000, 100e3)).size();
    const size_t high = generateWorkload(poisson(8000, 100e3)).size();
    EXPECT_GT(low, 50u);
    EXPECT_LT(low, 200u);
    EXPECT_GT(high, 4 * low);
}

TEST(Workload, TraceModeReplaysSortedAndReindexed)
{
    WorkloadSpec spec;
    spec.traceArrivalsUs = {30.0, 10.0, 20.0};
    const std::vector<Request> requests = generateWorkload(spec);
    ASSERT_EQ(requests.size(), 3u);
    EXPECT_DOUBLE_EQ(requests[0].arrivalUs, 10.0);
    EXPECT_DOUBLE_EQ(requests[1].arrivalUs, 20.0);
    EXPECT_DOUBLE_EQ(requests[2].arrivalUs, 30.0);
    EXPECT_EQ(requests[0].id, 0);
    EXPECT_EQ(requests[2].id, 2);
}

TEST(Batcher, NormalizesBucketsAndAlwaysKeepsOne)
{
    BatcherConfig config;
    config.buckets = {8, 4, 8, 2};
    const DynamicBatcher batcher(config);
    EXPECT_EQ(batcher.config().buckets,
              (std::vector<int>{1, 2, 4, 8}));

    BatcherConfig bad;
    bad.buckets = {0};
    EXPECT_THROW(DynamicBatcher{bad}, FatalError);
}

TEST(Batcher, DispatchesTheLargestFullBucket)
{
    BatcherConfig config;
    config.buckets = {1, 4};
    config.maxQueueDelayUs = 1000.0;
    DynamicBatcher batcher(config);
    for (int i = 0; i < 3; ++i)
        batcher.enqueue(Request{i, 10.0});
    // 3 queued < bucket 4, nothing overdue: keep accumulating.
    EXPECT_EQ(batcher.readyBatch(10.0, /*drain=*/false), 0);
    batcher.enqueue(Request{3, 11.0});
    EXPECT_EQ(batcher.readyBatch(11.0, false), 4);
    EXPECT_EQ(batcher.pop(4).size(), 4u);
    EXPECT_EQ(batcher.depth(), 0);
}

TEST(Batcher, TimeoutFlushesTheLargestFittingBucket)
{
    BatcherConfig config;
    config.buckets = {1, 2, 8};
    config.maxQueueDelayUs = 500.0;
    DynamicBatcher batcher(config);
    for (int i = 0; i < 3; ++i)
        batcher.enqueue(Request{i, 100.0});
    EXPECT_EQ(batcher.readyBatch(100.0, false), 0);
    EXPECT_DOUBLE_EQ(batcher.nextDeadlineUs(), 600.0);
    // Past the deadline: flush the largest bucket <= depth (2, not 8).
    EXPECT_EQ(batcher.readyBatch(600.0, false), 2);
    const std::vector<Request> popped = batcher.pop(2);
    EXPECT_EQ(popped[0].id, 0); // FIFO
    EXPECT_EQ(popped[1].id, 1);
    EXPECT_EQ(batcher.depth(), 1);
}

TEST(Batcher, DrainForcesPartialBatchesOut)
{
    DynamicBatcher batcher(BatcherConfig{});
    batcher.enqueue(Request{0, 5.0});
    EXPECT_EQ(batcher.readyBatch(5.0, /*drain=*/false), 0);
    EXPECT_EQ(batcher.readyBatch(5.0, /*drain=*/true), 1);
}

TEST(Batcher, ShedsArrivalsBeyondTheQueueBound)
{
    // The bound a batcher is configured with is enforced by the
    // replica that owns it; priority 0 gets the full bound.
    BatcherConfig config;
    config.maxQueueDepth = 2;
    cluster::FleetCompileService service(/*tiny=*/true, SouffleOptions{});
    cluster::Replica replica(0, cluster::ReplicaSpec{}, config,
                             config.maxQueueDepth,
                             /*cold_compile_us=*/0.0,
                             /*warm_load_us=*/0.0, service);
    EXPECT_TRUE(replica.admit(0, "BERT", /*priority=*/0, 1.0));
    EXPECT_TRUE(replica.admit(1, "BERT", /*priority=*/0, 1.0));
    EXPECT_FALSE(replica.admit(2, "BERT", /*priority=*/0, 1.0));
    EXPECT_EQ(replica.shedCount(), 1);
    EXPECT_EQ(replica.queueDepth(), 2);
    EXPECT_DOUBLE_EQ(DynamicBatcher(BatcherConfig{}).nextDeadlineUs(),
                     DynamicBatcher::kNever);
}

TEST(ModuleCache, CompilesOncePerBucketThenHits)
{
    ModuleCache cache(/*tiny=*/true, SouffleOptions{});
    const CachedModule &b1 = cache.get("BERT", 1);
    EXPECT_GT(b1.sim.totalUs, 0.0);
    EXPECT_EQ(cache.misses(), 1);
    cache.get("BERT", 1);
    EXPECT_EQ(cache.hits(), 1);
    cache.get("BERT", 4);
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_EQ(cache.size(), 2);
    EXPECT_GT(cache.compileMsTotal(), 0.0);
}

TEST(ModuleCache, BatchedSimTimeIsSublinear)
{
    // The economic premise of batching: one batch-8 dispatch is much
    // cheaper than eight batch-1 dispatches (weights and per-stage
    // DRAM latency amortize; only the FLOPs scale).
    ModuleCache cache(/*tiny=*/true, SouffleOptions{});
    const double t1 = cache.get("BERT", 1).sim.totalUs;
    const double t8 = cache.get("BERT", 8).sim.totalUs;
    EXPECT_LT(t8, 8.0 * t1);
    const double e1 = cache.get("EfficientNet", 1).sim.totalUs;
    const double e8 = cache.get("EfficientNet", 8).sim.totalUs;
    EXPECT_LT(e8, 8.0 * e1);
}

TEST(ModuleCache, RejectsBatchingUnsupportedModels)
{
    ModuleCache cache(/*tiny=*/true, SouffleOptions{});
    EXPECT_NO_THROW(cache.get("LSTM", 1));
    EXPECT_THROW(cache.get("LSTM", 2), UnsupportedError);
    EXPECT_TRUE(modelSupportsBatching("BERT"));
    EXPECT_FALSE(modelSupportsBatching("LSTM"));
    // The failed bucket is not cached: a retry compiles (and throws)
    // again, and compile counts make the attempts observable.
    EXPECT_THROW(cache.get("LSTM", 2), UnsupportedError);
    EXPECT_EQ(cache.compileCount("LSTM", 2), 2);
    EXPECT_EQ(cache.compileCount("LSTM", 1), 1);
}

TEST(ModuleCache, ConcurrentGetsSingleFlightPerBucket)
{
    // A burst of threads racing on the same cold bucket must compile
    // it exactly once; the other threads block on the in-flight slot
    // and then share the module.
    ModuleCache cache(/*tiny=*/true, SouffleOptions{});
    constexpr int kThreads = 8;
    std::vector<const CachedModule *> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [&cache, &seen, t] { seen[t] = &cache.get("BERT", 4); });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(cache.compileCount("BERT", 4), 1);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hits(), kThreads - 1);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
}

TEST(ModuleCache, WarmupFillsSupportedBucketsInParallel)
{
    ModuleCache cache(/*tiny=*/true, SouffleOptions{});
    cache.warmup({"BERT", "LSTM"}, {1, 4});
    // LSTM has no batched builder, so its batch-4 bucket is skipped
    // rather than compiled-and-thrown.
    EXPECT_EQ(cache.size(), 3);
    EXPECT_EQ(cache.compileCount("BERT", 1), 1);
    EXPECT_EQ(cache.compileCount("BERT", 4), 1);
    EXPECT_EQ(cache.compileCount("LSTM", 1), 1);
    EXPECT_EQ(cache.compileCount("LSTM", 4), 0);
    // Warm buckets are pure hits afterwards.
    const int misses = cache.misses();
    cache.get("BERT", 4);
    EXPECT_EQ(cache.misses(), misses);
}

ServeConfig
tinyBertConfig(double rate_rps)
{
    ServeConfig config;
    config.model = "BERT";
    config.tiny = true;
    config.numStreams = 2;
    config.workload = poisson(rate_rps, 50e3);
    return config;
}

TEST(ServeSim, PrewarmMovesCompilesOutOfTheServingWindow)
{
    ServeConfig cold = tinyBertConfig(8000);
    const ServingReport cold_report = runServeSim(cold);
    EXPECT_GT(cold_report.cacheMisses, 0);

    ServeConfig warm = cold;
    warm.prewarm = true;
    const ServingReport warm_report = runServeSim(warm);
    // Every dispatchable size is a bucket, and prewarm compiled all
    // of them before the snapshot: the serving window is compile-free
    // but the simulated timeline is unchanged.
    EXPECT_EQ(warm_report.cacheMisses, 0);
    EXPECT_EQ(warm_report.compileMsTotal, 0.0);
    EXPECT_EQ(warm_report.completed, cold_report.completed);
    EXPECT_DOUBLE_EQ(warm_report.makespanUs, cold_report.makespanUs);
}

TEST(ServeSim, DeterministicEndToEnd)
{
    const ServeConfig config = tinyBertConfig(8000);
    const ServingReport a = runServeSim(config);
    const ServingReport b = runServeSim(config);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shedCount, b.shedCount);
    EXPECT_EQ(a.batchesDispatched, b.batchesDispatched);
    EXPECT_DOUBLE_EQ(a.makespanUs, b.makespanUs);
    // Everything but the wall-clock compile time is simulated and
    // must reproduce bit-for-bit.
    auto strip_compile_ms = [](std::string json) {
        const size_t pos = json.find("\"compile_ms\"");
        EXPECT_NE(pos, std::string::npos);
        json.erase(pos, json.find('}', pos) - pos);
        return json;
    };
    EXPECT_EQ(strip_compile_ms(a.renderJson()),
              strip_compile_ms(b.renderJson()));
}

TEST(ServeSim, LatencyPercentilesAreOrdered)
{
    const ServingReport report = runServeSim(tinyBertConfig(8000));
    EXPECT_GT(report.completed, 0);
    EXPECT_GT(report.p50Us(), 0.0);
    EXPECT_LE(report.p50Us(), report.p95Us());
    EXPECT_LE(report.p95Us(), report.p99Us());
    EXPECT_GT(report.throughputRps(), 0.0);
    EXPECT_GT(report.counters.kernelLaunches, 0);
}

TEST(ServeSim, EveryRequestIsCompletedOrShed)
{
    const ServingReport report = runServeSim(tinyBertConfig(20000));
    const size_t arrivals =
        generateWorkload(poisson(20000, 50e3)).size();
    EXPECT_EQ(static_cast<size_t>(report.completed + report.shedCount),
              arrivals);
}

TEST(ServeSim, BatchingBeatsBatchOneAtSaturation)
{
    // Drive tiny BERT far past what two streams serve one-by-one.
    // With batching the sublinear batched modules absorb the load;
    // without it the server saturates lower. This is the acceptance
    // property of the subsystem, pinned deterministically.
    ServeConfig batched = tinyBertConfig(100000);
    batched.batcher.buckets = {1, 8};
    batched.batcher.maxQueueDepth = 128;
    ServeConfig single = batched;
    single.batcher.buckets = {1};

    ModuleCache cache(/*tiny=*/true, SouffleOptions{});
    const ServingReport with = runServeSim(batched, cache);
    const ServingReport without = runServeSim(single, cache);
    EXPECT_GT(with.throughputRps(), without.throughputRps());
    EXPECT_GT(with.meanBatchSize(), 1.5);
    EXPECT_DOUBLE_EQ(without.meanBatchSize(), 1.0);
}

TEST(ServeSim, OverloadShedsButStaysBounded)
{
    ServeConfig config = tinyBertConfig(200000);
    config.batcher.maxQueueDepth = 16;
    const ServingReport report = runServeSim(config);
    EXPECT_GT(report.shedCount, 0);
    EXPECT_LE(report.maxQueueDepthSeen(),
              config.batcher.maxQueueDepth);
    EXPECT_GT(report.completed, 0);
}

TEST(ServeSim, SharedCacheAmortizesCompilesAcrossRuns)
{
    ModuleCache cache(/*tiny=*/true, SouffleOptions{});
    const ServingReport first =
        runServeSim(tinyBertConfig(20000), cache);
    const ServingReport second =
        runServeSim(tinyBertConfig(20000), cache);
    EXPECT_GT(first.cacheMisses, 0);
    EXPECT_EQ(second.cacheMisses, 0);
    EXPECT_GT(second.cacheHits, 0);
    // Per-run stats are deltas, not cache totals.
    EXPECT_EQ(second.compileMsTotal, 0.0);
}

TEST(ServeSim, CacheLevelMustMatchTheConfig)
{
    SouffleOptions v0;
    v0.level = SouffleLevel::kV0;
    ModuleCache cache(/*tiny=*/true, v0);
    const ServeConfig config = tinyBertConfig(1000); // defaults to V4
    EXPECT_THROW(runServeSim(config, cache), FatalError);
}

TEST(ServeSim, JsonReportIsWellFormed)
{
    const ServingReport report = runServeSim(tinyBertConfig(8000));
    const std::string json = report.renderJson();
    EXPECT_NE(json.find("\"model\": \"BERT\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"throughput_rps\":"), std::string::npos);
    EXPECT_NE(json.find("\"latency_p99_us\":"), std::string::npos);
    EXPECT_NE(json.find("\"batch_histogram\":"), std::string::npos);
    EXPECT_NE(json.find("\"compile_cache\":"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness proxy).
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (ch == '"' && (i == 0 || json[i - 1] != '\\'))
            in_string = !in_string;
        if (in_string)
            continue;
        if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(ServeSim, TraceWorkloadDrivesTheLoop)
{
    ServeConfig config = tinyBertConfig(0);
    config.workload.traceArrivalsUs = {100, 110, 120, 130, 5000};
    const ServingReport report = runServeSim(config);
    EXPECT_EQ(report.completed, 5);
    EXPECT_EQ(report.shedCount, 0);
    EXPECT_DOUBLE_EQ(report.arrivalRatePerSec, 0.0);
}

/**
 * renderJson() without its wall-clock member: compile_ms is erased
 * through the end of the compile_cache object, as DeterministicEndToEnd
 * does. That also drops the schedule-cache counters, which a scheduler
 * memo race could move before the memo became single-flight.
 */
std::string
simulatedJson(const ServingReport &report)
{
    std::string json = report.renderJson();
    const size_t pos = json.find("\"compile_ms\"");
    EXPECT_NE(pos, std::string::npos);
    json.erase(pos, json.find('}', pos) - pos);
    return json;
}

std::string
jsonDigest(const ServingReport &report)
{
    return FingerprintHasher().absorb(simulatedJson(report)).finish().toHex();
}

TEST(ServeSim, GoldenReports)
{
    // FingerprintHasher digests of simulatedJson(), in which every
    // byte left is simulated. Captured from the serving loop at commit
    // 2020d8c, before it moved onto cluster::Replica; a change here is
    // a change of the simulator's behaviour, not noise.
    struct Golden
    {
        std::string name;
        ServeConfig config;
        const char *digest;
    };
    std::vector<Golden> cases;
    const char *const kPoissonDigests[] = {
        "629491d50349b545b3368490859f8914", // BERT@500_b2
        "c57af01e0385c20c671453634ee88b10", // BERT@500_b4
        "de32cc006b80f1ff680ac733ea694818", // BERT@8000_b2
        "821c3c12b8ae4a8fe4f341f2a56b7012", // BERT@8000_b4
        "a05735ffcd6938ec29351c0b2931ee3d", // BERT@100000_b2
        "cc21479a76cbf49e9d0559b541fd2dac", // BERT@100000_b4
        "67040c263e64b8e2c317e9765bfaf5da", // EfficientNet@500_b2
        "13a4a959766c032c05db7bb0eea79433", // EfficientNet@500_b4
        "4debb689cfe4081669c9b199c01fe017", // EfficientNet@8000_b2
        "ac5f946482da5bbe42655b8306bd09ff", // EfficientNet@8000_b4
        "2685e48004f79e0908e76b2609495444", // EfficientNet@100000_b2
        "db90c34ce0bad39797280bbc7bce611a", // EfficientNet@100000_b4
    };
    int index = 0;
    for (const char *model : {"BERT", "EfficientNet"}) {
        for (double rate : {500.0, 8000.0, 100000.0}) {
            for (const std::vector<int> &buckets :
                 {std::vector<int>{1, 8}, std::vector<int>{1, 2, 4, 8}}) {
                ServeConfig config = tinyBertConfig(rate);
                config.model = model;
                config.batcher.buckets = buckets;
                cases.push_back({std::string(model) + "@"
                                     + std::to_string(int(rate)) + "_b"
                                     + std::to_string(buckets.size()),
                                 config, kPoissonDigests[index++]});
            }
        }
    }
    ServeConfig trace = tinyBertConfig(0);
    trace.numStreams = 1;
    trace.workload.traceArrivalsUs = {0,    5,    5,    40,   41,
                                      42,   43,   44,   45,   46,
                                      47,   300,  2500, 2501, 9000,
                                      9000, 9001, 9002, 12000};
    cases.push_back({"trace", trace, "4a096974cdc424e0daaaf4ec43f703de"});
    ServeConfig prewarm = tinyBertConfig(8000);
    prewarm.model = "EfficientNet";
    prewarm.numStreams = 3;
    prewarm.prewarm = true;
    cases.push_back(
        {"prewarm", prewarm, "96bcb0057ea04c33e08e3a26c89d3dba"});

    for (const Golden &golden : cases) {
        EXPECT_EQ(jsonDigest(runServeSim(golden.config)), golden.digest)
            << golden.name;
    }
}

TEST(ServeSim, UnbatchableModelsServeBucketOne)
{
    // LSTM has no batched builder, so a {1, 8} bucket list serves it
    // exactly like {1}: nothing waits for a batch that cannot form.
    for (double rate : {2000.0, 50000.0}) {
        ServeConfig batched = tinyBertConfig(rate);
        batched.model = "LSTM";
        batched.batcher.buckets = {1, 8};
        ServeConfig single = batched;
        single.batcher.buckets = {1};
        ServingReport with;
        ASSERT_NO_THROW(with = runServeSim(batched)) << rate;
        const ServingReport without = runServeSim(single);
        const auto without_buckets = [](std::string json) {
            const size_t pos = json.find("\"buckets\": ");
            EXPECT_NE(pos, std::string::npos);
            json.erase(pos, json.find("],", pos) + 2 - pos);
            return json;
        };
        EXPECT_EQ(without_buckets(simulatedJson(with)),
                  without_buckets(simulatedJson(without)))
            << rate;
        EXPECT_DOUBLE_EQ(with.meanBatchSize(), 1.0);
    }
}

TEST(SimCountersOp, PlusEqualsSumsEveryField)
{
    SimCounters a;
    a.kernelLaunches = 1;
    a.gridSyncs = 2;
    a.bytesLoaded = 10.0;
    a.bytesStored = 20.0;
    a.bytesAtomic = 30.0;
    a.bytesCached = 40.0;
    a.lsuBusyUs = 1.5;
    a.tensorCoreBusyUs = 2.5;
    a.fmaBusyUs = 3.5;
    a.aluBusyUs = 4.5;
    SimCounters b = a;
    b += a;
    EXPECT_EQ(b.kernelLaunches, 2);
    EXPECT_EQ(b.gridSyncs, 4);
    EXPECT_DOUBLE_EQ(b.bytesLoaded, 20.0);
    EXPECT_DOUBLE_EQ(b.bytesStored, 40.0);
    EXPECT_DOUBLE_EQ(b.bytesAtomic, 60.0);
    EXPECT_DOUBLE_EQ(b.bytesCached, 80.0);
    EXPECT_DOUBLE_EQ(b.lsuBusyUs, 3.0);
    EXPECT_DOUBLE_EQ(b.tensorCoreBusyUs, 5.0);
    EXPECT_DOUBLE_EQ(b.fmaBusyUs, 7.0);
    EXPECT_DOUBLE_EQ(b.aluBusyUs, 9.0);
}

TEST(DeviceSpecServing, StreamContentionGrowsWithNeighbours)
{
    const DeviceSpec device = DeviceSpec::a100();
    EXPECT_DOUBLE_EQ(device.streamContentionFactor(0), 1.0);
    EXPECT_DOUBLE_EQ(device.streamContentionFactor(1), 1.0);
    EXPECT_GT(device.streamContentionFactor(2), 1.0);
    EXPECT_GT(device.streamContentionFactor(4),
              device.streamContentionFactor(2));
    EXPECT_GT(device.streamDispatchUs, 0.0);
}

} // namespace
} // namespace souffle::serve
