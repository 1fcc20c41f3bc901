/**
 * @file
 * Tests for souffle-fleet, the cluster-level serving simulator:
 * traffic generation (determinism, diurnal/burst shape, disk
 * round-trip), routing policies, graduated priority admission, the
 * shared compile service, fault injection with retry/backoff, the
 * autoscaler, and the report's determinism guarantees. Pins the
 * three load-bearing fleet behaviors:
 *
 *  - cache-affinity routing strictly reduces fleet compile work
 *    (bucket fills) vs round-robin on a multi-model trace;
 *  - with fault injection, retry+backoff strictly beats
 *    retries-disabled on SLO attainment;
 *  - a replica warming from the fleet cache (recovery spin-up)
 *    performs zero tile-search candidate evaluations;
 *  - FleetReport JSON is byte-identical across repeated runs and
 *    across compile-parallelism (--jobs) settings at a fixed seed.
 */

#include <gtest/gtest.h>

#include "cluster/fleet_sim.h"
#include "cluster/replica.h"
#include "cluster/router.h"
#include "cluster/traffic.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace souffle::cluster {
namespace {

struct GlobalJobsGuard
{
    int saved = ThreadPool::globalJobs();
    ~GlobalJobsGuard() { ThreadPool::setGlobalJobs(saved); }
};

TrafficSpec
flatTraffic(double rate_rps, double duration_us, uint64_t seed = 42)
{
    TrafficSpec spec;
    spec.baseRatePerSec = rate_rps;
    spec.durationUs = duration_us;
    spec.seed = seed;
    return spec;
}

/** Two-tenant tiny fleet the end-to-end tests drive. */
FleetConfig
tinyFleet(double rate_rps = 2000.0, double duration_us = 60.0e3)
{
    FleetConfig config;
    config.tiny = true;
    config.tenants.clear();
    for (const char *model : {"BERT", "MMoE"}) {
        TenantSpec tenant;
        tenant.name = model;
        tenant.model = model;
        config.tenants.push_back(std::move(tenant));
    }
    config.replicas.assign(2, ReplicaSpec{});
    config.traffic = flatTraffic(rate_rps, duration_us);
    return config;
}

// ----- traffic ------------------------------------------------------------

TEST(FleetTraffic, DeterministicAndSeedSensitive)
{
    const TrafficSpec spec = flatTraffic(5000, 100e3, 1);
    const std::vector<FleetRequest> a =
        generateTraffic(spec, {1.0, 2.0});
    const std::vector<FleetRequest> b =
        generateTraffic(spec, {1.0, 2.0});
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_DOUBLE_EQ(a[i].arrivalUs, b[i].arrivalUs);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
    }

    const std::vector<FleetRequest> c =
        generateTraffic(flatTraffic(5000, 100e3, 2), {1.0, 2.0});
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].arrivalUs != c[i].arrivalUs
                  || a[i].tenant != c[i].tenant;
    EXPECT_TRUE(differs) << "different seeds must differ";
}

TEST(FleetTraffic, SortedDenseInHorizonAndTenantsInRange)
{
    const std::vector<FleetRequest> trace =
        generateTraffic(flatTraffic(3000, 80e3), {1.0, 1.0, 1.0});
    ASSERT_FALSE(trace.empty());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].id, static_cast<int>(i));
        EXPECT_GT(trace[i].arrivalUs, 0.0);
        EXPECT_LE(trace[i].arrivalUs, 80e3);
        if (i > 0) {
            EXPECT_GE(trace[i].arrivalUs, trace[i - 1].arrivalUs);
        }
        EXPECT_GE(trace[i].tenant, 0);
        EXPECT_LT(trace[i].tenant, 3);
    }
}

TEST(FleetTraffic, DiurnalAndBurstShapeTheRate)
{
    TrafficSpec spec = flatTraffic(1000, 100e3);
    spec.diurnalAmplitude = 0.5;
    spec.diurnalPeriodUs = 100e3;
    // Peak of the sine at t = period/4; trough at 3*period/4.
    EXPECT_NEAR(trafficRateAtUs(spec, 25e3), 1500.0, 1e-6);
    EXPECT_NEAR(trafficRateAtUs(spec, 75e3), 500.0, 1e-6);

    TrafficSpec burst = flatTraffic(1000, 100e3);
    burst.burstMultiplier = 4.0;
    burst.burstProbability = 1.0; // every window bursts
    burst.burstWindowUs = 20e3;
    burst.burstDurationUs = 5e3;
    EXPECT_NEAR(trafficRateAtUs(burst, 1e3), 4000.0, 1e-6);
    EXPECT_NEAR(trafficRateAtUs(burst, 10e3), 1000.0, 1e-6)
        << "past burstDurationUs the window cools down";
}

TEST(FleetTraffic, BurstsIncreaseVolume)
{
    const std::vector<FleetRequest> flat =
        generateTraffic(flatTraffic(2000, 200e3));
    TrafficSpec bursty = flatTraffic(2000, 200e3);
    bursty.burstMultiplier = 3.0;
    bursty.burstProbability = 0.5;
    const std::vector<FleetRequest> heavy =
        generateTraffic(bursty);
    EXPECT_GT(heavy.size(), flat.size());
}

TEST(FleetTraffic, TraceRoundTripsThroughJsonAndDisk)
{
    TrafficSpec spec = flatTraffic(4000, 50e3);
    spec.diurnalAmplitude = 0.3;
    spec.burstMultiplier = 2.0;
    spec.burstProbability = 0.5;
    const std::vector<FleetRequest> trace =
        generateTraffic(spec, {2.0, 1.0});
    ASSERT_FALSE(trace.empty());

    const std::vector<FleetRequest> parsed =
        traceFromJson(traceToJson(trace));
    ASSERT_EQ(parsed.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed[i].id, trace[i].id);
        EXPECT_EQ(parsed[i].arrivalUs, trace[i].arrivalUs)
            << "arrival times must round-trip bit-exactly";
        EXPECT_EQ(parsed[i].tenant, trace[i].tenant);
    }

    const std::string path =
        ::testing::TempDir() + "souffle_fleet_trace.json";
    saveTrace(trace, path);
    const std::vector<FleetRequest> loaded = loadTrace(path);
    ASSERT_EQ(loaded.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(loaded[i].arrivalUs, trace[i].arrivalUs);
    std::remove(path.c_str());
}

TEST(FleetTraffic, TraceMembersLoadInAnyOrder)
{
    // External request logs need not match the writer's layout:
    // members may come in any order and unknown ones are skipped.
    const std::vector<FleetRequest> canonical = traceFromJson(
        R"({"kind": "souffle-fleet-trace", "requests": 2, "trace": [)"
        R"({"id": 0, "t_us": 12.5, "tenant": 1},)"
        R"({"id": 1, "t_us": 3.25, "tenant": 0}]})");
    const std::vector<FleetRequest> reordered = traceFromJson(
        R"({"trace": [{"tenant": 1, "source": "edge", "t_us": 12.5},)"
        R"({"t_us": 3.25, "tenant": 0, "id": 7}],)"
        R"("note": {"by": ["a", null]}, "kind": "souffle-fleet-trace"})");
    ASSERT_EQ(canonical.size(), 2u);
    ASSERT_EQ(reordered.size(), canonical.size());
    for (size_t i = 0; i < canonical.size(); ++i) {
        EXPECT_EQ(reordered[i].id, canonical[i].id);
        EXPECT_EQ(reordered[i].arrivalUs, canonical[i].arrivalUs);
        EXPECT_EQ(reordered[i].tenant, canonical[i].tenant);
    }
    EXPECT_EQ(canonical[0].arrivalUs, 3.25);
    EXPECT_EQ(canonical[0].tenant, 0);

    // Each required member is still required.
    EXPECT_THROW(traceFromJson(R"({"trace": []})"), FatalError);
    EXPECT_THROW(traceFromJson(R"({"kind": "souffle-fleet-trace"})"),
                 FatalError);
    EXPECT_THROW(traceFromJson(R"({"kind": "souffle-fleet-trace",)"
                               R"("trace": [{"tenant": 0}]})"),
                 FatalError);
    EXPECT_THROW(traceFromJson(R"({"kind": "souffle-fleet-trace",)"
                               R"("trace": [{"t_us": 1}]})"),
                 FatalError);
}

TEST(FleetTraffic, RejectsMalformedSpecs)
{
    EXPECT_THROW(generateTraffic(flatTraffic(0, 1e3)), FatalError);
    EXPECT_THROW(generateTraffic(flatTraffic(100, 0)), FatalError);
    TrafficSpec bad = flatTraffic(100, 1e3);
    bad.diurnalAmplitude = 1.0;
    EXPECT_THROW(generateTraffic(bad), FatalError);
    EXPECT_THROW(generateTraffic(flatTraffic(100, 1e3), {1.0, 0.0}),
                 FatalError);
    EXPECT_THROW(traceFromJson("{\"not\": \"a trace\"}"),
                 FatalError);
}

// ----- faults -------------------------------------------------------------

TEST(FleetFaults, GeneratedScheduleIsSortedSeededAndSane)
{
    FaultSpec spec;
    spec.mtbfUs = 30e3;
    spec.mttrUs = 10e3;
    spec.seed = 11;
    const std::vector<FaultEvent> a =
        generateFaults(spec, 3, 200e3);
    const std::vector<FaultEvent> b =
        generateFaults(spec, 3, 200e3);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].failAtUs, b[i].failAtUs);
        EXPECT_EQ(a[i].replica, b[i].replica);
        EXPECT_GT(a[i].recoverAtUs, a[i].failAtUs);
        EXPECT_LT(a[i].replica, 3);
        if (i > 0) {
            EXPECT_GE(a[i].failAtUs, a[i - 1].failAtUs);
        }
    }
}

// ----- routing ------------------------------------------------------------

/** Replica fixture over a tiny single-bucket fleet service. */
struct ReplicaFixture
{
    FleetCompileService service{/*tiny=*/true, SouffleOptions{}};
    serve::BatcherConfig batcher;
    std::vector<std::unique_ptr<Replica>> replicas;

    explicit ReplicaFixture(int count, int max_queue_depth = 64)
    {
        batcher.buckets = {1};
        for (int i = 0; i < count; ++i)
            replicas.push_back(std::make_unique<Replica>(
                i, ReplicaSpec{}, batcher, max_queue_depth,
                /*cold_compile_us=*/30e3, /*warm_load_us=*/500,
                service));
    }
};

TEST(FleetRouter, RoundRobinRotatesAndSkipsDownReplicas)
{
    ReplicaFixture fixture(3);
    Router router(RouterPolicy::kRoundRobin, 16);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 0);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 1);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 2);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 0);

    fixture.replicas[1]->fail(0.0);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 2);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 0);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 2);

    fixture.replicas[0]->fail(0.0);
    fixture.replicas[2]->fail(0.0);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), -1)
        << "no live replica";
}

TEST(FleetRouter, LeastLoadedPicksSmallestQueueLowestIndexTie)
{
    ReplicaFixture fixture(3);
    Router router(RouterPolicy::kLeastLoaded, 16);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 0)
        << "all empty: lowest index wins the tie";
    fixture.replicas[0]->admit(0, "BERT", 0, 0.0);
    fixture.replicas[0]->admit(1, "BERT", 0, 0.0);
    fixture.replicas[1]->admit(2, "BERT", 0, 0.0);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 2);
    fixture.replicas[2]->admit(3, "BERT", 0, 0.0);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 1)
        << "depth 1 tie between 1 and 2: lowest index";
}

TEST(FleetRouter, CacheAffinityPrefersWarmReplicasAndSpills)
{
    ReplicaFixture fixture(2);
    Router router(RouterPolicy::kCacheAffinity, /*spill=*/2);
    // Warm BERT on replica 1 by serving one request there.
    fixture.replicas[1]->admit(0, "BERT", 0, 0.0);
    fixture.replicas[1]->dispatch(0.0, /*drain=*/true);
    ASSERT_TRUE(fixture.replicas[1]->warmFor("BERT"));
    ASSERT_FALSE(fixture.replicas[0]->warmFor("BERT"));

    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 1)
        << "warm replica beats the emptier cold one";
    EXPECT_EQ(router.pick(fixture.replicas, "MMoE"), 0)
        << "no warm replica for MMoE: least-loaded fallback";

    // Pile requests past the spill bound: affinity yields.
    for (int id = 10; id < 14; ++id)
        fixture.replicas[1]->admit(id, "BERT", 0, 1.0);
    EXPECT_EQ(router.pick(fixture.replicas, "BERT"), 0)
        << "warm queue deeper than the spill bound";
}

// ----- replica admission --------------------------------------------------

TEST(FleetReplica, GraduatedPriorityAdmissionShedsBestEffortFirst)
{
    ReplicaFixture fixture(1, /*max_queue_depth=*/8);
    Replica &replica = *fixture.replicas[0];
    // Priority 2's bound is 8 >> 2 = 2.
    EXPECT_TRUE(replica.admit(0, "BERT", 2, 0.0));
    EXPECT_TRUE(replica.admit(1, "BERT", 2, 0.0));
    EXPECT_FALSE(replica.admit(2, "BERT", 2, 0.0))
        << "best-effort sheds at depth 2";
    EXPECT_TRUE(replica.admit(3, "BERT", 0, 0.0))
        << "priority 0 still admitted up to the full bound";
    EXPECT_EQ(replica.queueDepth(), 3);
    EXPECT_EQ(replica.shedCount(), 1);
}

TEST(FleetReplica, FailHarvestsQueuedAndInFlightAndGoesCold)
{
    ReplicaFixture fixture(1);
    Replica &replica = *fixture.replicas[0];
    replica.admit(0, "BERT", 0, 0.0);
    replica.dispatch(0.0, /*drain=*/true); // id 0 in flight
    replica.admit(1, "BERT", 0, 1.0);
    replica.admit(2, "BERT", 0, 2.0); // ids 1, 2 queued
    ASSERT_TRUE(replica.warmFor("BERT"));

    const std::vector<int> stranded = replica.fail(10.0);
    EXPECT_EQ(stranded.size(), 3u);
    EXPECT_EQ(replica.state(), ReplicaState::kDown);
    EXPECT_EQ(replica.queueDepth(), 0);
    EXPECT_FALSE(replica.warmFor("BERT"))
        << "a recovered node restarts cold";
}

// ----- shared compile service ---------------------------------------------

TEST(FleetCompileServiceTest, SecondReplicaAcquireIsFleetWarm)
{
    FleetCompileService service(/*tiny=*/true, SouffleOptions{});
    const AcquireResult first = service.acquire("a100", "BERT", 1);
    EXPECT_TRUE(first.fleetCold);
    EXPECT_GT(first.candidateEvals, 0);
    EXPECT_EQ(service.fleetCompiles(), 1);

    const AcquireResult second = service.acquire("a100", "BERT", 1);
    EXPECT_FALSE(second.fleetCold);
    EXPECT_EQ(second.candidateEvals, 0);
    EXPECT_EQ(second.module, first.module);
    EXPECT_EQ(service.fleetCompiles(), 1)
        << "fleet compiles once per (device, model, bucket)";

    const auto entries = service.warmEntries("a100");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].first, "BERT");
    EXPECT_EQ(entries[0].second, 1);
    EXPECT_TRUE(service.warmEntries("v100").empty());
}

// ----- pinned end-to-end behaviors ----------------------------------------

TEST(FleetSim, CacheAffinityStrictlyReducesCompileWorkVsRoundRobin)
{
    FleetConfig config = tinyFleet(2000, 60e3);
    config.replicas.assign(3, ReplicaSpec{});
    config.batcher.buckets = {1};
    // Never spill, never shed: isolate routing's effect on fills.
    config.affinitySpillDepth = 1 << 20;
    config.maxQueueDepthPerReplica = 1 << 20;

    config.policy = RouterPolicy::kRoundRobin;
    const FleetReport rr = runFleetSim(config);
    config.policy = RouterPolicy::kCacheAffinity;
    const FleetReport affinity = runFleetSim(config);

    // Round-robin scatters both models across all three replicas.
    EXPECT_EQ(rr.compileCount, 6);
    EXPECT_LT(affinity.compileCount, rr.compileCount)
        << "cache-affinity must strictly reduce fleet compile work";
    EXPECT_EQ(affinity.fleetCompiles, rr.fleetCompiles)
        << "the shared service compiles once per bucket regardless "
           "of routing";
    EXPECT_EQ(affinity.completedRequests, affinity.totalRequests);
    EXPECT_EQ(rr.completedRequests, rr.totalRequests);
}

FleetConfig
faultyFleet()
{
    FleetConfig config = tinyFleet(2000, 60e3);
    config.replicas.assign(2, ReplicaSpec{});
    config.maxQueueDepthPerReplica = 1 << 20;
    // Generous SLO: a retried request still attains it, so the only
    // attainment difference is completed-vs-failed.
    for (TenantSpec &tenant : config.tenants)
        tenant.slo.latencyTargetUs = 10.0e6;
    FaultEvent outage;
    outage.replica = 0;
    outage.failAtUs = 20e3;
    outage.recoverAtUs = 45e3;
    config.faults.schedule = {outage};
    return config;
}

TEST(FleetSim, RetryWithBackoffStrictlyImprovesSloAttainment)
{
    FleetConfig with_retry = faultyFleet();
    with_retry.retry.enabled = true;
    const FleetReport retried = runFleetSim(with_retry);

    FleetConfig no_retry = faultyFleet();
    no_retry.retry.enabled = false;
    const FleetReport dropped = runFleetSim(no_retry);

    ASSERT_FALSE(retried.failureTimeline.empty());
    EXPECT_GT(retried.retriedRequests, 0);
    EXPECT_GT(dropped.failedRequests, 0)
        << "without retries the outage must lose requests";
    EXPECT_GT(retried.attainment(), dropped.attainment())
        << "retry+backoff must strictly improve SLO attainment";
}

TEST(FleetSim, RecoverySpinUpWarmsFromFleetCacheWithZeroEvals)
{
    const FleetReport report = runFleetSim(faultyFleet());
    ASSERT_FALSE(report.spinUps.empty())
        << "the recovery must have produced a spin-up record";
    bool warmed_any = false;
    for (const SpinUpRecord &record : report.spinUps) {
        EXPECT_EQ(record.candidateEvals, 0)
            << "warming from the fleet cache must never re-search";
        warmed_any |= record.fills > 0;
    }
    EXPECT_TRUE(warmed_any)
        << "the fleet had warm buckets before the failure";
}

TEST(FleetSim, AutoscalerAddsWarmReplicasUnderLoad)
{
    FleetConfig config = tinyFleet(30000, 60e3);
    config.replicas.assign(1, ReplicaSpec{});
    config.maxQueueDepthPerReplica = 1 << 20;
    config.autoscaler.enabled = true;
    config.autoscaler.minReplicas = 1;
    config.autoscaler.maxReplicas = 4;
    config.autoscaler.evalIntervalUs = 5e3;
    config.autoscaler.scaleUpDepth = 8.0;
    config.autoscaler.spinUpDelayUs = 5e3;

    const FleetReport report = runFleetSim(config);
    bool scaled_up = false;
    bool ready = false;
    for (const TimelineEvent &event : report.autoscalerTimeline) {
        scaled_up |= event.kind == "scale-up";
        ready |= event.kind == "ready";
    }
    EXPECT_TRUE(scaled_up) << "sustained overload must scale up";
    EXPECT_TRUE(ready);
    EXPECT_GT(report.replicas.size(), 1u);
    for (const SpinUpRecord &record : report.spinUps)
        EXPECT_EQ(record.candidateEvals, 0)
            << "autoscaled replicas warm from the fleet cache";
}

// ----- determinism --------------------------------------------------------

FleetConfig
determinismFleet()
{
    FleetConfig config = tinyFleet(4000, 60e3);
    config.traffic.diurnalAmplitude = 0.4;
    config.traffic.burstMultiplier = 3.0;
    config.traffic.burstProbability = 0.4;
    config.faults.mtbfUs = 40e3;
    config.faults.mttrUs = 10e3;
    config.autoscaler.enabled = true;
    config.autoscaler.maxReplicas = 4;
    return config;
}

TEST(FleetSim, ReportJsonIsByteIdenticalAcrossRunsAndJobs)
{
    GlobalJobsGuard guard;
    const FleetConfig config = determinismFleet();

    ThreadPool::setGlobalJobs(1);
    const std::string serial = runFleetSim(config).renderJson();
    const std::string again = runFleetSim(config).renderJson();
    EXPECT_EQ(serial, again)
        << "repeated runs at a fixed seed must agree byte-for-byte";

    ThreadPool::setGlobalJobs(8);
    const std::string parallel = runFleetSim(config).renderJson();
    EXPECT_EQ(serial, parallel)
        << "compile parallelism must not leak into the fleet report";
}

TEST(FleetSim, ExplicitTraceReplayMatchesGeneratedTraffic)
{
    FleetConfig generated = tinyFleet(3000, 50e3);
    const FleetReport from_spec = runFleetSim(generated);

    FleetConfig replayed = generated;
    std::vector<double> weights;
    for (const TenantSpec &tenant : generated.tenants)
        weights.push_back(tenant.weight);
    replayed.trace = generateTraffic(generated.traffic, weights);
    const FleetReport from_trace = runFleetSim(replayed);

    EXPECT_EQ(from_spec.renderJson(), from_trace.renderJson())
        << "replaying the trace the spec generates is a no-op";
}

} // namespace
} // namespace souffle::cluster
