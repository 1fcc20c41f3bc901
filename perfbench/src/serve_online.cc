/**
 * @file
 * Workload `serve-online`: the offline->online path. Set-up compiles
 * the models and saves them into a scratch artifact store. Each timed
 * round reloads the store, runs open-loop Poisson serving of BERT at a
 * fixed ladder of rates, and runs a multi-tenant fleet with bursts and
 * seeded faults. Nothing is compiled in the timed phase: artifacts
 * load with zero candidate evaluations. The seed selects the arrival
 * traces and the fault schedule.
 */

#include "bench.h"

#include <algorithm>
#include <filesystem>

#include "cluster/fleet_sim.h"
#include "compiler/artifact_io.h"
#include "models/zoo.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

namespace {

/** p99 latency limit a serving rate must meet to count as sustained. */
constexpr double kSloP99Us = 25.0e3;
/** Ladder rate whose latencies are reported. */
constexpr double kNominalRps = 1000.0;
/** From light load to past shedding (capacity is ~2400 req/s). */
const std::vector<double> kLadderRps = {250,  500,  1000, 1500,
                                        2000, 3000, 4000, 8000};
/** Simulated length of each serving run and of the fleet run. */
constexpr double kServeDurationUs = 2.0e6;
constexpr double kFleetDurationUs = 1.0e6;

const std::vector<int> kBuckets = {1, 2, 4, 8};

struct StoredModel
{
    std::string model;
    int batch = 1;
    souffle::SouffleLevel level = souffle::SouffleLevel::kV4;
    std::string programHash;
};

/** The store: the six models at V4, plus every serving bucket the
 *  timed phase requests at V5. */
std::vector<StoredModel>
storeContents()
{
    std::vector<StoredModel> contents;
    for (const std::string &name : souffle::paperModelNames())
        contents.push_back({name, 1, souffle::SouffleLevel::kV4, ""});
    for (const char *name : {"BERT", "EfficientNet"})
        for (int batch : kBuckets)
            contents.push_back({name, batch, souffle::SouffleLevel::kV5, ""});
    contents.push_back({"MMoE", 1, souffle::SouffleLevel::kV5, ""});
    return contents;
}

souffle::SouffleOptions
optionsAt(souffle::SouffleLevel level)
{
    souffle::SouffleOptions options;
    options.level = level;
    return options;
}

souffle::serve::ServeConfig
serveConfig(double rate, uint64_t seed, const std::string &store)
{
    souffle::serve::ServeConfig config;
    config.model = "BERT";
    config.compiler = optionsAt(souffle::SouffleLevel::kV5);
    config.batcher.buckets = kBuckets;
    config.workload.arrivalRatePerSec = rate;
    config.workload.durationUs = kServeDurationUs;
    config.workload.seed = seed;
    config.artifactDir = store;
    return config;
}

souffle::cluster::FleetConfig
fleetConfig(uint64_t seed, const std::string &store)
{
    souffle::cluster::FleetConfig config;
    config.compiler = optionsAt(souffle::SouffleLevel::kV5);
    config.tenants.clear();
    for (const char *model : {"BERT", "EfficientNet", "MMoE"}) {
        souffle::cluster::TenantSpec tenant;
        tenant.name = model;
        tenant.model = model;
        config.tenants.push_back(std::move(tenant));
    }
    config.replicas.assign(4, souffle::cluster::ReplicaSpec{});
    config.policy = souffle::cluster::RouterPolicy::kCacheAffinity;
    config.batcher.buckets = kBuckets;
    config.traffic.baseRatePerSec = 3000.0;
    config.traffic.durationUs = kFleetDurationUs;
    config.traffic.seed = seed;
    config.traffic.burstMultiplier = 3.0;
    config.traffic.burstProbability = 0.4;
    config.faults.mtbfUs = 300.0e3;
    config.faults.mttrUs = 20.0e3;
    config.faults.seed = seed + 1;
    config.artifactDir = store;
    return config;
}

/** A rate is sustained when nothing is shed, p99 meets the SLO, and
 *  the backlog drains within the SLO after arrivals stop. */
bool
sustained(const souffle::serve::ServingReport &report)
{
    return report.shedCount == 0 && report.p99Us() <= kSloP99Us
           && report.makespanUs <= kServeDurationUs + kSloP99Us;
}

} // namespace

Report
runServeOnline(const Options &options, Tracer &tracer)
{
    Report report;
    std::vector<StoredModel> stored = storeContents();
    std::string store;
    repeatSetup(options, tracer, report, [&](int rep) {
        if (!store.empty())
            std::filesystem::remove_all(store);
        store = options.workDir + "/store-" + std::to_string(rep);
        for (StoredModel &entry : stored) {
            const souffle::SouffleOptions compile_options =
                optionsAt(entry.level);
            const std::string label =
                entry.model + "_b" + std::to_string(entry.batch) + "_v"
                + std::to_string(static_cast<int>(entry.level));
            souffle::Graph graph;
            {
                ScopedSpan span(tracer, "models.build", entry.model);
                graph = souffle::buildPaperModel(entry.model, entry.batch);
            }
            const souffle::Compiled compiled =
                tracedCompile(tracer, graph, compile_options, label);
            entry.programHash = compiled.programHash.toHex();
            ScopedSpan span(tracer, "compiler.save_artifact", entry.model);
            souffle::saveArtifact(
                store,
                souffle::artifactKeyFor(entry.model, entry.batch,
                                        compile_options),
                compiled);
        }
    });

    std::vector<double> sims(stored.size(), 0.0);
    std::vector<std::string> serve_json(kLadderRps.size());
    std::vector<souffle::serve::ServingReport> ladder(kLadderRps.size());
    std::string fleet_json;
    souffle::cluster::FleetReport fleet;
    std::vector<double> load_ms;
    std::vector<double> loop_ms;
    const RoundTimes times = timedRounds(
        options, tracer, options.quick ? 1 : 3, [&](int round) {
            const Clock::time_point load_start = Clock::now();
            for (size_t i = 0; i < stored.size(); ++i) {
                const StoredModel &entry = stored[i];
                report.attempt("load " + entry.model, [&] {
                    souffle::Compiled loaded;
                    {
                        ScopedSpan span(tracer, "compiler.artifact_load",
                                        entry.model);
                        loaded = souffle::loadArtifact(
                            store, souffle::artifactKeyFor(
                                       entry.model, entry.batch,
                                       optionsAt(entry.level)));
                    }
                    // The timed phase's compile counts are the loaded
                    // artifacts' own: loading searches nothing.
                    countCompile(tracer, loaded);
                    const int64_t candidates =
                        loaded.passStats.counterTotal("candidates");
                    const double sim =
                        tracedSimulate(tracer, loaded.module,
                                       optionsAt(entry.level).device)
                            .totalUs;
                    const bool same_sim = round == 0 || sim == sims[i];
                    sims[i] = sim;
                    return loaded.programHash.toHex() == entry.programHash
                           && candidates == 0 && same_sim;
                });
            }
            load_ms.push_back(msSince(load_start));

            double loop = 0.0;
            souffle::serve::ModuleCache cache(
                /*tiny=*/false, optionsAt(souffle::SouffleLevel::kV5), store);
            report.attempt("fill serving cache", [&] {
                ScopedSpan span(tracer, "serve.cache_fill");
                for (int batch : kBuckets)
                    cache.get("BERT", batch);
                return cache.artifactLoads()
                       == static_cast<int>(kBuckets.size());
            });
            tracer.count("serve.artifact_loads", cache.artifactLoads());
            for (size_t r = 0; r < kLadderRps.size(); ++r) {
                report.attempt("serve", [&] {
                    souffle::serve::ServingReport serving;
                    {
                        ScopedSpan span(tracer, "serve.loop");
                        const Clock::time_point start = Clock::now();
                        serving = souffle::serve::runServeSim(
                            serveConfig(kLadderRps[r], options.seed, store),
                            cache);
                        loop += msSince(start);
                    }
                    tracer.count("serve.shed", serving.shedCount);
                    if (kLadderRps[r] == kNominalRps) {
                        tracer.count("serve.batches",
                                     serving.batchesDispatched);
                        tracer.count("serve.mean_batch",
                                     serving.meanBatchSize());
                        tracer.count("serve.stream_util",
                                     serving.streamUtilization());
                    }
                    std::string json = serving.renderJson();
                    const bool same = round == 0 || json == serve_json[r];
                    serve_json[r] = std::move(json);
                    ladder[r] = std::move(serving);
                    return same;
                });
            }
            report.attempt("fleet", [&] {
                souffle::cluster::FleetReport result;
                {
                    ScopedSpan span(tracer, "cluster.loop");
                    const Clock::time_point start = Clock::now();
                    result = souffle::cluster::runFleetSim(
                        fleetConfig(options.seed, store));
                    loop += msSince(start);
                }
                tracer.count("cluster.retried", result.retriedRequests);
                tracer.count("cluster.failed", result.failedRequests);
                tracer.count("cluster.fleet_compiles", result.fleetCompiles);
                std::string json = result.renderJson();
                const bool same = round == 0 || json == fleet_json;
                fleet_json = std::move(json);
                fleet = std::move(result);
                return same && fleet.candidateEvals == 0;
            });
            loop_ms.push_back(loop);
        });
    std::filesystem::remove_all(store);

    double max_rps = 0.0;
    for (size_t r = 0; r < kLadderRps.size() && sustained(ladder[r]); ++r)
        max_rps = kLadderRps[r];
    const auto nominal = static_cast<size_t>(
        std::find(kLadderRps.begin(), kLadderRps.end(), kNominalRps)
        - kLadderRps.begin());

    const souffle::serve::ServingReport &at_nominal = ladder[nominal];
    const auto rounds = static_cast<int64_t>(times.ms.size());
    const auto served = static_cast<int64_t>(at_nominal.latencies().size());
    report.endToEnd["wall_ms"] = {median(times.ms), "ms", rounds};
    report.endToEnd["sim_us"] = {geomean(sims), "sim_us",
                                 static_cast<int64_t>(sims.size())};
    report.named["artifact_load_ms"] = {median(load_ms), "ms", rounds};
    report.named["serve_sim_wall_ms"] = {median(loop_ms), "ms", rounds};
    report.named["serve_p50_us"] = {at_nominal.p50Us(), "sim_us", served};
    report.named["serve_p99_us"] = {at_nominal.p99Us(), "sim_us", served};
    report.named["serve_max_rps"] = {max_rps, "1/s",
                                     static_cast<int64_t>(kLadderRps.size())};
    report.named["fleet_slo_pct"] = {fleet.attainment() * 100.0, "%",
                                     fleet.totalRequests};
    report.layer["serve.p50_us"] = at_nominal.p50Us();
    report.layer["serve.p99_us"] = at_nominal.p99Us();
    report.layer["serve.max_rps"] = max_rps;
    report.layer["cluster.slo_pct"] = fleet.attainment() * 100.0;
    report.layer["bench.trace_overhead_pct"] = traceOverheadPct(times);
    report.roundMs = times.ms;
    return report;
}

} // namespace perfbench
