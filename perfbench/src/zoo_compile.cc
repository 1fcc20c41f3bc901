/**
 * @file
 * Workload `zoo-compile`: cold compiles of the six full-size paper
 * models at V4 and V5, each followed by a simulation, with no artifact
 * cache. Every compile pass does real work here; native execution and
 * serving do none. Compiling reads no tensor data, so the seed changes
 * nothing here. Set-up builds the graphs and warms the compiler on the
 * test-sized models.
 */

#include "bench.h"

#include "common/hash.h"
#include "models/zoo.h"
#include "stats.h"

namespace perfbench {

namespace {

struct ZooModule
{
    std::string label;
    size_t graph = 0;
    souffle::SouffleLevel level = souffle::SouffleLevel::kV4;
};

/** Fingerprint of a module's emitted text. */
std::string
sourceFingerprint(const souffle::Compiled &compiled)
{
    souffle::FingerprintHasher hasher;
    hasher.absorb(compiled.generatedSource);
    return hasher.finish().toHex();
}

/** What every round must reproduce exactly. */
struct Fingerprints
{
    std::string programHash;
    std::string source;
    double simUs = 0.0;
};

} // namespace

Report
runZooCompile(const Options &options, Tracer &tracer)
{
    Report report;
    std::vector<souffle::Graph> graphs;
    std::vector<ZooModule> modules;
    repeatSetup(options, tracer, report, [&](int) {
        graphs.clear();
        modules.clear();
        for (const std::string &name : souffle::paperModelNames()) {
            {
                ScopedSpan span(tracer, "models.build", name);
                graphs.push_back(souffle::buildPaperModel(name));
            }
            for (auto level :
                 {souffle::SouffleLevel::kV4, souffle::SouffleLevel::kV5}) {
                modules.push_back(
                    {name + "_v" + std::to_string(static_cast<int>(level)),
                     graphs.size() - 1, level});
                // Warm-up on the test-sized variant: the first compile
                // of a process starts the thread pool and fills the
                // registries, which the timed rounds must not pay.
                souffle::SouffleOptions warm;
                warm.level = level;
                tracedCompile(tracer, souffle::buildTinyModel(name), warm,
                              "warmup");
            }
        }
    });

    std::vector<Fingerprints> first(modules.size());
    std::vector<bool> seen(modules.size(), false);
    const RoundTimes times = timedRounds(
        options, tracer, options.trace ? 2 : 1, [&](int) {
            for (size_t i = 0; i < modules.size(); ++i) {
                const ZooModule &module = modules[i];
                report.attempt("compile " + module.label, [&] {
                    souffle::SouffleOptions compile_options;
                    compile_options.level = module.level;
                    const souffle::Compiled compiled = tracedCompile(
                        tracer, graphs[module.graph], compile_options,
                        module.label);
                    const souffle::SimResult sim = tracedSimulate(
                        tracer, compiled.module, compile_options.device);
                    const Fingerprints now{compiled.programHash.toHex(),
                                           sourceFingerprint(compiled),
                                           sim.totalUs};
                    if (!seen[i]) {
                        seen[i] = true;
                        first[i] = now;
                        return sim.totalUs > 0.0;
                    }
                    return now.programHash == first[i].programHash
                           && now.source == first[i].source
                           && now.simUs == first[i].simUs;
                });
            }
        });

    std::vector<double> sims;
    for (const Fingerprints &fp : first)
        sims.push_back(fp.simUs);
    const auto rounds = static_cast<int64_t>(times.ms.size());
    const auto n = static_cast<int64_t>(modules.size());
    report.endToEnd["wall_ms"] = {median(times.ms), "ms", rounds};
    report.endToEnd["sim_us"] = {geomean(sims), "sim_us", n};
    report.named["compile_ms"] = report.endToEnd["wall_ms"];
    report.layer["bench.trace_overhead_pct"] = traceOverheadPct(times);
    report.roundMs = times.ms;
    return report;
}

} // namespace perfbench
