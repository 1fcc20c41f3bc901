#include "bench.h"

#include "stats.h"

namespace perfbench {

namespace {

/** Span name of each compile pass, `<layer>.<what>` by the `src/`
 *  module the pass lives in. Passes missing here trace under
 *  `compiler.pass` with the pass name as detail. */
const std::map<std::string, std::string> &
passSpanNames()
{
    static const std::map<std::string, std::string> names = {
        {"lower-to-te", "graph.lower"},
        {"simplify", "te.simplify"},
        {"horizontal-transform", "transform.horizontal"},
        {"vertical-transform", "transform.vertical"},
        {"schedule", "sched.schedule"},
        {"partition", "transform.partition"},
        {"stage-kernels", "transform.partition"},
        {"build-module", "kernel.build"},
        {"two-phase-reduction", "kernel.build"},
        {"pipeline-loads", "kernel.pipeline"},
        {"reuse-cache", "kernel.reuse"},
        {"sync-elim", "transform.sync_elim"},
        {"megakernel", "transform.megakernel"},
        {"codegen", "codegen.emit"},
        {"verify", "compiler.verify"},
    };
    return names;
}

} // namespace

void
Report::record(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

void
repeatSetup(const Options &options, Tracer &tracer, Report &report,
            const std::function<void(int)> &setup)
{
    // Cheap set-ups repeat until they add up to a measurable time, so
    // their median is not one scheduler hiccup.
    constexpr int kMinReps = 3;
    constexpr int kMaxReps = 25;
    constexpr double kMinTotalS = 0.5;
    std::vector<double> seconds;
    double total = 0.0;
    for (int rep = 0; rep < (options.quick ? 1 : kMaxReps); ++rep) {
        if (rep >= kMinReps && total >= kMinTotalS)
            break;
        tracer.beginRound("setup");
        const Clock::time_point start = Clock::now();
        setup(rep);
        seconds.push_back(msSince(start) / 1000.0);
        total += seconds.back();
    }
    report.endToEnd["setup_s"] = {median(seconds), "s",
                                  static_cast<int64_t>(seconds.size())};
}

RoundTimes
timedRounds(const Options &options, Tracer &tracer, int min_rounds,
            const std::function<void(int)> &round)
{
    RoundTimes times;
    const Clock::time_point phase_start = Clock::now();
    for (int i = 0;; ++i) {
        if (i >= min_rounds && msSince(phase_start) >= options.seconds * 1000.0)
            break;
        const bool traced = options.trace && i % 2 == 0;
        tracer.beginRound("timed", traced);
        const Clock::time_point start = Clock::now();
        round(i);
        times.ms.push_back(msSince(start));
        times.traced.push_back(traced);
    }
    return times;
}

double
traceOverheadPct(const RoundTimes &times)
{
    std::vector<double> traced;
    std::vector<double> untraced;
    for (size_t i = 0; i < times.ms.size(); ++i)
        (times.traced[i] ? traced : untraced).push_back(times.ms[i]);
    if (traced.empty() || untraced.empty())
        return 0.0;
    return (median(traced) / median(untraced) - 1.0) * 100.0;
}

souffle::Compiled
tracedCompile(Tracer &tracer, const souffle::Graph &graph,
              const souffle::SouffleOptions &options,
              const std::string &label)
{
    souffle::Compiled compiled;
    int span = -1;
    double start_us = 0.0;
    {
        ScopedSpan compile(tracer, "compiler.compile", label);
        span = compile.spanId();
        start_us = tracer.nowUs();
        compiled = souffle::compileSouffle(graph, options);
    }
    if (span < 0)
        return compiled;
    double at_us = start_us;
    for (const souffle::PassTiming &pass : compiled.passStats.passes) {
        auto it = passSpanNames().find(pass.pass);
        const double end_us = at_us + pass.wallMs * 1000.0;
        if (it != passSpanNames().end())
            tracer.addSpan(span, it->second, "", at_us, end_us);
        else
            tracer.addSpan(span, "compiler.pass", pass.pass, at_us, end_us);
        at_us = end_us;
    }
    countCompile(tracer, compiled);
    return compiled;
}

void
countCompile(Tracer &tracer, const souffle::Compiled &compiled)
{
    const souffle::PassStatistics &stats = compiled.passStats;
    tracer.count("sched.candidates",
                 static_cast<double>(stats.counterTotal("candidates")));
    tracer.count("sched.memo_hits",
                 static_cast<double>(stats.counterTotal("memoHits")));
    tracer.count("analysis.runs", stats.analysisRuns);
    tracer.count("transform.megakernel_edges_pruned",
                 static_cast<double>(
                     stats.counterTotal("megakernelEdgesPruned")));
    tracer.count("codegen.source_bytes",
                 static_cast<double>(compiled.generatedSource.size()));
}

souffle::SimResult
tracedSimulate(Tracer &tracer, const souffle::CompiledModule &module,
               const souffle::DeviceSpec &device)
{
    souffle::SimResult result;
    {
        ScopedSpan span(tracer, "gpu.simulate");
        result = souffle::simulate(module, device);
    }
    if (!tracer.enabled())
        return result;
    int stages = 0;
    for (const souffle::Kernel &kernel : module.kernels)
        stages += static_cast<int>(kernel.stages.size());
    tracer.count("kernel.kernels", module.numKernels());
    tracer.count("kernel.stages", stages);
    tracer.count("gpu.grid_syncs", result.counters.gridSyncs);
    constexpr double kMiB = 1024.0 * 1024.0;
    tracer.count("gpu.bytes_loaded_mb", result.counters.bytesLoaded / kMiB);
    tracer.count("gpu.bytes_stored_mb", result.counters.bytesStored / kMiB);
    return result;
}

} // namespace perfbench
