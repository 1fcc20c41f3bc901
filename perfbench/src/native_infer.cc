/**
 * @file
 * Workload `native-infer`: a closed loop of one client with no think
 * time, running sequential native inferences of modules built with
 * the C backend during set-up. This is the only workload where the
 * emitted C, its OpenMP loops and the V5 task wavefronts on the
 * ThreadPool run on a real clock. BERT at V0, V4 and V5 puts the
 * paper's ablation on that clock. The seed selects the inputs.
 */

#include "bench.h"

#include <cmath>

#include "models/zoo.h"
#include "runtime/native_exec.h"
#include "stats.h"
#include "te/interpreter.h"

namespace perfbench {

namespace {

/** The relative tolerance the native differential tests pin. */
constexpr double kRelTolerance = 1e-4;
/** Untimed rounds that let lazy start-up (pool threads) finish. */
constexpr int kWarmupRounds = 2;

struct NativeCase
{
    std::string label;
    /** Index into the graph list; cases of one graph share inputs. */
    size_t graph = 0;
    souffle::SouffleLevel level = souffle::SouffleLevel::kV4;
};

const std::vector<NativeCase> &
nativeCases()
{
    static const std::vector<NativeCase> cases = {
        {"bert_v0", 0, souffle::SouffleLevel::kV0},
        {"bert_v4", 0, souffle::SouffleLevel::kV4},
        {"bert_v5", 0, souffle::SouffleLevel::kV5},
        {"effnet_v4", 1, souffle::SouffleLevel::kV4},
        {"resnext_v4", 2, souffle::SouffleLevel::kV4},
        {"lstm_v5", 3, souffle::SouffleLevel::kV5},
    };
    return cases;
}

std::vector<souffle::Graph>
buildGraphs(Tracer &tracer)
{
    std::vector<souffle::Graph> graphs;
    {
        ScopedSpan span(tracer, "models.build", "BERT");
        graphs.push_back(souffle::buildBert(/*layers=*/2, /*seq=*/64,
                                            /*hidden=*/128, /*heads=*/2));
    }
    {
        ScopedSpan span(tracer, "models.build", "EfficientNet");
        graphs.push_back(souffle::buildTinyModel("EfficientNet"));
    }
    {
        // One block per stage keeps the host C compile of the module
        // under a second; the full 3-4-23-3 stack takes six.
        ScopedSpan span(tracer, "models.build", "ResNeXt");
        graphs.push_back(souffle::buildResNeXt(
            /*image=*/32, /*cardinality=*/8, /*stage_blocks=*/{1, 1, 1, 1},
            /*stem_channels=*/32));
    }
    {
        ScopedSpan span(tracer, "models.build", "LSTM");
        graphs.push_back(souffle::buildLstm(/*time_steps=*/10, /*cells=*/4,
                                            /*hidden=*/64, /*input=*/64));
    }
    return graphs;
}

/** Everything set-up builds; destroying it unloads the modules. */
struct NativeState
{
    std::vector<souffle::Graph> graphs;
    /** Compiled modules; executors refer to them, so they are
     *  declared first and outlive the executors. */
    std::vector<std::unique_ptr<souffle::Compiled>> compiled;
    std::vector<std::unique_ptr<souffle::NativeExecutor>> executors;
    std::vector<double> simUs;
};

double
maxRelError(const souffle::Buffer &expected, const souffle::Buffer &actual)
{
    if (expected.size() != actual.size())
        return INFINITY;
    double worst = 0.0;
    for (size_t i = 0; i < expected.size(); ++i) {
        const double denom = std::max(1.0, std::fabs(expected[i]));
        const double err = std::fabs(actual[i] - expected[i]) / denom;
        if (std::isnan(err))
            return INFINITY;
        worst = std::max(worst, err);
    }
    return worst;
}

} // namespace

Report
runNativeInfer(const Options &options, Tracer &tracer)
{
    Report report;
    const std::vector<NativeCase> &cases = nativeCases();
    auto state = std::make_shared<NativeState>();
    repeatSetup(options, tracer, report, [&](int rep) {
        auto next = std::make_shared<NativeState>();
        next->graphs = buildGraphs(tracer);
        souffle::NativeBuildOptions build;
        // A fresh directory per repetition, so the host compiler runs
        // every time instead of reusing content-addressed objects.
        build.workDir = options.workDir + "/native-" + std::to_string(rep);
        for (const NativeCase &c : cases) {
            souffle::SouffleOptions compile_options;
            compile_options.level = c.level;
            compile_options.backend = "c";
            next->compiled.push_back(std::make_unique<souffle::Compiled>(
                tracedCompile(tracer, next->graphs[c.graph],
                              compile_options, c.label)));
            {
                ScopedSpan span(tracer, "runtime.native_build", c.label);
                next->executors.push_back(
                    std::make_unique<souffle::NativeExecutor>(
                        *next->compiled.back(), build));
            }
            next->simUs.push_back(
                tracedSimulate(tracer, next->compiled.back()->module,
                               compile_options.device)
                    .totalUs);
            tracer.count("runtime.workspace_mb",
                         static_cast<double>(next->executors.back()
                                                 ->memoryPlan()
                                                 .workspaceBytes)
                             / (1024.0 * 1024.0));
            tracer.count("runtime.v5_wavefronts",
                         static_cast<double>(next->executors.back()
                                                 ->taskWavefronts()
                                                 .size()));
        }
        // The previous repetition's modules unload only after this
        // one's are loaded; none of them has run yet.
        state = std::move(next);
    });

    // Reference outputs: the TE interpreter over each graph's V0
    // program, which no transformation pass has rewritten. Inputs are
    // drawn from the seed and bound by name, so every level of one
    // graph runs on the same data.
    tracer.beginRound("check");
    std::vector<souffle::NamedBuffers> inputs(state->graphs.size());
    std::vector<souffle::NamedBuffers> expected(state->graphs.size());
    for (size_t g = 0; g < state->graphs.size(); ++g) {
        report.attempt("reference " + std::to_string(g), [&] {
            souffle::SouffleOptions v0;
            v0.level = souffle::SouffleLevel::kV0;
            const souffle::Compiled reference =
                tracedCompile(tracer, state->graphs[g], v0, "reference");
            inputs[g] = souffle::Executor(reference).randomInputs(options.seed);
            const souffle::TeProgram &program = reference.program;
            souffle::BufferMap bindings;
            for (const souffle::TensorDecl &decl : program.tensors()) {
                if (decl.role == souffle::TensorRole::kInput
                    || decl.role == souffle::TensorRole::kParam)
                    bindings[decl.id] = inputs[g].at(decl.name);
            }
            souffle::BufferMap all;
            {
                ScopedSpan span(tracer, "te.interpret");
                all = souffle::Interpreter(program).run(bindings);
            }
            for (souffle::TensorId id : program.outputTensors())
                expected[g][program.tensor(id).name] = all.at(id);
            return !expected[g].empty();
        });
    }

    std::vector<std::vector<double>> run_ms(cases.size());
    auto infer = [&](size_t i, bool timed) {
        const NativeCase &c = cases[i];
        report.attempt("infer " + c.label, [&] {
            souffle::NamedBuffers outputs;
            {
                ScopedSpan span(tracer, "runtime.run", c.label,
                                /*median_of_rounds=*/true);
                const Clock::time_point start = Clock::now();
                outputs = state->executors[i]->run(inputs[c.graph]);
                if (timed)
                    run_ms[i].push_back(msSince(start));
            }
            const souffle::NamedBuffers &want = expected[c.graph];
            if (outputs.size() != want.size())
                return false;
            for (const auto &[name, buffer] : want) {
                auto it = outputs.find(name);
                if (it == outputs.end()
                    || maxRelError(buffer, it->second) > kRelTolerance)
                    return false;
            }
            return true;
        });
    };
    for (int round = 0; round < kWarmupRounds; ++round)
        for (size_t i = 0; i < cases.size(); ++i)
            infer(i, false);

    const RoundTimes times =
        timedRounds(options, tracer, options.quick ? 1 : 10, [&](int) {
            for (size_t i = 0; i < cases.size(); ++i)
                infer(i, true);
        });

    std::vector<double> p50s;
    std::vector<double> p90s;
    int64_t samples = 0;
    for (const std::vector<double> &ms : run_ms) {
        p50s.push_back(median(ms));
        p90s.push_back(percentile(ms, 90.0));
        samples += static_cast<int64_t>(ms.size());
    }
    const int64_t per_module = samples / static_cast<int64_t>(cases.size());
    report.endToEnd["wall_ms"] = {geomean(p50s), "ms", per_module};
    report.endToEnd["sim_us"] = {geomean(state->simUs), "sim_us",
                                 static_cast<int64_t>(cases.size())};
    report.named["native_ms_p50"] = report.endToEnd["wall_ms"];
    report.named["native_ms_p90"] = {geomean(p90s), "ms", per_module};
    report.layer["runtime.native_ms_p50"] = geomean(p50s);
    report.layer["runtime.native_ms_p90"] = geomean(p90s);
    report.layer["bench.trace_overhead_pct"] = traceOverheadPct(times);
    report.roundMs = times.ms;
    report.live = state;
    return report;
}

} // namespace perfbench
