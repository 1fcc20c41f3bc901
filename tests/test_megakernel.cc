/**
 * @file
 * Tests for the V5 persistent-megakernel runtime:
 *
 *  - the transform applies across the tiny zoo and the simulated V5
 *    latency beats V4 on at least 4 of the 6 models (the acceptance
 *    criterion), with the batched-serving p99 win pinned for BERT;
 *  - scheduler overheads are charged (no free lunch): the device
 *    parameters are nonzero and show up in the simulated stats;
 *  - fallback paths: library kernels and infeasible residency leave
 *    the module in its V4 grid-sync form;
 *  - the task graph is transitively reduced but still covers every
 *    cross-stage dataflow edge (task-graph-dep lints clean; dropping
 *    one RAW edge makes it, and no other rule, fire once), and the
 *    bit-row reduction matches a brute-force DFS oracle on seeded
 *    random DAGs;
 *  - serialization: the module format v2 round-trips the task graph
 *    bit-exactly, unknown versions are rejected, and the artifact
 *    store round-trips a V5 compile (with corruption still caught by
 *    the fingerprint integrity check);
 *  - the native C backend drains the task graph deterministically:
 *    byte-identical outputs at any ThreadPool width.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "compiler/artifact_io.h"
#include "compiler/souffle.h"
#include "gpu/sim.h"
#include "graph/lowering.h"
#include "kernel/serialize.h"
#include "kernel/task_graph.h"
#include "lint/lint.h"
#include "models/zoo.h"
#include "runtime/native_exec.h"
#include "serve/server.h"
#include "te/serialize.h"
#include "transform/megakernel.h"

namespace souffle {
namespace {

Compiled
compileTinyAt(const std::string &model, SouffleLevel level,
              const std::string &backend = "cuda")
{
    SouffleOptions options;
    options.level = level;
    options.backend = backend;
    return compileSouffle(buildTinyModel(model), options);
}

LintReport
lintTaskGraphDep(const Compiled &compiled, const CompiledModule &module)
{
    const GlobalAnalysis analysis(compiled.program);
    LintInput input{compiled.program, analysis, DeviceSpec::a100()};
    input.module = &module;
    return Linter({"task-graph-dep"}).run(input);
}

// ---------------------------------------------------------------------
// Acceptance: V5 beats V4 on the zoo, p99 win pinned for BERT
// ---------------------------------------------------------------------

TEST(Megakernel, V5BeatsV4OnAtLeastFourZooModels)
{
    const DeviceSpec device = DeviceSpec::a100();
    int applied = 0;
    int wins = 0;
    for (const std::string &model : paperModelNames()) {
        const Compiled v4 = compileTinyAt(model, SouffleLevel::kV4);
        const Compiled v5 = compileTinyAt(model, SouffleLevel::kV5);
        const double v4_us = simulate(v4.module, device).totalUs;
        const double v5_us = simulate(v5.module, device).totalUs;
        if (v5.module.megakernel())
            ++applied;
        if (v5_us < v4_us)
            ++wins;
        // The transform's own profitability gate guarantees a V5
        // compile is never slower than V4, applied or not.
        EXPECT_LE(v5_us, v4_us) << model;
    }
    EXPECT_GE(applied, 4);
    EXPECT_GE(wins, 4);
}

TEST(Megakernel, BertBatchedServingP99AtSaturationBeatsV4)
{
    auto report_at = [](SouffleLevel level) {
        serve::ServeConfig config;
        config.model = "BERT";
        config.tiny = true;
        config.compiler.level = level;
        config.numStreams = 2;
        config.batcher.buckets = {1, 2, 4, 8};
        config.workload.arrivalRatePerSec = 8000.0;
        config.workload.durationUs = 200.0e3;
        return serve::runServeSim(config);
    };
    const serve::ServingReport v4 = report_at(SouffleLevel::kV4);
    const serve::ServingReport v5 = report_at(SouffleLevel::kV5);
    ASSERT_GT(v4.completed, 0);
    ASSERT_GT(v5.completed, 0);
    EXPECT_LT(v5.p99Us(), v4.p99Us());
}

// ---------------------------------------------------------------------
// Scheduler overheads: charged and nonzero
// ---------------------------------------------------------------------

TEST(Megakernel, SchedulerOverheadParametersAreNonzero)
{
    const DeviceSpec device = DeviceSpec::a100();
    EXPECT_GT(device.taskDequeueUs, 0.0);
    EXPECT_GT(device.taskEventSignalUs, 0.0);
    EXPECT_GT(device.taskEventWaitUs, 0.0);
    EXPECT_GT(device.taskQueuePollUs, 0.0);
}

TEST(Megakernel, SimulatorChargesSchedulerOverheads)
{
    const Compiled v5 = compileTinyAt("BERT", SouffleLevel::kV5);
    ASSERT_TRUE(v5.module.megakernel());
    const SimResult result =
        simulate(v5.module, DeviceSpec::a100());
    EXPECT_EQ(result.taskStats.tasks,
              v5.module.taskGraph.numTasks());
    EXPECT_GE(result.taskStats.shards, result.taskStats.tasks);
    EXPECT_GT(result.taskStats.eventSignals, 0);
    EXPECT_GT(result.taskStats.eventWaits, 0);
    EXPECT_GT(result.taskStats.schedulerOverheadUs, 0.0);
    EXPECT_GT(result.taskStats.makespanUs, 0.0);
    EXPECT_NE(result.toString().find("megakernel:"),
              std::string::npos);
}

TEST(Megakernel, TimelineCaptureEmitsPerSmShardEvents)
{
    const Compiled v5 = compileTinyAt("BERT", SouffleLevel::kV5);
    ASSERT_TRUE(v5.module.megakernel());
    SimOptions options;
    options.captureTaskTimeline = true;
    const SimResult result =
        simulate(v5.module, DeviceSpec::a100(), options);
    ASSERT_EQ(static_cast<int>(result.taskTimeline.size()),
              result.taskStats.shards);
    for (const TaskTraceEvent &event : result.taskTimeline) {
        EXPECT_GE(event.sm, 0);
        EXPECT_LT(event.sm, DeviceSpec::a100().numSms);
        EXPECT_LT(event.startUs, event.endUs);
        EXPECT_FALSE(event.name.empty());
    }
}

// ---------------------------------------------------------------------
// Fallback paths
// ---------------------------------------------------------------------

TEST(Megakernel, FallsBackOnLibraryKernels)
{
    Compiled v4 = compileTinyAt("MMoE", SouffleLevel::kV4);
    ASSERT_FALSE(v4.module.kernels.empty());
    v4.module.kernels.front().usesLibrary = true;
    const GlobalAnalysis analysis(v4.program);
    CompiledModule module = v4.module;
    const MegakernelStats stats = applyMegakernel(
        v4.program, analysis, DeviceSpec::a100(), module);
    EXPECT_FALSE(stats.applied);
    EXPECT_NE(stats.fallbackReason.find("library"),
              std::string::npos);
    EXPECT_FALSE(module.megakernel());
    EXPECT_EQ(module.toString(), v4.module.toString());
}

TEST(Megakernel, FallsBackWhenResidencyIsInfeasible)
{
    const Compiled v4 = compileTinyAt("MMoE", SouffleLevel::kV4);
    DeviceSpec cramped = DeviceSpec::a100();
    // No stage's worker block can fit: zero resident blocks per SM.
    cramped.maxThreadsPerSm = 1;
    const GlobalAnalysis analysis(v4.program);
    CompiledModule module = v4.module;
    const MegakernelStats stats =
        applyMegakernel(v4.program, analysis, cramped, module);
    EXPECT_FALSE(stats.applied);
    EXPECT_NE(stats.fallbackReason.find("resident"),
              std::string::npos);
    EXPECT_FALSE(module.megakernel());
}

// ---------------------------------------------------------------------
// Task-graph structure and the task-graph-dep rule
// ---------------------------------------------------------------------

TEST(Megakernel, TransitiveReductionPrunesRedundantEdges)
{
    const Compiled v4 = compileTinyAt("BERT", SouffleLevel::kV4);
    const GlobalAnalysis analysis(v4.program);
    CompiledModule module = v4.module;
    const MegakernelStats stats = applyMegakernel(
        v4.program, analysis, DeviceSpec::a100(), module);
    ASSERT_TRUE(stats.applied);
    EXPECT_GT(stats.edgesPruned, 0);
    EXPECT_EQ(stats.edges, module.taskGraph.numEdges());
    // Reduced graphs carry no duplicate (from, to) pairs.
    std::set<std::pair<int, int>> pairs;
    for (const TaskEdge &edge : module.taskGraph.edges)
        EXPECT_TRUE(pairs.emplace(edge.from, edge.to).second)
            << edge.toString();
}

/** Brute-force reduceTaskEdges: set dedupe plus DFS reachability. */
ReducedTaskEdges
reduceByDfs(int num_tasks, const std::vector<TaskEdge> &derived)
{
    const auto n = static_cast<size_t>(num_tasks);
    std::vector<TaskEdge> unique_edges;
    std::set<std::pair<int, int>> pairs;
    std::vector<std::vector<int>> succ(n);
    for (const TaskEdge &edge : derived) {
        if (!pairs.emplace(edge.from, edge.to).second)
            continue;
        unique_edges.push_back(edge);
        succ[static_cast<size_t>(edge.from)].push_back(edge.to);
    }
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (size_t start = 0; start < n; ++start) {
        std::vector<int> stack = succ[start];
        while (!stack.empty()) {
            const auto u = static_cast<size_t>(stack.back());
            stack.pop_back();
            if (reach[start][u])
                continue;
            reach[start][u] = true;
            for (int v : succ[u])
                stack.push_back(v);
        }
    }
    ReducedTaskEdges result;
    for (const TaskEdge &edge : unique_edges) {
        bool implied = false;
        for (int w : succ[static_cast<size_t>(edge.from)])
            implied = implied
                      || (w != edge.to
                          && reach[static_cast<size_t>(w)]
                                  [static_cast<size_t>(edge.to)]);
        if (implied)
            ++result.pruned;
        else
            result.edges.push_back(edge);
    }
    return result;
}

TEST(TaskEdgeReduction, MatchesDfsOracleOnRandomDags)
{
    // Sizes straddle the 64-bit word boundaries of the bit rows; 748
    // is the full-size LSTM's V5 task count.
    std::mt19937_64 rng(20240427);
    for (int n : {1, 63, 64, 65, 130, 748}) {
        // A random topological order makes every edge point forward
        // in it while task ids stay shuffled.
        std::vector<int> order(static_cast<size_t>(n));
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng);
        std::vector<TaskEdge> derived;
        const int num_edges = n > 1 ? 6 * n : 0;
        for (int e = 0; e < num_edges; ++e) {
            const auto span = static_cast<uint64_t>(n);
            auto i = static_cast<size_t>(rng() % span);
            auto j = static_cast<size_t>(rng() % span);
            if (i == j)
                continue;
            if (i > j)
                std::swap(i, j);
            const auto kind = static_cast<TaskEdgeKind>(rng() % 4);
            derived.push_back(TaskEdge{
                order[i], order[j],
                kind == TaskEdgeKind::kAlias ? -1 : e, kind});
            // Re-derive some pairs later with another kind: the first
            // derivation must be the one that survives.
            if (rng() % 4 == 0)
                derived.push_back(TaskEdge{order[i], order[j], -1,
                                           TaskEdgeKind::kAlias});
        }
        const ReducedTaskEdges expected = reduceByDfs(n, derived);
        const ReducedTaskEdges got = reduceTaskEdges(n, derived);
        EXPECT_EQ(got.pruned, expected.pruned) << "n=" << n;
        ASSERT_EQ(got.edges.size(), expected.edges.size()) << "n=" << n;
        for (size_t k = 0; k < got.edges.size(); ++k) {
            const TaskEdge &g = got.edges[k];
            const TaskEdge &x = expected.edges[k];
            EXPECT_TRUE(g.from == x.from && g.to == x.to
                        && g.tensor == x.tensor && g.kind == x.kind)
                << "n=" << n << " edge " << k << ": " << g.toString()
                << " vs " << x.toString();
        }
        if (n > 64) {
            EXPECT_GT(got.pruned, 0) << "n=" << n;
        }
    }
}

TEST(TaskEdgeReduction, KeepsFirstKindOfDuplicatePairs)
{
    const std::vector<TaskEdge> derived = {
        {0, 1, 7, TaskEdgeKind::kWar},  {0, 1, 7, TaskEdgeKind::kRaw},
        {1, 2, 3, TaskEdgeKind::kRaw},  {0, 1, -1, TaskEdgeKind::kAlias},
        {0, 2, 5, TaskEdgeKind::kWaw},  {1, 2, -1, TaskEdgeKind::kAlias},
    };
    const ReducedTaskEdges reduced = reduceTaskEdges(3, derived);
    ASSERT_EQ(reduced.edges.size(), 2U);
    EXPECT_EQ(reduced.edges[0].toString(), "WAR 0 -> 1 (t7)");
    EXPECT_EQ(reduced.edges[1].toString(), "RAW 1 -> 2 (t3)");
    EXPECT_EQ(reduced.pruned, 1); // 0 -> 2 is implied by 0 -> 1 -> 2
}

TEST(TaskEdgeReduction, RejectsCyclesAndMalformedEdges)
{
    EXPECT_THROW(reduceTaskEdges(2, {{0, 1, -1, TaskEdgeKind::kRaw},
                                     {1, 0, -1, TaskEdgeKind::kRaw}}),
                 FatalError);
    EXPECT_THROW(reduceTaskEdges(2, {{1, 1, -1, TaskEdgeKind::kRaw}}),
                 FatalError);
    EXPECT_THROW(reduceTaskEdges(2, {{0, 2, -1, TaskEdgeKind::kRaw}}),
                 FatalError);
}

TEST(Megakernel, TaskGraphDepLintsCleanOnEveryAppliedModel)
{
    for (const std::string &model : paperModelNames()) {
        const Compiled v5 = compileTinyAt(model, SouffleLevel::kV5);
        if (!v5.module.megakernel())
            continue;
        const LintReport report =
            lintTaskGraphDep(v5, v5.module);
        EXPECT_EQ(report.errors(), 0)
            << model << ":\n"
            << report.renderText();
    }
}

/** Drop the first RAW edge of @p module's task graph; false if none. */
bool
dropFirstRawEdge(CompiledModule &module)
{
    auto &edges = module.taskGraph.edges;
    const auto victim = std::find_if(
        edges.begin(), edges.end(), [](const TaskEdge &edge) {
            return edge.kind == TaskEdgeKind::kRaw;
        });
    if (victim == edges.end())
        return false;
    edges.erase(victim);
    return true;
}

TEST(Megakernel, DroppingOneRawEdgeFiresTaskGraphDep)
{
    const Compiled v5 = compileTinyAt("BERT", SouffleLevel::kV5);
    ASSERT_TRUE(v5.module.megakernel());
    CompiledModule mutated = v5.module;
    ASSERT_TRUE(dropFirstRawEdge(mutated));
    // The graph is transitively reduced, so no alternate path covers
    // the dropped producer->consumer ordering.
    const LintReport report = lintTaskGraphDep(v5, mutated);
    EXPECT_GE(report.errors(), 1);
    EXPECT_NE(report.renderText().find("task-graph-dep"),
              std::string::npos);
}

TEST(Megakernel, DroppedRawEdgeIsOneErrorFromTheDefaultLinter)
{
    // Cross-stage ordering in a megakernel has one owner: the missing
    // edge is reported once, by task-graph-dep, and by no fence rule.
    const Compiled v5 = compileTinyAt("BERT", SouffleLevel::kV5);
    ASSERT_TRUE(v5.module.megakernel());
    CompiledModule mutated = v5.module;
    ASSERT_TRUE(dropFirstRawEdge(mutated));
    const GlobalAnalysis analysis(v5.program);
    LintInput input{v5.program, analysis, DeviceSpec::a100()};
    input.module = &mutated;
    const LintReport report = Linter().run(input);
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    for (const Diagnostic &diag : report.diagnostics()) {
        if (diag.severity == Severity::kError) {
            EXPECT_EQ(diag.rule, "task-graph-dep") << diag.toString();
        }
    }
}

// ---------------------------------------------------------------------
// Serialization: module format v2 and the artifact store
// ---------------------------------------------------------------------

TEST(Megakernel, SerializationRoundTripsTaskGraphBitExact)
{
    const Compiled v5 = compileTinyAt("LSTM", SouffleLevel::kV5);
    ASSERT_TRUE(v5.module.megakernel());
    const std::string text = serializeCompiledModule(v5.module);
    EXPECT_NE(text.find("\"version\":2"), std::string::npos);
    EXPECT_NE(text.find("taskGraph"), std::string::npos);

    const CompiledModule reparsed = deserializeCompiledModule(text);
    ASSERT_TRUE(reparsed.megakernel());
    EXPECT_EQ(reparsed.toString(), v5.module.toString());
    ASSERT_EQ(reparsed.taskGraph.numTasks(),
              v5.module.taskGraph.numTasks());
    ASSERT_EQ(reparsed.taskGraph.numEdges(),
              v5.module.taskGraph.numEdges());
    for (int i = 0; i < reparsed.taskGraph.numEdges(); ++i) {
        EXPECT_EQ(reparsed.taskGraph.edges[i].toString(),
                  v5.module.taskGraph.edges[i].toString());
    }
    // Round-tripping the round-trip is a fixed point.
    EXPECT_EQ(serializeCompiledModule(reparsed), text);
}

TEST(Megakernel, PreV5ModulesKeepWritingFormatVersionOne)
{
    const Compiled v4 = compileTinyAt("LSTM", SouffleLevel::kV4);
    ASSERT_FALSE(v4.module.megakernel());
    const std::string text = serializeCompiledModule(v4.module);
    EXPECT_NE(text.find("\"version\":1"), std::string::npos);
    EXPECT_EQ(text.find("taskGraph"), std::string::npos);
}

TEST(Megakernel, RejectsUnknownModuleFormatVersion)
{
    const Compiled v5 = compileTinyAt("MMoE", SouffleLevel::kV5);
    std::string text = serializeCompiledModule(v5.module);
    const size_t at = text.find("\"version\":2");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string("\"version\":2").size(),
                 "\"version\":3");
    EXPECT_THROW(deserializeCompiledModule(text), FatalError);
}

TEST(Megakernel, ArtifactStoreRoundTripsV5Modules)
{
    const std::string root = "megakernel-artifact-test-dir";
    SouffleOptions options;
    options.level = SouffleLevel::kV5;
    const Graph graph = buildTinyModel("MMoE");
    const Compiled compiled = compileSouffle(graph, options);
    ASSERT_TRUE(compiled.module.megakernel());

    const ArtifactMeta key = artifactKeyFor("tiny-MMoE", 1, options);
    saveArtifact(root, key, compiled);
    const Compiled loaded = loadArtifact(root, key);
    EXPECT_TRUE(loaded.module.megakernel());
    EXPECT_EQ(loaded.module.toString(), compiled.module.toString());
    EXPECT_EQ(loaded.module.taskGraph.numEdges(),
              compiled.module.taskGraph.numEdges());

    // Swap in a *valid* program that hashes differently: the
    // fingerprint integrity check must reject the V5 store entry.
    const std::string path =
        root + "/" + key.subdir() + "/program.json";
    {
        std::ofstream file(path);
        ASSERT_TRUE(file.good()) << path;
        file << serializeTeProgram(
            lowerToTe(buildTinyModel("LSTM")).program);
    }
    EXPECT_THROW(loadArtifact(root, key), FatalError);

    const std::string dir = root + "/" + key.subdir();
    for (const char *name :
         {"meta.json", "program.json", "schedules.json", "plan.json",
          "module.json", "module.src"})
        std::remove((dir + "/" + name).c_str());
    ::rmdir(dir.c_str());
    ::rmdir(root.c_str());
}

// ---------------------------------------------------------------------
// Native execution: wavefronts and determinism across job counts
// ---------------------------------------------------------------------

struct GlobalJobsGuard
{
    int saved = ThreadPool::globalJobs();
    ~GlobalJobsGuard() { ThreadPool::setGlobalJobs(saved); }
};

TEST(Megakernel, NativeOutputsAreByteIdenticalAcrossJobCounts)
{
    GlobalJobsGuard guard;
    NativeBuildOptions build;
    build.workDir = "megakernel-native-test-dir";
    // BERT runs every TE inline; EfficientNet sends large TEs through
    // the parallel_for hook -- from flat kernels at V4 and from inside
    // pool tasks at V5.
    for (const std::string model : {"BERT", "EfficientNet"}) {
        for (const SouffleLevel level :
             {SouffleLevel::kV4, SouffleLevel::kV5}) {
            SCOPED_TRACE(model + " V"
                         + std::to_string(static_cast<int>(level)));
            const Compiled compiled = compileTinyAt(model, level, "c");
            EXPECT_EQ(compiled.generatedSource.find(
                          "souffle_module_parallel_for(te_")
                          != std::string::npos,
                      model == "EfficientNet");

            const NativeExecutor native(compiled, build);
            if (level == SouffleLevel::kV5) {
                ASSERT_TRUE(compiled.module.megakernel());
                ASSERT_FALSE(native.taskWavefronts().empty());
                // Wavefronts partition the task set exactly.
                size_t staged = 0;
                for (const auto &wave : native.taskWavefronts())
                    staged += wave.size();
                EXPECT_EQ(static_cast<int>(staged),
                          compiled.module.taskGraph.numTasks());
            } else {
                EXPECT_TRUE(native.taskWavefronts().empty());
            }

            const NamedBuffers inputs = native.randomInputs();
            ThreadPool::setGlobalJobs(1);
            const NamedBuffers serial = native.run(inputs);
            ThreadPool::setGlobalJobs(8);
            const NamedBuffers wide = native.run(inputs);

            ASSERT_EQ(serial.size(), wide.size());
            for (const auto &[name, buffer] : serial) {
                const auto found = wide.find(name);
                ASSERT_NE(found, wide.end()) << name;
                ASSERT_EQ(buffer.size(), found->second.size()) << name;
                for (size_t i = 0; i < buffer.size(); ++i)
                    ASSERT_EQ(buffer[i], found->second[i])
                        << name << "[" << i << "]";
            }
        }
    }
}

} // namespace
} // namespace souffle
