/**
 * @file
 * Tests for the kernel-IR dataflow verifier (PR 7):
 *
 *  - KernelDataflow: dependence edges, barrier-aware happens-before,
 *    uncovered-edge detection, and fence-redundancy verdicts on
 *    hand-built instruction streams;
 *  - verifyMemoryPlan: a doctored plan (overlapping offsets,
 *    undersized buffer, truncated live interval, duplicate/missing
 *    assignment) is rejected with one error per violation, and the
 *    planner's own output proves sound on every zoo model;
 *  - the three lint rules (plan-overlap, unsynced-dep,
 *    redundant-sync) riding the dataflow results, including the
 *    mutation smoke tests demanded by the PR: a doctored MemoryPlan
 *    offset and a dropped grid.sync() are both caught as errors;
 *  - eliminateRedundantSyncs / SyncElimPass: spill barriers subsumed
 *    by an adjacent grid.sync() (or a kernel boundary) are deleted,
 *    interpreter results stay byte-identical, and the simulated
 *    latency never regresses;
 *  - JSON stability: the verifier report for a fixed input renders
 *    identically across independent compiles.
 */

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "analysis/dataflow.h"
#include "analysis/verify_plan.h"
#include "codegen/codegen_pass.h"
#include "compiler/pass_manager.h"
#include "compiler/souffle.h"
#include "gpu/sim.h"
#include "graph/lowering_pass.h"
#include "kernel/kernel_passes.h"
#include "lint/lint.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "runtime/memory_plan.h"
#include "sched/schedule_pass.h"
#include "te/program.h"
#include "te/simplify_pass.h"
#include "transform/sync_elim.h"
#include "transform/transform_passes.h"

namespace souffle {
namespace {

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/** m = a @ w (reduction); o = relu(m). */
TeProgram
buildMatmulReluProgram()
{
    TeProgram prog;
    const TensorId a =
        prog.addTensor("a", {8, 8}, DType::kFP32, TensorRole::kInput);
    const TensorId w =
        prog.addTensor("w", {8, 8}, DType::kFP32, TensorRole::kParam);
    const TensorId m = prog.addTensor("m", {8, 8}, DType::kFP32);
    const TensorId o =
        prog.addTensor("o", {8, 8}, DType::kFP32, TensorRole::kOutput);
    prog.addTe("mm", {a, w}, m, {8}, Combiner::kSum,
               Expr::binary(BinaryOp::kMul,
                            Expr::read(0, AffineMap::select({0, 2}, 3)),
                            Expr::read(1, AffineMap::select({2, 1}, 3))));
    prog.addTe("relu", {m}, o, {}, Combiner::kNone,
               Expr::unary(UnaryOp::kRelu,
                           Expr::read(0, AffineMap::identity(2))));
    return prog;
}

/**
 * t1 = relu(x); t2 = relu(t1); out = t1 + t2. Two intermediates whose
 * live ranges overlap (t1 live [0, 2], t2 live [1, 2]) -- the minimal
 * program where a workspace plan *can* be unsound.
 */
TeProgram
buildDiamondProgram()
{
    TeProgram prog;
    const TensorId x =
        prog.addTensor("x", {16}, DType::kFP32, TensorRole::kInput);
    const TensorId t1 = prog.addTensor("t1", {16}, DType::kFP32);
    const TensorId t2 = prog.addTensor("t2", {16}, DType::kFP32);
    const TensorId out = prog.addTensor("out", {16}, DType::kFP32,
                                        TensorRole::kOutput);
    prog.addTe("f", {x}, t1, {}, Combiner::kNone,
               Expr::unary(UnaryOp::kRelu,
                           Expr::read(0, AffineMap::identity(1))));
    prog.addTe("g", {t1}, t2, {}, Combiner::kNone,
               Expr::unary(UnaryOp::kRelu,
                           Expr::read(0, AffineMap::identity(1))));
    prog.addTe("add", {t1, t2}, out, {}, Combiner::kNone,
               Expr::binary(BinaryOp::kAdd,
                            Expr::read(0, AffineMap::identity(1)),
                            Expr::read(1, AffineMap::identity(1))));
    return prog;
}

Instr
makeInstr(InstrKind kind, TensorId tensor = -1)
{
    Instr instr;
    instr.kind = kind;
    instr.tensor = tensor;
    return instr;
}

/**
 * Two-stage kernel over buildMatmulReluProgram: stage 0 computes and
 * stores m, stage 1 (optionally behind a grid.sync()) consumes it.
 */
Kernel
buildTwoStageKernel(const TeProgram &prog, int64_t num_blocks,
                    bool with_sync)
{
    const TensorId a = prog.te(0).inputs[0];
    const TensorId w = prog.te(0).inputs[1];
    const TensorId m = prog.te(0).output;
    const TensorId o = prog.te(1).output;

    Kernel kernel;
    kernel.name = "mm_relu";
    KernelStage s0;
    s0.name = "mm";
    s0.teIds = {0};
    s0.numBlocks = num_blocks;
    s0.instrs = {makeInstr(InstrKind::kLoadGlobal, a),
                 makeInstr(InstrKind::kLoadGlobal, w),
                 makeInstr(InstrKind::kCompute, m),
                 makeInstr(InstrKind::kStoreGlobal, m)};
    KernelStage s1;
    s1.name = "relu";
    s1.teIds = {1};
    s1.numBlocks = num_blocks;
    if (with_sync)
        s1.instrs.push_back(makeInstr(InstrKind::kGridSync));
    s1.instrs.push_back(makeInstr(InstrKind::kLoadGlobal, m));
    s1.instrs.push_back(makeInstr(InstrKind::kCompute, o));
    s1.instrs.push_back(makeInstr(InstrKind::kStoreGlobal, o));
    kernel.stages = {std::move(s0), std::move(s1)};
    return kernel;
}

int
countRule(const LintReport &report, const std::string &rule)
{
    int n = 0;
    for (const Diagnostic &diag : report.diagnostics())
        if (diag.rule == rule)
            ++n;
    return n;
}

LintReport
lintModule(const TeProgram &prog, const CompiledModule &module,
           const std::vector<std::string> &rules)
{
    const GlobalAnalysis analysis(prog);
    LintInput input{prog, analysis, DeviceSpec::a100()};
    input.module = &module;
    return Linter(rules).run(input);
}

/** Fence instructions (kBarrier/kGridSync) in @p kernel. */
int
countFences(const Kernel &kernel, InstrKind kind)
{
    int n = 0;
    for (const KernelStage &stage : kernel.stages)
        for (const Instr &instr : stage.instrs)
            n += instr.kind == kind ? 1 : 0;
    return n;
}

/** The V4 pipeline with the sync-elimination pass left out. */
PassManager
baselineV4Pipeline()
{
    PassManager pm("souffle-v4-no-sync-elim");
    pm.add<LowerToTePass>();
    pm.add<SimplifyPass>();
    pm.add<HorizontalTransformPass>();
    pm.add<VerticalTransformPass>();
    pm.add<SchedulePass>();
    pm.add<PartitionPass>();
    pm.add<BuildModulePass>();
    pm.add<TwoPhaseReductionPass>();
    pm.add<PipelineOptimizePass>();
    pm.add<ReuseOptimizePass>();
    pm.add<CodegenPass>();
    return pm;
}

const std::vector<std::string> kVerifierRules = {
    "plan-overlap", "redundant-sync", "task-graph-dep",
    "unsynced-dep"};

// ---------------------------------------------------------------------
// KernelDataflow: edges and happens-before
// ---------------------------------------------------------------------

TEST(KernelDataflow, CrossStageRawEdgeIsFoundAndGridRequired)
{
    const TeProgram prog = buildMatmulReluProgram();
    const Kernel kernel = buildTwoStageKernel(prog, 4, true);
    const KernelDataflow dataflow(prog, kernel);

    ASSERT_EQ(dataflow.edges().size(), 1u);
    const DepEdge &edge = dataflow.edges()[0];
    EXPECT_EQ(edge.kind, DepEdge::Kind::kRaw);
    EXPECT_EQ(edge.tensor, prog.te(0).output);
    EXPECT_EQ(edge.defTe, 0);
    EXPECT_EQ(edge.useTe, 1);
    // Def is the externalizing store (stage 0, instr 3); use is the
    // consuming load (stage 1, after the sync).
    EXPECT_EQ(edge.def.stage, 0);
    EXPECT_EQ(edge.def.instr, 3);
    EXPECT_EQ(edge.use.stage, 1);
    EXPECT_EQ(edge.required, FenceScope::kGrid);
}

TEST(KernelDataflow, HappensBeforeRequiresAnInterveningFence)
{
    const TeProgram prog = buildMatmulReluProgram();

    const Kernel with_sync = buildTwoStageKernel(prog, 4, true);
    const KernelDataflow covered(prog, with_sync);
    ASSERT_EQ(covered.edges().size(), 1u);
    const DepEdge &edge = covered.edges()[0];
    EXPECT_TRUE(covered.ordered(edge.def, edge.use, FenceScope::kGrid));
    EXPECT_TRUE(covered.ordered(edge.def, edge.use, FenceScope::kNone));
    EXPECT_TRUE(covered.uncoveredEdges().empty());

    const Kernel no_sync = buildTwoStageKernel(prog, 4, false);
    const KernelDataflow uncovered(prog, no_sync);
    ASSERT_EQ(uncovered.edges().size(), 1u);
    const DepEdge &bare = uncovered.edges()[0];
    EXPECT_FALSE(
        uncovered.ordered(bare.def, bare.use, FenceScope::kGrid));
    // No fence is trivially fine when none is required.
    EXPECT_TRUE(
        uncovered.ordered(bare.def, bare.use, FenceScope::kNone));
    ASSERT_EQ(uncovered.uncoveredEdges().size(), 1u);
    EXPECT_EQ(uncovered.uncoveredEdges()[0].tensor,
              prog.te(0).output);
}

TEST(KernelDataflow, BlockFenceDoesNotSatisfyAGridRequirement)
{
    const TeProgram prog = buildMatmulReluProgram();
    Kernel kernel = buildTwoStageKernel(prog, 4, false);
    // A __syncthreads() where a grid.sync() is needed: still a race.
    kernel.stages[1].instrs.insert(kernel.stages[1].instrs.begin(),
                                   makeInstr(InstrKind::kBarrier));
    const KernelDataflow dataflow(prog, kernel);
    ASSERT_EQ(dataflow.edges().size(), 1u);
    const DepEdge &edge = dataflow.edges()[0];
    EXPECT_TRUE(dataflow.ordered(edge.def, edge.use,
                                 FenceScope::kBlock));
    EXPECT_FALSE(dataflow.ordered(edge.def, edge.use,
                                  FenceScope::kGrid));
    EXPECT_EQ(dataflow.uncoveredEdges().size(), 1u);
}

TEST(KernelDataflow, SingleBlockCrossStageEdgeNeedsOnlyABlockFence)
{
    const TeProgram prog = buildMatmulReluProgram();
    const Kernel kernel = buildTwoStageKernel(prog, 1, true);
    const KernelDataflow dataflow(prog, kernel);
    ASSERT_EQ(dataflow.edges().size(), 1u);
    EXPECT_EQ(dataflow.edges()[0].required, FenceScope::kBlock);
}

TEST(KernelDataflow, SameStageReductionConsumerNeedsABlockFence)
{
    const TeProgram prog = buildMatmulReluProgram();
    const TensorId a = prog.te(0).inputs[0];
    const TensorId w = prog.te(0).inputs[1];
    const TensorId m = prog.te(0).output;
    const TensorId o = prog.te(1).output;

    Kernel kernel;
    kernel.name = "fused";
    KernelStage s0;
    s0.name = "mm_relu";
    s0.teIds = {0, 1};
    s0.numBlocks = 2;
    s0.instrs = {makeInstr(InstrKind::kLoadGlobal, a),
                 makeInstr(InstrKind::kLoadGlobal, w),
                 makeInstr(InstrKind::kCompute, m),
                 makeInstr(InstrKind::kCompute, o),
                 makeInstr(InstrKind::kStoreGlobal, o)};
    kernel.stages = {s0};

    const KernelDataflow bare(prog, kernel);
    ASSERT_EQ(bare.edges().size(), 1u);
    EXPECT_EQ(bare.edges()[0].required, FenceScope::kBlock);
    EXPECT_EQ(bare.uncoveredEdges().size(), 1u);

    // Inserting the block barrier between the computes fixes it.
    kernel.stages[0].instrs.insert(
        kernel.stages[0].instrs.begin() + 3,
        makeInstr(InstrKind::kBarrier));
    const KernelDataflow fixed(prog, kernel);
    EXPECT_TRUE(fixed.uncoveredEdges().empty());
}

// ---------------------------------------------------------------------
// KernelDataflow: fence-redundancy verdicts
// ---------------------------------------------------------------------

TEST(FenceVerdicts, NeededGridSyncIsKept)
{
    const TeProgram prog = buildMatmulReluProgram();
    const Kernel kernel = buildTwoStageKernel(prog, 4, true);
    const KernelDataflow dataflow(prog, kernel);
    const std::vector<FenceVerdict> verdicts =
        dataflow.fenceVerdicts();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].action, FenceVerdict::Action::kKeep);
}

TEST(FenceVerdicts, SpillBarrierAdjacentToGridSyncIsSubsumed)
{
    const TeProgram prog = buildMatmulReluProgram();
    Kernel kernel = buildTwoStageKernel(prog, 4, true);
    // The reuse-cache spill barrier at the end of stage 0, directly
    // followed by stage 1's grid.sync().
    kernel.stages[0].instrs.push_back(makeInstr(InstrKind::kBarrier));
    const KernelDataflow dataflow(prog, kernel);
    const std::vector<FenceVerdict> verdicts =
        dataflow.fenceVerdicts();
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].kind, InstrKind::kBarrier);
    EXPECT_EQ(verdicts[0].action, FenceVerdict::Action::kRemove);
    EXPECT_NE(verdicts[0].reason.find("subsumed"), std::string::npos)
        << verdicts[0].reason;
    EXPECT_EQ(verdicts[1].kind, InstrKind::kGridSync);
    EXPECT_EQ(verdicts[1].action, FenceVerdict::Action::kKeep);
}

TEST(FenceVerdicts, TrailingBarrierIsRemovable)
{
    const TeProgram prog = buildMatmulReluProgram();
    Kernel kernel = buildTwoStageKernel(prog, 4, true);
    kernel.stages[1].instrs.push_back(makeInstr(InstrKind::kBarrier));
    const KernelDataflow dataflow(prog, kernel);
    const std::vector<FenceVerdict> verdicts =
        dataflow.fenceVerdicts();
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[1].kind, InstrKind::kBarrier);
    EXPECT_EQ(verdicts[1].action, FenceVerdict::Action::kRemove);
    EXPECT_NE(verdicts[1].reason.find("trailing"), std::string::npos)
        << verdicts[1].reason;
}

TEST(FenceVerdicts, LoneSpillBarrierMidStreamIsConservativelyKept)
{
    const TeProgram prog = buildMatmulReluProgram();
    Kernel kernel = buildTwoStageKernel(prog, 4, false);
    // A spill barrier between the stages with *no* adjacent fence and
    // instructions on both sides: the shared-memory recycling it
    // guards is invisible to tensor def/use chains, so it must stay.
    kernel.stages[0].instrs.push_back(makeInstr(InstrKind::kBarrier));
    const KernelDataflow dataflow(prog, kernel);
    const std::vector<FenceVerdict> verdicts =
        dataflow.fenceVerdicts();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].action, FenceVerdict::Action::kKeep);
}

TEST(FenceVerdicts, GridSyncOverBlockScopeEdgeIsDowngradable)
{
    const TeProgram prog = buildMatmulReluProgram();
    const Kernel kernel = buildTwoStageKernel(prog, 1, true);
    const KernelDataflow dataflow(prog, kernel);
    const std::vector<FenceVerdict> verdicts =
        dataflow.fenceVerdicts();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].action, FenceVerdict::Action::kDowngrade);
    EXPECT_NE(verdicts[0].reason.find("__syncthreads"),
              std::string::npos)
        << verdicts[0].reason;
}

// ---------------------------------------------------------------------
// eliminateRedundantSyncs
// ---------------------------------------------------------------------

TEST(SyncElim, RemovesSubsumedAndTrailingBarriersOnly)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    Kernel kernel = buildTwoStageKernel(prog, 4, true);
    kernel.stages[0].instrs.push_back(makeInstr(InstrKind::kBarrier));
    kernel.stages[1].instrs.push_back(makeInstr(InstrKind::kBarrier));
    module.kernels.push_back(kernel);

    const SyncElimStats stats =
        eliminateRedundantSyncs(prog, module);
    EXPECT_EQ(stats.barriersRemoved, 2);
    EXPECT_EQ(stats.gridSyncsRemoved, 0);
    EXPECT_EQ(stats.syncsDowngraded, 0);
    EXPECT_EQ(stats.kernelsTouched, 1);

    const Kernel &out = module.kernels[0];
    EXPECT_EQ(countFences(out, InstrKind::kBarrier), 0);
    EXPECT_EQ(countFences(out, InstrKind::kGridSync), 1);
    // The stream is still fully ordered afterwards.
    const KernelDataflow dataflow(prog, out);
    EXPECT_TRUE(dataflow.uncoveredEdges().empty());
    // And a second run finds nothing left to do (fixed point).
    const SyncElimStats again =
        eliminateRedundantSyncs(prog, module);
    EXPECT_EQ(again.kernelsTouched, 0);
}

TEST(SyncElim, DowngradesSingleBlockGridSync)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(buildTwoStageKernel(prog, 1, true));

    const SyncElimStats stats =
        eliminateRedundantSyncs(prog, module);
    EXPECT_EQ(stats.syncsDowngraded, 1);
    EXPECT_EQ(countFences(module.kernels[0], InstrKind::kGridSync), 0);
    EXPECT_EQ(countFences(module.kernels[0], InstrKind::kBarrier), 1);
    const KernelDataflow dataflow(prog, module.kernels[0]);
    EXPECT_TRUE(dataflow.uncoveredEdges().empty());
}

TEST(SyncElim, LeavesLibraryKernelsAndNeededFencesAlone)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    Kernel lib = buildTwoStageKernel(prog, 4, true);
    lib.usesLibrary = true;
    lib.stages[1].instrs.push_back(makeInstr(InstrKind::kBarrier));
    module.kernels.push_back(lib);
    module.kernels.push_back(buildTwoStageKernel(prog, 4, true));

    const SyncElimStats stats =
        eliminateRedundantSyncs(prog, module);
    EXPECT_EQ(stats.barriersRemoved, 0);
    EXPECT_EQ(stats.gridSyncsRemoved, 0);
    EXPECT_EQ(stats.kernelsTouched, 0);
    EXPECT_EQ(countFences(module.kernels[0], InstrKind::kBarrier), 1);
}

// ---------------------------------------------------------------------
// SyncElimPass on the real pipeline
// ---------------------------------------------------------------------

TEST(SyncElim, PipelineRemovesSpillBarriersOnFullEfficientNet)
{
    SouffleOptions options;
    options.level = SouffleLevel::kV4;
    const Graph graph = buildPaperModel("EfficientNet");

    const Compiled baseline = compileWithPipeline(
        baselineV4Pipeline(), graph, options, "V4-no-sync-elim");
    const Compiled optimized = compileSouffle(graph, options);

    // Same transformed program; only the fence streams differ.
    EXPECT_EQ(baseline.programHash, optimized.programHash);
    EXPECT_GE(optimized.passStats.counterTotal("barriersRemoved"), 1);
    EXPECT_GE(optimized.passStats.counterTotal("latencySavedNs"), 0);
    EXPECT_EQ(optimized.passStats.counterTotal("gridSyncsRemoved"), 0);

    const double before =
        simulate(baseline.module, options.device).totalUs;
    const double after =
        simulate(optimized.module, options.device).totalUs;
    EXPECT_LE(after, before);

    // Every surviving fence is needed: the redundant-sync rule is
    // quiet on the optimized module and the stream stays ordered.
    const LintReport report = lintModule(
        optimized.program, optimized.module,
        {"redundant-sync", "unsynced-dep"});
    EXPECT_EQ(report.errors(), 0) << report.renderText();
    EXPECT_EQ(countRule(report, "redundant-sync"), 0)
        << report.renderText();
}

TEST(SyncElim, InterpreterResultsAreByteIdenticalAfterElimination)
{
    // A single-SM device shrinks the on-chip reuse cache enough for
    // the tiny ResNeXt to evict (and thus spill-barrier), so the
    // before/after comparison is interpreter-affordable.
    SouffleOptions options;
    options.level = SouffleLevel::kV4;
    options.device = DeviceSpec::a100();
    options.device.numSms = 1;
    const Graph graph = buildTinyModel("ResNeXt");

    const Compiled baseline = compileWithPipeline(
        baselineV4Pipeline(), graph, options, "V4-no-sync-elim");
    const Compiled optimized = compileSouffle(graph, options);
    ASSERT_GE(optimized.passStats.counterTotal("barriersRemoved"), 1);

    const Executor base_exec(baseline, options.device);
    const Executor opt_exec(optimized, options.device);
    const ExecutionResult base_run =
        base_exec.run(base_exec.randomInputs());
    const ExecutionResult opt_run =
        opt_exec.run(opt_exec.randomInputs());

    ASSERT_EQ(base_run.outputs.size(), opt_run.outputs.size());
    for (const auto &[name, buffer] : base_run.outputs) {
        const auto it = opt_run.outputs.find(name);
        ASSERT_NE(it, opt_run.outputs.end()) << name;
        // Bitwise equality, not tolerance: fences do not change math.
        EXPECT_TRUE(buffer == it->second) << name;
    }
    EXPECT_LE(opt_run.timing.totalUs, base_run.timing.totalUs);
}

// ---------------------------------------------------------------------
// verifyMemoryPlan
// ---------------------------------------------------------------------

TEST(VerifyPlan, PlannerOutputIsSound)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    const MemoryPlan plan = planMemory(prog, analysis);
    ASSERT_EQ(plan.assignments.size(), 2u);
    const LintReport report =
        verifyMemoryPlan(prog, analysis, plan, nullptr);
    EXPECT_TRUE(report.empty()) << report.renderText();
}

TEST(VerifyPlan, OverlappingConcurrentTensorsAreAnError)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    MemoryPlan plan = planMemory(prog, analysis);
    ASSERT_EQ(plan.assignments.size(), 2u);
    // Doctor the plan: both intermediates at the same offset even
    // though t1 is still live when t2 is written.
    plan.assignments[1].offset = plan.assignments[0].offset;
    const LintReport report =
        verifyMemoryPlan(prog, analysis, plan, nullptr);
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find(
                  "simultaneously-live tensors share workspace"),
              std::string::npos)
        << report.diagnostics()[0].message;
}

TEST(VerifyPlan, UndersizedBufferIsAnError)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    MemoryPlan plan = planMemory(prog, analysis);
    plan.assignments[0].bytes = 4;
    const LintReport report =
        verifyMemoryPlan(prog, analysis, plan, nullptr);
    ASSERT_GE(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.renderText().find("reserves 4 bytes"),
              std::string::npos)
        << report.renderText();
}

TEST(VerifyPlan, TruncatedLiveIntervalIsAnError)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    MemoryPlan plan = planMemory(prog, analysis);
    // t1 is read by TE 2 (the add); claiming it dies at TE 1 would
    // let the planner recycle bytes still in use.
    ASSERT_EQ(plan.assignments[0].liveTo, 2);
    plan.assignments[0].liveTo = 1;
    const LintReport report =
        verifyMemoryPlan(prog, analysis, plan, nullptr);
    ASSERT_GE(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.renderText().find(
                  "does not contain its observed live interval"),
              std::string::npos)
        << report.renderText();
}

TEST(VerifyPlan, EscapingDuplicateUnknownAndMissingAreErrors)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    const MemoryPlan clean = planMemory(prog, analysis);

    MemoryPlan escaping = clean;
    escaping.assignments[1].offset = escaping.workspaceBytes;
    EXPECT_NE(verifyMemoryPlan(prog, analysis, escaping, nullptr)
                  .renderText()
                  .find("escapes the workspace"),
              std::string::npos);

    MemoryPlan duplicated = clean;
    duplicated.assignments.push_back(duplicated.assignments[0]);
    EXPECT_NE(verifyMemoryPlan(prog, analysis, duplicated, nullptr)
                  .renderText()
                  .find("planned more than once"),
              std::string::npos);

    MemoryPlan unknown = clean;
    unknown.assignments[0].tensor = 99;
    const LintReport unknown_report =
        verifyMemoryPlan(prog, analysis, unknown, nullptr);
    EXPECT_NE(unknown_report.renderText().find("unknown tensor id 99"),
              std::string::npos);
    // Dropping an assignment also breaks completeness.
    MemoryPlan missing = clean;
    missing.assignments.pop_back();
    EXPECT_NE(verifyMemoryPlan(prog, analysis, missing, nullptr)
                  .renderText()
                  .find("has no workspace assignment"),
              std::string::npos);
}

TEST(VerifyPlan, ModuleStreamsWidenTheObservedInterval)
{
    // A module whose stage re-reads t1 at a later TE than the program
    // says: the union with the module-observed interval must flag a
    // plan that only covers the program-level range.
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    const std::vector<TensorLiveInterval> program_only =
        moduleLiveIntervals(prog, analysis, nullptr);
    ASSERT_EQ(program_only.size(), 2u);
    for (const TensorLiveInterval &interval : program_only) {
        EXPECT_GE(interval.lastUse, interval.firstDef);
        EXPECT_GE(interval.firstDef, 0);
    }
}

// ---------------------------------------------------------------------
// The three lint rules
// ---------------------------------------------------------------------

TEST(UnsyncedDepRule, DroppedGridSyncIsAnError)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(buildTwoStageKernel(prog, 4, false));
    const LintReport report =
        lintModule(prog, module, {"unsynced-dep"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    const Diagnostic &diag = report.diagnostics()[0];
    EXPECT_NE(diag.message.find("unordered dependence"),
              std::string::npos);
    EXPECT_NE(diag.fixHint.find("kGridSync"), std::string::npos);
    EXPECT_EQ(diag.location.kernel, "mm_relu");

    CompiledModule fixed;
    fixed.kernels.push_back(buildTwoStageKernel(prog, 4, true));
    EXPECT_TRUE(lintModule(prog, fixed, {"unsynced-dep"}).empty());
}

TEST(UnsyncedDepRule, DroppedBlockBarrierIsAnError)
{
    // A reduction producer fused into its consumer's stage with the
    // block barrier between their computes dropped.
    const TeProgram prog = buildMatmulReluProgram();
    Kernel kernel;
    kernel.name = "fused";
    KernelStage s0;
    s0.name = "mm_relu";
    s0.teIds = {0, 1};
    s0.numBlocks = 2;
    s0.instrs = {makeInstr(InstrKind::kLoadGlobal, prog.te(0).inputs[0]),
                 makeInstr(InstrKind::kLoadGlobal, prog.te(0).inputs[1]),
                 makeInstr(InstrKind::kCompute, prog.te(0).output),
                 makeInstr(InstrKind::kBarrier),
                 makeInstr(InstrKind::kCompute, prog.te(1).output),
                 makeInstr(InstrKind::kStoreGlobal, prog.te(1).output)};
    kernel.stages = {s0};

    CompiledModule module;
    module.kernels.push_back(kernel);
    ASSERT_TRUE(lintModule(prog, module, {"unsynced-dep"}).empty());

    // Drop the barrier: the same stream is now a block-scope race.
    module.kernels[0].stages[0].instrs.erase(
        module.kernels[0].stages[0].instrs.begin() + 3);
    const LintReport report =
        lintModule(prog, module, {"unsynced-dep"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].fixHint.find("kBarrier"),
              std::string::npos)
        << report.diagnostics()[0].fixHint;
}

TEST(RedundantSyncRule, WarnsOnSubsumedSpillBarrier)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    Kernel kernel = buildTwoStageKernel(prog, 4, true);
    kernel.stages[0].instrs.push_back(makeInstr(InstrKind::kBarrier));
    module.kernels.push_back(kernel);
    const LintReport report =
        lintModule(prog, module, {"redundant-sync"});
    EXPECT_EQ(report.errors(), 0);
    ASSERT_EQ(report.warnings(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find(
                  "redundant barrier"),
              std::string::npos)
        << report.diagnostics()[0].message;
}

TEST(PlanOverlapRule, InjectedDoctoredPlanIsRejected)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    MemoryPlan plan = planMemory(prog, analysis);
    plan.assignments[1].offset = plan.assignments[0].offset;

    LintInput input{prog, analysis, DeviceSpec::a100()};
    input.plan = &plan;
    const LintReport report = Linter({"plan-overlap"}).run(input);
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_EQ(report.diagnostics()[0].rule, "plan-overlap");

    // Without an injected plan the rule verifies the planner itself.
    LintInput self{prog, analysis, DeviceSpec::a100()};
    EXPECT_TRUE(Linter({"plan-overlap"}).run(self).empty());
}

TEST(VerifierRules, NonGpuBackendSkipsStreamRulesButPlansStill)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    LintInput input{prog, analysis, DeviceSpec::a100()};
    input.backend = "c";
    const LintReport report = Linter(kVerifierRules).run(input);
    EXPECT_EQ(report.errors(), 0) << report.renderText();
    // plan-overlap ran (it is backend-agnostic and found no issue);
    // the stream rules need a module and stay quiet entirely.
    EXPECT_EQ(report.size(), 0u) << report.renderText();
}

// ---------------------------------------------------------------------
// Mutation smoke tests on compiled zoo modules
// ---------------------------------------------------------------------

TEST(MutationSmoke, DroppedGridSyncInCompiledModuleIsCaught)
{
    SouffleOptions options;
    options.level = SouffleLevel::kV4;
    Compiled compiled =
        compileSouffle(buildTinyModel("BERT"), options);

    ASSERT_TRUE(lintModule(compiled.program, compiled.module,
                           {"unsynced-dep"})
                    .empty());

    // Drop the first grid.sync() of the module.
    bool dropped = false;
    for (Kernel &kernel : compiled.module.kernels) {
        for (KernelStage &stage : kernel.stages) {
            for (size_t i = 0; i < stage.instrs.size(); ++i) {
                if (stage.instrs[i].kind == InstrKind::kGridSync) {
                    stage.instrs.erase(stage.instrs.begin() + i);
                    dropped = true;
                    break;
                }
            }
            if (dropped)
                break;
        }
        if (dropped)
            break;
    }
    ASSERT_TRUE(dropped);
    const LintReport report = lintModule(
        compiled.program, compiled.module, {"unsynced-dep"});
    EXPECT_GE(report.errors(), 1) << report.renderText();
}

TEST(MutationSmoke, DoctoredPlanOffsetInCompiledModuleIsCaught)
{
    SouffleOptions options;
    options.level = SouffleLevel::kV4;
    const Compiled compiled =
        compileSouffle(buildTinyModel("BERT"), options);
    const GlobalAnalysis analysis(compiled.program);
    MemoryPlan plan = planMemory(compiled.program, analysis);
    ASSERT_GE(plan.assignments.size(), 2u);

    // Sanity: the honest plan proves sound against the module.
    ASSERT_EQ(verifyMemoryPlan(compiled.program, analysis, plan,
                               &compiled.module)
                  .errors(),
              0);

    // Collide two concurrently-live buffers: put the assignment with
    // the latest liveFrom at the offset of one that is still live.
    std::sort(plan.assignments.begin(), plan.assignments.end(),
              [](const BufferAssignment &a, const BufferAssignment &b) {
                  return a.liveFrom < b.liveFrom;
              });
    bool collided = false;
    for (size_t i = 0; i + 1 < plan.assignments.size() && !collided;
         ++i) {
        for (size_t j = i + 1; j < plan.assignments.size(); ++j) {
            BufferAssignment &a = plan.assignments[i];
            BufferAssignment &b = plan.assignments[j];
            if (a.offset != b.offset && b.liveFrom <= a.liveTo) {
                b.offset = a.offset;
                collided = true;
                break;
            }
        }
    }
    ASSERT_TRUE(collided);
    const LintReport report = verifyMemoryPlan(
        compiled.program, analysis, plan, &compiled.module);
    EXPECT_GE(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.renderText().find("share workspace bytes"),
              std::string::npos)
        << report.renderText();
}

// ---------------------------------------------------------------------
// Zoo-wide verifier cleanliness and JSON stability
// ---------------------------------------------------------------------

class ZooVerify : public ::testing::TestWithParam<std::string>
{};

TEST_P(ZooVerify, VerifierIsCleanAtEveryLevelOnBothBackends)
{
    const Graph graph = buildTinyModel(GetParam());
    for (int level = 0; level <= 5; ++level) {
        for (std::string_view backend : {"cuda", "c"}) {
            SouffleOptions options;
            options.level = static_cast<SouffleLevel>(level);
            options.backend = backend;
            const Compiled compiled = compileSouffle(graph, options);
            const GlobalAnalysis analysis(compiled.program);
            LintInput input{compiled.program, analysis,
                            options.device};
            input.module = &compiled.module;
            input.backend = backend;
            const LintReport report =
                Linter(kVerifierRules).run(input);
            EXPECT_EQ(report.errors(), 0)
                << GetParam() << " V" << level << " " << backend
                << "\n"
                << report.renderText();
            // Post-sync-elim (V4, GPU) every fence is needed.
            if (level == 4 && backend == "cuda") {
                EXPECT_EQ(countRule(report, "redundant-sync"), 0)
                    << GetParam() << "\n"
                    << report.renderText();
            }
        }
    }
}

TEST_P(ZooVerify, VerifierJsonIsDeterministicAcrossCompiles)
{
    const Graph graph = buildTinyModel(GetParam());
    const auto render = [&] {
        SouffleOptions options;
        options.level = SouffleLevel::kV4;
        const Compiled compiled = compileSouffle(graph, options);
        const GlobalAnalysis analysis(compiled.program);
        LintInput input{compiled.program, analysis, options.device};
        input.module = &compiled.module;
        const LintReport report = Linter(kVerifierRules).run(input);
        return report.renderJson();
    };
    const std::string first = render();
    EXPECT_EQ(first, render());
    EXPECT_NE(first.find("\"errors\": 0"), std::string::npos)
        << first;
}

INSTANTIATE_TEST_SUITE_P(Models, ZooVerify,
                         ::testing::Values("BERT", "ResNeXt", "LSTM",
                                           "EfficientNet",
                                           "SwinTransformer", "MMoE"));

TEST(VerifierJson, GoldenReportForDoctoredPlan)
{
    const TeProgram prog = buildDiamondProgram();
    const GlobalAnalysis analysis(prog);
    MemoryPlan plan = planMemory(prog, analysis);
    plan.assignments[1].offset = plan.assignments[0].offset;
    const LintReport report =
        verifyMemoryPlan(prog, analysis, plan, nullptr);
    const std::string json = report.renderJson();
    // Pin the machine-readable shape the CI tooling parses.
    EXPECT_NE(json.find("\"rule\": \"plan-overlap\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("simultaneously-live"), std::string::npos)
        << json;
    EXPECT_EQ(json, report.renderJson());
}

// ---------------------------------------------------------------------
// VerifyPlanPass / strict pipeline integration
// ---------------------------------------------------------------------

TEST(VerifyPlanPass, StrictCompileOfEveryTinyModelSucceeds)
{
    for (const std::string &name : paperModelNames()) {
        SouffleOptions options;
        options.level = SouffleLevel::kV4;
        options.strictLint = true;
        const Compiled compiled =
            compileSouffle(buildTinyModel(name), options);
        EXPECT_GE(compiled.passStats.counterTotal("tensorsPlanned"), 1)
            << name;
        EXPECT_EQ(compiled.passStats.counterTotal("planFindings"), 0)
            << name;
    }
}

} // namespace
} // namespace souffle
