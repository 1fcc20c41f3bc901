/**
 * @file
 * Tests for the souffle-lint static-analysis subsystem:
 *
 *  - each builtin rule fires on a hand-built violating fixture
 *    (missing grid sync, missing block barrier, out-of-bounds read
 *    map, resource-cap overflow, dead TE, store-to-nowhere, overlapped
 *    load in stage 0, grid.sync() inside a library kernel) and stays
 *    quiet on the corresponding clean fixture;
 *  - the mutation smoke test: dropping the grid syncs from a compiled
 *    zoo-tiny module makes the hazard rule fire, and the strict-mode
 *    LintPass rejects the module;
 *  - every zoo-tiny model lints clean (zero errors) at every
 *    SouffleLevel;
 *  - LintReport rendering (text and JSON), the rule registry, rule
 *    filtering, and the IrVerifier's all-violations-in-one-report
 *    contract.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "common/logging.h"
#include "compiler/pass_manager.h"
#include "compiler/souffle.h"
#include "lint/lint.h"
#include "models/zoo.h"
#include "te/program.h"

namespace souffle {
namespace {

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/**
 * m = a @ w (one-relies-on-many, sum over k); o = relu(m). The
 * canonical producer/consumer pair for the synchronization rules.
 */
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
    // Iteration space [i, j, k]: a[i, k] * w[k, j].
    prog.addTe("mm", {a, w}, m, {8}, Combiner::kSum,
               Expr::binary(BinaryOp::kMul,
                            Expr::read(0, AffineMap::select({0, 2}, 3)),
                            Expr::read(1, AffineMap::select({2, 1}, 3))));
    prog.addTe("relu", {m}, o, {}, Combiner::kNone,
               Expr::unary(UnaryOp::kRelu,
                           Expr::read(0, AffineMap::identity(2))));
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
 * stores m, stage 1 (behind a grid.sync()) consumes it. @p num_blocks
 * > 1 makes the cross-stage hazard rule applicable.
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

/** Count diagnostics of @p rule in @p report. */
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

// ---------------------------------------------------------------------
// Grid-sync races, checked by unsynced-dep
// ---------------------------------------------------------------------

TEST(GridSyncRace, CleanTwoStageKernelPasses)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/true));
    const LintReport report =
        lintModule(prog, module, {"unsynced-dep"});
    EXPECT_TRUE(report.empty()) << report.renderText();
}

TEST(GridSyncRace, MissingGridSyncIsARawError)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/false));
    const LintReport report =
        lintModule(prog, module, {"unsynced-dep"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    const Diagnostic &diag = report.diagnostics()[0];
    EXPECT_EQ(diag.rule, "unsynced-dep");
    EXPECT_EQ(diag.location.kernel, "mm_relu");
    EXPECT_EQ(diag.location.stage, 1);
    EXPECT_NE(diag.message.find("RAW"), std::string::npos);
}

TEST(GridSyncRace, SingleBlockKernelsAreExempt)
{
    // One block in flight: a __syncthreads() orders the stages, so no
    // grid.sync() is needed. An unfenced cross-stage read still races.
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/1, /*with_sync=*/false));
    const LintReport unfenced =
        lintModule(prog, module, {"unsynced-dep"});
    ASSERT_EQ(unfenced.errors(), 1) << unfenced.renderText();
    EXPECT_NE(unfenced.diagnostics()[0].message.find("block fence"),
              std::string::npos);

    std::vector<Instr> &relu = module.kernels[0].stages[1].instrs;
    relu.insert(relu.begin(), makeInstr(InstrKind::kBarrier));
    const LintReport report =
        lintModule(prog, module, {"unsynced-dep"});
    EXPECT_TRUE(report.empty()) << report.renderText();
}

TEST(GridSyncRace, ReversedStagesAreAWarError)
{
    // Stage 0 hosts the consumer, stage 1 the producer: the producer's
    // write is a WAR hazard against the earlier stage's read.
    const TeProgram prog = buildMatmulReluProgram();
    Kernel kernel =
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/false);
    std::swap(kernel.stages[0], kernel.stages[1]);
    kernel.stages[0].teIds = {1};
    kernel.stages[1].teIds = {0};
    CompiledModule module;
    module.kernels.push_back(std::move(kernel));
    const LintReport report =
        lintModule(prog, module, {"unsynced-dep"});
    ASSERT_GE(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("WAR"),
              std::string::npos);
}

TEST(GridSyncRace, FusedReduceConsumerNeedsABlockBarrier)
{
    // Producer (one-relies-on-many) and consumer fused into ONE stage:
    // without a __syncthreads() between their computes the consumer
    // reads an incomplete partial reduction (paper Sec. 6.3).
    const TeProgram prog = buildMatmulReluProgram();
    const TensorId m = prog.te(0).output;
    const TensorId o = prog.te(1).output;

    Kernel kernel;
    kernel.name = "fused";
    KernelStage stage;
    stage.name = "mm+relu";
    stage.teIds = {0, 1};
    stage.numBlocks = 4;
    stage.instrs = {makeInstr(InstrKind::kCompute, m),
                    makeInstr(InstrKind::kCompute, o),
                    makeInstr(InstrKind::kStoreGlobal, o)};
    kernel.stages.push_back(stage);
    CompiledModule module;
    module.kernels.push_back(kernel);

    const LintReport broken =
        lintModule(prog, module, {"unsynced-dep"});
    ASSERT_EQ(broken.errors(), 1) << broken.renderText();
    EXPECT_NE(broken.diagnostics()[0].message.find("block fence"),
              std::string::npos);

    // Inserting the barrier between the computes fixes it.
    module.kernels[0].stages[0].instrs.insert(
        module.kernels[0].stages[0].instrs.begin() + 1,
        makeInstr(InstrKind::kBarrier));
    const LintReport fixed =
        lintModule(prog, module, {"unsynced-dep"});
    EXPECT_TRUE(fixed.empty()) << fixed.renderText();
}

// ---------------------------------------------------------------------
// affine-bounds
// ---------------------------------------------------------------------

LintReport
lintProgram(const TeProgram &prog, const std::vector<std::string> &rules)
{
    const GlobalAnalysis analysis(prog);
    const LintInput input{prog, analysis, DeviceSpec::a100()};
    return Linter(rules).run(input);
}

TeProgram
buildUnaryProgram(ExprPtr body)
{
    TeProgram prog;
    const TensorId a =
        prog.addTensor("a", {8}, DType::kFP32, TensorRole::kInput);
    const TensorId o =
        prog.addTensor("o", {8}, DType::kFP32, TensorRole::kOutput);
    prog.addTe("t", {a}, o, {}, Combiner::kNone, std::move(body));
    return prog;
}

TEST(AffineBounds, IdentityReadIsClean)
{
    const TeProgram prog =
        buildUnaryProgram(Expr::read(0, AffineMap::identity(1)));
    EXPECT_TRUE(lintProgram(prog, {"affine-bounds"}).empty());
}

TEST(AffineBounds, PositiveOffsetOverrunIsAnError)
{
    // i + 4 over i in [0, 8) reads a[4..11] from a rank-1 tensor of
    // extent 8.
    const TeProgram prog =
        buildUnaryProgram(Expr::read(0, AffineMap({{1}}, {4})));
    const LintReport report = lintProgram(prog, {"affine-bounds"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_EQ(report.diagnostics()[0].location.teId, 0);
    EXPECT_NE(report.diagnostics()[0].message.find("[4, 11]"),
              std::string::npos)
        << report.diagnostics()[0].message;
}

TEST(AffineBounds, NegativeCoefficientUnderrunIsAnError)
{
    // -i over i in [0, 8) reaches -7.
    const TeProgram prog =
        buildUnaryProgram(Expr::read(0, AffineMap({{-1}}, {0})));
    const LintReport report = lintProgram(prog, {"affine-bounds"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("[-7, 0]"),
              std::string::npos)
        << report.diagnostics()[0].message;
}

TEST(AffineBounds, PredicateMaskedOverrunIsANote)
{
    // select(i < 4, a[i + 4], 0): the out-of-range indices are exactly
    // the masked ones -- the transform engine produces this shape for
    // concat reads, so it must not be an error.
    Predicate pred;
    pred.push_back(AffineCond{{1}, -4, CmpOp::kLT});
    const TeProgram prog = buildUnaryProgram(
        Expr::select(pred, Expr::read(0, AffineMap({{1}}, {4})),
                     Expr::constant(0.0)));
    const LintReport report = lintProgram(prog, {"affine-bounds"});
    EXPECT_EQ(report.errors(), 0) << report.renderText();
    ASSERT_EQ(report.notes(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("masked"),
              std::string::npos);
}

TEST(AffineBounds, RankMismatchIsAnError)
{
    const TeProgram prog =
        buildUnaryProgram(Expr::read(0, AffineMap({{1}, {0}}, {0, 0})));
    const LintReport report = lintProgram(prog, {"affine-bounds"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("rank"),
              std::string::npos);
}

TEST(AffineBounds, FlatReadOverrunIsAnError)
{
    // Flat offset 2*i over i in [0, 8) reaches 14 in an 8-element
    // tensor.
    const TeProgram prog =
        buildUnaryProgram(Expr::readFlat(0, AffineMap({{2}}, {0})));
    const LintReport report = lintProgram(prog, {"affine-bounds"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("flat"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// resource-caps
// ---------------------------------------------------------------------

TEST(ResourceCaps, SharedMemOverflowIsAnError)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/true));
    module.kernels[0].stages[0].sharedMemBytes = 200 * 1024;
    const LintReport report =
        lintModule(prog, module, {"resource-caps"});
    EXPECT_GE(report.errors(), 1) << report.renderText();
    EXPECT_GE(countRule(report, "resource-caps"), 1);
}

TEST(ResourceCaps, ThreadsOverTheLaunchCapIsAnError)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/true));
    module.kernels[0].stages[1].threadsPerBlock = 2048;
    const LintReport report =
        lintModule(prog, module, {"resource-caps"});
    ASSERT_GE(report.errors(), 1) << report.renderText();
    EXPECT_EQ(report.diagnostics()[0].location.stage, 1);
}

TEST(ResourceCaps, GridSyncKernelOverOneWaveIsAnError)
{
    // 10^6 blocks with a grid.sync(): no cooperative launch on the
    // A100 model can make every block resident at once.
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(buildTwoStageKernel(
        prog, /*num_blocks=*/1000000, /*with_sync=*/true));
    const LintReport report =
        lintModule(prog, module, {"resource-caps"});
    ASSERT_GE(report.errors(), 1) << report.renderText();
    bool found = false;
    for (const Diagnostic &diag : report.diagnostics())
        if (diag.message.find("cooperative wave") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << report.renderText();
}

TEST(ResourceCaps, ChecksSchedulesWhenNoModuleExists)
{
    const TeProgram prog = buildMatmulReluProgram();
    const GlobalAnalysis analysis(prog);
    std::vector<Schedule> schedules(2);
    schedules[0].teId = 0;
    schedules[1].teId = 1;
    schedules[1].sharedMemBytes = 200 * 1024;
    LintInput input{prog, analysis, DeviceSpec::a100()};
    input.schedules = &schedules;
    const LintReport report = Linter({"resource-caps"}).run(input);
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_EQ(report.diagnostics()[0].location.teId, 1);
}

// ---------------------------------------------------------------------
// dead-te
// ---------------------------------------------------------------------

TEST(DeadTe, DeadTeWarnsAndUnconsumedInputNotes)
{
    TeProgram prog;
    const TensorId a =
        prog.addTensor("a", {4}, DType::kFP32, TensorRole::kInput);
    const TensorId unused =
        prog.addTensor("unused", {4}, DType::kFP32, TensorRole::kInput);
    const TensorId b = prog.addTensor("b", {4}, DType::kFP32);
    const TensorId dead = prog.addTensor("dead", {4}, DType::kFP32);
    prog.addTe("live", {a}, b, {}, Combiner::kNone,
               Expr::unary(UnaryOp::kSigmoid,
                           Expr::read(0, AffineMap::identity(1))));
    prog.addTe("dead", {a}, dead, {}, Combiner::kNone,
               Expr::unary(UnaryOp::kTanh,
                           Expr::read(0, AffineMap::identity(1))));
    prog.markOutput(b);
    (void)unused;

    const LintReport report = lintProgram(prog, {"dead-te"});
    EXPECT_EQ(report.errors(), 0);
    ASSERT_EQ(report.warnings(), 1) << report.renderText();
    EXPECT_EQ(report.notes(), 1) << report.renderText();
    bool dead_te_flagged = false;
    for (const Diagnostic &diag : report.diagnostics()) {
        if (diag.severity == Severity::kWarning) {
            EXPECT_EQ(diag.location.teId, 1);
            dead_te_flagged = true;
        }
        if (diag.severity == Severity::kNote) {
            EXPECT_NE(diag.message.find("unused"), std::string::npos);
        }
    }
    EXPECT_TRUE(dead_te_flagged);
}

TEST(DeadTe, FullyLiveProgramIsClean)
{
    const TeProgram prog = buildMatmulReluProgram();
    EXPECT_TRUE(lintProgram(prog, {"dead-te"}).empty());
}

// ---------------------------------------------------------------------
// instr-stream
// ---------------------------------------------------------------------

TEST(InstrStream, OverlappedLoadInFirstStageIsAnError)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/true));
    module.kernels[0].stages[0].instrs[0].overlapped = true;
    const LintReport report =
        lintModule(prog, module, {"instr-stream"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_EQ(report.diagnostics()[0].location.stage, 0);
    EXPECT_EQ(report.diagnostics()[0].location.instr, 0);
}

TEST(InstrStream, OverlappedLoadOfInKernelTensorIsAnError)
{
    // Stage 1 prefetching m would overlap the copy with stage 0 --
    // the very stage that produces m.
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/true));
    module.kernels[0].stages[1].instrs[1].overlapped = true;
    const LintReport report =
        lintModule(prog, module, {"instr-stream"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("RAW"),
              std::string::npos);
}

TEST(InstrStream, StoreToNowhereIsAWarning)
{
    TeProgram prog = buildMatmulReluProgram();
    const TensorId scratch =
        prog.addTensor("scratch", {8, 8}, DType::kFP32);
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/true));
    module.kernels[0].stages[1].instrs.push_back(
        makeInstr(InstrKind::kStoreGlobal, scratch));
    const LintReport report =
        lintModule(prog, module, {"instr-stream"});
    EXPECT_EQ(report.errors(), 0) << report.renderText();
    ASSERT_EQ(report.warnings(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("scratch"),
              std::string::npos);
}

TEST(InstrStream, GridSyncInsideALibraryKernelIsAnError)
{
    const TeProgram prog = buildMatmulReluProgram();
    CompiledModule module;
    module.kernels.push_back(
        buildTwoStageKernel(prog, /*num_blocks=*/4, /*with_sync=*/true));
    module.kernels[0].usesLibrary = true;
    const LintReport report =
        lintModule(prog, module, {"instr-stream"});
    ASSERT_EQ(report.errors(), 1) << report.renderText();
    EXPECT_NE(report.diagnostics()[0].message.find("library"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Mutation smoke test + LintPass (--strict)
// ---------------------------------------------------------------------

TEST(LintMutation, DroppedGridSyncsMakeTheHazardRuleFire)
{
    const Graph graph = buildTinyModel("BERT");
    SouffleOptions options;
    options.level = SouffleLevel::kV3;
    CompileContext ctx(graph, options);
    ctx.result.name = "mutated";
    soufflePipeline(options).run(ctx);

    // The compiled module is clean as built.
    EXPECT_EQ(Linter().run(ctx).errors(), 0);

    // Drop every grid.sync() from every multi-block kernel.
    int dropped = 0;
    for (Kernel &kernel : ctx.result.module.kernels) {
        if (kernel.numBlocks() <= 1)
            continue;
        for (KernelStage &stage : kernel.stages) {
            for (size_t i = 0; i < stage.instrs.size();) {
                if (stage.instrs[i].kind == InstrKind::kGridSync) {
                    stage.instrs.erase(stage.instrs.begin() + i);
                    ++dropped;
                } else {
                    ++i;
                }
            }
        }
    }
    ASSERT_GT(dropped, 0)
        << "tiny BERT at V3 should contain grid-sync kernels";

    const LintReport report = Linter({"unsynced-dep"}).run(ctx);
    EXPECT_GE(report.errors(), 1) << "dropping " << dropped
                                  << " grid.sync()s must surface a race";

    // The strict-mode pass rejects the mutated module outright.
    LintPass pass;
    EXPECT_THROW(pass.run(ctx), FatalError);
}

TEST(LintPass, StrictCompileOfACleanModelSucceeds)
{
    const Graph graph = buildTinyModel("MMoE");
    SouffleOptions options;
    options.strictLint = true;
    EXPECT_NO_THROW(compileSouffle(graph, options));
}

TEST(LintPass, StrictModeAppendsTheLintPass)
{
    SouffleOptions options;
    options.strictLint = true;
    const std::vector<std::string> names =
        soufflePipeline(options).passNames();
    ASSERT_FALSE(names.empty());
    ASSERT_GE(names.size(), 2u);
    EXPECT_EQ(names[names.size() - 2], "lint");
    EXPECT_EQ(names.back(), "verify-plan");

    options.strictLint = false;
    for (const std::string &name :
         soufflePipeline(options).passNames()) {
        EXPECT_NE(name, "lint");
        EXPECT_NE(name, "verify-plan");
    }
}

// ---------------------------------------------------------------------
// Zoo-tiny models lint clean at every level
// ---------------------------------------------------------------------

class ZooLint : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooLint, TinyModelsHaveZeroLintErrorsAtEveryLevel)
{
    const Graph graph = buildTinyModel(GetParam());
    for (int level = 0; level <= 5; ++level) {
        SouffleOptions options;
        options.level = static_cast<SouffleLevel>(level);
        CompileContext ctx(graph, options);
        ctx.result.name = "lintzoo";
        soufflePipeline(options).run(ctx);
        const LintReport report = Linter().run(ctx);
        EXPECT_EQ(report.errors(), 0)
            << GetParam() << " V" << level << ":\n"
            << report.renderText();
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooLint,
                         ::testing::ValuesIn(paperModelNames()));

// ---------------------------------------------------------------------
// Report, registry, filtering, IrVerifier layering
// ---------------------------------------------------------------------

TEST(LintReport, CountsThresholdsAndText)
{
    LintReport report;
    EXPECT_TRUE(report.empty());
    EXPECT_FALSE(report.anyAtOrAbove(Severity::kNote));

    LintLocation loc;
    loc.teId = 3;
    report.add("demo-rule", Severity::kWarning, loc, "suspicious",
               "do the thing");
    report.add("demo-rule", Severity::kNote, LintLocation{}, "fyi");
    EXPECT_EQ(report.size(), 2u);
    EXPECT_EQ(report.warnings(), 1);
    EXPECT_EQ(report.notes(), 1);
    EXPECT_TRUE(report.anyAtOrAbove(Severity::kWarning));
    EXPECT_FALSE(report.anyAtOrAbove(Severity::kError));

    const std::string text = report.renderText();
    EXPECT_NE(text.find("warning[demo-rule]"), std::string::npos)
        << text;
    EXPECT_NE(text.find("te 3"), std::string::npos) << text;
    EXPECT_NE(text.find("do the thing"), std::string::npos) << text;
    EXPECT_NE(text.find("1 warning(s)"), std::string::npos) << text;

    LintReport other;
    other.add("other-rule", Severity::kError, LintLocation{}, "boom");
    report.merge(other);
    EXPECT_EQ(report.errors(), 1);
    EXPECT_TRUE(report.anyAtOrAbove(Severity::kError));
}

TEST(LintReport, JsonEscapesAndCounts)
{
    LintReport report;
    LintLocation loc;
    loc.kernel = "k0";
    loc.stage = 2;
    report.add("demo-rule", Severity::kError, loc,
               "message with \"quotes\" and\nnewline");
    const std::string json = report.renderJson();
    EXPECT_NE(json.find("\"rule\": \"demo-rule\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos) << json;
    EXPECT_NE(json.find("\\n"), std::string::npos) << json;
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
    // Raw control characters must not survive into the document.
    EXPECT_EQ(json.find('\n' + std::string("ewline")),
              std::string::npos);
}

TEST(LintRegistry, BuiltinCatalogueIsRegisteredAndSorted)
{
    const std::vector<std::string> ids = builtinLintRuleIds();
    EXPECT_EQ(ids, (std::vector<std::string>{
                       "affine-bounds", "dead-te", "instr-stream",
                       "plan-overlap", "redundant-sync", "resource-caps",
                       "task-graph-dep", "unsynced-dep"}));
    for (const std::string &id : ids) {
        const auto rule = LintRuleRegistry::global().create(id);
        EXPECT_EQ(rule->id(), id);
        EXPECT_FALSE(rule->description().empty());
    }
}

TEST(LintRegistry, UnknownRuleIdThrows)
{
    EXPECT_THROW(LintRuleRegistry::global().create("no-such-rule"),
                 FatalError);
    EXPECT_THROW(Linter({"no-such-rule"}), FatalError);
}

TEST(Linter, RuleFilterRunsOnlySelectedRules)
{
    // A program with BOTH an out-of-bounds read and a dead TE: the
    // filtered linter must only report its own rule's findings.
    TeProgram prog;
    const TensorId a =
        prog.addTensor("a", {8}, DType::kFP32, TensorRole::kInput);
    const TensorId b = prog.addTensor("b", {8}, DType::kFP32);
    const TensorId o =
        prog.addTensor("o", {8}, DType::kFP32, TensorRole::kOutput);
    prog.addTe("oob", {a}, b, {}, Combiner::kNone,
               Expr::read(0, AffineMap({{1}}, {4})));
    prog.addTe("copy", {a}, o, {}, Combiner::kNone,
               Expr::read(0, AffineMap::identity(1)));

    const LintReport bounds_only =
        lintProgram(prog, {"affine-bounds"});
    EXPECT_EQ(countRule(bounds_only, "affine-bounds"),
              static_cast<int>(bounds_only.size()));
    EXPECT_GE(bounds_only.errors(), 1);

    const LintReport dead_only = lintProgram(prog, {"dead-te"});
    EXPECT_EQ(countRule(dead_only, "dead-te"),
              static_cast<int>(dead_only.size()));
    EXPECT_GE(dead_only.warnings(), 1);

    const LintReport both = lintProgram(
        prog, {"affine-bounds", "dead-te"});
    EXPECT_EQ(both.size(), bounds_only.size() + dead_only.size());
}

TEST(IrVerifierDiagnostics, AllViolationsAreReportedInOneShot)
{
    TeProgram prog = buildMatmulReluProgram();
    // Break two independent invariants: both producer links.
    prog.mutableTensor(prog.te(0).output).producer = -1;
    prog.mutableTensor(prog.te(1).output).producer = -1;

    LintReport report;
    collectTeProgramDiagnostics(prog, report);
    EXPECT_EQ(report.errors(), 2) << report.renderText();
    for (const Diagnostic &diag : report.diagnostics())
        EXPECT_EQ(diag.rule, "ir-verify");

    // The throwing interface carries the full report in its message.
    try {
        verifyTeProgram(prog);
        FAIL() << "verifyTeProgram must throw";
    } catch (const FatalError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("te 0"), std::string::npos) << what;
        EXPECT_NE(what.find("te 1"), std::string::npos) << what;
    }
}

} // namespace
} // namespace souffle
