/**
 * @file
 * Tests for the code generators: structural validity of the CUDA
 * emitter (balanced braces, one __global__ per kernel), faithful
 * translation of scalar expressions and affine index maps, grid.sync
 * placement, stage predication, atomics for two-phase reductions,
 * fp16 conversion wrappers — plus the backend registry, the C/CPU
 * emitter's structure, and the codegen pass's population of
 * `Compiled::generatedSource`.
 */

#include <set>

#include <gtest/gtest.h>

#include "codegen/backend.h"
#include "codegen/c_cpu.h"
#include "codegen/cuda.h"
#include "common/logging.h"
#include "compiler/souffle.h"
#include "graph/lowering.h"
#include "models/zoo.h"

namespace souffle {
namespace {

int
count(const std::string &text, const std::string &needle)
{
    int n = 0;
    size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

TEST(Codegen, BalancedBracesAndOneGlobalPerKernel)
{
    for (const std::string model : {"MMoE", "BERT", "LSTM"}) {
        const Graph graph = buildTinyModel(model);
        const Compiled compiled = compileSouffle(graph, {});
        const std::string cu = emitCudaModule(compiled);
        EXPECT_EQ(count(cu, "{"), count(cu, "}")) << model;
        EXPECT_EQ(count(cu, "__global__"),
                  compiled.module.numKernels())
            << model;
    }
}

TEST(Codegen, GridSyncBetweenStages)
{
    Graph g;
    const ValueId a = g.input("a", {64, 64});
    const ValueId w1 = g.param("w1", {64, 64});
    const ValueId w2 = g.param("w2", {64, 64});
    g.markOutput(g.matmul(g.matmul(a, w1), w2));
    const Compiled compiled = compileSouffle(g, {});
    ASSERT_EQ(compiled.module.numKernels(), 1);
    const std::string cu = emitCudaModule(compiled);
    EXPECT_GE(count(cu, "grid.sync();"), 1);
    EXPECT_NE(cu.find("cooperative_groups"), std::string::npos);
}

TEST(Codegen, ElementwiseExpressionTranslated)
{
    Graph g;
    const ValueId x = g.input("x", {4, 4});
    g.markOutput(g.gelu(x));
    const LoweredModel lowered = lowerToTe(g);
    const std::string code = emitScalarExpr(
        lowered.program.te(0).body, lowered.program,
        lowered.program.te(0), CodegenDialect::kCuda);
    EXPECT_NE(code.find("erff("), std::string::npos);
    EXPECT_NE(code.find("t0["), std::string::npos);
}

TEST(Codegen, AffineIndexArithmetic)
{
    // Transpose: out[d0,d1] = in[d1,d0] -> index (d1)*cols + (d0).
    Graph g;
    const ValueId x = g.input("x", {4, 8});
    g.markOutput(g.transpose(x, {1, 0}));
    const LoweredModel lowered = lowerToTe(g);
    const std::string code = emitScalarExpr(
        lowered.program.te(0).body, lowered.program,
        lowered.program.te(0), CodegenDialect::kCuda);
    EXPECT_EQ(code, "t0[(d1)*8 + (d0)]");
}

TEST(Codegen, FlatReadUsesLinearOffset)
{
    Graph g;
    const ValueId x = g.input("x", {4, 8});
    g.markOutput(g.reshape(x, {8, 4}));
    const LoweredModel lowered = lowerToTe(g);
    const std::string code = emitScalarExpr(
        lowered.program.te(0).body, lowered.program,
        lowered.program.te(0), CodegenDialect::kCuda);
    EXPECT_EQ(code, "t0[4*d0 + d1]");
}

TEST(Codegen, PaddedConvEmitsPredicate)
{
    Graph g;
    const ValueId x = g.input("x", {1, 2, 4, 4});
    const ValueId w = g.param("w", {2, 2, 3, 3});
    g.markOutput(g.conv2d(x, w, 1, 1));
    const Compiled compiled = compileSouffle(g, {});
    const std::string cu = emitCudaModule(compiled);
    EXPECT_NE(cu.find(" ? "), std::string::npos);  // select
    EXPECT_NE(cu.find(" >= 0"), std::string::npos); // bound checks
    EXPECT_GE(count(cu, "for (long d"), 3); // reduction loop nest
}

TEST(Codegen, Fp16TensorsUseHalfConversions)
{
    Graph g;
    const ValueId x = g.input("x", {8, 8}, DType::kFP16);
    const ValueId w = g.param("w", {8, 8}, DType::kFP16);
    g.markOutput(g.matmul(x, w));
    const Compiled compiled = compileSouffle(g, {});
    const std::string cu = emitCudaModule(compiled);
    EXPECT_NE(cu.find("__half*"), std::string::npos);
    EXPECT_NE(cu.find("__half2float("), std::string::npos);
    EXPECT_NE(cu.find("__float2half("), std::string::npos);
}

TEST(Codegen, TwoPhaseReductionEmitsAtomicAdd)
{
    // A reduction consumed inside the same mega-kernel becomes a
    // per-block partial + atomicAdd (paper Fig. 1c).
    Graph g;
    const ValueId x = g.input("x", {64, 256});
    const ValueId s = g.reduceSum(x, {1}, /*keepdims=*/true);
    g.markOutput(g.div(x, s));
    SouffleOptions options;
    const Compiled compiled = compileSouffle(g, options);
    ASSERT_EQ(compiled.module.numKernels(), 1);
    const std::string cu = emitCudaModule(compiled);
    EXPECT_NE(cu.find("atomicAdd(&"), std::string::npos);
}

TEST(Codegen, PredicatedStagesGuardBlockIdx)
{
    // Stages narrower than the kernel launch get the Fig. 2 guard.
    Graph g;
    const ValueId a = g.input("a", {256, 256});
    const ValueId w1 = g.param("w1", {256, 256});
    const ValueId sum = g.reduceSum(g.matmul(a, w1), {1});
    g.markOutput(sum);
    const Compiled compiled = compileSouffle(g, {});
    const std::string cu = emitCudaModule(compiled);
    if (compiled.module.kernels[0].stages.size() > 1) {
        bool any_predicated = false;
        for (const auto &stage : compiled.module.kernels[0].stages)
            any_predicated |= stage.predicated;
        if (any_predicated) {
            EXPECT_NE(cu.find("if (blockIdx.x < "),
                      std::string::npos);
        }
    }
    // Always true: parameter comments carry tensor names.
    EXPECT_NE(cu.find("/* a [256, 256] */"), std::string::npos);
}

TEST(Codegen, ReuseAndPrefetchAnnotationsPresent)
{
    const Graph graph = buildTinyModel("LSTM");
    const Compiled compiled = compileSouffle(graph, {});
    const std::string cu = emitCudaModule(compiled);
    EXPECT_NE(cu.find("reuse cache"), std::string::npos);
    EXPECT_NE(cu.find("cp.async prefetch"), std::string::npos);
}

TEST(Codegen, ModuleHeaderListsCounts)
{
    const Graph graph = buildTinyModel("MMoE");
    const Compiled compiled = compileSouffle(graph, {});
    const std::string cu = emitCudaModule(compiled);
    EXPECT_NE(cu.find("#include <cooperative_groups.h>"),
              std::string::npos);
    EXPECT_NE(cu.find("kernel(s)"), std::string::npos);
}

// ---------------------------------------------------------------------
// Backend registry + the C/CPU emitter.
// ---------------------------------------------------------------------

TEST(BackendRegistry, BuiltinsRegisteredWithDistinctFingerprints)
{
    const auto &registry = CodeGenBackendRegistry::global();
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"c", "cuda"}));

    const CodeGenBackend &cuda = registry.get("cuda");
    const CodeGenBackend &c = registry.get("c");
    EXPECT_TRUE(cuda.targetsGpu());
    EXPECT_FALSE(cuda.executable());
    EXPECT_FALSE(c.targetsGpu());
    EXPECT_TRUE(c.executable());
    EXPECT_EQ(cuda.sourceExtension(), "cu");
    EXPECT_EQ(c.sourceExtension(), "c");
    EXPECT_TRUE(cuda.fingerprint().valid());
    EXPECT_TRUE(c.fingerprint().valid());
    EXPECT_NE(cuda.fingerprint(), c.fingerprint());
}

TEST(BackendRegistry, UnknownNameFindsNullAndGetThrows)
{
    const auto &registry = CodeGenBackendRegistry::global();
    EXPECT_EQ(registry.find("ptx"), nullptr);
    EXPECT_THROW(registry.get("ptx"), FatalError);
}

TEST(BackendRegistry, EmitModuleDispatchesPerBackend)
{
    const Graph graph = buildTinyModel("MMoE");
    const Compiled compiled = compileSouffle(graph, {});
    const auto &registry = CodeGenBackendRegistry::global();
    EXPECT_EQ(registry.get("cuda").emitModule(compiled),
              emitCudaModule(compiled));
    EXPECT_EQ(registry.get("c").emitModule(compiled),
              emitCModule(compiled));
}

TEST(CCodegen, BalancedBracesNoGpuConstructsAndEntryPoint)
{
    for (const std::string model : {"MMoE", "BERT", "LSTM"}) {
        const Graph graph = buildTinyModel(model);
        const Compiled compiled = compileSouffle(graph, {});
        const std::string c = emitCModule(compiled);
        EXPECT_EQ(count(c, "{"), count(c, "}")) << model;
        EXPECT_EQ(c.find("__global__"), std::string::npos) << model;
        // The statement is gone; a comment still explains the no-op.
        EXPECT_EQ(c.find("grid.sync();"), std::string::npos) << model;
        EXPECT_EQ(c.find("atomicAdd"), std::string::npos) << model;
        EXPECT_EQ(c.find("blockIdx"), std::string::npos) << model;
        EXPECT_NE(c.find("void\nsouffle_module_main(double *const "
                         "*tensors)"),
                  std::string::npos)
            << model;
        // One static range function per distinct TE, one per kernel,
        // and the serial default of the parallel_for hook.
        std::set<int> tes;
        for (const Kernel &kernel : compiled.module.kernels)
            for (const KernelStage &stage : kernel.stages)
                tes.insert(stage.teIds.begin(), stage.teIds.end());
        EXPECT_EQ(count(c, "static void"),
                  compiled.module.numKernels()
                      + static_cast<int>(tes.size()) + 1)
            << model;
        EXPECT_EQ(count(c, "\nte_"), static_cast<int>(tes.size()))
            << model;
    }
}

TEST(CCodegen, GridSyncStagesBecomeSequentialLoops)
{
    Graph g;
    const ValueId a = g.input("a", {64, 64});
    const ValueId w1 = g.param("w1", {64, 64});
    const ValueId w2 = g.param("w2", {64, 64});
    g.markOutput(g.matmul(g.matmul(a, w1), w2));
    const Compiled compiled = compileSouffle(g, {});
    ASSERT_EQ(compiled.module.numKernels(), 1);
    ASSERT_GE(compiled.module.kernels[0].stages.size(), 2u);
    const std::string c = emitCModule(compiled);
    EXPECT_NE(c.find("grid.sync() barrier: no-op"),
              std::string::npos);
    EXPECT_GE(count(c, "for (long i = lo; i < hi; ++i)"), 2);
}

TEST(CCodegen, Fp16TensorsWidenToDouble)
{
    Graph g;
    const ValueId x = g.input("x", {8, 8}, DType::kFP16);
    const ValueId w = g.param("w", {8, 8}, DType::kFP16);
    g.markOutput(g.matmul(x, w));
    const Compiled compiled = compileSouffle(g, {});
    const std::string c = emitCModule(compiled);
    EXPECT_EQ(c.find("__half"), std::string::npos);
    EXPECT_NE(c.find("const double *restrict t"), std::string::npos);
}

TEST(CCodegen, LargeTesDispatchThroughParallelForHook)
{
    // No emitted module carries an OpenMP pragma, at any level.
    for (const std::string model :
         {"BERT", "ResNeXt", "LSTM", "EfficientNet", "SwinTransformer",
          "MMoE"}) {
        for (int level = 0; level <= 5; ++level) {
            SouffleOptions options;
            options.level = static_cast<SouffleLevel>(level);
            const Compiled compiled =
                compileSouffle(buildTinyModel(model), options);
            EXPECT_EQ(emitCModule(compiled).find("#pragma omp"),
                      std::string::npos)
                << model << " V" << level;
        }
    }

    // 65536 elements of work go through the host hook...
    Graph large;
    large.markOutput(large.relu(large.input("x", {256, 256})));
    const std::string large_c = emitCModule(compileSouffle(large, {}));
    EXPECT_NE(large_c.find("souffle_module_parallel_for(te_0, tensors, "
                           "65536L);"),
              std::string::npos);

    // ...while a 4-element TE is called inline over its whole range.
    Graph tiny;
    tiny.markOutput(tiny.relu(tiny.input("x", {4})));
    const std::string tiny_c = emitCModule(compileSouffle(tiny, {}));
    EXPECT_NE(tiny_c.find("    te_0(tensors, 0, 4L);"),
              std::string::npos);
    EXPECT_EQ(tiny_c.find("souffle_module_parallel_for(te_"),
              std::string::npos);
}

TEST(CCodegen, DialectSplitsRsqrt)
{
    // layerNorm lowers its variance normalization through kRsqrt: the
    // CUDA dialect has the rsqrtf intrinsic, C11 does not.
    Graph g;
    const ValueId x = g.input("x", {4, 16});
    const ValueId gamma = g.param("gamma", {16});
    const ValueId beta = g.param("beta", {16});
    g.markOutput(g.layerNorm(x, gamma, beta));
    const LoweredModel lowered = lowerToTe(g);
    std::string cuda, c;
    for (const TensorExpr &te : lowered.program.tes()) {
        cuda += emitScalarExpr(te.body, lowered.program, te,
                               CodegenDialect::kCuda);
        c += emitScalarExpr(te.body, lowered.program, te,
                            CodegenDialect::kC);
    }
    EXPECT_NE(cuda.find("rsqrtf("), std::string::npos);
    EXPECT_EQ(c.find("rsqrtf("), std::string::npos);
    EXPECT_NE(c.find("1.0 / sqrt("), std::string::npos);
}

TEST(CodegenPass, FillsBackendNameAndSource)
{
    const Graph graph = buildTinyModel("MMoE");

    SouffleOptions cuda_options;
    const Compiled via_cuda = compileSouffle(graph, cuda_options);
    EXPECT_EQ(via_cuda.backendName, "cuda");
    EXPECT_EQ(via_cuda.generatedSource, emitCudaModule(via_cuda));

    SouffleOptions c_options;
    c_options.backend = "c";
    const Compiled via_c = compileSouffle(graph, c_options);
    EXPECT_EQ(via_c.backendName, "c");
    EXPECT_EQ(via_c.generatedSource, emitCModule(via_c));
}

TEST(CodegenPass, UnknownBackendFailsTheCompile)
{
    const Graph graph = buildTinyModel("MMoE");
    SouffleOptions options;
    options.backend = "ptx";
    EXPECT_THROW(compileSouffle(graph, options), FatalError);
}

} // namespace
} // namespace souffle
