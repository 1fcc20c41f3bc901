#include "codegen/c_cpu.h"

#include <cctype>
#include <sstream>
#include <unordered_set>

#include "codegen/common.h"
#include "common/string_util.h"

namespace souffle {

namespace {

constexpr CodegenDialect kDialect = CodegenDialect::kC;

/**
 * A TE's element loop goes through the host parallel_for hook only
 * when its work (output elements x reduction extent) amortizes the
 * dispatch; smaller TEs are called inline over their whole range.
 * Deterministic in the IR, so emitted text is stable.
 */
constexpr int64_t kParallelMinWork = 65536;

std::string
sanitizeIdentifier(const std::string &name)
{
    std::string id = name;
    for (char &ch : id) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return "k_" + id;
}

std::string
teFunctionName(int te_id)
{
    return "te_" + std::to_string(te_id);
}

/**
 * Emit one TE as a range function: `restrict` aliases for the tensors
 * it touches (the output first and writable, inputs const), then the
 * element loop over [lo, hi).
 */
void
emitTeFunction(std::ostringstream &os, const TeProgram &program,
               int te_id)
{
    const TensorExpr &te = program.te(te_id);
    os << teBannerComment(program, te) << "\n"
       << "static void\n"
       << teFunctionName(te_id)
       << "(double *const *tensors, long lo, long hi)\n{\n";
    std::unordered_set<TensorId> seen;
    auto alias = [&](TensorId id, bool written) {
        if (!seen.insert(id).second)
            return;
        const TensorDecl &decl = program.tensor(id);
        os << (written ? "    double" : "    const double")
           << " *restrict t" << id << " = tensors[" << id << "]; /* "
           << decl.name << " " << shapeToString(decl.shape) << " "
           << dtypeName(decl.dtype) << " */\n";
    };
    alias(te.output, true);
    for (TensorId in : te.inputs)
        alias(in, false);
    os << "    for (long i = lo; i < hi; ++i) {\n";
    emitTeElementBody(os, program, te, kDialect, "        ",
                      /*atomic=*/false);
    os << "    }\n}\n\n";
}

/** Emit the call of one TE over its whole output domain. */
void
emitTeCall(std::ostringstream &os, const TeProgram &program, int te_id)
{
    const TensorExpr &te = program.te(te_id);
    const std::string extent = std::to_string(te.outDomainSize()) + "L";
    if (te.iterDomainSize() >= kParallelMinWork)
        os << "    souffle_module_parallel_for(" << teFunctionName(te_id)
           << ", tensors, " << extent << ");\n";
    else
        os << "    " << teFunctionName(te_id) << "(tensors, 0, "
           << extent << ");\n";
}

/** Function name of one megakernel task (= stage). */
std::string
taskFunctionName(const Kernel &kernel, size_t stage)
{
    return sanitizeIdentifier(kernel.name) + "_s"
           + std::to_string(stage);
}

/** Emit one megakernel stage as a list of TE calls. */
void
emitCTaskFunction(std::ostringstream &os, const TeProgram &program,
                  const Kernel &kernel, size_t stage_index)
{
    const KernelStage &stage = kernel.stages[stage_index];
    os << "/* task " << stage_index << ": " << stage.name << " ("
       << stage.numBlocks << " blocks on the device) */\n";
    os << "static void\n"
       << taskFunctionName(kernel, stage_index)
       << "(double *const *tensors)\n{\n";
    if (stage.teIds.empty())
        os << "    (void)tensors;\n";
    for (int te_id : stage.teIds)
        emitTeCall(os, program, te_id);
    os << "}\n\n";
}

/** Emit one flat kernel as stage-ordered lists of TE calls. */
void
emitCKernel(std::ostringstream &os, const TeProgram &program,
            const Kernel &kernel)
{
    os << "/* " << kernel.name << ": " << kernel.stages.size()
       << " stage(s); GPU launch <<<" << kernel.numBlocks() << ", "
       << kernel.threadsPerBlock() << ", " << kernel.sharedMemBytes()
       << "B>>> flattened to sequential loops";
    if (kernel.usesLibrary)
        os << "; library tactic x" << kernel.libraryTimeFactor
           << " inlined as reference loops";
    os << " */\n";
    os << "static void\n"
       << sanitizeIdentifier(kernel.name) << "(double *const *tensors)\n{\n";
    bool empty = true;
    for (size_t s = 0; s < kernel.stages.size(); ++s) {
        const KernelStage &stage = kernel.stages[s];
        os << "    /* ---- stage " << s << ": " << stage.name;
        // Note the fence from the instruction stream (sync-elim may
        // have deleted redundant ones); sequential stages satisfy
        // every ordering a fence could ask for.
        bool has_sync = false;
        for (const auto &instr : stage.instrs)
            has_sync |= instr.kind == InstrKind::kGridSync;
        if (has_sync)
            os << " (grid.sync() barrier: no-op, stages run "
                  "sequentially)";
        os << " */\n";
        for (int te_id : stage.teIds) {
            emitTeCall(os, program, te_id);
            empty = false;
        }
    }
    if (empty)
        os << "    (void)tensors;\n";
    os << "}\n\n";
}

} // namespace

std::string
emitCModule(const Compiled &compiled)
{
    const TeProgram &program = compiled.program;
    const CompiledModule &module = compiled.module;
    std::ostringstream os;
    os << "/* Generated by the Souffle reproduction compiler ("
       << compiled.name << "), C/CPU backend */\n"
       << "/* " << module.numKernels() << " kernel(s), "
       << program.numTes() << " tensor expression(s), "
       << program.numTensors() << " tensor(s) */\n"
       << "#include <math.h>\n"
       << "#include <stddef.h>\n\n";

    os << "/* host parallel_for: body over [0, n) in contiguous chunks;\n"
          "   serial until the runtime points it at its thread pool */\n"
       << "typedef void (*souffle_range_fn)(double *const *, long, "
          "long);\n"
       << "static void\nsouffle_serial_for(souffle_range_fn body, "
          "double *const *tensors, long n)\n{\n"
       << "    body(tensors, 0, n);\n}\n"
       << "void (*" << kNativeModuleParallelForSymbol
       << ")(souffle_range_fn, double *const *, long) =\n"
       << "    souffle_serial_for;\n\n";

    // Every TE a stage runs, once, in first-call order.
    std::unordered_set<int> emitted;
    for (const Kernel &kernel : module.kernels)
        for (const KernelStage &stage : kernel.stages)
            for (int te_id : stage.teIds)
                if (emitted.insert(te_id).second)
                    emitTeFunction(os, program, te_id);

    const char *entry_comment =
        "/* entry: tensors[id] = double buffer of tensor id "
        "(inputs/params/outputs external, intermediates from the "
        "MemoryPlan workspace) */\n";
    if (module.megakernel()) {
        // V5: one function per task (= stage of the persistent
        // kernel), a per-task dispatch entry the native runtime uses
        // to drain the task graph on a thread pool, and a sequential
        // main that runs the stages in order (any topological order
        // of the task graph, of which stage order is one).
        const Kernel &kernel = module.kernels.front();
        for (size_t s = 0; s < kernel.stages.size(); ++s)
            emitCTaskFunction(os, program, kernel, s);

        os << "/* task dispatch: one stage of the persistent "
              "megakernel per call */\n";
        os << "void\n" << kNativeModuleTaskSymbol
           << "(int stage, double *const *tensors)\n{\n"
           << "    switch (stage) {\n";
        for (size_t s = 0; s < kernel.stages.size(); ++s)
            os << "    case " << s << ": "
               << taskFunctionName(kernel, s) << "(tensors); break;\n";
        os << "    default: break;\n    }\n}\n\n";

        os << entry_comment << "void\n" << kNativeModuleEntrySymbol
           << "(double *const *tensors)\n{\n";
        if (kernel.stages.empty())
            os << "    (void)tensors;\n";
        for (size_t s = 0; s < kernel.stages.size(); ++s)
            os << "    " << taskFunctionName(kernel, s)
               << "(tensors);\n";
        os << "}\n";
        return os.str();
    }

    for (const Kernel &kernel : module.kernels)
        emitCKernel(os, program, kernel);

    os << entry_comment << "void\n" << kNativeModuleEntrySymbol
       << "(double *const *tensors)\n{\n";
    if (module.kernels.empty())
        os << "    (void)tensors;\n";
    for (const Kernel &kernel : module.kernels)
        os << "    " << sanitizeIdentifier(kernel.name)
           << "(tensors);\n";
    os << "}\n";
    return os.str();
}

} // namespace souffle
