#pragma once

/**
 * @file
 * Native execution of the C/CPU backend's emitted modules.
 *
 * `NativeModule` turns one emitted C translation unit into a loaded
 * shared object: write the source next to the artifact, invoke the
 * host C compiler (`$CC` or `cc`) with `-O2 -fPIC -shared`, and
 * `dlopen` the result. Build products are content-addressed — the
 * object file is named by the fingerprint of the source text and
 * written with the ArtifactCache's crash-safe discipline (temp file +
 * atomic rename), so concurrent builders of the same module are
 * harmless and a warm directory skips the compiler entirely.
 *
 * Native code has one threading runtime, the process-wide ThreadPool.
 * The module links no thread library; right after loading it,
 * NativeModule points the module's `souffle_module_parallel_for` hook
 * at a host function that splits [0, n) into one contiguous chunk per
 * pool lane and runs the chunks with `parallelFor`. The emitter sends
 * only TEs with enough work through the hook (see codegen/c_cpu.h).
 * Each output element is computed whole by one chunk, so results are
 * byte-identical at any job count. With no foreign thread runtime in
 * the object, `dlclose` on destruction is safe.
 *
 * `NativeExecutor` is the runtime harness around a loaded module: it
 * re-plans the MemoryPlan on a dtype-widened (all-fp32) copy of the
 * program so fp16 byte offsets never under-allocate, then interprets
 * the planned byte offsets in 4-byte element units over a `double`
 * workspace (the C ABI stores every tensor as `double`; scaling every
 * slot uniformly preserves the plan's disjointness). Buffers are
 * bound by tensor name exactly like the simulated `Executor`, the
 * module runs through `souffle_module_main` (V5 megakernels: task
 * wavefronts on the ThreadPool, whose tasks call the same hook from
 * inside pool tasks -- plain parallelFor nesting), and the outputs come
 * back as double buffers directly comparable against the TE
 * interpreter.
 */

#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "runtime/executor.h"

namespace souffle {

/** Build configuration for NativeModule. */
struct NativeBuildOptions
{
    /**
     * Directory for sources and shared objects; created if absent.
     * Empty = `$TMPDIR`/`/tmp` + "/souffle-native".
     */
    std::string workDir;
};

/**
 * One compiled-and-loaded native module. Non-copyable; the dlopen
 * handle is released on destruction.
 *
 * @throws FatalError when the host compiler fails or the entry symbol
 *         is missing.
 */
class NativeModule
{
  public:
    /** `souffle_module_main` signature: tensors[id] per TensorId. */
    using EntryFn = void (*)(double *const *tensors);
    /** `souffle_module_task` signature (V5 megakernel modules). */
    using TaskFn = void (*)(int stage, double *const *tensors);

    NativeModule(const std::string &c_source,
                 const NativeBuildOptions &options = {});
    ~NativeModule();

    NativeModule(const NativeModule &) = delete;
    NativeModule &operator=(const NativeModule &) = delete;

    /** Run the module over per-tensor-id double buffers. */
    void
    run(double *const *tensors) const
    {
        entryFn(tensors);
    }

    EntryFn entry() const { return entryFn; }

    /** Per-task dispatch, nullptr unless the module exported one. */
    TaskFn task() const { return taskFn; }

    /** Path of the loaded shared object. */
    const std::string &objectPath() const { return soPath; }

    /** Path of the generated .c file, kept next to the object. */
    const std::string &sourcePath() const { return srcPath; }

    /** True when the object existed before this build (warm dir). */
    bool reusedArtifact() const { return reused; }

  private:
    void *handle = nullptr;
    EntryFn entryFn = nullptr;
    TaskFn taskFn = nullptr;
    std::string soPath;
    std::string srcPath;
    bool reused = false;
};

/**
 * Executes a compiled program natively on the host CPU. The program
 * must have been compiled through the "c" backend (or at least carry
 * a kernel module coverable by it); when `compiled.generatedSource`
 * holds C source it is used verbatim, otherwise the module is emitted
 * on the spot.
 */
class NativeExecutor
{
  public:
    explicit NativeExecutor(const Compiled &compiled,
                            const NativeBuildOptions &options = {});

    /**
     * Run the program natively. @p inputs must provide a buffer for
     * every input and parameter tensor, keyed by name (FatalError
     * otherwise); returns the model outputs keyed by name, widened to
     * double for direct comparison with `Interpreter` results.
     */
    NamedBuffers run(const NamedBuffers &inputs) const;

    /** Same deterministic buffers as `Executor::randomInputs`. */
    NamedBuffers
    randomInputs(uint64_t seed = Executor::kDefaultInputSeed) const
    {
        return Executor(compiled).randomInputs(seed);
    }

    /** Workspace plan over the dtype-widened (all-fp32) program. */
    const MemoryPlan &memoryPlan() const { return plan; }

    const NativeModule &nativeModule() const { return *native; }

    /**
     * Topological level wavefronts of the module's task graph (V5
     * only; empty otherwise). Level k holds the stages whose longest
     * dependence chain has k predecessors; run() executes one level
     * at a time, tasks within a level concurrently on the global
     * ThreadPool. Levels are computed over the serialized task edges
     * PLUS alias edges recomputed against this executor's own widened
     * memory plan, so workspace reuse decided at native-build time
     * can never race.
     */
    const std::vector<std::vector<int>> &taskWavefronts() const
    {
        return taskWaves;
    }

  private:
    const Compiled &compiled;
    /** All-fp32 copy of the program the plan offsets are valid for. */
    TeProgram widened;
    MemoryPlan plan;
    std::unique_ptr<NativeModule> native;
    /** See taskWavefronts(). */
    std::vector<std::vector<int>> taskWaves;
};

} // namespace souffle
