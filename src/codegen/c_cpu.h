#pragma once

/**
 * @file
 * C/CPU source emission from the kernel IR: the executable backend.
 *
 * Emits one portable C11 translation unit per compiled module. The
 * mapping from the GPU-shaped kernel IR is:
 *
 *  - each TE becomes one range function
 *
 *       static void te_<id>(double *const *tensors, long lo, long hi);
 *
 *    which declares `restrict` aliases for the tensors it touches
 *    (output writable, inputs const) and runs its element loop over
 *    the flattened output indices [lo, hi);
 *  - each kernel becomes a static function over the same tensor table
 *    that calls its stages' TEs in order -- stages already execute in
 *    dependence order, so the grid barrier is a no-op on a CPU that
 *    runs them one after another;
 *  - a TE whose work (output elements x reduction extent) reaches a
 *    fixed threshold is called through the exported hook
 *
 *       void (*souffle_module_parallel_for)(
 *           void (*body)(double *const *, long, long),
 *           double *const *tensors, long n);
 *
 *    which defaults to one serial call over [0, n); the native
 *    runtime points it at its ThreadPool when it loads the module.
 *    Smaller TEs are called inline over their whole range. The
 *    decision depends only on the IR, so emitted text is stable;
 *  - launch-geometry predication (`if (blockIdx.x < N)`) vanishes:
 *    each TE loop covers exactly its own output domain;
 *  - the two-phase-reduction atomicAdd degenerates to a plain store:
 *    every output element is computed exactly once, with its full
 *    reduction nest, by whichever chunk owns it -- so outputs are
 *    byte-identical however the range is split;
 *  - every tensor is stored as `double` regardless of declared dtype
 *    (see cTypeName in codegen/common.h) and all math runs through
 *    the libm double entry points, so native numerics match the
 *    double-precision interpreter instead of drifting through fp16
 *    rounding or deep float chains.
 *
 * The module exports one entry point,
 *
 *    void souffle_module_main(double *const *tensors);
 *
 * where `tensors[id]` is the buffer of tensor `id` of the compiled
 * program -- inputs/params/outputs externally allocated, intermediates
 * placed in one workspace by the MemoryPlan (see
 * runtime/native_exec.h, which compiles, loads and runs the emitted
 * unit). Reach this backend generically as CodeGenBackendRegistry
 * entry "c".
 *
 * V5 megakernel modules additionally export
 *
 *    void souffle_module_task(int stage, double *const *tensors);
 *
 * dispatching one task (= one stage of the persistent kernel, itself
 * a list of TE calls) at a time, so the native runtime can drain the
 * module's task graph on the same thread pool -- independent stages
 * run concurrently, exactly like the on-device scheduler, while
 * `souffle_module_main` keeps running the stages sequentially.
 */

#include <string>

#include "compiler/compiler.h"

namespace souffle {

/** Emit a whole .c translation unit for @p compiled. */
std::string emitCModule(const Compiled &compiled);

/** Exported entry-point symbol of emitted C modules. */
inline constexpr const char *kNativeModuleEntrySymbol =
    "souffle_module_main";

/** Per-task dispatch symbol; exported only by megakernel modules. */
inline constexpr const char *kNativeModuleTaskSymbol =
    "souffle_module_task";

/** Host parallel_for hook (a function pointer) of emitted modules. */
inline constexpr const char *kNativeModuleParallelForSymbol =
    "souffle_module_parallel_for";

} // namespace souffle
