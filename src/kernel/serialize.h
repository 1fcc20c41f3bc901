#pragma once

/**
 * @file
 * Kernel-IR (de)serialization: the compiled module (kernels, stages,
 * abstract instruction streams) and the module plan it was built from
 * round-trip through JSON. Together with te/serialize.h and the
 * schedule-array serializer this forms the compiled-artifact format
 * (compiler/artifact_io.h): a module compiled offline is reloaded for
 * online serving without re-running planning or scheduling.
 *
 * Doubles (byte/flop totals, library time factors) are written with
 * 17 significant digits, so a parsed module is bit-identical to the
 * serialized one — same simulator timings, same `toString` text.
 *
 * Module format versions: 1 = kernels only; 2 adds the `taskGraph`
 * member (V5 persistent megakernel). The writer emits version 2
 * exactly when a task graph is present, so pre-V5 artifacts stay
 * byte-identical; the reader accepts both and requires the version
 * and the presence of `taskGraph` to agree.
 *
 * The readers expect members in the order the writers emit them.
 */

#include <string>
#include <string_view>

#include "kernel/build.h"
#include "kernel/kernel_ir.h"

namespace souffle {

/** Serialize @p module to a JSON document. */
std::string serializeCompiledModule(const CompiledModule &module);

/** Inverse of `serializeCompiledModule`; throws FatalError on
 *  malformed input. */
CompiledModule deserializeCompiledModule(std::string_view text);

/** Serialize @p plan to a JSON document. */
std::string serializeModulePlan(const ModulePlan &plan);

/** Inverse of `serializeModulePlan`; throws FatalError on malformed
 *  input. */
ModulePlan deserializeModulePlan(std::string_view text);

} // namespace souffle
