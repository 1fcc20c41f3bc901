#pragma once

/**
 * @file
 * TE-program (de)serialization: the whole-program IR — tensor table,
 * TEs, scalar expression trees, affine maps and predicates — round-
 * trips through JSON. This is the program half of the compiled-
 * artifact format (compiler/artifact_io.h): models persisted offline
 * are reloaded for online serving, and externally-authored TE
 * programs beyond the graph zoo become loadable.
 *
 * Doubles (expression constants) are written with 17 significant
 * digits, so a parsed program is *bit-identical* to the serialized
 * one: equal `programFingerprint`, equal interpreter outputs to the
 * last bit. Reconstruction goes through `TeProgram::addTensor` /
 * `addTe`, so every structural invariant is re-checked on load and a
 * hand-edited artifact cannot produce an invalid program.
 */

#include <string>
#include <string_view>

#include "te/program.h"

namespace souffle {

/** Serialize @p program to a JSON document. */
std::string serializeTeProgram(const TeProgram &program);

/** Inverse of `serializeTeProgram`; throws FatalError on malformed
 *  or structurally invalid input. The reader expects members in the
 *  order the writer emits them. */
TeProgram deserializeTeProgram(std::string_view text);

} // namespace souffle
