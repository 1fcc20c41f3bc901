#pragma once

/**
 * @file
 * Compiled-artifact store: offline compile → online serve.
 *
 * A compiled artifact is one directory holding everything a server
 * needs to run a model without compiling it: the transformed TE
 * program (semantics), the per-TE schedules and the kernel plan
 * (provenance), the kernel-IR module (what the simulator executes),
 * and the generated backend source. Loading an artifact performs
 * *zero* candidate evaluations — scheduling, planning and codegen all
 * happened offline — and reproduces the compile byte-for-byte: the
 * reloaded module text is identical to the saved one.
 *
 * Layout under a store root:
 *
 *   <root>/<model>-b<batch>-v<level>-<backend>-<deviceFp>/
 *     meta.json       version, identity key, program hash
 *     program.json    TE program (te/serialize.h)
 *     schedules.json  per-TE schedule array (sched/schedule.h)
 *     plan.json       module plan (kernel/serialize.h)
 *     module.json     kernel-IR module (kernel/serialize.h)
 *     module.src      generated backend source, byte-exact
 *
 * The subdirectory name is derived from the identity key (never from
 * an index file), so concurrent saves of *different* keys never race;
 * a re-save of the same key rewrites the same files with identical
 * bytes. Integrity on load: the format version must match, the meta
 * identity must equal the requested key, and the deserialized
 * program's structural fingerprint must equal the recorded program
 * hash — a corrupted or hand-edited artifact is rejected with
 * FatalError instead of served.
 */

#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/options.h"

namespace souffle {

/** Identity + integrity header of one compiled artifact. */
struct ArtifactMeta
{
    /** Format version (bumped on any layout/schema change).
     *  2: module.json may carry a V5 task graph (module format v2). */
    int version = 2;
    /** Model key: zoo name, "tiny-" + zoo name, or graph name. */
    std::string model;
    int batch = 1;
    /** Souffle ablation level the artifact was compiled at. */
    int level = 4;
    /** Codegen backend name (`SouffleOptions::backend`). */
    std::string backend;
    /** Behavioral device fingerprint (gpu/device.h), hex. */
    std::string deviceFp;
    /** `programFingerprint` of the stored TE program, hex. */
    std::string programHash;
    /** Display name of the compile (`Compiled::name`). */
    std::string name;

    /** Directory name this key maps to under a store root. */
    std::string subdir() const;
};

/** The identity key for compiling @p model_key at @p batch under
 *  @p options (level, backend, device); hash/name left empty. */
ArtifactMeta artifactKeyFor(const std::string &model_key, int batch,
                            const SouffleOptions &options);

/**
 * Persist @p compiled under @p root (created if missing) with the
 * identity of @p key; the program hash and name are taken from
 * @p compiled. Returns the artifact directory written.
 */
std::string saveArtifact(const std::string &root,
                         const ArtifactMeta &key,
                         const Compiled &compiled);

/** True when @p root holds an artifact for @p key. */
bool hasArtifact(const std::string &root, const ArtifactMeta &key);

/**
 * Load the artifact for @p key from @p root. Throws FatalError when
 * the artifact is missing, a file is malformed or truncated, its
 * version or identity does not match, or the stored program fails
 * fingerprint verification.
 */
Compiled loadArtifact(const std::string &root, const ArtifactMeta &key);

/** Every artifact under @p root, sorted by subdirectory name. */
std::vector<ArtifactMeta> listArtifacts(const std::string &root);

} // namespace souffle
