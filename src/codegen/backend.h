#pragma once

/**
 * @file
 * The backend-neutral code-generation interface (the multi-backend
 * refactor of the ROADMAP, shaped after Halide's one-lowered-IR /
 * many-backends design).
 *
 * A `CodeGenBackend` turns a compiled module (kernel IR + TE program)
 * into a source-language translation unit. Backends are registered by
 * name in a process-wide registry; everything above code generation
 * (the driver pipeline, the artifact cache, the CLI, the lint rules)
 * addresses them only through `SouffleOptions::backend`, so adding a
 * target is a registry entry, not a compiler change.
 *
 * Each backend carries a *behavioral fingerprint* -- a stable hash of
 * its name, emitter version, and execution traits -- which joins the
 * artifact-cache salt so generated sources for different backends (or
 * different emitter versions) of the same program hash coexist in one
 * cache instead of aliasing.
 */

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "compiler/compiler.h"

namespace souffle {

/** One code-generation target. */
class CodeGenBackend
{
  public:
    virtual ~CodeGenBackend() = default;

    /** Stable lowercase name, e.g. "cuda" or "c". */
    virtual std::string name() const = 0;

    /** File extension of emitted sources (no dot), e.g. "cu", "c". */
    virtual std::string sourceExtension() const = 0;

    /**
     * True if the emitted code targets a GPU-style device with real
     * launch geometry and grid synchronization. GPU-only lint rules
     * (unsynced-dep, redundant-sync, resource-caps) auto-skip when
     * this is false.
     */
    virtual bool targetsGpu() const = 0;

    /**
     * True if this environment can compile and execute the emitted
     * source (the C backend on the host toolchain); false for
     * review-artifact backends (CUDA without a GPU).
     */
    virtual bool executable() const = 0;

    /**
     * Behavioral fingerprint: name + emitter version + execution
     * traits. Joins the artifact-cache salt; bump the emitter version
     * whenever emitted text changes for the same input.
     */
    virtual Fingerprint fingerprint() const = 0;

    /** Emit a whole translation unit for @p compiled. */
    virtual std::string emitModule(const Compiled &compiled) const = 0;
};

/** Process-wide registry of code-generation backends. */
class CodeGenBackendRegistry
{
  public:
    /** The global registry, pre-seeded with "cuda" and "c". */
    static CodeGenBackendRegistry &global();

    /** Register @p backend; replaces an existing same-name entry. */
    void add(std::unique_ptr<CodeGenBackend> backend);

    /** Backend by name, or nullptr when unknown. */
    const CodeGenBackend *find(const std::string &name) const;

    /** Backend by name; throws FatalError listing known names. */
    const CodeGenBackend &get(const std::string &name) const;

    /** Names of all registered backends, sorted. */
    std::vector<std::string> names() const;

  private:
    std::vector<std::unique_ptr<CodeGenBackend>> backends;
};

} // namespace souffle
