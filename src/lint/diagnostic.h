#pragma once

/**
 * @file
 * Diagnostics for the static-analysis (lint) subsystem.
 *
 * A `Diagnostic` is one finding of one lint rule: a stable rule id, a
 * severity, a location anchored to the IR artifact the finding is
 * about (TE id, kernel, stage, instruction), a human-readable message
 * and an optional fix hint. A `LintReport` is an ordered collection of
 * diagnostics with severity counters and text/JSON renderers, shared
 * by the `Linter` driver, the `LintPass`, the inter-pass `IrVerifier`
 * (which reports *all* structural violations through the same
 * machinery before throwing) and the `souffle_cli lint` subcommand.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace souffle {

/** Severity of one lint finding. */
enum class Severity : uint8_t {
    kNote,    ///< informational (e.g. an out-of-bounds read that is
              ///< provably masked by a predicate)
    kWarning, ///< suspicious but not semantics-breaking (dead code,
              ///< store-to-nowhere)
    kError,   ///< semantics- or executability-breaking (race, OOB
              ///< read, resource-cap violation)
};

std::string severityName(Severity severity);

/**
 * Location of a finding, anchored to whatever IR granularity the rule
 * operates on. Unset fields stay at their defaults and are omitted
 * from rendered output.
 */
struct LintLocation
{
    /** TE id in the working program, or -1. */
    int teId = -1;
    /** Kernel name in the compiled module (empty if not anchored). */
    std::string kernel;
    /** Stage index inside the kernel, or -1. */
    int stage = -1;
    /** Instruction index inside the stage, or -1. */
    int instr = -1;

    bool empty() const
    {
        return teId < 0 && kernel.empty() && stage < 0 && instr < 0;
    }

    /** Compact rendering, e.g. "kernel 'sub_0' stage 2 te 17". */
    std::string toString() const;
};

/** One finding of one lint rule. */
struct Diagnostic
{
    /** Stable kebab-case rule id, e.g. "unsynced-dep". */
    std::string rule;
    Severity severity = Severity::kWarning;
    LintLocation location;
    std::string message;
    /** Optional suggestion for fixing the finding. */
    std::string fixHint;

    /** One-line rendering: "error[unsynced-dep] <loc>: <msg>". */
    std::string toString() const;
};

/** Ordered collection of diagnostics with renderers. */
class LintReport
{
  public:
    void add(Diagnostic diagnostic);

    /** Convenience: construct and add in one call. */
    void add(const std::string &rule, Severity severity,
             LintLocation location, const std::string &message,
             const std::string &fix_hint = "");

    const std::vector<Diagnostic> &diagnostics() const { return diags; }

    bool empty() const { return diags.empty(); }
    size_t size() const { return diags.size(); }

    int count(Severity severity) const;
    int errors() const { return count(Severity::kError); }
    int warnings() const { return count(Severity::kWarning); }
    int notes() const { return count(Severity::kNote); }

    /** True if any diagnostic is at least as severe as @p threshold. */
    bool anyAtOrAbove(Severity threshold) const;

    /** Append every diagnostic of @p other. */
    void merge(const LintReport &other);

    /**
     * Human-readable multi-line report: one line per diagnostic plus
     * a summary line ("3 errors, 1 warning, 0 notes").
     */
    std::string renderText() const;

    /**
     * Machine-readable JSON document:
     * {"diagnostics": [...], "errors": N, "warnings": N, "notes": N}.
     */
    std::string renderJson() const;

  private:
    std::vector<Diagnostic> diags;
};

} // namespace souffle
