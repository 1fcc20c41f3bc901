#pragma once

/**
 * @file
 * souffle-lint: the static-analysis framework over TE programs and
 * kernel plans (companion to the inter-pass IrVerifier).
 *
 * The `IrVerifier` proves coarse *structural* invariants (ids intact,
 * plans bijective) and rejects broken IR outright. The lint rules
 * prove the *semantic* properties the paper's transformations promise
 * to preserve (Sec. 5-6): every cross-stage dependence inside a merged
 * kernel is covered by a grid.sync(), every propagated read map stays
 * inside the producing tensor's shape, every stage fits the device
 * resource envelope, no dead TEs or stores-to-nowhere survive, and
 * the abstract instruction streams are self-consistent.
 *
 * A `LintRule` inspects a `LintInput` (whatever compile artifacts
 * exist: TE program + GlobalAnalysis always, schedules and compiled
 * module when available) and emits `Diagnostic`s. The `Linter` driver
 * runs a rule set -- by default every registered rule -- and returns a
 * `LintReport`. `LintPass` adapts the driver to the PassManager so a
 * `--strict` compile fails on error-severity findings, and
 * `souffle_cli lint` exposes the same machinery on the command line.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/pass.h"
#include "lint/diagnostic.h"

namespace souffle {

struct MemoryPlan;

/** Read-only view of the artifacts a lint run inspects. */
struct LintInput
{
    const TeProgram &program;
    const GlobalAnalysis &analysis;
    DeviceSpec device;
    /** Per-TE schedules, or nullptr before scheduling. */
    const std::vector<Schedule> *schedules = nullptr;
    /** Compiled module, or nullptr before kernel construction. */
    const CompiledModule *module = nullptr;
    /**
     * Workspace plan to verify, or nullptr to let the plan-overlap
     * rule plan the program itself (mutation tests inject doctored
     * plans through this pointer).
     */
    const MemoryPlan *plan = nullptr;
    /**
     * Codegen backend of the compile under inspection (a
     * CodeGenBackendRegistry name). GPU-only rules (unsynced-dep,
     * redundant-sync, resource-caps) auto-skip with a note-level
     * diagnostic when the backend does not target a GPU.
     */
    std::string backend = "cuda";
};

/** One lint rule: a named semantic analysis. */
class LintRule
{
  public:
    virtual ~LintRule() = default;

    /** Stable kebab-case rule id (doubles as the diagnostic rule). */
    virtual std::string id() const = 0;

    /** One-line description of what the rule proves. */
    virtual std::string description() const = 0;

    /** Inspect @p input and append findings to @p report. */
    virtual void run(const LintInput &input, LintReport &report) const = 0;
};

/** Registry of lint-rule factories, keyed by rule id. */
class LintRuleRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<LintRule>()>;

    /** The process-wide registry, pre-seeded with the builtin rules. */
    static LintRuleRegistry &global();

    /** Register a factory; replaces an existing id. */
    void add(const std::string &id, Factory factory);

    /** Ids of all registered rules, sorted. */
    std::vector<std::string> ruleIds() const;

    /** Instantiate one rule; throws FatalError on unknown id. */
    std::unique_ptr<LintRule> create(const std::string &id) const;

    /** Instantiate every registered rule, in sorted-id order. */
    std::vector<std::unique_ptr<LintRule>> createAll() const;

  private:
    std::vector<std::pair<std::string, Factory>> factories;
};

/** Ids of the builtin rule catalogue (sorted). */
std::vector<std::string> builtinLintRuleIds();

/** Driver: runs a rule set over the compile artifacts. */
class Linter
{
  public:
    /** Lint with every rule registered in the global registry. */
    Linter();

    /** Lint with the given rule ids only (throws on unknown ids). */
    explicit Linter(const std::vector<std::string> &rule_ids);

    /** Run every selected rule over @p input. */
    LintReport run(const LintInput &input) const;

    /**
     * Run over a CompileContext: program + analysis always, schedules
     * and module when the pipeline has produced them.
     */
    LintReport run(CompileContext &ctx) const;

    /** The selected rules. */
    const std::vector<std::unique_ptr<LintRule>> &rules() const
    {
        return selected;
    }

  private:
    std::vector<std::unique_ptr<LintRule>> selected;
};

/**
 * PassManager adapter: runs the full rule catalogue over the context
 * and throws FatalError when any error-severity finding exists
 * (`SouffleOptions::strictLint` appends it to every pipeline).
 * Warning/note findings are reported through SOUFFLE_WARN and pass
 * counters ("lint-errors", "lint-warnings", "reach-queries").
 */
class LintPass : public Pass
{
  public:
    std::string name() const override { return "lint"; }
    void run(CompileContext &ctx) override;
};

} // namespace souffle
