#pragma once

/**
 * @file
 * Redundant-synchronization elimination over the kernel IR.
 *
 * The builders insert fences mechanically: `buildKernel` opens every
 * stage after the first with a kGridSync, `buildStage` separates
 * fused reduction producers from their consumers with a kBarrier, and
 * the reuse-cache optimization appends a spill kBarrier to every
 * stage that evicted buffers. Mechanical insertion over-synchronizes:
 * a spill barrier at the end of a stage whose successor opens with a
 * grid.sync() orders nothing the stronger fence does not already
 * order (no instruction separates them), and a fence trailing the
 * kernel's last instruction orders nothing at all — kernel completion
 * is a device-wide fence.
 *
 * This transform deletes exactly the fences the dataflow analysis
 * (analysis/dataflow.h `KernelDataflow::fenceVerdicts`) proves
 * redundant, and downgrades grid syncs where only block-scope
 * dependences cross them. The win is measurable: the device simulator
 * charges every barrier/sync against the stage time, so each deleted
 * fence is a monotone latency reduction, and the `redundant-sync`
 * lint rule reports zero findings afterwards. Semantics are untouched
 * by construction — only instructions whose ordering effect is
 * subsumed by an adjacent kept fence or a kernel boundary are
 * removed, and the TE program (what the interpreter and the native C
 * backend execute) is not modified at all.
 *
 * `SyncElimPass` runs in the V4 pipeline after the reuse-cache
 * optimization (the only pass that inserts removable fences on
 * builder output) and re-simulates the module to enforce the
 * latency-non-regression gate.
 */

#include "analysis/analysis.h"
#include "compiler/pass.h"
#include "kernel/kernel_ir.h"

namespace souffle {

/** What one elimination run did. */
struct SyncElimStats
{
    int barriersRemoved = 0;
    int gridSyncsRemoved = 0;
    int syncsDowngraded = 0;
    /** Kernels with at least one removal or downgrade. */
    int kernelsTouched = 0;
};

/**
 * Delete every provably redundant fence of @p module and downgrade
 * grid syncs that only cover block-scope dependences. Library
 * kernels (closed-source cost models) are left untouched.
 */
SyncElimStats eliminateRedundantSyncs(const TeProgram &program,
                                      CompiledModule &module);

/**
 * Pipeline adapter. Counters: "barriersRemoved", "gridSyncsRemoved",
 * "syncsDowngraded", "kernelsTouched". Fails the compile if the
 * simulated latency regresses (it cannot: fences only cost time in
 * the device model — the gate documents the contract).
 */
class SyncElimPass : public Pass
{
  public:
    std::string name() const override { return "sync-elim"; }
    void run(CompileContext &ctx) override;
};

} // namespace souffle
