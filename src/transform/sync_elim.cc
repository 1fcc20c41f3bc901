#include "transform/sync_elim.h"

#include <vector>

#include "analysis/dataflow.h"
#include "common/logging.h"
#include "gpu/sim.h"

namespace souffle {

SyncElimStats
eliminateRedundantSyncs(const TeProgram &program, CompiledModule &module)
{
    SyncElimStats stats;
    for (Kernel &kernel : module.kernels) {
        if (kernel.usesLibrary)
            continue; // opaque cost model: streams are not rewritten
        const KernelDataflow dataflow(program, kernel);
        const std::vector<FenceVerdict> verdicts =
            dataflow.fenceVerdicts();

        // Collect per-stage edits; apply removals back to front so
        // instruction indices stay valid.
        bool touched = false;
        std::vector<std::vector<int>> removals(kernel.stages.size());
        for (const FenceVerdict &verdict : verdicts) {
            switch (verdict.action) {
              case FenceVerdict::Action::kRemove:
                removals[static_cast<size_t>(verdict.pos.stage)]
                    .push_back(verdict.pos.instr);
                if (verdict.kind == InstrKind::kBarrier)
                    ++stats.barriersRemoved;
                else
                    ++stats.gridSyncsRemoved;
                touched = true;
                break;
              case FenceVerdict::Action::kDowngrade: {
                Instr &instr =
                    kernel.stages[static_cast<size_t>(
                                      verdict.pos.stage)]
                        .instrs[static_cast<size_t>(verdict.pos.instr)];
                instr.kind = InstrKind::kBarrier;
                ++stats.syncsDowngraded;
                touched = true;
                break;
              }
              case FenceVerdict::Action::kKeep:
                break;
            }
        }
        for (size_t s = 0; s < removals.size(); ++s) {
            std::vector<Instr> &instrs = kernel.stages[s].instrs;
            for (size_t r = removals[s].size(); r-- > 0;)
                instrs.erase(instrs.begin() + removals[s][r]);
        }
        if (touched)
            ++stats.kernelsTouched;
    }
    return stats;
}

void
SyncElimPass::run(CompileContext &ctx)
{
    if (ctx.result.module.kernels.empty())
        return;
    const double before_us =
        simulate(ctx.result.module, ctx.options.device).totalUs;
    const SyncElimStats stats =
        eliminateRedundantSyncs(ctx.program(), ctx.result.module);
    const double after_us =
        simulate(ctx.result.module, ctx.options.device).totalUs;

    ctx.counter("barriersRemoved", stats.barriersRemoved);
    ctx.counter("gridSyncsRemoved", stats.gridSyncsRemoved);
    ctx.counter("syncsDowngraded", stats.syncsDowngraded);
    ctx.counter("kernelsTouched", stats.kernelsTouched);
    // Integer nanoseconds: pass counters are integral.
    ctx.counter("latencySavedNs",
                static_cast<int64_t>((before_us - after_us) * 1000.0));

    // Fences only cost time in the device model, so elimination is a
    // monotone improvement; the gate documents (and enforces) it.
    SOUFFLE_REQUIRE(after_us <= before_us * (1.0 + 1e-9),
                    "sync-elim regressed simulated latency: "
                        << before_us << "us -> " << after_us << "us");
}

} // namespace souffle
