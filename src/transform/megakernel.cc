#include "transform/megakernel.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/dataflow.h"
#include "common/logging.h"
#include "gpu/sim.h"
#include "runtime/memory_plan.h"

namespace souffle {

std::map<TensorId, std::vector<int>>
megakernelStagesTouching(const TeProgram &program, const Kernel &kernel)
{
    std::map<TensorId, std::vector<int>> touches;
    auto note = [&](TensorId tensor, int stage) {
        if (tensor < 0)
            return;
        std::vector<int> &list = touches[tensor];
        if (list.empty() || list.back() != stage)
            list.push_back(stage);
    };
    for (size_t s = 0; s < kernel.stages.size(); ++s) {
        const KernelStage &stage = kernel.stages[s];
        const int index = static_cast<int>(s);
        for (int te_id : stage.teIds) {
            const TensorExpr &te = program.te(te_id);
            note(te.output, index);
            for (TensorId in : te.inputs)
                note(in, index);
        }
        for (const Instr &instr : stage.instrs)
            note(instr.tensor, index);
    }
    return touches;
}

MegakernelStats
applyMegakernel(const TeProgram &program, const GlobalAnalysis &analysis,
                const DeviceSpec &device, CompiledModule &module)
{
    MegakernelStats stats;
    if (module.kernels.empty()) {
        stats.fallbackReason = "empty module";
        return stats;
    }
    for (const Kernel &kernel : module.kernels) {
        if (kernel.usesLibrary) {
            stats.fallbackReason =
                "library kernel '" + kernel.name
                + "' cannot join a persistent launch";
            return stats;
        }
    }

    // One persistent kernel: every stage of every kernel in module
    // order, with the inter-stage grid syncs deleted (their ordering
    // becomes task edges). Block barriers stay: they order threads
    // *inside* a task, which the scheduler never splits.
    Kernel merged;
    merged.name = "megakernel";
    for (const Kernel &kernel : module.kernels) {
        for (const KernelStage &stage : kernel.stages) {
            KernelStage copy = stage;
            copy.instrs.clear();
            for (const Instr &instr : stage.instrs) {
                if (instr.kind == InstrKind::kGridSync)
                    ++stats.gridSyncsRemoved;
                else
                    copy.instrs.push_back(instr);
            }
            merged.stages.push_back(std::move(copy));
        }
    }

    // Residency: one worker block must fit an SM at the per-stage
    // maximum of shared memory / registers / threads.
    if (device.blocksPerSm(merged.sharedMemBytes(),
                           merged.regsPerBlock(),
                           merged.threadsPerBlock())
        < 1) {
        std::ostringstream why;
        why << "zero resident worker blocks per SM ("
            << merged.sharedMemBytes() << "B shared, "
            << merged.regsPerBlock() << " regs, "
            << merged.threadsPerBlock() << " threads)";
        stats.fallbackReason = why.str();
        return stats;
    }

    TaskGraph graph;
    for (size_t s = 0; s < merged.stages.size(); ++s) {
        const KernelStage &stage = merged.stages[s];
        TaskDesc task;
        task.name = stage.name;
        task.stage = static_cast<int>(s);
        task.blocks = std::max<int64_t>(1, stage.numBlocks);
        task.shards = static_cast<int>(std::min<int64_t>(
            task.blocks, std::max(1, device.numSms)));
        graph.tasks.push_back(std::move(task));
    }

    // Every derived edge, in derivation order; reduceTaskEdges keeps
    // the first per (from, to) pair, so the order below (RAW/WAR, then
    // WAW, then alias) lets the most specific kind win.
    std::vector<TaskEdge> derived;
    auto add_edge = [&](int from, int to, TensorId tensor,
                        TaskEdgeKind kind) {
        if (from == to || from < 0 || to < 0)
            return;
        derived.push_back(TaskEdge{from, to, tensor, kind});
    };

    // RAW/WAR edges: the merged stream's dataflow, projected onto
    // stage pairs.
    const KernelDataflow dataflow(program, merged);
    for (const DepEdge &edge : dataflow.edges()) {
        if (edge.def.stage == edge.use.stage)
            continue; // intra-task program order covers it
        add_edge(edge.def.stage, edge.use.stage, edge.tensor,
                 edge.kind == DepEdge::Kind::kRaw ? TaskEdgeKind::kRaw
                                                  : TaskEdgeKind::kWar);
    }

    // WAW edges: chain each tensor's writer stages in order, so
    // concurrent tasks never race on one output (two-phase reduction
    // accumulators would be nondeterministic on the native backend).
    std::map<TensorId, std::vector<int>> writers;
    for (size_t s = 0; s < merged.stages.size(); ++s) {
        for (const Instr &instr : merged.stages[s].instrs) {
            if (instr.tensor < 0)
                continue;
            if (instr.kind != InstrKind::kStoreGlobal
                && instr.kind != InstrKind::kAtomicAdd
                && instr.kind != InstrKind::kCompute)
                continue;
            std::vector<int> &list = writers[instr.tensor];
            if (list.empty() || list.back() != static_cast<int>(s))
                list.push_back(static_cast<int>(s));
        }
    }
    for (const auto &[tensor, stages] : writers) {
        for (size_t i = 1; i < stages.size(); ++i)
            add_edge(stages[i - 1], stages[i], tensor,
                     TaskEdgeKind::kWaw);
    }

    // Alias edges: the memory plan reuses workspace bytes across
    // tensors with disjoint TE-order live intervals; task-parallel
    // execution must respect that order or the later tensor's writes
    // would clobber the earlier one while still in use.
    const MemoryPlan plan = planMemory(program, analysis);
    const std::map<TensorId, std::vector<int>> touches =
        megakernelStagesTouching(program, merged);
    for (size_t a = 0; a < plan.assignments.size(); ++a) {
        for (size_t b = a + 1; b < plan.assignments.size(); ++b) {
            const BufferAssignment &x = plan.assignments[a];
            const BufferAssignment &y = plan.assignments[b];
            const bool overlap = x.offset < y.offset + y.bytes
                                 && y.offset < x.offset + x.bytes;
            if (!overlap)
                continue;
            // The plan guarantees disjoint live intervals; order the
            // stages of the earlier tensor before the later one's.
            const BufferAssignment &early =
                x.liveFrom <= y.liveFrom ? x : y;
            const BufferAssignment &late =
                x.liveFrom <= y.liveFrom ? y : x;
            const auto early_it = touches.find(early.tensor);
            const auto late_it = touches.find(late.tensor);
            if (early_it == touches.end() || late_it == touches.end())
                continue;
            for (int from : early_it->second)
                for (int to : late_it->second)
                    add_edge(from, to, -1, TaskEdgeKind::kAlias);
        }
    }

    // Transitive reduction: an edge is redundant when a longer path
    // already orders its endpoints — the scheduler charges an event
    // signal+wait per edge, so every pruned edge is pure overhead
    // saved, and reachability (what the lint rule checks) is
    // untouched.
    ReducedTaskEdges reduced =
        reduceTaskEdges(graph.numTasks(), derived);
    graph.edges = std::move(reduced.edges);
    stats.edgesPruned = reduced.pruned;

    stats.tasks = graph.numTasks();
    stats.edges = graph.numEdges();

    // Profitability under the charged scheduler overheads: keep the
    // grid-sync form unless the megakernel is strictly faster.
    CompiledModule candidate;
    candidate.compilerName = module.compilerName;
    candidate.kernels.push_back(std::move(merged));
    candidate.taskGraph = std::move(graph);
    stats.gridSyncUs = simulate(module, device).totalUs;
    stats.megakernelUs = simulate(candidate, device).totalUs;
    if (!(stats.megakernelUs < stats.gridSyncUs)) {
        std::ostringstream why;
        why << "unprofitable: megakernel " << stats.megakernelUs
            << "us >= grid-sync " << stats.gridSyncUs << "us";
        stats.fallbackReason = why.str();
        return stats;
    }

    module = std::move(candidate);
    stats.applied = true;
    return stats;
}

void
MegakernelPass::run(CompileContext &ctx)
{
    if (ctx.options.level < SouffleLevel::kV5)
        return;
    const MegakernelStats stats =
        applyMegakernel(ctx.program(), ctx.analysis(),
                        ctx.options.device, ctx.result.module);
    ctx.counter("megakernelApplied", stats.applied ? 1 : 0);
    ctx.counter("megakernelFallback", stats.applied ? 0 : 1);
    ctx.counter("megakernelTasks", stats.tasks);
    ctx.counter("megakernelEdges", stats.edges);
    ctx.counter("megakernelEdgesPruned", stats.edgesPruned);
    ctx.counter("gridSyncsRemoved", stats.gridSyncsRemoved);
}

} // namespace souffle
