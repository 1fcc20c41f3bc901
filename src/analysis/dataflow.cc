#include "analysis/dataflow.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace souffle {

std::string
fenceScopeName(FenceScope scope)
{
    switch (scope) {
      case FenceScope::kNone:
        return "none";
      case FenceScope::kBlock:
        return "block";
      case FenceScope::kGrid:
        return "grid";
    }
    return "?";
}

FenceScope
fenceScopeOf(InstrKind kind)
{
    switch (kind) {
      case InstrKind::kBarrier:
        return FenceScope::kBlock;
      case InstrKind::kGridSync:
        return FenceScope::kGrid;
      default:
        return FenceScope::kNone;
    }
}

std::string
InstrPos::toString() const
{
    std::ostringstream os;
    os << "stage " << stage << " instr " << instr;
    return os.str();
}

std::string
DepEdge::toString() const
{
    std::ostringstream os;
    os << (kind == Kind::kRaw ? "RAW" : "WAR") << " tensor "
       << tensor << ": TE " << defTe << " (" << def.toString()
       << ") -> TE " << useTe << " (" << use.toString()
       << "), needs " << fenceScopeName(required) << " fence";
    return os.str();
}

namespace {

/** Per-stage instruction positions of interest for one tensor. */
struct StageAccess
{
    /** kCompute producing the tensor, or invalid. */
    InstrPos compute;
    /** Last kStoreGlobal/kAtomicAdd of the tensor, or invalid. */
    InstrPos store;
    /** Earliest kLoadGlobal/kLoadCached of the tensor, or invalid. */
    InstrPos load;
};

FenceScope
maxScope(FenceScope a, FenceScope b)
{
    return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}

} // namespace

KernelDataflow::KernelDataflow(const TeProgram &program,
                               const Kernel &kernel)
    : prog(program), kern(kernel)
{
    // 1. Flatten the stages into one linear stream and collect every
    //    fence plus, per stage, each tensor's access positions.
    const int num_stages = static_cast<int>(kernel.stages.size());
    std::vector<std::unordered_map<TensorId, StageAccess>> access(
        static_cast<size_t>(num_stages));
    std::unordered_map<int, int> stage_of_te;
    for (int s = 0; s < num_stages; ++s) {
        const KernelStage &stage = kernel.stages[s];
        for (int te_id : stage.teIds)
            stage_of_te.emplace(te_id, s);
        for (size_t i = 0; i < stage.instrs.size(); ++i) {
            InstrPos pos;
            pos.stage = s;
            pos.instr = static_cast<int>(i);
            pos.linear = static_cast<int>(linear.size());
            linear.push_back(pos);

            const Instr &instr = stage.instrs[i];
            const FenceScope scope = fenceScopeOf(instr.kind);
            if (scope != FenceScope::kNone) {
                FenceInfo fence;
                fence.pos = pos;
                fence.kind = instr.kind;
                fence.scope = scope;
                fenceList.push_back(fence);
            }
            if (instr.tensor < 0)
                continue;
            StageAccess &acc = access[s][instr.tensor];
            switch (instr.kind) {
              case InstrKind::kCompute:
                if (!acc.compute.valid())
                    acc.compute = pos;
                break;
              case InstrKind::kStoreGlobal:
              case InstrKind::kAtomicAdd:
                acc.store = pos; // keep the last externalizing write
                break;
              case InstrKind::kLoadGlobal:
              case InstrKind::kLoadCached:
                if (!acc.load.valid())
                    acc.load = pos;
                break;
              default:
                break;
            }
        }
    }

    // 2. Fence-count prefixes for O(1) happens-before queries.
    prefixBlock.assign(linear.size() + 1, 0);
    prefixGrid.assign(linear.size() + 1, 0);
    {
        size_t next_fence = 0;
        for (size_t i = 0; i < linear.size(); ++i) {
            prefixBlock[i + 1] = prefixBlock[i];
            prefixGrid[i + 1] = prefixGrid[i];
            if (next_fence < fenceList.size()
                && fenceList[next_fence].pos.linear
                       == static_cast<int>(i)) {
                ++prefixBlock[i + 1]; // grid fences imply block scope
                if (fenceList[next_fence].scope == FenceScope::kGrid)
                    ++prefixGrid[i + 1];
                ++next_fence;
            }
        }
    }

    const bool multi_block = kernel.numBlocks() > 1;
    auto cross_stage_scope = [&](int def_stage, int use_stage) {
        if (def_stage == use_stage)
            return FenceScope::kNone; // caller refines same-stage
        return multi_block ? FenceScope::kGrid : FenceScope::kBlock;
    };

    // 3. RAW edges: every consumer TE against every in-kernel
    //    producer of one of its inputs.
    for (int s = 0; s < num_stages; ++s) {
        for (int te_id : kernel.stages[s].teIds) {
            const TensorExpr &te = program.te(te_id);
            for (TensorId in : te.inputs) {
                const int producer = program.tensor(in).producer;
                const auto it = producer >= 0
                                    ? stage_of_te.find(producer)
                                    : stage_of_te.end();
                if (it == stage_of_te.end())
                    continue; // produced outside the kernel
                const int def_stage = it->second;

                // Def: the producing compute, extended past the
                // externalizing store when the consumer reads the
                // stored global copy.
                const auto def_acc = access[def_stage].find(in);
                if (def_acc == access[def_stage].end())
                    continue; // stream lacks the producer entirely;
                              // the instr-stream rule owns that
                InstrPos def = def_acc->second.compute;
                if (def_acc->second.store.valid()
                    && (!def.valid()
                        || def_acc->second.store.linear > def.linear))
                    def = def_acc->second.store;
                if (!def.valid())
                    continue;

                // Use: the earliest read — the serving load if the
                // stage has one, else the consuming compute.
                InstrPos use;
                const auto use_acc = access[s].find(in);
                if (use_acc != access[s].end()
                    && use_acc->second.load.valid())
                    use = use_acc->second.load;
                const auto out_acc = access[s].find(te.output);
                if (out_acc != access[s].end()
                    && out_acc->second.compute.valid()
                    && (!use.valid()
                        || out_acc->second.compute.linear < use.linear))
                    use = out_acc->second.compute;
                if (!use.valid() || use.linear <= def.linear)
                    continue;

                DepEdge edge;
                edge.kind = DepEdge::Kind::kRaw;
                edge.tensor = in;
                edge.defTe = producer;
                edge.useTe = te_id;
                edge.def = def;
                edge.use = use;
                edge.required =
                    def_stage == s
                        ? (program.te(producer).hasReduce()
                               ? FenceScope::kBlock
                               : FenceScope::kNone)
                        : cross_stage_scope(def_stage, s);
                deps.push_back(edge);
            }
        }
    }

    // 4. WAR edges: a TE overwriting a tensor an *earlier* stage
    //    read. The SSA builder cannot produce this (every tensor has
    //    one producer), but hand-edited and mutated IR can; the edge
    //    direction is read -> overwrite, and `def`/`use` hold the
    //    earlier read / later write respectively.
    for (int s = 0; s < num_stages; ++s) {
        for (int te_id : kernel.stages[s].teIds) {
            const TensorExpr &writer = program.te(te_id);
            const TensorId out = writer.output;
            const auto w_acc = access[s].find(out);
            if (w_acc == access[s].end())
                continue;
            InstrPos write = w_acc->second.compute;
            if (!write.valid())
                write = w_acc->second.store;
            if (!write.valid())
                continue;
            for (int earlier = 0; earlier < s; ++earlier) {
                for (int reader_id : kernel.stages[earlier].teIds) {
                    const TensorExpr &reader = program.te(reader_id);
                    if (reader_id == te_id
                        || std::find(reader.inputs.begin(),
                                     reader.inputs.end(), out)
                               == reader.inputs.end())
                        continue;
                    InstrPos read;
                    const auto r_acc = access[earlier].find(out);
                    if (r_acc != access[earlier].end()
                        && r_acc->second.load.valid())
                        read = r_acc->second.load;
                    const auto rc_acc =
                        access[earlier].find(reader.output);
                    if (rc_acc != access[earlier].end()
                        && rc_acc->second.compute.valid()
                        && (!read.valid()
                            || rc_acc->second.compute.linear
                                   > read.linear))
                        read = rc_acc->second.compute; // last read
                    if (!read.valid()
                        || read.linear >= write.linear)
                        continue;
                    DepEdge edge;
                    edge.kind = DepEdge::Kind::kWar;
                    edge.tensor = out;
                    edge.defTe = reader_id;
                    edge.useTe = te_id;
                    edge.def = read;
                    edge.use = write;
                    edge.required = cross_stage_scope(earlier, s);
                    deps.push_back(edge);
                }
            }
        }
    }

    std::sort(deps.begin(), deps.end(),
              [](const DepEdge &a, const DepEdge &b) {
                  if (a.use.linear != b.use.linear)
                      return a.use.linear < b.use.linear;
                  if (a.def.linear != b.def.linear)
                      return a.def.linear < b.def.linear;
                  return a.tensor < b.tensor;
              });
}

bool
KernelDataflow::ordered(const InstrPos &def, const InstrPos &use,
                        FenceScope required) const
{
    if (required == FenceScope::kNone)
        return true;
    if (!def.valid() || !use.valid() || use.linear <= def.linear)
        return false;
    const std::vector<int> &prefix =
        required == FenceScope::kGrid ? prefixGrid : prefixBlock;
    // Fences strictly inside (def, use): prefix[use] - prefix[def+1].
    return prefix[use.linear] - prefix[def.linear + 1] > 0;
}

std::vector<DepEdge>
KernelDataflow::uncoveredEdges() const
{
    std::vector<DepEdge> uncovered;
    for (const DepEdge &edge : deps) {
        if (edge.required != FenceScope::kNone
            && !ordered(edge.def, edge.use, edge.required))
            uncovered.push_back(edge);
    }
    return uncovered;
}

std::vector<FenceVerdict>
KernelDataflow::fenceVerdicts() const
{
    std::vector<FenceVerdict> verdicts;
    const int n = numInstrs();

    // Maximal runs of adjacent fences (consecutive linear indices).
    size_t f = 0;
    while (f < fenceList.size()) {
        size_t g = f;
        while (g + 1 < fenceList.size()
               && fenceList[g + 1].pos.linear
                      == fenceList[g].pos.linear + 1)
            ++g;
        const int run_begin = fenceList[f].pos.linear;
        const int run_end = fenceList[g].pos.linear;
        const bool has_before = run_begin > 0;
        const bool has_after = run_end < n - 1;

        // Every fence of the run covers exactly the edges whose def
        // precedes and whose use follows the whole run (def/use are
        // never fences, so they cannot sit inside it).
        FenceScope needed = FenceScope::kNone;
        if (has_before && has_after) {
            for (const DepEdge &edge : deps) {
                if (edge.required != FenceScope::kNone
                    && edge.def.linear < run_begin
                    && edge.use.linear > run_end)
                    needed = maxScope(needed, edge.required);
            }
            // A barrier covering no def/use edge may still guard
            // shared-memory recycling (reuse-cache spills), so a run
            // containing one always needs block scope mid-stream.
            for (size_t i = f; i <= g; ++i) {
                if (fenceList[i].kind == InstrKind::kBarrier) {
                    needed = maxScope(needed, FenceScope::kBlock);
                    break;
                }
            }
        }

        // Choose the kept fence (if any) and the shared reason.
        size_t keeper = SIZE_MAX;
        FenceVerdict::Action keeper_action =
            FenceVerdict::Action::kKeep;
        std::string keeper_reason;
        std::string removed_reason;
        if (!has_after) {
            removed_reason =
                "trailing fence: no instruction follows it in the "
                "kernel (kernel completion is a device-wide fence)";
        } else if (!has_before) {
            removed_reason =
                "leading fence: no instruction precedes it in the "
                "kernel (kernel launch is a device-wide fence)";
        } else if (needed == FenceScope::kNone) {
            removed_reason = "covers no dependence edge";
        } else if (needed == FenceScope::kGrid) {
            for (size_t i = g + 1; i-- > f;) {
                if (fenceList[i].scope == FenceScope::kGrid) {
                    keeper = i;
                    break;
                }
            }
            if (keeper == SIZE_MAX) {
                // A grid-scope edge crosses a barrier-only run: the
                // stream is missing a sync (unsynced-dep reports it);
                // touch nothing.
                for (size_t i = f; i <= g; ++i) {
                    FenceVerdict v;
                    v.pos = fenceList[i].pos;
                    v.kind = fenceList[i].kind;
                    v.action = FenceVerdict::Action::kKeep;
                    verdicts.push_back(v);
                }
                f = g + 1;
                continue;
            }
            removed_reason = "subsumed by the adjacent grid.sync() at "
                             + fenceList[keeper].pos.toString()
                             + " (no instruction separates them)";
        } else { // kBlock
            for (size_t i = g + 1; i-- > f;) {
                if (fenceList[i].kind == InstrKind::kBarrier) {
                    keeper = i;
                    break;
                }
            }
            if (keeper == SIZE_MAX) {
                keeper = g; // all grid syncs, block scope suffices
                keeper_action = FenceVerdict::Action::kDowngrade;
                keeper_reason =
                    "only block-scope dependences cross this fence; "
                    "a __syncthreads() suffices";
            }
            removed_reason = "subsumed by the adjacent fence at "
                             + fenceList[keeper].pos.toString()
                             + " (no instruction separates them)";
        }

        for (size_t i = f; i <= g; ++i) {
            FenceVerdict v;
            v.pos = fenceList[i].pos;
            v.kind = fenceList[i].kind;
            if (i == keeper) {
                v.action = keeper_action;
                v.reason = keeper_reason;
            } else {
                v.action = FenceVerdict::Action::kRemove;
                v.reason = removed_reason;
            }
            verdicts.push_back(v);
        }
        f = g + 1;
    }
    return verdicts;
}

std::vector<TensorLiveInterval>
moduleLiveIntervals(const TeProgram &program,
                    const GlobalAnalysis &analysis,
                    const CompiledModule *module)
{
    // Seed every intermediate with its program-level live range.
    std::unordered_map<TensorId, TensorLiveInterval> intervals;
    for (const TensorDecl &decl : program.tensors()) {
        if (decl.role != TensorRole::kIntermediate)
            continue;
        const LiveRange &range = analysis.liveRange(decl.id);
        TensorLiveInterval interval;
        interval.tensor = decl.id;
        interval.firstDef = std::max(0, range.def);
        interval.lastUse = std::max(interval.firstDef, range.lastUse);
        intervals.emplace(decl.id, interval);
    }

    // Widen by the stage-level accesses actually in the module: a
    // stream touching a tensor outside its planned interval is the
    // hazard the plan verifier exists to catch.
    if (module != nullptr) {
        for (const Kernel &kernel : module->kernels) {
            for (const KernelStage &stage : kernel.stages) {
                // TEs of this stage that read each tensor.
                std::unordered_map<TensorId, std::pair<int, int>> uses;
                for (int te_id : stage.teIds) {
                    for (TensorId in : program.te(te_id).inputs) {
                        auto [it, fresh] = uses.emplace(
                            in, std::make_pair(te_id, te_id));
                        if (!fresh) {
                            it->second.first =
                                std::min(it->second.first, te_id);
                            it->second.second =
                                std::max(it->second.second, te_id);
                        }
                    }
                }
                for (const Instr &instr : stage.instrs) {
                    if (instr.tensor < 0)
                        continue;
                    auto it = intervals.find(instr.tensor);
                    if (it == intervals.end())
                        continue;
                    TensorLiveInterval &interval = it->second;
                    switch (instr.kind) {
                      case InstrKind::kLoadGlobal:
                      case InstrKind::kLoadCached: {
                        const auto use = uses.find(instr.tensor);
                        if (use != uses.end()) {
                            interval.firstDef =
                                std::min(interval.firstDef,
                                         use->second.first);
                            interval.lastUse =
                                std::max(interval.lastUse,
                                         use->second.second);
                        }
                        break;
                      }
                      case InstrKind::kCompute:
                      case InstrKind::kStoreGlobal:
                      case InstrKind::kAtomicAdd: {
                        const int producer =
                            program.tensor(instr.tensor).producer;
                        if (producer >= 0) {
                            interval.firstDef = std::min(
                                interval.firstDef, producer);
                            interval.lastUse = std::max(
                                interval.lastUse, producer);
                        }
                        break;
                      }
                      default:
                        break;
                    }
                }
            }
        }
    }

    std::vector<TensorLiveInterval> result;
    result.reserve(intervals.size());
    for (const auto &[tensor, interval] : intervals)
        result.push_back(interval);
    std::sort(result.begin(), result.end(),
              [](const TensorLiveInterval &a,
                 const TensorLiveInterval &b) {
                  return a.tensor < b.tensor;
              });
    return result;
}

} // namespace souffle
