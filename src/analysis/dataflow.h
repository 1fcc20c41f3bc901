#pragma once

/**
 * @file
 * Forward dataflow over kernel instruction streams.
 *
 * The lint rules of PR 2 pattern-match single instructions; this
 * framework *proves* ordering properties of whole streams. A kernel's
 * stages are flattened into one linear instruction sequence and three
 * relations are computed over it:
 *
 *  - per-tensor def/use chains: a def is the kCompute producing a
 *    tensor plus its externalizing kStoreGlobal/kAtomicAdd; a use is
 *    the kLoadGlobal/kLoadCached serving a consumer stage or, for
 *    register-fused consumers, the consuming kCompute itself;
 *  - a barrier-aware happens-before relation: `kBarrier` is a
 *    block-scope fence (`__syncthreads()`), `kGridSync` a global
 *    fence (`grid.sync()`); def happens-before use at scope S iff a
 *    fence of scope >= S sits strictly between them in the stream;
 *  - fence redundancy: maximal runs of adjacent fences cover exactly
 *    the same dependence edges (no def/use instruction separates
 *    them), so every fence beyond the strongest one needed by the
 *    run's covered edges is provably removable, as is any leading or
 *    trailing run (kernel launch/completion are device-wide fences).
 *
 * The required scope of a dependence edge follows the execution
 * model the builder and the simulator share: TEs fused into one stage
 * partition elements identically across threads, so an elementwise
 * producer needs no fence (register fusion), a one-relies-on-many
 * (reduction) producer needs a block fence, and a cross-stage edge
 * needs a global fence when more than one block is in flight (a block
 * fence otherwise).
 *
 * Consumers: the `unsynced-dep` and `redundant-sync` lint rules, the
 * sync-elimination transform (transform/sync_elim.h), and the
 * memory-plan verifier (analysis/verify_plan.h), which reuses the
 * def/use chains as module-derived live intervals.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "kernel/kernel_ir.h"

namespace souffle {

/** Synchronization scope a fence provides or an edge demands. */
enum class FenceScope : uint8_t {
    kNone,  ///< no fence needed (same-thread register dependence)
    kBlock, ///< __syncthreads(): threads of one block
    kGrid,  ///< grid.sync(): every block of the cooperative launch
};

std::string fenceScopeName(FenceScope scope);

/** Scope of a fence instruction kind (kNone for non-fences). */
FenceScope fenceScopeOf(InstrKind kind);

/** Position of one instruction in a kernel's flattened stream. */
struct InstrPos
{
    /** Stage index inside the kernel. */
    int stage = -1;
    /** Instruction index inside the stage. */
    int instr = -1;
    /** Index in the flattened whole-kernel sequence. */
    int linear = -1;

    bool valid() const { return linear >= 0; }
    std::string toString() const;
};

/** One dependence edge between two instructions of a kernel. */
struct DepEdge
{
    enum class Kind : uint8_t {
        kRaw, ///< consumer reads a tensor defined earlier in-kernel
        kWar, ///< writer overwrites a tensor read earlier in-kernel
    };

    Kind kind = Kind::kRaw;
    TensorId tensor = -1;
    /** Defining / using TE ids (the writer for WAR edges). */
    int defTe = -1;
    int useTe = -1;
    /** Last defining instruction (compute or externalizing store). */
    InstrPos def;
    /** First reading instruction (load, cached load, or compute). */
    InstrPos use;
    /** Fence scope a correct stream must provide in (def, use). */
    FenceScope required = FenceScope::kNone;

    std::string toString() const;
};

/** One fence instruction of the stream. */
struct FenceInfo
{
    InstrPos pos;
    InstrKind kind = InstrKind::kBarrier;
    FenceScope scope = FenceScope::kBlock;
};

/** Verdict of the redundancy analysis for one fence. */
struct FenceVerdict
{
    enum class Action : uint8_t {
        kKeep,      ///< needed by at least one covered edge/guard
        kRemove,    ///< provably orders nothing another fence misses
        kDowngrade, ///< grid.sync() where a block fence suffices
    };

    InstrPos pos;
    InstrKind kind = InstrKind::kBarrier;
    Action action = Action::kKeep;
    /** Human-readable proof sketch for diagnostics. */
    std::string reason;
};

/**
 * Dataflow facts of one kernel: positions, def/use chains, dependence
 * edges, fences, and the happens-before query. Built once per kernel;
 * all queries afterwards are lookups over the precomputed vectors.
 */
class KernelDataflow
{
  public:
    KernelDataflow(const TeProgram &program, const Kernel &kernel);

    const Kernel &kernel() const { return kern; }

    /** Flattened instruction count across all stages. */
    int numInstrs() const { return static_cast<int>(linear.size()); }

    /** Every dependence edge, ordered by (use, def) position. */
    const std::vector<DepEdge> &edges() const { return deps; }

    /** Every fence instruction, in stream order. */
    const std::vector<FenceInfo> &fences() const { return fenceList; }

    /**
     * Happens-before: true iff a fence of scope >= @p required sits
     * strictly between @p def and @p use in the flattened stream
     * (trivially true when no fence is required).
     */
    bool ordered(const InstrPos &def, const InstrPos &use,
                 FenceScope required) const;

    /** Edges whose required fence is missing (the race witnesses). */
    std::vector<DepEdge> uncoveredEdges() const;

    /**
     * Per-fence redundancy verdicts. Sound by construction: a fence
     * is only removed when every dependence edge it covers is covered
     * by a kept fence of sufficient scope in the same adjacent run,
     * or when no instruction precedes/follows it in the kernel (the
     * launch/completion fences subsume it). A `kBarrier` covering no
     * def/use edge is conservatively treated as a block-scope guard
     * (the reuse-cache spill barriers protect shared-memory recycling
     * that tensor def/use chains do not see), so it is removed only
     * when adjacent to a kept fence or to a kernel boundary.
     */
    std::vector<FenceVerdict> fenceVerdicts() const;

  private:
    /** Max prefix count of fences with scope >= s at each position. */
    const std::vector<int> &fencePrefix(FenceScope scope) const;

    const TeProgram &prog;
    const Kernel &kern;
    /** linear index -> (stage, instr). */
    std::vector<InstrPos> linear;
    std::vector<DepEdge> deps;
    std::vector<FenceInfo> fenceList;
    /** prefixBlock[i]: fences of scope>=block in linear[0..i). */
    std::vector<int> prefixBlock;
    /** prefixGrid[i]: fences of scope>=grid in linear[0..i). */
    std::vector<int> prefixGrid;
};

/**
 * TE-order live interval of one tensor, derived from the module's
 * instruction streams (the coordinate system `MemoryPlan` plans in:
 * TE ids double as program-order steps).
 */
struct TensorLiveInterval
{
    TensorId tensor = -1;
    /** Producing TE id (program order == plan step). */
    int firstDef = 0;
    /** Last TE whose stage reads or (re)writes the tensor. */
    int lastUse = 0;
};

/**
 * Live intervals of every planned (intermediate) tensor: the union of
 * the program-level live range from @p analysis and the stage-level
 * accesses actually present in @p module (nullptr: analysis only).
 * The union direction matters: a module whose streams touch a tensor
 * *outside* its planned interval is exactly the WAR/WAW hazard the
 * plan verifier must catch.
 */
std::vector<TensorLiveInterval>
moduleLiveIntervals(const TeProgram &program,
                    const GlobalAnalysis &analysis,
                    const CompiledModule *module);

} // namespace souffle
