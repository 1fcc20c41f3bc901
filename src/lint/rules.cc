/**
 * @file
 * The builtin lint-rule catalogue (see lint.h for the framework).
 *
 *   affine-bounds   every read map's interval over the iteration box
 *                   stays inside the producing tensor's shape unless
 *                   the read is masked by an affine predicate (Sec. 6.2)
 *   resource-caps   stages fit the per-block device limits; grid-sync
 *                   kernels fit one cooperative wave (Sec. 5.4)
 *   dead-te         every TE (transitively) feeds a model output;
 *                   inputs/params are consumed
 *   instr-stream    instruction streams are self-consistent: no
 *                   overlapped loads in a kernel's first stage or of
 *                   in-kernel-produced tensors, no stores to tensors
 *                   nothing consumes, no grid.sync() in library kernels
 *   plan-overlap    the memory plan is sound: no two simultaneously-
 *                   live intermediates share workspace bytes, every
 *                   planned interval contains the observed live
 *                   interval (analysis/verify_plan.h)
 *   unsynced-dep    instruction-granular happens-before: every
 *                   def/use edge of the kernel dataflow is ordered by
 *                   a fence of sufficient scope: cross-stage RAW/WAR
 *                   edges by grid.sync() (a block barrier in
 *                   single-block kernels), a one-relies-on-many
 *                   producer fused into its consumer's stage by a
 *                   block barrier (Sec. 6.3/6.4)
 *   redundant-sync  fences the dataflow proves removable (subsumed by
 *                   an adjacent stronger fence or a kernel boundary,
 *                   or covering no dependence edge)
 *   task-graph-dep  V5 megakernel modules: the task graph is well
 *                   formed and acyclic, and every cross-stage
 *                   dependence (dataflow RAW/WAR plus per-tensor
 *                   writer chains) is covered by task-graph
 *                   reachability; intra-task edges ride program order
 *
 * Each ordering property has one owner. On megakernel modules
 * (CompiledModule::megakernel) the persistent kernel deleted its
 * whole-grid fences and re-expressed their ordering as
 * scheduler-enforced task edges, so unsynced-dep checks only the
 * intra-stage edges there and task-graph-dep owns every cross-stage
 * one, on every backend.
 */

#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "analysis/dataflow.h"
#include "analysis/verify_plan.h"
#include "codegen/backend.h"
#include "common/string_util.h"
#include "lint/lint.h"
#include "runtime/memory_plan.h"

namespace souffle {
namespace {

/**
 * GPU-only rules prove launch-grid properties (barrier coverage,
 * occupancy caps) that have no counterpart when the backend lowers
 * stages to sequential CPU loops. When the compile targets such a
 * backend, record a note so the skip is visible in the report and
 * return true.
 */
bool
skipForNonGpuBackend(const LintInput &input, const std::string &rule_id,
                     LintReport &report)
{
    const CodeGenBackend *backend =
        CodeGenBackendRegistry::global().find(input.backend);
    if (backend == nullptr || backend->targetsGpu())
        return false;
    report.add(rule_id, Severity::kNote, LintLocation{},
               "rule is GPU-only; skipped for backend '"
                   + backend->name()
                   + "' (stages execute sequentially on the host)",
               "");
    return true;
}

// ---------------------------------------------------------------------
// affine-bounds
// ---------------------------------------------------------------------

class AffineBoundsRule : public LintRule
{
  public:
    std::string id() const override { return "affine-bounds"; }

    std::string
    description() const override
    {
        return "read-map intervals over the iteration box stay inside "
               "the producing tensor's shape unless predicate-masked";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        for (const TensorExpr &te : input.program.tes())
            checkTe(input.program, te, report);
    }

  private:
    /** True if any condition actually constrains the index vector. */
    static bool
    masksIndex(const Predicate &pred)
    {
        for (const AffineCond &cond : pred)
            for (int64_t coef : cond.coefs)
                if (coef != 0)
                    return true;
        return false;
    }

    void
    checkTe(const TeProgram &program, const TensorExpr &te,
            LintReport &report) const
    {
        const std::vector<int64_t> extents = te.iterExtents();
        walk(program, te, te.body, extents, /*guarded=*/false, report);
    }

    void
    walk(const TeProgram &program, const TensorExpr &te,
         const ExprPtr &expr, const std::vector<int64_t> &extents,
         bool guarded, LintReport &report) const
    {
        switch (expr->kind()) {
          case ExprKind::kConst:
            return;
          case ExprKind::kRead:
            checkRead(program, te, expr, extents, guarded, report);
            return;
          case ExprKind::kUnary:
            walk(program, te, expr->lhs(), extents, guarded, report);
            return;
          case ExprKind::kBinary:
            walk(program, te, expr->lhs(), extents, guarded, report);
            walk(program, te, expr->rhs(), extents, guarded, report);
            return;
          case ExprKind::kSelect: {
            // Both branches execute under a (possibly negated) index
            // predicate: reads below are masked for the indices where
            // the other branch is taken.
            const bool masked =
                guarded || masksIndex(expr->predicate());
            walk(program, te, expr->lhs(), extents, masked, report);
            walk(program, te, expr->rhs(), extents, masked, report);
            return;
          }
        }
    }

    void
    checkRead(const TeProgram &program, const TensorExpr &te,
              const ExprPtr &read, const std::vector<int64_t> &extents,
              bool guarded, LintReport &report) const
    {
        const AffineMap &map = read->readMap();
        const int slot = read->readSlot();
        if (slot < 0 || slot >= static_cast<int>(te.inputs.size()))
            return; // undeclared slot: the IrVerifier owns that
        const TensorDecl &decl = program.tensor(te.inputs[slot]);

        auto emit = [&](int row, int64_t lo, int64_t hi,
                        int64_t bound, const char *kind) {
            std::ostringstream msg;
            msg << kind << " read of tensor '" << decl.name
                << "' row " << row << " spans [" << lo << ", " << hi
                << "] over the iteration box, outside [0, " << bound
                << ")";
            if (guarded)
                msg << " (masked by an affine predicate)";
            LintLocation loc;
            loc.teId = te.id;
            report.add(id(),
                       guarded ? Severity::kNote : Severity::kError,
                       loc, msg.str(),
                       guarded ? ""
                               : "guard the read with a predicate or "
                                 "fix the map's offset/coefficients");
        };

        if (read->isFlatRead()) {
            const auto range = map.rowValueRange(0, extents);
            const int64_t bound = decl.numElements();
            if (range.min < 0 || range.max >= bound)
                emit(0, range.min, range.max, bound, "flat");
            return;
        }
        if (map.outDims() != decl.rank()) {
            LintLocation loc;
            loc.teId = te.id;
            std::ostringstream msg;
            msg << "read map of tensor '" << decl.name << "' yields "
                << map.outDims() << " indices for a rank-"
                << decl.rank() << " tensor";
            report.add(id(), Severity::kError, loc, msg.str(),
                       "make the read map's out-rank match the "
                       "tensor rank");
            return;
        }
        for (int row = 0; row < map.outDims(); ++row) {
            const auto range = map.rowValueRange(row, extents);
            const int64_t bound = decl.shape[row];
            if (range.min < 0 || range.max >= bound)
                emit(row, range.min, range.max, bound, "affine");
        }
    }
};

// ---------------------------------------------------------------------
// resource-caps
// ---------------------------------------------------------------------

class ResourceCapsRule : public LintRule
{
  public:
    std::string id() const override { return "resource-caps"; }

    std::string
    description() const override
    {
        return "stages fit per-block device limits; grid-sync kernels "
               "fit one cooperative wave";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        if (skipForNonGpuBackend(input, id(), report))
            return;
        if (input.module != nullptr) {
            for (const Kernel &kernel : input.module->kernels)
                checkKernel(kernel, input.device, report);
        } else if (input.schedules != nullptr) {
            for (const Schedule &sched : *input.schedules)
                checkSchedule(sched, input.device, report);
        }
    }

  private:
    void
    checkSchedule(const Schedule &sched, const DeviceSpec &device,
                  LintReport &report) const
    {
        LintLocation loc;
        loc.teId = sched.teId;
        if (sched.sharedMemBytes > device.sharedMemPerBlockLimit) {
            report.add(id(), Severity::kError, loc,
                       "schedule requests "
                           + bytesToString(static_cast<double>(
                               sched.sharedMemBytes))
                           + " shared memory, per-block limit is "
                           + bytesToString(static_cast<double>(
                               device.sharedMemPerBlockLimit)),
                       "shrink the tile or spill to global memory");
        }
        if (sched.threadsPerBlock > device.maxThreadsPerBlock) {
            report.add(id(), Severity::kError, loc,
                       "schedule launches "
                           + std::to_string(sched.threadsPerBlock)
                           + " threads per block, device cap is "
                           + std::to_string(device.maxThreadsPerBlock),
                       "");
        }
        if (sched.regsPerBlock() > device.regsPerSm) {
            report.add(id(), Severity::kError, loc,
                       "schedule needs "
                           + std::to_string(sched.regsPerBlock())
                           + " registers per block, SM has "
                           + std::to_string(device.regsPerSm),
                       "");
        }
    }

    void
    checkKernel(const Kernel &kernel, const DeviceSpec &device,
                LintReport &report) const
    {
        for (size_t s = 0; s < kernel.stages.size(); ++s) {
            const KernelStage &stage = kernel.stages[s];
            LintLocation loc;
            loc.kernel = kernel.name;
            loc.stage = static_cast<int>(s);
            if (stage.sharedMemBytes > device.sharedMemPerBlockLimit) {
                report.add(
                    id(), Severity::kError, loc,
                    "stage uses "
                        + bytesToString(static_cast<double>(
                            stage.sharedMemBytes))
                        + " shared memory, per-block limit is "
                        + bytesToString(static_cast<double>(
                            device.sharedMemPerBlockLimit)),
                    "re-tile the stage or split the fused TEs");
            }
            if (stage.threadsPerBlock > device.maxThreadsPerBlock) {
                report.add(
                    id(), Severity::kError, loc,
                    "stage launches "
                        + std::to_string(stage.threadsPerBlock)
                        + " threads per block, device cap is "
                        + std::to_string(device.maxThreadsPerBlock),
                    "");
            }
            if (stage.regsPerBlock > device.regsPerSm) {
                report.add(id(), Severity::kError, loc,
                           "stage needs "
                               + std::to_string(stage.regsPerBlock)
                               + " registers per block, SM has "
                               + std::to_string(device.regsPerSm),
                           "");
            }
            if (device.blocksPerSm(stage.sharedMemBytes,
                                   stage.regsPerBlock,
                                   stage.threadsPerBlock)
                == 0) {
                report.add(id(), Severity::kError, loc,
                           "stage resource usage leaves zero resident "
                           "blocks per SM; the kernel cannot launch",
                           "shrink shared memory, registers, or the "
                           "block size");
            }
        }
        // A multi-stage kernel synchronizes with grid.sync(), which
        // requires every block resident in a single cooperative wave.
        if (kernel.stages.size() >= 2 && kernel.gridSyncCount() > 0) {
            const int64_t wave = device.maxBlocksPerWave(
                kernel.sharedMemBytes(), kernel.regsPerBlock(),
                kernel.threadsPerBlock());
            if (kernel.numBlocks() > wave) {
                LintLocation loc;
                loc.kernel = kernel.name;
                std::ostringstream msg;
                msg << "grid-sync kernel launches "
                    << kernel.numBlocks() << " blocks but only "
                    << wave
                    << " fit one cooperative wave; grid.sync() would "
                       "deadlock";
                report.add(id(), Severity::kError, loc, msg.str(),
                           "split the subprogram or use grid-stride "
                           "schedules");
            }
        }
    }
};

// ---------------------------------------------------------------------
// dead-te
// ---------------------------------------------------------------------

class DeadTeRule : public LintRule
{
  public:
    std::string id() const override { return "dead-te"; }

    std::string
    description() const override
    {
        return "every TE transitively feeds a model output; every "
               "input/param is consumed";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        const TeProgram &program = input.program;
        const GlobalAnalysis &analysis = input.analysis;

        // Backward liveness from the model outputs.
        std::vector<bool> live(program.numTes(), false);
        std::deque<int> queue;
        for (TensorId out : program.outputTensors()) {
            const int producer = program.tensor(out).producer;
            if (producer >= 0 && !live[producer]) {
                live[producer] = true;
                queue.push_back(producer);
            }
        }
        while (!queue.empty()) {
            const int te_id = queue.front();
            queue.pop_front();
            for (TensorId in : program.te(te_id).inputs) {
                const int producer = program.tensor(in).producer;
                if (producer >= 0 && !live[producer]) {
                    live[producer] = true;
                    queue.push_back(producer);
                }
            }
        }

        for (const TensorExpr &te : program.tes()) {
            if (live[te.id])
                continue;
            LintLocation loc;
            loc.teId = te.id;
            const bool unconsumed =
                analysis.consumers(te.output).empty();
            std::ostringstream msg;
            msg << "TE '" << te.name << "' does not reach any model "
                << "output (tensor '"
                << program.tensor(te.output).name << "' is "
                << (unconsumed ? "never consumed"
                               : "consumed only by dead TEs")
                << ")";
            report.add(id(), Severity::kWarning, loc, msg.str(),
                       "run TeProgram::removeDeadCode() before "
                       "scheduling");
        }

        for (const TensorDecl &decl : program.tensors()) {
            if (decl.role != TensorRole::kInput
                && decl.role != TensorRole::kParam)
                continue;
            if (!analysis.consumers(decl.id).empty())
                continue;
            LintLocation loc;
            report.add(id(), Severity::kNote, loc,
                       std::string(decl.role == TensorRole::kInput
                                       ? "input"
                                       : "param")
                           + " tensor '" + decl.name
                           + "' is never consumed",
                       "");
        }
    }
};

// ---------------------------------------------------------------------
// instr-stream
// ---------------------------------------------------------------------

class InstrStreamRule : public LintRule
{
  public:
    std::string id() const override { return "instr-stream"; }

    std::string
    description() const override
    {
        return "kernel instruction streams are self-consistent "
               "(overlap, store, and library-kernel invariants)";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        if (input.module == nullptr)
            return;
        const TeProgram &program = input.program;
        const GlobalAnalysis &analysis = input.analysis;
        for (const Kernel &kernel : input.module->kernels) {
            std::unordered_set<int> kernel_tes;
            for (const KernelStage &stage : kernel.stages)
                kernel_tes.insert(stage.teIds.begin(),
                                  stage.teIds.end());
            for (size_t s = 0; s < kernel.stages.size(); ++s) {
                const KernelStage &stage = kernel.stages[s];
                for (size_t i = 0; i < stage.instrs.size(); ++i) {
                    checkInstr(program, analysis, kernel, kernel_tes,
                               static_cast<int>(s),
                               static_cast<int>(i), stage.instrs[i],
                               report);
                }
            }
        }
    }

  private:
    void
    checkInstr(const TeProgram &program, const GlobalAnalysis &analysis,
               const Kernel &kernel,
               const std::unordered_set<int> &kernel_tes, int stage,
               int index, const Instr &instr, LintReport &report) const
    {
        LintLocation loc;
        loc.kernel = kernel.name;
        loc.stage = stage;
        loc.instr = index;
        switch (instr.kind) {
          case InstrKind::kLoadGlobal: {
            if (!instr.overlapped)
                break;
            if (stage == 0) {
                report.add(id(), Severity::kError, loc,
                           "overlapped load in the kernel's first "
                           "stage has no previous stage to hide under",
                           "clear Instr::overlapped");
                break;
            }
            const int producer =
                instr.tensor >= 0
                    ? program.tensor(instr.tensor).producer
                    : -1;
            if (producer >= 0 && kernel_tes.count(producer)) {
                std::ostringstream msg;
                msg << "overlapped load of tensor '"
                    << program.tensor(instr.tensor).name
                    << "' prefetches across the in-kernel store of "
                       "TE "
                    << producer << " (RAW)";
                report.add(id(), Severity::kError, loc, msg.str(),
                           "do not prefetch tensors produced inside "
                           "the kernel");
            }
            break;
          }
          case InstrKind::kStoreGlobal:
          case InstrKind::kAtomicAdd: {
            if (instr.tensor < 0)
                break;
            const TensorDecl &decl = program.tensor(instr.tensor);
            if (decl.role == TensorRole::kOutput)
                break;
            if (analysis.consumers(instr.tensor).empty()) {
                report.add(id(), Severity::kWarning, loc,
                           "store to tensor '" + decl.name
                               + "' which no TE or model output "
                                 "consumes",
                           "drop the store or mark the tensor as a "
                           "model output");
            }
            break;
          }
          case InstrKind::kGridSync:
            if (kernel.usesLibrary) {
                report.add(id(), Severity::kError, loc,
                           "closed-source library kernel contains a "
                           "grid.sync(); libraries cannot join "
                           "cooperative launches",
                           "remove the sync or unfuse the library "
                           "call");
            }
            break;
          default:
            break;
        }
    }
};

// ---------------------------------------------------------------------
// plan-overlap
// ---------------------------------------------------------------------

class PlanOverlapRule : public LintRule
{
  public:
    std::string id() const override { return "plan-overlap"; }

    std::string
    description() const override
    {
        return "no two simultaneously-live intermediates share "
               "workspace bytes; planned intervals contain the "
               "observed live intervals";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        // Verify the injected plan when one is provided (mutation
        // tests), else prove the planner's own output sound. The
        // rule is backend-agnostic: the interpreter and the native
        // backend share the workspace layout.
        if (input.plan != nullptr) {
            report.merge(verifyMemoryPlan(input.program,
                                          input.analysis, *input.plan,
                                          input.module));
            return;
        }
        const MemoryPlan plan =
            planMemory(input.program, input.analysis);
        report.merge(verifyMemoryPlan(input.program, input.analysis,
                                      plan, input.module));
    }
};

// ---------------------------------------------------------------------
// unsynced-dep
// ---------------------------------------------------------------------

class UnsyncedDepRule : public LintRule
{
  public:
    std::string id() const override { return "unsynced-dep"; }

    std::string
    description() const override
    {
        return "every def/use edge of the kernel dataflow is ordered "
               "by a fence of sufficient scope (instruction-granular "
               "happens-before)";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        if (input.module == nullptr)
            return;
        if (skipForNonGpuBackend(input, id(), report))
            return;
        // Megakernel modules deleted their grid fences: cross-stage
        // edges are ordered by task-graph events instead, and the
        // task-graph-dep rule owns their coverage.
        const bool megakernel = input.module->megakernel();
        for (const Kernel &kernel : input.module->kernels) {
            if (kernel.usesLibrary)
                continue; // libraries synchronize internally
            const KernelDataflow dataflow(input.program, kernel);
            for (const DepEdge &edge : dataflow.uncoveredEdges()) {
                if (megakernel && edge.def.stage != edge.use.stage)
                    continue;
                LintLocation loc;
                loc.kernel = kernel.name;
                loc.stage = edge.use.stage;
                loc.instr = edge.use.instr;
                loc.teId = edge.useTe;
                std::ostringstream msg;
                msg << "unordered dependence: " << edge.toString()
                    << " but no such fence separates them in the "
                       "stream";
                report.add(id(), Severity::kError, loc, msg.str(),
                           edge.required == FenceScope::kGrid
                               ? "insert a kGridSync between the "
                                 "defining and using instructions"
                               : "insert a kBarrier between the "
                                 "defining and using instructions");
            }
        }
    }
};

// ---------------------------------------------------------------------
// redundant-sync
// ---------------------------------------------------------------------

class RedundantSyncRule : public LintRule
{
  public:
    std::string id() const override { return "redundant-sync"; }

    std::string
    description() const override
    {
        return "no fence is provably redundant (subsumed by an "
               "adjacent stronger fence or a kernel boundary, or "
               "covering no dependence edge)";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        if (input.module == nullptr)
            return;
        if (skipForNonGpuBackend(input, id(), report))
            return;
        for (const Kernel &kernel : input.module->kernels) {
            if (kernel.usesLibrary)
                continue;
            const KernelDataflow dataflow(input.program, kernel);
            for (const FenceVerdict &verdict :
                 dataflow.fenceVerdicts()) {
                if (verdict.action == FenceVerdict::Action::kKeep)
                    continue;
                LintLocation loc;
                loc.kernel = kernel.name;
                loc.stage = verdict.pos.stage;
                loc.instr = verdict.pos.instr;
                std::ostringstream msg;
                msg << (verdict.action
                                == FenceVerdict::Action::kDowngrade
                            ? "downgradable "
                            : "redundant ")
                    << instrKindName(verdict.kind) << ": "
                    << verdict.reason;
                report.add(id(), Severity::kWarning, loc, msg.str(),
                           "run the sync-elimination transform "
                           "(V4 pipeline) or delete the instruction");
            }
        }
    }
};

// ---------------------------------------------------------------------
// task-graph-dep
// ---------------------------------------------------------------------

class TaskGraphDepRule : public LintRule
{
  public:
    std::string id() const override { return "task-graph-dep"; }

    std::string
    description() const override
    {
        return "megakernel task graphs are well formed and acyclic, "
               "and every cross-stage dependence is covered by "
               "task-graph reachability or intra-task program order";
    }

    void
    run(const LintInput &input, LintReport &report) const override
    {
        if (input.module == nullptr || !input.module->megakernel())
            return; // below V5 (or fallback) there is nothing to check
        // Deliberately NOT GPU-only: the native C backend drains the
        // same task graph on a thread pool, so a missing edge races
        // there too.
        const TaskGraph &graph = input.module->taskGraph;
        const Kernel &kernel = input.module->kernels.front();
        LintLocation loc;
        loc.kernel = kernel.name;

        if (input.module->numKernels() != 1) {
            report.add(id(), Severity::kError, loc,
                       "megakernel module has "
                           + std::to_string(input.module->numKernels())
                           + " kernels; the task graph describes "
                             "exactly one persistent kernel",
                       "merge the kernels or drop the task graph");
            return;
        }
        const int num_tasks = graph.numTasks();
        if (num_tasks != static_cast<int>(kernel.stages.size())) {
            report.add(id(), Severity::kError, loc,
                       "task graph has " + std::to_string(num_tasks)
                           + " tasks for a kernel with "
                           + std::to_string(kernel.stages.size())
                           + " stages",
                       "rebuild the task graph from the final stage "
                       "list");
            return;
        }
        bool malformed = false;
        for (const TaskEdge &edge : graph.edges) {
            if (edge.from >= 0 && edge.from < num_tasks
                && edge.to >= 0 && edge.to < num_tasks
                && edge.from != edge.to)
                continue;
            report.add(id(), Severity::kError, loc,
                       "malformed task edge " + edge.toString(),
                       "edge endpoints must name two distinct tasks");
            malformed = true;
        }
        if (malformed)
            return;

        // Acyclicity: a cycle deadlocks the scheduler.
        const auto succs = graph.successors();
        const auto ordered =
            static_cast<int>(topologicalOrder(succs).size());
        if (ordered != num_tasks) {
            report.add(id(), Severity::kError, loc,
                       "task graph has a dependence cycle ("
                           + std::to_string(num_tasks - ordered)
                           + " tasks unreachable by topological "
                             "order); the scheduler would deadlock",
                       "break the cycle or fall back to the "
                       "grid-sync form");
            return;
        }

        const TaskGraphReachability reach(succs);

        // Coverage 1: every cross-stage RAW/WAR of the kernel
        // dataflow, independently recomputed here.
        const KernelDataflow dataflow(input.program, kernel);
        for (const DepEdge &edge : dataflow.edges()) {
            if (edge.def.stage == edge.use.stage)
                continue; // intra-task program order covers it
            if (reach.reaches(edge.def.stage, edge.use.stage))
                continue;
            LintLocation where = loc;
            where.stage = edge.use.stage;
            where.instr = edge.use.instr;
            where.teId = edge.useTe;
            report.add(id(), Severity::kError, where,
                       "cross-stage dependence not covered by the "
                       "task graph: "
                           + edge.toString(),
                       "add a task edge from stage "
                           + std::to_string(edge.def.stage)
                           + " to stage "
                           + std::to_string(edge.use.stage));
        }

        // Coverage 2: per-tensor writer chains (WAW). The dataflow
        // has no WAW kind, so recompute writers from the streams.
        std::map<TensorId, std::vector<int>> writers;
        for (size_t s = 0; s < kernel.stages.size(); ++s) {
            for (const Instr &instr : kernel.stages[s].instrs) {
                if (instr.tensor < 0)
                    continue;
                if (instr.kind != InstrKind::kStoreGlobal
                    && instr.kind != InstrKind::kAtomicAdd
                    && instr.kind != InstrKind::kCompute)
                    continue;
                std::vector<int> &list = writers[instr.tensor];
                if (list.empty()
                    || list.back() != static_cast<int>(s))
                    list.push_back(static_cast<int>(s));
            }
        }
        for (const auto &[tensor, stages] : writers) {
            for (size_t i = 1; i < stages.size(); ++i) {
                if (reach.reaches(stages[i - 1], stages[i]))
                    continue;
                LintLocation where = loc;
                where.stage = stages[i];
                report.add(
                    id(), Severity::kError, where,
                    "unordered writers of tensor '"
                        + input.program.tensor(tensor).name
                        + "': stages " + std::to_string(stages[i - 1])
                        + " and " + std::to_string(stages[i])
                        + " both write it with no task edge between "
                          "them",
                    "add a WAW task edge chaining the writers");
            }
        }
    }
};

} // namespace

void registerBuiltinLintRules(LintRuleRegistry &registry);

void
registerBuiltinLintRules(LintRuleRegistry &registry)
{
    registry.add("affine-bounds", [] {
        return std::make_unique<AffineBoundsRule>();
    });
    registry.add("resource-caps", [] {
        return std::make_unique<ResourceCapsRule>();
    });
    registry.add("dead-te",
                 [] { return std::make_unique<DeadTeRule>(); });
    registry.add("instr-stream", [] {
        return std::make_unique<InstrStreamRule>();
    });
    registry.add("plan-overlap", [] {
        return std::make_unique<PlanOverlapRule>();
    });
    registry.add("unsynced-dep", [] {
        return std::make_unique<UnsyncedDepRule>();
    });
    registry.add("redundant-sync", [] {
        return std::make_unique<RedundantSyncRule>();
    });
    registry.add("task-graph-dep", [] {
        return std::make_unique<TaskGraphDepRule>();
    });
}

} // namespace souffle
