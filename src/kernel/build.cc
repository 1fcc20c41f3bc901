#include "kernel/build.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace souffle {

ModulePlan
ModulePlan::unfused(const TeProgram &program)
{
    ModulePlan plan;
    for (const auto &te : program.tes()) {
        KernelPlan kernel;
        kernel.name = te.name;
        kernel.stages.push_back(StagePlan{{te.id}});
        plan.kernels.push_back(std::move(kernel));
    }
    return plan;
}

namespace {

ComputePipe
pipeFor(const TensorExpr &te, const TeInfo &info, const Schedule &sched)
{
    if (sched.useTensorCore)
        return ComputePipe::kTensorCore;
    if (te.hasReduce() && info.computeIntensive)
        return ComputePipe::kFma;
    return ComputePipe::kAlu;
}

KernelStage
buildStage(const TeProgram &program, const GlobalAnalysis &analysis,
           const std::vector<Schedule> &schedules, const StagePlan &plan,
           const std::unordered_set<int> &stage_set)
{
    KernelStage stage;
    stage.flexibleBlocks = true;
    for (int te_id : plan.tes) {
        if (!schedules.at(te_id).gridStride)
            stage.flexibleBlocks = false;
        if (!stage.name.empty())
            stage.name += "+";
        stage.name += program.te(te_id).name;
        stage.teIds.push_back(te_id);
        const Schedule &sched = schedules.at(te_id);
        stage.numBlocks = std::max(stage.numBlocks, sched.numBlocks);
        stage.threadsPerBlock =
            std::max(stage.threadsPerBlock, sched.threadsPerBlock);
        stage.sharedMemBytes =
            std::max(stage.sharedMemBytes, sched.sharedMemBytes);
        stage.regsPerBlock =
            std::max(stage.regsPerBlock, sched.regsPerBlock());
    }

    // Loads: external inputs, deduplicated per tensor (fused TEs share
    // a single staging of a common operand).
    std::unordered_map<TensorId, double> load_bytes;
    for (int te_id : plan.tes) {
        const TensorExpr &te = program.te(te_id);
        for (size_t slot = 0; slot < te.inputs.size(); ++slot) {
            const TensorId in = te.inputs[slot];
            const int producer = program.tensor(in).producer;
            if (producer >= 0 && stage_set.count(producer))
                continue; // register-level fusion: no traffic
            const int64_t elems = inputFootprintElems(
                program, te, static_cast<int>(slot));
            const double bytes = static_cast<double>(
                elems * dtypeBytes(program.tensor(in).dtype));
            auto [it, inserted] = load_bytes.emplace(in, bytes);
            if (!inserted)
                it->second = std::max(it->second, bytes);
        }
    }
    // Emit loads in a deterministic order (by tensor id).
    std::vector<TensorId> load_order;
    for (const auto &[tensor, bytes] : load_bytes)
        load_order.push_back(tensor);
    std::sort(load_order.begin(), load_order.end());
    for (TensorId tensor : load_order) {
        Instr instr;
        instr.kind = InstrKind::kLoadGlobal;
        instr.bytes = load_bytes[tensor];
        instr.tensor = tensor;
        stage.instrs.push_back(instr);
    }

    // Compute, one instruction per TE (program order). A consumer
    // fused behind a one-relies-on-many producer needs the block's
    // partial reduction complete before it reads, so a __syncthreads()
    // barrier separates it from the producer (paper Sec. 6.3; the
    // unsynced-dep lint rule checks this invariant).
    std::unordered_set<TensorId> pending_reduce_outputs;
    for (int te_id : plan.tes) {
        const TensorExpr &te = program.te(te_id);
        const TeInfo &info = analysis.teInfo(te_id);
        bool needs_barrier = false;
        for (TensorId in : te.inputs) {
            if (pending_reduce_outputs.count(in)) {
                needs_barrier = true;
                break;
            }
        }
        if (needs_barrier) {
            Instr barrier;
            barrier.kind = InstrKind::kBarrier;
            stage.instrs.push_back(barrier);
            pending_reduce_outputs.clear();
        }
        Instr instr;
        instr.kind = InstrKind::kCompute;
        instr.pipe = pipeFor(te, info, schedules.at(te_id));
        instr.flops = static_cast<double>(info.flops);
        instr.tensor = te.output;
        stage.instrs.push_back(instr);
        if (te.hasReduce())
            pending_reduce_outputs.insert(te.output);
    }

    // Stores: outputs visible outside this stage.
    for (int te_id : plan.tes) {
        const TensorExpr &te = program.te(te_id);
        const TensorDecl &out = program.tensor(te.output);
        bool external = out.role == TensorRole::kOutput;
        for (int consumer : analysis.consumers(te.output)) {
            if (!stage_set.count(consumer)) {
                external = true;
                break;
            }
        }
        if (!external)
            continue;
        Instr instr;
        instr.kind = InstrKind::kStoreGlobal;
        instr.bytes = static_cast<double>(out.bytes());
        instr.tensor = te.output;
        stage.instrs.push_back(instr);
    }
    return stage;
}

} // namespace

std::string
describePlanCoverageViolation(const TeProgram &program,
                              const ModulePlan &plan)
{
    std::vector<int> sorted;
    for (const auto &kernel : plan.kernels) {
        for (const auto &stage : kernel.stages) {
            if (stage.tes.empty()) {
                return "kernel plan '" + kernel.name
                       + "' contains an empty stage";
            }
            sorted.insert(sorted.end(), stage.tes.begin(),
                          stage.tes.end());
        }
    }
    std::sort(sorted.begin(), sorted.end());
    if (static_cast<int>(sorted.size()) != program.numTes()) {
        return "plan covers " + std::to_string(sorted.size())
               + " TEs, program has "
               + std::to_string(program.numTes());
    }
    for (int i = 0; i < static_cast<int>(sorted.size()); ++i) {
        if (sorted[i] != i)
            return "plan TE coverage is not a bijection";
    }
    return "";
}

CompiledModule
buildModule(const TeProgram &program, const GlobalAnalysis &analysis,
            const std::vector<Schedule> &schedules,
            const ModulePlan &plan, const DeviceSpec &device,
            const std::string &compiler_name)
{
    SOUFFLE_CHECK(static_cast<int>(schedules.size()) == program.numTes(),
                  "schedules must cover the whole program");

    const std::string violation =
        describePlanCoverageViolation(program, plan);
    SOUFFLE_CHECK(violation.empty(), violation);

    CompiledModule module;
    module.compilerName = compiler_name;
    for (const auto &kernel_plan : plan.kernels) {
        module.kernels.push_back(buildKernel(program, analysis,
                                             schedules, kernel_plan,
                                             device));
    }
    return module;
}

Kernel
buildKernel(const TeProgram &program, const GlobalAnalysis &analysis,
            const std::vector<Schedule> &schedules,
            const KernelPlan &kernel_plan, const DeviceSpec &device)
{
    Kernel kernel;
    kernel.name = kernel_plan.name;
    kernel.usesLibrary = kernel_plan.library;
    kernel.libraryTimeFactor = kernel_plan.libraryTimeFactor;

    for (size_t s = 0; s < kernel_plan.stages.size(); ++s) {
        std::unordered_set<int> stage_set(
            kernel_plan.stages[s].tes.begin(),
            kernel_plan.stages[s].tes.end());
        KernelStage stage = buildStage(program, analysis, schedules,
                                       kernel_plan.stages[s], stage_set);
        if (s > 0) {
            // Dependent stages inside one kernel synchronize with
            // grid.sync() (paper Sec. 6.4).
            Instr sync;
            sync.kind = InstrKind::kGridSync;
            stage.instrs.insert(stage.instrs.begin(), sync);
        }
        kernel.stages.push_back(std::move(stage));
    }
    // Shrink stages to the kernel's cooperative wave so a multi-stage
    // kernel stays grid-sync feasible. Only rigidly-tiled schedules pin
    // a block count; grid-stride TEs fused into the same stage are
    // correct at any count, so a stage can always come down to the max
    // of its own rigid members (the resource-caps lint rule checks the
    // resulting invariant).
    if (kernel.stages.size() > 1) {
        auto rigid_in_stage = [&](const KernelStage &stage) {
            int64_t rigid = 0;
            for (int te_id : stage.teIds) {
                const Schedule &sched = schedules.at(te_id);
                if (!sched.gridStride)
                    rigid = std::max(rigid, sched.numBlocks);
            }
            return rigid;
        };
        int64_t rigid_blocks = 1;
        for (const auto &stage : kernel.stages)
            rigid_blocks = std::max(rigid_blocks, rigid_in_stage(stage));
        const int64_t wave = device.maxBlocksPerWave(
            kernel.sharedMemBytes(), kernel.regsPerBlock(),
            kernel.threadsPerBlock());
        const int64_t cap = std::max(rigid_blocks, wave);
        for (auto &stage : kernel.stages) {
            stage.numBlocks = std::max(rigid_in_stage(stage),
                                       std::min(stage.numBlocks, cap));
        }
    }
    // Mark stages whose launch dims differ from the kernel's as
    // predicated (paper Sec. 6.4: `if (blockIdx.x < ...)`).
    const int64_t kernel_blocks = kernel.numBlocks();
    for (auto &stage : kernel.stages) {
        if (stage.numBlocks < kernel_blocks)
            stage.predicated = true;
    }
    return kernel;
}

} // namespace souffle
