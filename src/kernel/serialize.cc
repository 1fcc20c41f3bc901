#include "kernel/serialize.h"

#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/logging.h"

namespace souffle {

namespace {

// instrKindName (kernel_ir.cc) is reused for writing; this is its
// reverse table. Pipes have no display name elsewhere, so both
// directions live here.

InstrKind
parseInstrKind(const std::string &name)
{
    for (InstrKind kind :
         {InstrKind::kLoadGlobal, InstrKind::kLoadCached,
          InstrKind::kStoreGlobal, InstrKind::kCompute,
          InstrKind::kAtomicAdd, InstrKind::kGridSync,
          InstrKind::kBarrier}) {
        if (name == instrKindName(kind))
            return kind;
    }
    SOUFFLE_FATAL("unknown instruction kind: " << name);
}

const char *
pipeName(ComputePipe pipe)
{
    switch (pipe) {
    case ComputePipe::kTensorCore:
        return "tensor_core";
    case ComputePipe::kFma:
        return "fma";
    case ComputePipe::kAlu:
        return "alu";
    }
    return "?";
}

ComputePipe
parsePipe(const std::string &name)
{
    for (ComputePipe pipe : {ComputePipe::kTensorCore,
                             ComputePipe::kFma, ComputePipe::kAlu}) {
        if (name == pipeName(pipe))
            return pipe;
    }
    SOUFFLE_FATAL("unknown compute pipe: " << name);
}

void
writeTeIds(JsonWriter &w, const std::vector<int> &ids)
{
    w.beginArray();
    for (int id : ids)
        w.value(static_cast<int64_t>(id));
    w.endArray();
}

std::vector<int>
readTeIds(JsonReader &r)
{
    std::vector<int> ids;
    r.beginArray();
    while (r.hasNext())
        ids.push_back(static_cast<int>(r.readInt()));
    r.endArray();
    return ids;
}

void
writeInstr(JsonWriter &w, const Instr &instr)
{
    w.beginObject();
    w.field("kind", instrKindName(instr.kind));
    w.field("pipe", pipeName(instr.pipe));
    w.field("bytes", instr.bytes);
    w.field("flops", instr.flops);
    w.field("tensor", static_cast<int64_t>(instr.tensor));
    w.field("overlapped", instr.overlapped);
    w.endObject();
}

Instr
readInstr(JsonReader &r)
{
    Instr instr;
    r.beginObject();
    r.key("kind");
    instr.kind = parseInstrKind(r.readString());
    r.key("pipe");
    instr.pipe = parsePipe(r.readString());
    r.key("bytes");
    instr.bytes = r.readDouble();
    r.key("flops");
    instr.flops = r.readDouble();
    r.key("tensor");
    instr.tensor = static_cast<TensorId>(r.readInt());
    r.key("overlapped");
    instr.overlapped = r.readBool();
    r.endObject();
    return instr;
}

void
writeStage(JsonWriter &w, const KernelStage &stage)
{
    w.newline().beginObject();
    w.field("name", stage.name);
    w.key("teIds");
    writeTeIds(w, stage.teIds);
    w.field("numBlocks", stage.numBlocks);
    w.field("threadsPerBlock", stage.threadsPerBlock);
    w.field("sharedMemBytes", stage.sharedMemBytes);
    w.field("regsPerBlock", stage.regsPerBlock);
    w.field("predicated", stage.predicated);
    w.field("flexibleBlocks", stage.flexibleBlocks);
    w.key("instrs").beginArray();
    for (const Instr &instr : stage.instrs)
        writeInstr(w, instr);
    w.endArray();
    w.endObject();
}

KernelStage
readStage(JsonReader &r)
{
    KernelStage stage;
    r.beginObject();
    r.key("name");
    stage.name = r.readString();
    r.key("teIds");
    stage.teIds = readTeIds(r);
    r.key("numBlocks");
    stage.numBlocks = r.readInt();
    r.key("threadsPerBlock");
    stage.threadsPerBlock = static_cast<int>(r.readInt());
    r.key("sharedMemBytes");
    stage.sharedMemBytes = r.readInt();
    r.key("regsPerBlock");
    stage.regsPerBlock = r.readInt();
    r.key("predicated");
    stage.predicated = r.readBool();
    r.key("flexibleBlocks");
    stage.flexibleBlocks = r.readBool();
    r.key("instrs");
    r.beginArray();
    while (r.hasNext())
        stage.instrs.push_back(readInstr(r));
    r.endArray();
    r.endObject();
    return stage;
}

TaskEdgeKind
parseTaskEdgeKind(const std::string &name)
{
    for (TaskEdgeKind kind :
         {TaskEdgeKind::kRaw, TaskEdgeKind::kWar, TaskEdgeKind::kWaw,
          TaskEdgeKind::kAlias}) {
        if (name == taskEdgeKindName(kind))
            return kind;
    }
    SOUFFLE_FATAL("unknown task edge kind: " << name);
}

void
writeTaskGraph(JsonWriter &w, const TaskGraph &graph)
{
    w.newline().key("taskGraph").beginObject();
    w.key("tasks").beginArray();
    for (const TaskDesc &task : graph.tasks) {
        w.newline().beginObject();
        w.field("name", task.name);
        w.field("stage", static_cast<int64_t>(task.stage));
        w.field("shards", static_cast<int64_t>(task.shards));
        w.field("blocks", task.blocks);
        w.endObject();
    }
    w.endArray();
    w.newline().key("edges").beginArray();
    for (const TaskEdge &edge : graph.edges) {
        w.beginObject();
        w.field("from", static_cast<int64_t>(edge.from));
        w.field("to", static_cast<int64_t>(edge.to));
        w.field("tensor", static_cast<int64_t>(edge.tensor));
        w.field("kind", taskEdgeKindName(edge.kind));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

TaskGraph
readTaskGraph(JsonReader &r)
{
    TaskGraph graph;
    r.beginObject();
    r.key("tasks");
    r.beginArray();
    while (r.hasNext()) {
        TaskDesc task;
        r.beginObject();
        r.key("name");
        task.name = r.readString();
        r.key("stage");
        task.stage = static_cast<int>(r.readInt());
        r.key("shards");
        task.shards = static_cast<int>(r.readInt());
        r.key("blocks");
        task.blocks = r.readInt();
        r.endObject();
        graph.tasks.push_back(std::move(task));
    }
    r.endArray();
    if (graph.empty())
        r.fail("task graph has no tasks");
    r.key("edges");
    r.beginArray();
    while (r.hasNext()) {
        TaskEdge edge;
        r.beginObject();
        r.key("from");
        const int64_t from = r.readInt();
        r.key("to");
        const int64_t to = r.readInt();
        if (from < 0 || from >= graph.numTasks() || to < 0
            || to >= graph.numTasks())
            r.fail("task edge endpoint out of range");
        edge.from = static_cast<int>(from);
        edge.to = static_cast<int>(to);
        r.key("tensor");
        edge.tensor = static_cast<TensorId>(r.readInt());
        r.key("kind");
        edge.kind = parseTaskEdgeKind(r.readString());
        r.endObject();
        graph.edges.push_back(edge);
    }
    r.endArray();
    r.endObject();
    return graph;
}

} // namespace

std::string
serializeCompiledModule(const CompiledModule &module)
{
    JsonWriter w(JsonWriter::Style::kCompact);
    w.setDoublePrecision(17);
    w.beginObject();
    // Version 2 adds the optional task graph (V5 persistent
    // megakernel). Modules without one keep writing version 1, so
    // pre-V5 artifacts stay byte-identical across the format bump.
    w.field("version", module.megakernel() ? 2 : 1);
    w.field("compiler", module.compilerName);
    w.newline().key("kernels").beginArray();
    for (const Kernel &kernel : module.kernels) {
        w.newline().beginObject();
        w.field("name", kernel.name);
        w.field("usesLibrary", kernel.usesLibrary);
        w.field("libraryTimeFactor", kernel.libraryTimeFactor);
        w.key("stages").beginArray();
        for (const KernelStage &stage : kernel.stages)
            writeStage(w, stage);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    if (module.megakernel())
        writeTaskGraph(w, module.taskGraph);
    w.newline().endObject();
    return w.str();
}

CompiledModule
deserializeCompiledModule(std::string_view text)
{
    JsonReader r(text);
    r.beginObject();
    r.key("version");
    const int64_t version = r.readInt();
    SOUFFLE_REQUIRE(version == 1 || version == 2,
                    "unsupported module format version: " << version);

    CompiledModule module;
    r.key("compiler");
    module.compilerName = r.readString();
    r.key("kernels");
    r.beginArray();
    while (r.hasNext()) {
        Kernel kernel;
        r.beginObject();
        r.key("name");
        kernel.name = r.readString();
        r.key("usesLibrary");
        kernel.usesLibrary = r.readBool();
        r.key("libraryTimeFactor");
        kernel.libraryTimeFactor = r.readDouble();
        r.key("stages");
        r.beginArray();
        while (r.hasNext())
            kernel.stages.push_back(readStage(r));
        r.endArray();
        r.endObject();
        module.kernels.push_back(std::move(kernel));
    }
    r.endArray();
    // The version and the task graph must agree: version 2 is written
    // exactly when a task graph is, so neither can be dropped alone.
    if (version == 2) {
        r.key("taskGraph");
        module.taskGraph = readTaskGraph(r);
    }
    r.endObject();
    r.finish();
    return module;
}

std::string
serializeModulePlan(const ModulePlan &plan)
{
    JsonWriter w(JsonWriter::Style::kCompact);
    w.setDoublePrecision(17);
    w.beginObject();
    w.field("version", 1);
    w.newline().key("kernels").beginArray();
    for (const KernelPlan &kernel : plan.kernels) {
        w.newline().beginObject();
        w.field("name", kernel.name);
        w.field("library", kernel.library);
        w.field("libraryTimeFactor", kernel.libraryTimeFactor);
        w.key("stages").beginArray();
        for (const StagePlan &stage : kernel.stages)
            writeTeIds(w, stage.tes);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.newline().endObject();
    return w.str();
}

ModulePlan
deserializeModulePlan(std::string_view text)
{
    JsonReader r(text);
    r.beginObject();
    r.key("version");
    const int64_t version = r.readInt();
    SOUFFLE_REQUIRE(version == 1,
                    "unsupported plan format version: " << version);

    ModulePlan plan;
    r.key("kernels");
    r.beginArray();
    while (r.hasNext()) {
        KernelPlan kernel;
        r.beginObject();
        r.key("name");
        kernel.name = r.readString();
        r.key("library");
        kernel.library = r.readBool();
        r.key("libraryTimeFactor");
        kernel.libraryTimeFactor = r.readDouble();
        r.key("stages");
        r.beginArray();
        while (r.hasNext())
            kernel.stages.push_back(StagePlan{readTeIds(r)});
        r.endArray();
        r.endObject();
        plan.kernels.push_back(std::move(kernel));
    }
    r.endArray();
    r.endObject();
    r.finish();
    return plan;
}

} // namespace souffle
