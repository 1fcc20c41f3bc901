#include "runtime/native_exec.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <unordered_map>

#include "codegen/c_cpu.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "transform/megakernel.h"

namespace souffle {

namespace {

std::string
hostCompiler()
{
    const char *cc = std::getenv("CC");
    return (cc != nullptr && *cc != '\0') ? cc : "cc";
}

std::string
defaultWorkDir()
{
    const char *tmp = std::getenv("TMPDIR");
    std::string root = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    if (!root.empty() && root.back() == '/')
        root.pop_back();
    return root + "/souffle-native";
}

void
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        SOUFFLE_FATAL("cannot create native build dir '" << dir << "'");
}

/**
 * Atomic write: temp file + rename, same discipline as the
 * ArtifactCache disk layer, so concurrent builders never expose a
 * half-written file under the final name.
 */
void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string temp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream file(temp, std::ios::trunc);
        file << content;
        if (!file.good())
            SOUFFLE_FATAL("cannot write '" << temp << "'");
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        SOUFFLE_FATAL("cannot rename '" << temp << "' to '" << path
                                        << "'");
    }
}

/** An emitted TE range function: runs output elements [lo, hi). */
using RangeFn = void (*)(double *const *tensors, long lo, long hi);
/** Type of the emitted `souffle_module_parallel_for` hook variable. */
using ParallelForFn = void (*)(RangeFn body, double *const *tensors,
                               long n);

/**
 * The host side of the emitted `souffle_module_parallel_for` hook:
 * split [0, n) into one contiguous chunk per pool lane and run them
 * with parallelFor. Called from inside V5 pool tasks too, which is
 * plain parallelFor nesting. Every element computes its full result
 * alone, so the split never changes the output. noexcept: the caller
 * is C code no exception may unwind through, so a failure to
 * dispatch (allocation) terminates instead.
 */
void
hostParallelFor(RangeFn body, double *const *tensors, long n) noexcept
{
    const int64_t chunks =
        std::min<int64_t>(ThreadPool::globalJobs(), n);
    parallelFor(chunks, [&](int64_t c) {
        body(tensors, static_cast<long>(n * c / chunks),
             static_cast<long>(n * (c + 1) / chunks));
    });
}

/**
 * Topological level wavefronts of a megakernel module's task graph,
 * with alias edges recomputed from @p plan (the executor's own,
 * dtype-widened plan — workspace reuse decided here must be ordered
 * here, whatever the compile-time plan said).
 */
std::vector<std::vector<int>>
taskWavefrontsFor(const TeProgram &program, const CompiledModule &module,
                  const MemoryPlan &plan)
{
    const TaskGraph &graph = module.taskGraph;
    const Kernel &kernel = module.kernels.front();
    const int n = graph.numTasks();
    SOUFFLE_REQUIRE(n == static_cast<int>(kernel.stages.size()),
                    "task graph has " << n << " tasks for "
                                      << kernel.stages.size()
                                      << " stages");

    std::set<std::pair<int, int>> pairs;
    for (const TaskEdge &edge : graph.edges) {
        if (edge.from >= 0 && edge.from < n && edge.to >= 0
            && edge.to < n && edge.from != edge.to)
            pairs.insert({edge.from, edge.to});
    }
    const std::map<TensorId, std::vector<int>> touches =
        megakernelStagesTouching(program, kernel);
    for (size_t a = 0; a < plan.assignments.size(); ++a) {
        for (size_t b = a + 1; b < plan.assignments.size(); ++b) {
            const BufferAssignment &x = plan.assignments[a];
            const BufferAssignment &y = plan.assignments[b];
            const bool overlap = x.offset < y.offset + y.bytes
                                 && y.offset < x.offset + x.bytes;
            if (!overlap)
                continue;
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
                    if (from != to)
                        pairs.insert({from, to});
        }
    }

    std::vector<std::vector<int>> succs(static_cast<size_t>(n));
    std::vector<int> indeg(static_cast<size_t>(n), 0);
    for (const auto &[from, to] : pairs) {
        succs[static_cast<size_t>(from)].push_back(to);
        ++indeg[static_cast<size_t>(to)];
    }
    std::vector<int> level(static_cast<size_t>(n), 0);
    std::vector<int> frontier;
    for (int t = 0; t < n; ++t)
        if (indeg[static_cast<size_t>(t)] == 0)
            frontier.push_back(t);
    int processed = 0;
    int max_level = -1;
    while (!frontier.empty()) {
        std::vector<int> next;
        for (int t : frontier) {
            ++processed;
            max_level =
                std::max(max_level, level[static_cast<size_t>(t)]);
            for (int s : succs[static_cast<size_t>(t)]) {
                level[static_cast<size_t>(s)] =
                    std::max(level[static_cast<size_t>(s)],
                             level[static_cast<size_t>(t)] + 1);
                if (--indeg[static_cast<size_t>(s)] == 0)
                    next.push_back(s);
            }
        }
        frontier = std::move(next);
    }
    SOUFFLE_REQUIRE(processed == n,
                    "task graph has a cycle: only "
                        << processed << " of " << n
                        << " tasks topologically ordered");

    std::vector<std::vector<int>> waves(
        static_cast<size_t>(max_level + 1));
    for (int t = 0; t < n; ++t)
        waves[static_cast<size_t>(level[static_cast<size_t>(t)])]
            .push_back(t);
    return waves;
}

} // namespace

NativeModule::NativeModule(const std::string &c_source,
                           const NativeBuildOptions &options)
{
    const std::string dir =
        options.workDir.empty() ? defaultWorkDir() : options.workDir;
    ensureDir(dir);

    FingerprintHasher hasher;
    hasher.absorb(std::string("native-module"));
    hasher.absorb(c_source);
    const std::string stem = dir + "/mod-" + hasher.finish().toHex();
    soPath = stem + ".so";

    if (options.keepSource) {
        srcPath = stem + ".c";
        writeFileAtomic(srcPath, c_source);
    }

    if (::access(soPath.c_str(), F_OK) == 0) {
        // Content-addressed name: an existing object was built from
        // byte-identical source, so the compile can be skipped.
        reused = true;
    } else {
        const std::string src =
            options.keepSource ? srcPath
                               : stem + ".build." + std::to_string(::getpid())
                                     + ".c";
        if (!options.keepSource)
            writeFileAtomic(src, c_source);
        const std::string temp_so =
            soPath + ".tmp." + std::to_string(::getpid());
        const std::string log =
            stem + ".log." + std::to_string(::getpid());
        const std::string cmd = hostCompiler() + " -O2 -fPIC -shared -x c '"
                                + src + "' -o '" + temp_so + "' -lm 2> '"
                                + log + "'";
        const int status = std::system(cmd.c_str());
        if (!options.keepSource)
            std::remove(src.c_str());
        if (status != 0) {
            const std::string diag =
                readFileContents(log).value_or("");
            std::remove(log.c_str());
            std::remove(temp_so.c_str());
            SOUFFLE_FATAL("host C compile failed (status "
                          << status << "): " << cmd << "\n"
                          << diag);
        }
        std::remove(log.c_str());
        if (std::rename(temp_so.c_str(), soPath.c_str()) != 0) {
            std::remove(temp_so.c_str());
            SOUFFLE_FATAL("cannot rename '" << temp_so << "' to '"
                                            << soPath << "'");
        }
    }

    handle = ::dlopen(soPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr)
        SOUFFLE_FATAL("dlopen('" << soPath
                                 << "') failed: " << ::dlerror());
    void *symbol = ::dlsym(handle, kNativeModuleEntrySymbol);
    if (symbol == nullptr) {
        const std::string why = ::dlerror();
        ::dlclose(handle);
        handle = nullptr;
        SOUFFLE_FATAL("module '" << soPath << "' lacks entry symbol "
                                 << kNativeModuleEntrySymbol << ": "
                                 << why);
    }
    entryFn = reinterpret_cast<EntryFn>(symbol);
    // Serve the module's parallel loops from the ThreadPool. Optional:
    // hand-written modules without the hook still load.
    if (void *hook = ::dlsym(handle, kNativeModuleParallelForSymbol))
        *static_cast<ParallelForFn *>(hook) = hostParallelFor;
    // Optional: only megakernel modules export the per-task entry.
    taskFn = reinterpret_cast<TaskFn>(
        ::dlsym(handle, kNativeModuleTaskSymbol));
}

NativeModule::~NativeModule()
{
    if (handle != nullptr)
        ::dlclose(handle);
}

NativeExecutor::NativeExecutor(const Compiled &compiled,
                               const NativeBuildOptions &options)
    : compiled(compiled)
{
    // Re-plan offsets on an all-fp32 copy so fp16 byte sizes never
    // under-allocate; run() scales the 4-byte offsets uniformly into
    // element slots of the double workspace.
    widened = compiled.program;
    for (TensorDecl &decl : widened.mutableTensors())
        decl.dtype = DType::kFP32;
    const GlobalAnalysis analysis(widened);
    plan = planMemory(widened, analysis);

    const std::string source =
        (compiled.backendName == "c" && !compiled.generatedSource.empty())
            ? compiled.generatedSource
            : emitCModule(compiled);
    native = std::make_unique<NativeModule>(source, options);

    if (compiled.module.megakernel() && native->task() != nullptr)
        taskWaves = taskWavefrontsFor(widened, compiled.module, plan);
}

NamedBuffers
NativeExecutor::run(const NamedBuffers &inputs) const
{
    const TeProgram &program = compiled.program;

    std::unordered_map<TensorId, int64_t> planned;
    for (const BufferAssignment &assignment : plan.assignments)
        planned[assignment.tensor] = assignment.offset;

    // One double workspace for planned intermediates, one owned
    // buffer for everything else (externals and any unplanned
    // stragglers). The plan's byte offsets were computed over 4-byte
    // elements; dividing by 4 turns them into element indices, which
    // stay disjoint when each slot widens to a double.
    std::vector<double> workspace(
        static_cast<size_t>(plan.workspaceBytes / sizeof(float)) + 1,
        0.0);
    std::vector<std::vector<double>> owned;
    std::vector<double *> tensors(program.numTensors(), nullptr);
    for (const TensorDecl &decl : program.tensors()) {
        auto it = planned.find(decl.id);
        if (it != planned.end()) {
            tensors[decl.id] =
                workspace.data() + it->second / sizeof(float);
        } else {
            owned.emplace_back(
                static_cast<size_t>(decl.numElements()), 0.0);
            tensors[decl.id] = owned.back().data();
        }
    }

    // Bind inputs/params by name; the native ABI is double, same as
    // the interpreter's buffers, so binding is a straight copy.
    for (const TensorDecl &decl : program.tensors()) {
        if (decl.role != TensorRole::kInput
            && decl.role != TensorRole::kParam)
            continue;
        auto it = inputs.find(decl.name);
        SOUFFLE_CHECK(it != inputs.end(),
                      "missing input buffer '" << decl.name << "'");
        SOUFFLE_CHECK(static_cast<int64_t>(it->second.size())
                          == decl.numElements(),
                      "buffer '" << decl.name << "' has "
                                 << it->second.size()
                                 << " elements, expected "
                                 << decl.numElements());
        std::copy(it->second.begin(), it->second.end(),
                  tensors[decl.id]);
    }

    if (!taskWaves.empty()) {
        // V5 megakernel: drain the task graph level by level, tasks
        // within a level concurrently on the global pool. WAW edges
        // serialized every same-tensor writer pair into different
        // levels, so concurrent tasks write disjoint tensors and the
        // result is byte-identical at every job count.
        const NativeModule::TaskFn task = native->task();
        double *const *table = tensors.data();
        for (const std::vector<int> &wave : taskWaves) {
            parallelFor(static_cast<int64_t>(wave.size()),
                        [&](int64_t i) {
                            task(wave[static_cast<size_t>(i)], table);
                        });
        }
    } else {
        native->run(tensors.data());
    }

    NamedBuffers outputs;
    for (TensorId id : program.outputTensors()) {
        const TensorDecl &decl = program.tensor(id);
        const double *src = tensors[id];
        outputs[decl.name] =
            Buffer(src, src + decl.numElements());
    }
    return outputs;
}

} // namespace souffle
