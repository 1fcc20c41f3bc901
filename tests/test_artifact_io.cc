/**
 * @file
 * Tests for compiled-artifact serialization: TE-program, schedule,
 * plan and module JSON round-trips (bit-identity pinned), the
 * directory-level save/load of whole compiles
 * (compiler/artifact_io.h), rejection of corrupted, truncated or
 * version-skewed artifacts (FatalError, never an abort), and the
 * offline-compile → online-serve paths through serve::ModuleCache and
 * cluster::FleetCompileService (zero candidate evaluations by
 * construction).
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/compile_service.h"
#include "common/json.h"
#include "common/logging.h"
#include "compiler/artifact_io.h"
#include "compiler/souffle.h"
#include "graph/lowering.h"
#include "kernel/serialize.h"
#include "models/zoo.h"
#include "serve/module_cache.h"
#include "te/fingerprint.h"
#include "te/interpreter.h"
#include "te/serialize.h"

#include "test_util.h"

namespace souffle {
namespace {

using test::runByName;

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    EXPECT_TRUE(file.good()) << path;
    std::stringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    ASSERT_TRUE(file.good()) << path;
    file << content;
}

/** Remove one artifact dir (fixed file set) and, best-effort, the
 *  store root. */
void
removeArtifact(const std::string &root, const ArtifactMeta &key)
{
    const std::string dir = root + "/" + key.subdir();
    for (const char *name :
         {"meta.json", "program.json", "schedules.json", "plan.json",
          "module.json", "module.src"})
        std::remove((dir + "/" + name).c_str());
    ::rmdir(dir.c_str());
    ::rmdir(root.c_str());
}

// ---------------------------------------------------------------------
// TE-program JSON round-trip
// ---------------------------------------------------------------------

TEST(TeSerialize, RoundTripsAllTinyZooModels)
{
    for (const std::string &name : paperModelNames()) {
        const TeProgram program =
            lowerToTe(buildTinyModel(name)).program;
        const std::string text = serializeTeProgram(program);
        const TeProgram reparsed = deserializeTeProgram(text);

        EXPECT_EQ(programFingerprint(reparsed),
                  programFingerprint(program))
            << name;
        EXPECT_EQ(reparsed.toString(), program.toString()) << name;
        // The format is a fixpoint: serializing the parse is
        // byte-identical.
        EXPECT_EQ(serializeTeProgram(reparsed), text) << name;

        // Interpreter bit-identity (17-digit doubles round-trip
        // every constant exactly).
        const auto a = runByName(program, 7);
        const auto b = runByName(reparsed, 7);
        ASSERT_EQ(a.size(), b.size()) << name;
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_LE(maxAbsDiff(a[i].second, b[i].second), 0.0)
                << name << " output " << a[i].first;
    }
}

TEST(TeSerialize, RoundTripsTransformedPrograms)
{
    // Post-pipeline programs carry the transforms' handiwork (merged
    // TEs, rewritten reads); they must round-trip too.
    for (const char *name : {"BERT", "ResNeXt", "MMoE"}) {
        SouffleOptions options;
        const Compiled compiled =
            compileSouffle(buildTinyModel(name), options);
        const TeProgram reparsed = deserializeTeProgram(
            serializeTeProgram(compiled.program));
        EXPECT_EQ(programFingerprint(reparsed), compiled.programHash)
            << name;
    }
}

TEST(TeSerialize, CoversEveryExpressionKind)
{
    // One hand-built TE touching the constructs zoo lowerings may
    // not: flat reads, multi-condition selects with every CmpOp, and
    // an awkward double constant.
    TeProgram p;
    const TensorId x =
        p.addTensor("x", {4, 6}, DType::kFP32, TensorRole::kInput);
    const TensorId t =
        p.addTensor("t", {24}, DType::kFP32, TensorRole::kInput);
    const TensorId y =
        p.addTensor("y", {4, 6}, DType::kFP16, TensorRole::kOutput);

    Predicate pred;
    pred.push_back(AffineCond{{1, -1}, 2, CmpOp::kGE});
    pred.push_back(AffineCond{{0, 1}, -5, CmpOp::kLT});
    pred.push_back(AffineCond{{1, 0}, -3, CmpOp::kEQ});
    const ExprPtr flat = Expr::readFlat(
        1, AffineMap({{6, 1}}, {0}));
    const ExprPtr body = Expr::select(
        std::move(pred),
        Expr::binary(BinaryOp::kPow,
                     Expr::unary(UnaryOp::kSigmoid,
                                 Expr::read(0, AffineMap::identity(2))),
                     Expr::constant(0.1)),
        Expr::binary(
            BinaryOp::kMin,
            Expr::binary(
                BinaryOp::kMax, flat,
                Expr::constant(
                    -std::numeric_limits<double>::infinity())),
            Expr::constant(1.0 / 3.0)));
    p.addTe("f", {x, t}, y, {}, Combiner::kNone, body);
    p.validate();

    const std::string text = serializeTeProgram(p);
    const TeProgram reparsed = deserializeTeProgram(text);
    EXPECT_EQ(programFingerprint(reparsed), programFingerprint(p));
    EXPECT_EQ(reparsed.toString(), p.toString());
    EXPECT_EQ(serializeTeProgram(reparsed), text);
    const auto a = runByName(p, 3);
    const auto b = runByName(reparsed, 3);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_LE(maxAbsDiff(a[0].second, b[0].second), 0.0);
}

TEST(TeSerialize, RejectsMalformedInput)
{
    EXPECT_THROW(deserializeTeProgram(""), FatalError);
    EXPECT_THROW(deserializeTeProgram("{\"version\":2}"), FatalError);
    EXPECT_THROW(
        deserializeTeProgram(
            R"({"version":1,"tensors":[{"name":"x","shape":[2],)"
            R"("dtype":"fp64","role":"input"}],"tes":[]})"),
        FatalError);

    // A one-TE program reading x through @p map: the well-formed map
    // loads, ragged rows and an offset count that differs from the
    // row count are rejected instead of aborting in AffineMap.
    const auto withMap = [](const std::string &map) {
        return R"({"version":1,"tensors":[)"
               R"({"name":"x","shape":[2],"dtype":"fp32","role":"input"},)"
               R"({"name":"y","shape":[2],"dtype":"fp32","role":"output"}],)"
               R"("tes":[{"name":"f","inputs":[0],"output":1,"reduce":[],)"
               R"("combiner":"none","body":{"k":"read","slot":0,)"
               R"("flat":false,"map":)"
               + map + "}}]}";
    };
    EXPECT_EQ(deserializeTeProgram(
                  withMap(R"({"rows":[[1]],"off":[0],"in":1})"))
                  .numTes(),
              1);
    EXPECT_THROW(deserializeTeProgram(withMap(
                     R"({"rows":[[1],[1,0]],"off":[0,0],"in":1})")),
                 FatalError);
    EXPECT_THROW(deserializeTeProgram(
                     withMap(R"({"rows":[[1]],"off":[0,0],"in":1})")),
                 FatalError);
}

// ---------------------------------------------------------------------
// Schedules / plan / module round-trips
// ---------------------------------------------------------------------

TEST(ModuleSerialize, SchedulesRoundTripWithTeIds)
{
    SouffleOptions options;
    const Compiled compiled =
        compileSouffle(buildTinyModel("BERT"), options);
    ASSERT_FALSE(compiled.schedules.empty());

    const std::string text = serializeSchedules(compiled.schedules);
    const std::vector<Schedule> reparsed = deserializeSchedules(text);
    ASSERT_EQ(reparsed.size(), compiled.schedules.size());
    for (size_t i = 0; i < reparsed.size(); ++i) {
        EXPECT_EQ(reparsed[i].teId, compiled.schedules[i].teId);
        EXPECT_EQ(reparsed[i].toString(),
                  compiled.schedules[i].toString());
    }
    EXPECT_EQ(serializeSchedules(reparsed), text);
}

TEST(ModuleSerialize, ModuleAndPlanRoundTripBitExact)
{
    SouffleOptions options;
    const Compiled compiled =
        compileSouffle(buildTinyModel("ResNeXt"), options);

    const std::string module_text =
        serializeCompiledModule(compiled.module);
    const CompiledModule module =
        deserializeCompiledModule(module_text);
    EXPECT_EQ(module.toString(), compiled.module.toString());
    EXPECT_EQ(serializeCompiledModule(module), module_text);
    // Simulator charges are a pure function of the (deserialized)
    // instruction stream, so timings must agree exactly.
    EXPECT_EQ(simulate(module, options.device).totalUs,
              simulate(compiled.module, options.device).totalUs);

    const std::string plan_text = serializeModulePlan(compiled.plan);
    const ModulePlan plan = deserializeModulePlan(plan_text);
    ASSERT_EQ(plan.kernels.size(), compiled.plan.kernels.size());
    for (size_t i = 0; i < plan.kernels.size(); ++i) {
        EXPECT_EQ(plan.kernels[i].name, compiled.plan.kernels[i].name);
        ASSERT_EQ(plan.kernels[i].stages.size(),
                  compiled.plan.kernels[i].stages.size());
        for (size_t s = 0; s < plan.kernels[i].stages.size(); ++s)
            EXPECT_EQ(plan.kernels[i].stages[s].tes,
                      compiled.plan.kernels[i].stages[s].tes);
    }
    EXPECT_EQ(serializeModulePlan(plan), plan_text);

    EXPECT_THROW(deserializeCompiledModule("{\"version\":7}"),
                 FatalError);
    EXPECT_THROW(deserializeModulePlan("{\"version\":7}"), FatalError);
}

// ---------------------------------------------------------------------
// Whole-artifact save/load
// ---------------------------------------------------------------------

TEST(ArtifactIo, SaveLoadRoundTripsByteExact)
{
    const std::string root = "/tmp/souffle_artifact_io_roundtrip";
    SouffleOptions options;
    options.backend = "c";
    const Compiled compiled =
        compileSouffle(buildTinyModel("MMoE"), options);
    const ArtifactMeta key = artifactKeyFor("tiny-MMoE", 1, options);
    removeArtifact(root, key);

    EXPECT_FALSE(hasArtifact(root, key));
    saveArtifact(root, key, compiled);
    EXPECT_TRUE(hasArtifact(root, key));

    const Compiled loaded = loadArtifact(root, key);
    EXPECT_EQ(loaded.name, compiled.name);
    EXPECT_EQ(loaded.programHash, compiled.programHash);
    EXPECT_EQ(loaded.backendName, "c");
    // The offline→online contract: generated source is byte-exact
    // and the reload performed no compilation work at all.
    EXPECT_EQ(loaded.generatedSource, compiled.generatedSource);
    EXPECT_EQ(loaded.module.toString(), compiled.module.toString());
    EXPECT_EQ(loaded.schedules.size(), compiled.schedules.size());
    EXPECT_EQ(loaded.plan.kernels.size(), compiled.plan.kernels.size());
    EXPECT_EQ(loaded.passStats.counterTotal("candidates"), 0);

    // Loaded semantics equal the compiled semantics to the bit.
    const auto a = runByName(compiled.program, 5);
    const auto b = runByName(loaded.program, 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LE(maxAbsDiff(a[i].second, b[i].second), 0.0);

    const std::vector<ArtifactMeta> listed = listArtifacts(root);
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0].subdir(), key.subdir());
    EXPECT_EQ(listed[0].programHash, compiled.programHash.toHex());
    removeArtifact(root, key);
}

TEST(ArtifactIo, RejectsMissingVersionSkewAndCorruption)
{
    const std::string root = "/tmp/souffle_artifact_io_reject";
    SouffleOptions options;
    const Compiled compiled =
        compileSouffle(buildTinyModel("LSTM"), options);
    const ArtifactMeta key = artifactKeyFor("tiny-LSTM", 1, options);
    removeArtifact(root, key);

    // Missing artifact.
    EXPECT_THROW(loadArtifact(root, key), FatalError);

    saveArtifact(root, key, compiled);
    const std::string dir = root + "/" + key.subdir();

    // Version skew: rewrite the recorded format version.
    const std::string meta = readFile(dir + "/meta.json");
    std::string skewed = meta;
    const size_t pos = skewed.find("\"version\":2");
    ASSERT_NE(pos, std::string::npos);
    skewed.replace(pos, 11, "\"version\":9");
    writeFile(dir + "/meta.json", skewed);
    EXPECT_THROW(loadArtifact(root, key), FatalError);
    writeFile(dir + "/meta.json", meta);
    loadArtifact(root, key); // restored: loads again

    // Corruption: swap in a *valid* program that hashes differently —
    // the fingerprint integrity check, not the JSON parser, must
    // catch it.
    writeFile(dir + "/program.json",
              serializeTeProgram(
                  lowerToTe(buildTinyModel("MMoE")).program));
    EXPECT_THROW(loadArtifact(root, key), FatalError);
    removeArtifact(root, key);
}

/** Compile tiny @p model at V5 and save it under @p root. */
ArtifactMeta
saveTinyV5(const std::string &root, const std::string &model)
{
    SouffleOptions options;
    options.level = SouffleLevel::kV5;
    const Compiled compiled =
        compileSouffle(buildTinyModel(model), options);
    EXPECT_TRUE(compiled.module.megakernel()) << model;
    const ArtifactMeta key = artifactKeyFor("tiny-" + model, 1, options);
    removeArtifact(root, key);
    saveArtifact(root, key, compiled);
    return key;
}

TEST(ArtifactIo, ModuleVersionAndTaskGraphMustAgree)
{
    const std::string root = "/tmp/souffle_artifact_io_taskgraph";
    const ArtifactMeta key = saveTinyV5(root, "MMoE");
    const std::string path = root + "/" + key.subdir() + "/module.json";
    const std::string module = readFile(path);
    loadArtifact(root, key);

    // Version 2 without its task graph would load as a plain module.
    const size_t graph = module.find("\"taskGraph\"");
    ASSERT_NE(graph, std::string::npos);
    const size_t cut = module.rfind(',', graph);
    std::string stripped = module;
    stripped.erase(cut, module.rfind('}') - cut);
    JsonReader well_formed(stripped);
    EXPECT_NO_THROW(well_formed.skipValue());
    EXPECT_NO_THROW(well_formed.finish());
    writeFile(path, stripped);
    EXPECT_THROW(loadArtifact(root, key), FatalError);

    // Version 1 carrying a task graph is just as inconsistent.
    std::string downgraded = module;
    const size_t version = downgraded.find("\"version\":2");
    ASSERT_NE(version, std::string::npos);
    downgraded.replace(version, 11, "\"version\":1");
    EXPECT_THROW(deserializeCompiledModule(downgraded), FatalError);
    removeArtifact(root, key);
}

/**
 * Deserialize every prefix of @p text that ends just before or just
 * after a structural character, each copied into an exact-size buffer
 * so a read past the cut is an out-of-bounds access (caught under
 * ASan). Returns the cut lengths that did not throw FatalError. The
 * quadratic sweep is spread over a few threads.
 */
template <typename Deserialize>
std::vector<size_t>
prefixesNotRejected(const std::string &text, Deserialize deserialize,
                    size_t &cuts)
{
    std::vector<size_t> lengths;
    for (size_t len = 0; len < text.size(); ++len) {
        const auto structural = [&](size_t i) {
            return std::string_view("{}[],:\"").find(text[i])
                   != std::string_view::npos;
        };
        if (structural(len) || (len > 0 && structural(len - 1)))
            lengths.push_back(len);
    }
    cuts = lengths.size();

    constexpr int kWorkers = 4;
    std::vector<std::vector<size_t>> accepted(kWorkers);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            for (size_t k = w; k < lengths.size(); k += kWorkers) {
                const std::vector<char> prefix(
                    text.begin(), text.begin() + lengths[k]);
                try {
                    deserialize(std::string_view(prefix.data(),
                                                 prefix.size()));
                    accepted[w].push_back(lengths[k]);
                } catch (const FatalError &) {
                } catch (...) {
                    accepted[w].push_back(lengths[k]);
                }
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    std::vector<size_t> all;
    for (const std::vector<size_t> &part : accepted)
        all.insert(all.end(), part.begin(), part.end());
    return all;
}

TEST(ArtifactTruncation, EveryStructuralCutThrows)
{
    // Cut program.json and module.json of a V5 artifact just before
    // and just after every structural character: each prefix must be
    // rejected with FatalError, never crash, hang or abort.
    const std::string root = "/tmp/souffle_artifact_truncation";
    const ArtifactMeta key = saveTinyV5(root, "BERT");
    const std::string dir = root + "/" + key.subdir();
    const std::string program = readFile(dir + "/program.json");
    const std::string module = readFile(dir + "/module.json");

    size_t cuts = 0;
    EXPECT_EQ(prefixesNotRejected(
                  program,
                  [](std::string_view t) { deserializeTeProgram(t); },
                  cuts),
              std::vector<size_t>{});
    EXPECT_GT(cuts, 1000u);
    EXPECT_EQ(prefixesNotRejected(
                  module,
                  [](std::string_view t) {
                      deserializeCompiledModule(t);
                  },
                  cuts),
              std::vector<size_t>{});
    EXPECT_GT(cuts, 1000u);

    // The same through the store: a truncated file fails the load.
    writeFile(dir + "/module.json", module.substr(0, module.size() / 2));
    EXPECT_THROW(loadArtifact(root, key), FatalError);
    writeFile(dir + "/module.json", module);
    writeFile(dir + "/program.json",
              program.substr(0, program.size() / 2));
    EXPECT_THROW(loadArtifact(root, key), FatalError);
    removeArtifact(root, key);
}

// ---------------------------------------------------------------------
// Serving from the store
// ---------------------------------------------------------------------

TEST(ArtifactIo, ModuleCacheServesFromStoreWithZeroCandidateEvals)
{
    const std::string root = "/tmp/souffle_artifact_io_serve";
    SouffleOptions options;
    const Compiled compiled =
        compileSouffle(buildTinyModel("BERT"), options);
    const ArtifactMeta key = artifactKeyFor("tiny-BERT", 1, options);
    removeArtifact(root, key);
    saveArtifact(root, key, compiled);

    serve::ModuleCache cache(/*tiny=*/true, options, root);
    const serve::CachedModule &entry = cache.get("BERT", 1);
    EXPECT_EQ(cache.artifactLoads(), 1);
    EXPECT_EQ(cache.misses(), 1);
    // No schedule search ran: the private schedule cache was never
    // consulted and the loaded compile carries no candidate counter.
    EXPECT_EQ(cache.scheduleCacheMisses(), 0);
    EXPECT_EQ(entry.compiled.passStats.counterTotal("candidates"), 0);
    EXPECT_EQ(entry.compiled.module.toString(),
              compiled.module.toString());
    EXPECT_EQ(entry.compiled.generatedSource,
              compiled.generatedSource);

    // Second get: plain memory hit, no second load.
    cache.get("BERT", 1);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.artifactLoads(), 1);

    // A bucket absent from the store falls back to compiling.
    const serve::CachedModule &missed = cache.get("BERT", 2);
    EXPECT_EQ(cache.artifactLoads(), 1);
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_GT(missed.compiled.passStats.counterTotal("candidates"), 0);
    removeArtifact(root, key);
}

TEST(ArtifactIo, FleetCompileServiceCountsArtifactLoadsAsWarm)
{
    const std::string root = "/tmp/souffle_artifact_io_fleet";
    SouffleOptions options;
    options.device = DeviceSpec::byName("a100");
    const Compiled compiled =
        compileSouffle(buildTinyModel("BERT"), options);
    const ArtifactMeta key = artifactKeyFor("tiny-BERT", 1, options);
    removeArtifact(root, key);
    saveArtifact(root, key, compiled);

    cluster::FleetCompileService service(/*tiny=*/true, options, root);
    const cluster::AcquireResult acquired =
        service.acquire("a100", "BERT", 1);
    // The fleet never compiled: the artifact store did, offline.
    EXPECT_FALSE(acquired.fleetCold);
    EXPECT_EQ(acquired.candidateEvals, 0);
    EXPECT_EQ(service.fleetCompiles(), 0);
    EXPECT_EQ(service.candidateEvals(), 0);
    // The bucket still joins the warm set spinning-up replicas pull.
    const auto warm = service.warmEntries("a100");
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(warm[0], (std::pair<std::string, int>{"BERT", 1}));

    // A store miss is a genuine fleet-cold compile.
    const cluster::AcquireResult cold =
        service.acquire("a100", "BERT", 2);
    EXPECT_TRUE(cold.fleetCold);
    EXPECT_GT(cold.candidateEvals, 0);
    EXPECT_EQ(service.fleetCompiles(), 1);
    removeArtifact(root, key);
}

} // namespace
} // namespace souffle
