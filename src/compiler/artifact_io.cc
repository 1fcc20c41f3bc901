#include "compiler/artifact_io.h"

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <optional>
#include <string_view>

#include <dirent.h>
#include <sys/stat.h>

#include "common/file_io.h"
#include "common/json.h"
#include "common/logging.h"
#include "kernel/serialize.h"
#include "te/fingerprint.h"
#include "te/serialize.h"

namespace souffle {

namespace {

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
        SOUFFLE_FATAL("cannot create directory '" << path << "'");
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    SOUFFLE_REQUIRE(file.good(), "cannot open " << path);
    file << content;
    SOUFFLE_REQUIRE(file.good(), "failed writing " << path);
}

std::string
readFile(const std::string &path)
{
    std::optional<std::string> content = readFileContents(path);
    SOUFFLE_REQUIRE(content.has_value(), "cannot open " << path);
    return std::move(*content);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
serializeMeta(const ArtifactMeta &meta)
{
    JsonWriter w(JsonWriter::Style::kCompact);
    w.beginObject();
    w.field("version", meta.version);
    w.field("model", meta.model);
    w.field("batch", meta.batch);
    w.field("level", meta.level);
    w.field("backend", meta.backend);
    w.field("deviceFp", meta.deviceFp);
    w.field("programHash", meta.programHash);
    w.field("name", meta.name);
    w.endObject();
    return w.str();
}

ArtifactMeta
deserializeMeta(std::string_view text)
{
    JsonReader r(text);
    ArtifactMeta meta;
    r.beginObject();
    r.key("version");
    meta.version = static_cast<int>(r.readInt());
    r.key("model");
    meta.model = r.readString();
    r.key("batch");
    meta.batch = static_cast<int>(r.readInt());
    r.key("level");
    meta.level = static_cast<int>(r.readInt());
    r.key("backend");
    meta.backend = r.readString();
    r.key("deviceFp");
    meta.deviceFp = r.readString();
    r.key("programHash");
    meta.programHash = r.readString();
    r.key("name");
    meta.name = r.readString();
    r.endObject();
    r.finish();
    return meta;
}

} // namespace

std::string
ArtifactMeta::subdir() const
{
    return model + "-b" + std::to_string(batch) + "-v"
           + std::to_string(level) + "-" + backend + "-" + deviceFp;
}

ArtifactMeta
artifactKeyFor(const std::string &model_key, int batch,
               const SouffleOptions &options)
{
    ArtifactMeta key;
    key.model = model_key;
    key.batch = batch;
    key.level = static_cast<int>(options.level);
    key.backend = options.backend;
    key.deviceFp = deviceFingerprint(options.device).toHex();
    return key;
}

std::string
saveArtifact(const std::string &root, const ArtifactMeta &key,
             const Compiled &compiled)
{
    SOUFFLE_REQUIRE(compiled.programHash.valid(),
                    "cannot save an artifact without a program hash "
                    "(did the compile run the full Souffle pipeline?)");
    ArtifactMeta meta = key;
    meta.programHash = compiled.programHash.toHex();
    meta.name = compiled.name;

    makeDir(root);
    const std::string dir = root + "/" + meta.subdir();
    makeDir(dir);
    writeFile(dir + "/meta.json", serializeMeta(meta));
    writeFile(dir + "/program.json",
              serializeTeProgram(compiled.program));
    writeFile(dir + "/schedules.json",
              serializeSchedules(compiled.schedules));
    writeFile(dir + "/plan.json", serializeModulePlan(compiled.plan));
    writeFile(dir + "/module.json",
              serializeCompiledModule(compiled.module));
    writeFile(dir + "/module.src", compiled.generatedSource);
    return dir;
}

bool
hasArtifact(const std::string &root, const ArtifactMeta &key)
{
    return fileExists(root + "/" + key.subdir() + "/meta.json");
}

Compiled
loadArtifact(const std::string &root, const ArtifactMeta &key)
{
    const std::string dir = root + "/" + key.subdir();
    SOUFFLE_REQUIRE(fileExists(dir + "/meta.json"),
                    "no compiled artifact for "
                        << key.subdir() << " under '" << root << "'");
    const ArtifactMeta meta = deserializeMeta(
        readFile(dir + "/meta.json"));
    SOUFFLE_REQUIRE(meta.version == key.version,
                    "artifact format version mismatch in '"
                        << dir << "': have " << meta.version
                        << ", want " << key.version);
    SOUFFLE_REQUIRE(meta.model == key.model && meta.batch == key.batch
                        && meta.level == key.level
                        && meta.backend == key.backend
                        && meta.deviceFp == key.deviceFp,
                    "artifact identity mismatch in '"
                        << dir << "': meta says " << meta.subdir());

    Compiled compiled;
    compiled.name = meta.name;
    compiled.program =
        deserializeTeProgram(readFile(dir + "/program.json"));
    compiled.schedules =
        deserializeSchedules(readFile(dir + "/schedules.json"));
    compiled.plan = deserializeModulePlan(readFile(dir + "/plan.json"));
    compiled.module =
        deserializeCompiledModule(readFile(dir + "/module.json"));
    compiled.backendName = meta.backend;
    compiled.generatedSource = readFile(dir + "/module.src");
    compiled.programHash = Fingerprint::fromHex(meta.programHash);

    // Integrity: the stored program must hash to the recorded
    // address. This catches corruption and hand-edits of
    // program.json; the other files are covered by the identity
    // check above plus the structural validation their
    // deserializers perform.
    const Fingerprint actual = programFingerprint(compiled.program);
    SOUFFLE_REQUIRE(actual == compiled.programHash,
                    "artifact '" << dir
                                 << "' failed integrity verification: "
                                    "stored program hashes to "
                                 << actual.toHex() << ", meta records "
                                 << meta.programHash);
    return compiled;
}

std::vector<ArtifactMeta>
listArtifacts(const std::string &root)
{
    std::vector<std::string> subdirs;
    DIR *dir = ::opendir(root.c_str());
    if (dir == nullptr)
        return {};
    while (const dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        if (fileExists(root + "/" + name + "/meta.json"))
            subdirs.push_back(name);
    }
    ::closedir(dir);
    std::sort(subdirs.begin(), subdirs.end());

    std::vector<ArtifactMeta> metas;
    metas.reserve(subdirs.size());
    for (const std::string &name : subdirs)
        metas.push_back(deserializeMeta(
            readFile(root + "/" + name + "/meta.json")));
    return metas;
}

} // namespace souffle
