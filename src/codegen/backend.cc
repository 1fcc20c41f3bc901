#include "codegen/backend.h"

#include <algorithm>

#include "codegen/c_cpu.h"
#include "codegen/cuda.h"
#include "common/logging.h"

namespace souffle {

namespace {

/** Fingerprint shared shape: domain tag, name, version, traits. */
Fingerprint
backendFingerprint(const std::string &name, int emitter_version,
                   bool targets_gpu, bool executable)
{
    FingerprintHasher hasher;
    hasher.absorb(std::string("codegen-backend"));
    hasher.absorb(name);
    hasher.absorb(emitter_version);
    hasher.absorb(targets_gpu);
    hasher.absorb(executable);
    return hasher.finish();
}

class CudaBackend : public CodeGenBackend
{
  public:
    std::string name() const override { return "cuda"; }
    std::string sourceExtension() const override { return "cu"; }
    bool targetsGpu() const override { return true; }
    bool executable() const override { return false; }

    Fingerprint
    fingerprint() const override
    {
        // Version 1: the pre-refactor emitter's text, byte for byte.
        return backendFingerprint(name(), 1, true, false);
    }

    std::string
    emitModule(const Compiled &compiled) const override
    {
        return emitCudaModule(compiled);
    }
};

class CBackend : public CodeGenBackend
{
  public:
    std::string name() const override { return "c"; }
    std::string sourceExtension() const override { return "c"; }
    bool targetsGpu() const override { return false; }
    bool executable() const override { return true; }

    Fingerprint
    fingerprint() const override
    {
        // Version 2: TE range functions behind the host parallel_for
        // hook (version 1 carried OpenMP pragmas).
        return backendFingerprint(name(), 2, false, true);
    }

    std::string
    emitModule(const Compiled &compiled) const override
    {
        return emitCModule(compiled);
    }
};

} // namespace

CodeGenBackendRegistry &
CodeGenBackendRegistry::global()
{
    static CodeGenBackendRegistry *registry = [] {
        auto *r = new CodeGenBackendRegistry();
        r->add(std::make_unique<CudaBackend>());
        r->add(std::make_unique<CBackend>());
        return r;
    }();
    return *registry;
}

void
CodeGenBackendRegistry::add(std::unique_ptr<CodeGenBackend> backend)
{
    SOUFFLE_CHECK(backend != nullptr, "null codegen backend");
    for (auto &existing : backends) {
        if (existing->name() == backend->name()) {
            existing = std::move(backend);
            return;
        }
    }
    backends.push_back(std::move(backend));
}

const CodeGenBackend *
CodeGenBackendRegistry::find(const std::string &name) const
{
    for (const auto &backend : backends) {
        if (backend->name() == name)
            return backend.get();
    }
    return nullptr;
}

const CodeGenBackend &
CodeGenBackendRegistry::get(const std::string &name) const
{
    const CodeGenBackend *backend = find(name);
    if (backend == nullptr) {
        std::string known;
        for (const std::string &id : names())
            known += (known.empty() ? "" : ", ") + id;
        SOUFFLE_FATAL("unknown codegen backend '" << name
                                                  << "' (known: "
                                                  << known << ")");
    }
    return *backend;
}

std::vector<std::string>
CodeGenBackendRegistry::names() const
{
    std::vector<std::string> ids;
    ids.reserve(backends.size());
    for (const auto &backend : backends)
        ids.push_back(backend->name());
    std::sort(ids.begin(), ids.end());
    return ids;
}

} // namespace souffle
