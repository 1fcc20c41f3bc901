#include "cluster/compile_service.h"

#include "common/logging.h"

namespace souffle::cluster {

FleetCompileService::FleetCompileService(bool tiny, SouffleOptions base,
                                         std::string artifact_dir)
    : tiny(tiny), base(std::move(base)),
      artifactDir(std::move(artifact_dir))
{
    if (!this->base.artifactCache)
        this->base.artifactCache = std::make_shared<ArtifactCache>();
    sharedArtifacts = this->base.artifactCache;
}

FleetCompileService::FleetCompileService(serve::ModuleCache &cache)
    : FleetCompileService(cache.tinyModels(), cache.options(),
                          cache.artifactStore())
{
    caches.emplace(cache.options().device.name, &cache);
}

serve::ModuleCache &
FleetCompileService::cacheFor(const std::string &device)
{
    auto it = caches.find(device);
    if (it == caches.end()) {
        SouffleOptions options = base;
        options.device = DeviceSpec::byName(device);
        options.artifactCache = sharedArtifacts;
        owned.push_back(std::make_unique<serve::ModuleCache>(
            tiny, std::move(options), artifactDir));
        it = caches.emplace(device, owned.back().get()).first;
    }
    return *it->second;
}

DeviceSpec
FleetCompileService::deviceFor(const std::string &device) const
{
    auto it = caches.find(device);
    return it == caches.end() ? DeviceSpec::byName(device)
                              : it->second->options().device;
}

AcquireResult
FleetCompileService::acquire(const std::string &device,
                             const std::string &model, int bucket)
{
    serve::ModuleCache &cache = cacheFor(device);
    const int misses_before = cache.misses();
    const int loads_before = cache.artifactLoads();
    AcquireResult result;
    result.module = &cache.get(model, bucket);
    const bool filled = cache.misses() > misses_before;
    // An artifact-store load is a fill without a compile: it joins
    // the warm set (spinning-up replicas can fetch it) but counts as
    // fleet-warm — the offline compile already paid the search.
    const bool loaded = cache.artifactLoads() > loads_before;
    result.fleetCold = filled && !loaded;
    if (filled)
        warm[device].emplace(model, bucket);
    if (result.fleetCold) {
        result.candidateEvals =
            result.module->compiled.passStats.counterTotal(
                "candidates");
        ++compiles;
        evals += result.candidateEvals;
    }
    return result;
}

double
FleetCompileService::compileMsTotal() const
{
    double total = 0.0;
    for (const auto &[device, cache] : caches)
        total += cache->compileMsTotal();
    return total;
}

std::vector<std::pair<std::string, int>>
FleetCompileService::warmEntries(const std::string &device) const
{
    auto it = warm.find(device);
    if (it == warm.end())
        return {};
    return {it->second.begin(), it->second.end()};
}

} // namespace souffle::cluster
