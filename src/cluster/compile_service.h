#pragma once

/**
 * @file
 * The fleet's shared compile service.
 *
 * Production fleets do not recompile per replica: compilation
 * artifacts live in a shared content-addressed store, and a replica
 * that needs a (model, batch) bucket first asks the fleet. This
 * service models exactly that on top of the machinery PRs 3-5 built:
 * one `serve::ModuleCache` per device class (modules are
 * shape- and device-specialized), all of them sharing a single
 * `ArtifactCache` so schedule artifacts transfer wherever the device
 * fingerprint matches.
 *
 * The observable split the fleet simulator cares about:
 *
 *  - *fleet-cold* acquire: no replica of this device class has ever
 *    compiled the bucket — a real compile runs (tile search,
 *    candidate evaluations > 0 unless schedules transfer), and the
 *    simulator charges `FleetConfig::coldCompileUs`.
 *  - *fleet-warm* acquire: the bucket is already in the device
 *    class's module cache — a pure lookup with zero candidate
 *    evaluations, charged `FleetConfig::warmLoadUs` (artifact fetch).
 *
 * A newly autoscaled or recovered replica warms itself by acquiring
 * every bucket the service already holds for its device class
 * (`warmEntries`) — by construction that performs zero candidate
 * evaluations, which `tests/test_cluster.cc` pins.
 *
 * The serving simulator builds a service over the caller's one
 * `serve::ModuleCache`, so its single replica fills that cache and
 * runs on exactly `cache.options().device`, preset or not.
 */

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "serve/module_cache.h"

namespace souffle::cluster {

/** Outcome of acquiring one (device, model, bucket). */
struct AcquireResult
{
    /** Module + memoized device timing; owned by the service. */
    const serve::CachedModule *module = nullptr;
    /** True when this acquire compiled (first use on this device
     *  class fleet-wide). */
    bool fleetCold = false;
    /** Tile-search candidate evaluations this acquire performed
     *  (0 on fleet-warm acquires). */
    int64_t candidateEvals = 0;
};

/** Fleet-wide compile service: per-device module caches over one
 *  shared artifact cache. Single-threaded from the simulator's event
 *  loop (compiles themselves still fan out over the thread pool). */
class FleetCompileService
{
  public:
    /**
     * @p tiny selects test-sized zoo variants; @p base fixes the
     * level/scheduler every compile uses (its device is overridden
     * per device class, its artifact cache replaced by the shared
     * one unless the caller seeded an instance to share). A
     * non-empty @p artifact_dir names a compiled-artifact store
     * (compiler/artifact_io.h): buckets found there are loaded, not
     * compiled, and their acquires count as fleet-warm.
     */
    FleetCompileService(bool tiny, SouffleOptions base,
                        std::string artifact_dir = "");

    /** A service whose device class `cache.options().device.name` is
     *  served by the caller-owned @p cache (other classes get caches
     *  of their own over its artifact cache and store). */
    explicit FleetCompileService(serve::ModuleCache &cache);

    /** The device class @p device runs on: its cache's device when
     *  the class has one, else the DeviceSpec::byName preset. */
    DeviceSpec deviceFor(const std::string &device) const;

    /** The compiled module for @p bucket of @p model on device class
     *  @p device (a DeviceSpec preset name), compiling on first use. */
    AcquireResult acquire(const std::string &device,
                          const std::string &model, int bucket);

    /** Every (model, bucket) the fleet has compiled for @p device,
     *  sorted — what a spinning-up replica warms from. */
    std::vector<std::pair<std::string, int>>
    warmEntries(const std::string &device) const;

    /** Fleet-wide compiles actually performed (fleet-cold acquires). */
    int fleetCompiles() const { return compiles; }
    /** Total candidate evaluations across those compiles. */
    int64_t candidateEvals() const { return evals; }
    /** Wall-clock compile time across every device class (ms). */
    double compileMsTotal() const;

    /** The shared schedule/artifact store under every module cache. */
    ArtifactCache &artifactCache() { return *sharedArtifacts; }

    const SouffleOptions &options() const { return base; }

  private:
    serve::ModuleCache &cacheFor(const std::string &device);

    bool tiny;
    SouffleOptions base;
    /** Compiled-artifact store root (empty: always compile). */
    std::string artifactDir;
    std::shared_ptr<ArtifactCache> sharedArtifacts;
    /** Device class name -> module cache for that class. */
    std::map<std::string, serve::ModuleCache *> caches;
    /** The caches this service created (all but an adopted one). */
    std::vector<std::unique_ptr<serve::ModuleCache>> owned;
    /** Device class -> (model, bucket) entries compiled fleet-wide
     *  (sorted, so `warmEntries` iterates deterministically). */
    std::map<std::string, std::set<std::pair<std::string, int>>> warm;
    int compiles = 0;
    int64_t evals = 0;
};

} // namespace souffle::cluster
