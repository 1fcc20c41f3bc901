#include "cluster/fleet.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace souffle::cluster {

const char *
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
      case RouterPolicy::kRoundRobin:
        return "round-robin";
      case RouterPolicy::kLeastLoaded:
        return "least-loaded";
      case RouterPolicy::kCacheAffinity:
        return "cache-affinity";
    }
    return "unknown";
}

RouterPolicy
routerPolicyByName(const std::string &name)
{
    for (RouterPolicy policy :
         {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
          RouterPolicy::kCacheAffinity}) {
        if (name == routerPolicyName(policy))
            return policy;
    }
    SOUFFLE_FATAL("unknown router policy '"
                  << name
                  << "' (valid: round-robin, least-loaded, "
                     "cache-affinity)");
}

std::vector<FaultEvent>
generateFaults(const FaultSpec &spec, int num_replicas,
               double duration_us)
{
    std::vector<FaultEvent> faults = spec.schedule;
    if (spec.mtbfUs > 0.0) {
        SOUFFLE_REQUIRE(spec.mttrUs > 0.0,
                        "fault mttr must be positive, got "
                            << spec.mttrUs);
        for (int replica = 0; replica < num_replicas; ++replica) {
            double clock = 0.0;
            for (uint64_t i = 0;; ++i) {
                const uint64_t index =
                    static_cast<uint64_t>(replica) * 4096 + i;
                clock += -spec.mtbfUs
                         * std::log(uniform01(spec.seed, index));
                if (clock > duration_us)
                    break;
                FaultEvent fault;
                fault.replica = replica;
                fault.failAtUs = clock;
                fault.recoverAtUs = clock + spec.mttrUs;
                faults.push_back(fault);
                clock = fault.recoverAtUs;
            }
        }
    }
    for (const FaultEvent &fault : faults) {
        SOUFFLE_REQUIRE(fault.replica >= 0,
                        "fault replica must be >= 0, got "
                            << fault.replica);
        SOUFFLE_REQUIRE(fault.recoverAtUs > fault.failAtUs,
                        "fault recovery "
                            << fault.recoverAtUs
                            << " must follow the failure at "
                            << fault.failAtUs);
    }
    std::stable_sort(faults.begin(), faults.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.failAtUs != b.failAtUs)
                             return a.failAtUs < b.failAtUs;
                         return a.replica < b.replica;
                     });
    return faults;
}

} // namespace souffle::cluster
