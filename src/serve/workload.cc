#include "serve/workload.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace souffle::serve {

std::vector<Request>
generateWorkload(const WorkloadSpec &spec)
{
    std::vector<Request> requests;

    if (!spec.traceArrivalsUs.empty()) {
        requests.reserve(spec.traceArrivalsUs.size());
        for (double at : spec.traceArrivalsUs) {
            SOUFFLE_REQUIRE(at >= 0.0,
                            "trace arrival must be >= 0, got " << at);
            requests.push_back(
                Request{static_cast<int>(requests.size()), at});
        }
        std::sort(requests.begin(), requests.end(),
                  [](const Request &a, const Request &b) {
                      return a.arrivalUs < b.arrivalUs;
                  });
        for (size_t i = 0; i < requests.size(); ++i)
            requests[i].id = static_cast<int>(i);
        return requests;
    }

    SOUFFLE_REQUIRE(spec.arrivalRatePerSec > 0.0,
                    "arrival rate must be positive, got "
                        << spec.arrivalRatePerSec);
    SOUFFLE_REQUIRE(spec.durationUs > 0.0,
                    "workload duration must be positive, got "
                        << spec.durationUs);

    // Poisson process: exponential inter-arrivals by inverse
    // transform, one uniform draw per request.
    const double mean_gap_us = 1.0e6 / spec.arrivalRatePerSec;
    double clock = 0.0;
    for (uint64_t i = 0;; ++i) {
        clock += -mean_gap_us * std::log(uniform01(spec.seed, i));
        if (clock > spec.durationUs)
            break;
        requests.push_back(
            Request{static_cast<int>(requests.size()), clock});
    }
    return requests;
}

} // namespace souffle::serve
