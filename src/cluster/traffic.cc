#include "cluster/traffic.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/file_io.h"
#include "common/json.h"
#include "common/logging.h"

namespace souffle::cluster {

namespace {

/** splitmix64: well-mixed 64-bit stream from a counter (the same
 *  construction the serving workload generator uses). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in (0, 1]; never 0 so log() is safe. */
double
uniform01(uint64_t seed, uint64_t index)
{
    const uint64_t bits = mix64(seed ^ mix64(index)) >> 11;
    return (static_cast<double>(bits) + 1.0) / 9007199254740993.0;
}

/** Domain separator for the burst-window coin flips: burst decisions
 *  must not correlate with the arrival-gap draws at the same index. */
constexpr uint64_t kBurstStream = 0x62757273740a0a0aULL;
/** Domain separator for the tenant-assignment draws. */
constexpr uint64_t kTenantStream = 0x74656e616e740a0aULL;

bool
inBurst(const TrafficSpec &spec, double t_us)
{
    if (spec.burstMultiplier <= 1.0 || spec.burstProbability <= 0.0
        || spec.burstWindowUs <= 0.0)
        return false;
    const uint64_t window =
        static_cast<uint64_t>(t_us / spec.burstWindowUs);
    const double offset =
        t_us - static_cast<double>(window) * spec.burstWindowUs;
    if (offset >= std::min(spec.burstDurationUs, spec.burstWindowUs))
        return false;
    return uniform01(spec.seed ^ kBurstStream, window)
           <= spec.burstProbability;
}

} // namespace

double
trafficRateAtUs(const TrafficSpec &spec, double t_us)
{
    double rate = spec.baseRatePerSec;
    if (spec.diurnalAmplitude > 0.0 && spec.diurnalPeriodUs > 0.0) {
        constexpr double kTwoPi = 6.283185307179586476925286766559;
        rate *= 1.0
                + spec.diurnalAmplitude
                      * std::sin(kTwoPi * t_us / spec.diurnalPeriodUs);
    }
    if (inBurst(spec, t_us))
        rate *= spec.burstMultiplier;
    return rate;
}

std::vector<FleetRequest>
generateTraffic(const TrafficSpec &spec,
                const std::vector<double> &tenant_weights)
{
    SOUFFLE_REQUIRE(spec.baseRatePerSec > 0.0,
                    "traffic base rate must be positive, got "
                        << spec.baseRatePerSec);
    SOUFFLE_REQUIRE(spec.durationUs > 0.0,
                    "traffic duration must be positive, got "
                        << spec.durationUs);
    SOUFFLE_REQUIRE(spec.diurnalAmplitude >= 0.0
                        && spec.diurnalAmplitude < 1.0,
                    "diurnal amplitude must be in [0, 1), got "
                        << spec.diurnalAmplitude);
    SOUFFLE_REQUIRE(spec.burstMultiplier >= 1.0,
                    "burst multiplier must be >= 1, got "
                        << spec.burstMultiplier);
    double weight_total = 0.0;
    for (double w : tenant_weights) {
        SOUFFLE_REQUIRE(w > 0.0, "tenant weight must be positive, got "
                                     << w);
        weight_total += w;
    }

    // Thinning: draw homogeneous arrivals at the peak rate, keep each
    // with probability rate(t)/peak. Two counter draws per candidate
    // (gap, acceptance) plus one tenant draw per kept request.
    const double peak_rate = spec.baseRatePerSec
                             * (1.0 + spec.diurnalAmplitude)
                             * spec.burstMultiplier;
    const double mean_gap_us = 1.0e6 / peak_rate;

    std::vector<FleetRequest> trace;
    double clock = 0.0;
    for (uint64_t i = 0;; ++i) {
        clock += -mean_gap_us * std::log(uniform01(spec.seed, 2 * i));
        if (clock > spec.durationUs)
            break;
        const double accept = uniform01(spec.seed, 2 * i + 1);
        if (accept * peak_rate > trafficRateAtUs(spec, clock))
            continue;
        FleetRequest request;
        request.id = static_cast<int>(trace.size());
        request.arrivalUs = clock;
        if (!tenant_weights.empty()) {
            const double pick =
                uniform01(spec.seed ^ kTenantStream,
                          static_cast<uint64_t>(request.id))
                * weight_total;
            double cumulative = 0.0;
            for (size_t t = 0; t < tenant_weights.size(); ++t) {
                cumulative += tenant_weights[t];
                if (pick <= cumulative) {
                    request.tenant = static_cast<int>(t);
                    break;
                }
            }
        }
        trace.push_back(request);
    }
    return trace;
}

std::string
traceToJson(const std::vector<FleetRequest> &trace)
{
    JsonWriter json;
    json.setDoublePrecision(17);
    json.beginObject()
        .newline()
        .field("kind", "souffle-fleet-trace")
        .newline()
        .field("requests", static_cast<int64_t>(trace.size()))
        .newline()
        .key("trace")
        .beginArray();
    for (const FleetRequest &request : trace) {
        json.newline()
            .beginObject()
            .field("id", request.id)
            .field("t_us", request.arrivalUs)
            .field("tenant", request.tenant)
            .endObject();
    }
    json.endArray().newline().endObject();
    return json.str() + "\n";
}

std::vector<FleetRequest>
traceFromJson(const std::string &text)
{
    const JsonValue doc = parseJson(text);
    SOUFFLE_REQUIRE(doc.isObject()
                        && doc.at("kind").asString()
                               == "souffle-fleet-trace",
                    "not a souffle-fleet-trace document");
    std::vector<FleetRequest> trace;
    for (const JsonValue &item : doc.at("trace").items()) {
        FleetRequest request;
        request.arrivalUs = item.at("t_us").asNumber();
        request.tenant =
            static_cast<int>(item.at("tenant").asInt());
        SOUFFLE_REQUIRE(request.arrivalUs >= 0.0,
                        "trace arrival must be >= 0, got "
                            << request.arrivalUs);
        SOUFFLE_REQUIRE(request.tenant >= 0,
                        "trace tenant must be >= 0, got "
                            << request.tenant);
        trace.push_back(request);
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const FleetRequest &a, const FleetRequest &b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].id = static_cast<int>(i);
    return trace;
}

void
saveTrace(const std::vector<FleetRequest> &trace,
          const std::string &path)
{
    std::ofstream file(path);
    SOUFFLE_REQUIRE(file.good(),
                    "cannot open trace file '" << path << "'");
    file << traceToJson(trace);
    SOUFFLE_REQUIRE(file.good(),
                    "failed writing trace file '" << path << "'");
}

std::vector<FleetRequest>
loadTrace(const std::string &path)
{
    const std::optional<std::string> text = readFileContents(path);
    SOUFFLE_REQUIRE(text.has_value(),
                    "cannot read trace file '" << path << "'");
    return traceFromJson(*text);
}

} // namespace souffle::cluster
