#include "cluster/traffic.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>

#include "common/file_io.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"

namespace souffle::cluster {

namespace {

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

/** The `trace` array: each request needs `t_us` and `tenant`. */
std::vector<FleetRequest>
readRequests(JsonReader &reader)
{
    std::vector<FleetRequest> trace;
    reader.beginArray();
    while (reader.hasNext()) {
        std::optional<double> arrival_us;
        std::optional<int64_t> tenant;
        reader.beginObject();
        while (reader.hasNext()) {
            const std::string name = reader.nextKey();
            if (name == "t_us")
                arrival_us = reader.readDouble();
            else if (name == "tenant")
                tenant = reader.readInt();
            else
                reader.skipValue();
        }
        reader.endObject();
        SOUFFLE_REQUIRE(arrival_us && tenant,
                        "trace request needs 't_us' and 'tenant'");
        SOUFFLE_REQUIRE(*arrival_us >= 0.0,
                        "trace arrival must be >= 0, got "
                            << *arrival_us);
        SOUFFLE_REQUIRE(*tenant >= 0
                            && *tenant
                                   <= std::numeric_limits<int>::max(),
                        "trace tenant must be a non-negative int, got "
                            << *tenant);
        FleetRequest request;
        request.arrivalUs = *arrival_us;
        request.tenant = static_cast<int>(*tenant);
        trace.push_back(request);
    }
    reader.endArray();
    return trace;
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
    // Members may come in any order and unknown ones are skipped, so
    // external request logs need not follow traceToJson's layout.
    JsonReader reader(text);
    std::optional<std::string> kind;
    std::optional<std::vector<FleetRequest>> trace;
    reader.beginObject();
    while (reader.hasNext()) {
        const std::string name = reader.nextKey();
        if (name == "kind")
            kind = reader.readString();
        else if (name == "trace")
            trace = readRequests(reader);
        else
            reader.skipValue();
    }
    reader.endObject();
    reader.finish();
    SOUFFLE_REQUIRE(kind == "souffle-fleet-trace",
                    "not a souffle-fleet-trace document");
    SOUFFLE_REQUIRE(trace.has_value(), "fleet trace has no 'trace' member");
    std::stable_sort(trace->begin(), trace->end(),
                     [](const FleetRequest &a, const FleetRequest &b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    for (size_t i = 0; i < trace->size(); ++i)
        (*trace)[i].id = static_cast<int>(i);
    return std::move(*trace);
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
