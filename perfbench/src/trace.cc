#include "trace.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>

#include "common/json.h"
#include "stats.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : on(enabled), origin(std::chrono::steady_clock::now())
{}

void
Tracer::beginRound(const std::string &phase, bool record)
{
    roundRecorded = record;
    if (recording())
        rounds.push_back(Round{phase, {}});
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int
Tracer::open(const std::string &name, const std::string &detail,
             bool median_of_rounds)
{
    if (!recording() || rounds.empty())
        return -1;
    Span span;
    span.name = name;
    span.detail = detail;
    span.medianOfRounds = median_of_rounds;
    span.parent = openStack.empty() ? -1 : openStack.back();
    span.round = static_cast<int>(rounds.size()) - 1;
    span.startUs = nowUs();
    spans.push_back(std::move(span));
    openStack.push_back(static_cast<int>(spans.size()) - 1);
    return openStack.back();
}

void
Tracer::close(int span)
{
    if (span < 0)
        return;
    spans[static_cast<size_t>(span)].endUs = nowUs();
    // Spans close in LIFO order; an exception unwinding several
    // ScopedSpans closes them innermost first as well.
    if (!openStack.empty() && openStack.back() == span)
        openStack.pop_back();
}

void
Tracer::addSpan(int parent, const std::string &name,
                const std::string &detail, double start_us, double end_us)
{
    if (parent < 0)
        return;
    Span span;
    span.name = name;
    span.detail = detail;
    span.parent = parent;
    span.round = spans[static_cast<size_t>(parent)].round;
    span.startUs = start_us;
    span.endUs = end_us;
    spans.push_back(std::move(span));
}

void
Tracer::count(const std::string &name, double value)
{
    if (!recording() || rounds.empty())
        return;
    rounds.back().counters[name] += value;
}

std::vector<double>
Tracer::childUs() const
{
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span &span : spans) {
        if (span.parent >= 0)
            child_us[static_cast<size_t>(span.parent)] +=
                span.endUs - span.startUs;
    }
    return child_us;
}

std::map<std::string, double>
Tracer::layerMetrics() const
{
    std::vector<std::map<std::string, double>> per_round(rounds.size());
    std::set<std::string> median_metrics;
    const std::vector<double> child_us = childUs();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto &sums = per_round[static_cast<size_t>(span.round)];
        const double ms = (span.endUs - span.startUs) / 1000.0;
        sums[span.name + "_ms"] += ms;
        if (!span.detail.empty()) {
            const std::string key = span.name + "_ms." + span.detail;
            sums[key] += ms;
            if (span.medianOfRounds)
                median_metrics.insert(key);
        }
        if (span.name == "compiler.compile")
            sums["compiler.self_ms"] += ms - child_us[i] / 1000.0;
    }
    for (size_t r = 0; r < rounds.size(); ++r) {
        for (const auto &[name, value] : rounds[r].counters)
            per_round[r][name] += value;
    }

    std::set<std::string> names;
    for (const auto &sums : per_round)
        for (const auto &[name, value] : sums)
            names.insert(name);

    std::map<std::string, double> out;
    for (const std::string &name : names) {
        for (const char *phase : {"timed", "setup", "check"}) {
            std::vector<double> values;
            bool present = false;
            for (size_t r = 0; r < rounds.size(); ++r) {
                if (rounds[r].phase != phase)
                    continue;
                auto it = per_round[r].find(name);
                present = present || it != per_round[r].end();
                values.push_back(it == per_round[r].end() ? 0.0
                                                          : it->second);
            }
            if (!present)
                continue;
            out[name] = median_metrics.count(name) ? median(values)
                                                   : mean(values);
            break;
        }
    }
    return out;
}

std::map<std::string, int>
Tracer::roundCounts() const
{
    std::map<std::string, int> counts;
    for (const Round &round : rounds)
        ++counts[round.phase];
    return counts;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<double> child_us = childUs();
    souffle::JsonWriter json(souffle::JsonWriter::Style::kCompact);
    json.setDoublePrecision(12);
    json.beginObject().key("traceEvents").beginArray();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        const Round &round = rounds[static_cast<size_t>(span.round)];
        json.newline().beginObject();
        json.field("name", span.detail.empty()
                               ? span.name
                               : span.name + " " + span.detail);
        json.field("cat", span.name.substr(0, span.name.find('.')));
        json.field("ph", "X");
        json.field("ts", span.startUs);
        json.field("dur", span.endUs - span.startUs);
        json.field("pid", 1).field("tid", 1);
        json.key("args").beginObject();
        json.field("id", static_cast<int>(i));
        json.field("parent", span.parent);
        json.field("round", span.round);
        json.field("phase", round.phase);
        json.field("self_us",
                   span.endUs - span.startUs - child_us[i]);
        json.endObject().endObject();
    }
    json.endArray().field("displayTimeUnit", "ms").endObject();
    std::ofstream file(path);
    file << json.str() << "\n";
    if (!file)
        throw std::runtime_error("cannot write trace '" + path + "'");
}

} // namespace perfbench
