/**
 * @file
 * The benchmark binary. Runs one workload and writes its result as a
 * JSON file; `perfbench/run.py` builds this binary, runs it and prints
 * the result in the benchmark's output format.
 *
 *   souffle_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     --work-dir DIR --result FILE [--quick]
 *
 * With --trace 1 it also writes DIR/trace.json (Chrome trace events)
 * and DIR/layers.json (flat per-layer metrics) next to the result.
 * The result is written before the workload's state is torn down, so
 * a crash while unloading native modules leaves it in place.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/resource.h>

#include "bench.h"
#include "common/json.h"
#include "common/thread_pool.h"

namespace perfbench {
namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: souffle_perfbench --workload "
                 "zoo-compile|native-infer|serve-online --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --result FILE "
                 "[--quick]\n",
                 why);
    return 2;
}

void
writeMetrics(souffle::JsonWriter &json,
             const std::map<std::string, Metric> &metrics)
{
    json.beginObject();
    for (const auto &[name, metric] : metrics) {
        json.key(name).beginObject();
        json.field("value", metric.value);
        json.field("unit", metric.unit);
        json.field("samples", metric.samples);
        json.endObject();
    }
    json.endObject();
}

/** Peak resident set of this process so far, in MiB. */
double
peakRssMb()
{
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream file(path);
    file << text << "\n";
    if (!file)
        throw std::runtime_error("cannot write '" + path + "'");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    std::string result_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--work-dir")
            options.workDir = value;
        else if (arg == "--result")
            result_path = value;
        else
            return usage(("unknown flag " + arg).c_str());
    }
    Report (*run)(const Options &, Tracer &) = nullptr;
    if (options.workload == "zoo-compile")
        run = runZooCompile;
    else if (options.workload == "native-infer")
        run = runNativeInfer;
    else if (options.workload == "serve-online")
        run = runServeOnline;
    else
        return usage("unknown workload");
    if (options.workDir.empty() || result_path.empty())
        return usage("--work-dir and --result are required");
    std::filesystem::create_directories(options.workDir);

    Tracer tracer(options.trace);
    Report report;
    try {
        report = run(options, tracer);
    } catch (const std::exception &e) {
        // Set-up failed: there is nothing to measure.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    report.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB", 1};
    for (const auto &[name, metric] : report.endToEnd)
        report.named[name] = metric;

    std::map<std::string, double> layers = tracer.layerMetrics();
    for (const auto &[name, value] : report.layer)
        layers[name] = value;
    layers["common.pool_jobs"] = souffle::ThreadPool::globalJobs();

    souffle::JsonWriter json(souffle::JsonWriter::Style::kCompact);
    json.setDoublePrecision(17);
    json.beginObject();
    json.field("workload", options.workload);
    json.field("seed", static_cast<int64_t>(options.seed));
    json.field("attempted", report.attempted);
    json.field("failed", report.failed);
    json.key("failures").beginArray();
    for (const std::string &failure : report.failures)
        json.value(failure);
    json.endArray();
    json.key("round_ms").beginArray();
    for (double ms : report.roundMs)
        json.value(ms);
    json.endArray();
    json.key("end_to_end");
    writeMetrics(json, report.endToEnd);
    json.key("named");
    writeMetrics(json, report.named);
    json.key("traced_rounds").beginObject();
    for (const auto &[phase, count] : tracer.roundCounts())
        json.field(phase, count);
    json.endObject();
    json.key("per_layer").beginObject();
    for (const auto &[name, value] : layers)
        json.field(name, value);
    json.endObject();
    json.endObject();

    if (options.trace) {
        const std::string dir =
            std::filesystem::path(result_path).parent_path().string();
        tracer.writeChromeTrace(dir + "/trace.json");
        souffle::JsonWriter flat;
        flat.setDoublePrecision(17);
        flat.beginObject();
        for (const auto &[name, value] : layers)
            flat.newline().field(name, value);
        flat.newline().endObject();
        writeFile(dir + "/layers.json", flat.str());
    }
    writeFile(result_path, json.str());

    std::fprintf(stderr, "teardown: releasing workload state\n");
    report.live.reset();
    std::filesystem::remove_all(options.workDir);
    std::fprintf(stderr, "teardown: state released, exiting\n");
    return 0;
}
