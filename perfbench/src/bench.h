#pragma once

/**
 * @file
 * Shared pieces of the benchmark's workloads: run options, the
 * report every workload fills, the set-up / timed-round loops, and
 * traced wrappers around the library calls more than one workload
 * makes (compile, simulate).
 */

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/souffle.h"
#include "gpu/sim.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed phase. */
    double seconds = 10.0;
    bool trace = false;
    /** One set-up and the fewest rounds: the benchmark's own test. */
    bool quick = false;
    /** Scratch directory (inside the checkout) for stores and native
     *  build products; created and removed by the workload. */
    std::string workDir;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples the value was taken over. */
    int64_t samples = 0;
};

/** Everything one workload run reports. */
struct Report
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** The first few failure messages, for the log. */
    std::vector<std::string> failures;
    /** The end-to-end metrics of BENCHMARK.json; every workload fills
     *  all of them. */
    std::map<std::string, Metric> endToEnd;
    /** The workload's end-to-end figures under their own names, for
     *  the log; `main` adds every `endToEnd` entry as well. */
    std::map<std::string, Metric> named;
    /** Per-layer values computed by the workload rather than from
     *  spans (percentiles, simulated serving figures). */
    std::map<std::string, double> layer;
    /** Wall time of every timed round, in order (for the log). */
    std::vector<double> roundMs;
    /**
     * State whose destruction is the workload's teardown (unloading
     * native modules). `main` writes the result before releasing
     * it, so a crash in teardown still leaves the measurements.
     */
    std::shared_ptr<void> live;

    /** Count one operation; @p ok false records @p what as failed. */
    void record(bool ok, const std::string &what);

    /**
     * Run @p fn as one operation. It fails when @p fn returns false
     * or throws; the exception message is kept.
     */
    void
    attempt(const std::string &what, const std::function<bool()> &fn)
    {
        try {
            record(fn(), what);
        } catch (const std::exception &e) {
            record(false, what + ": " + e.what());
        }
    }
};

/**
 * Run @p setup repeatedly, each repetition in its own "setup" round,
 * and report the median wall time as `setup_s`: at least three times,
 * and on until the repetitions add up to half a second (at most 25;
 * once in quick mode). The caller keeps the last repetition's state.
 */
void repeatSetup(const Options &options, Tracer &tracer, Report &report,
                 const std::function<void(int rep)> &setup);

/** Wall time of each timed round, in order, and whether it was traced. */
struct RoundTimes
{
    std::vector<double> ms;
    std::vector<bool> traced;
};

/**
 * Run @p round (passed its index) until the timed phase has lasted
 * `options.seconds` and at least @p min_rounds ran. In a traced run
 * every other round is left untraced, so the two halves give the
 * tracing overhead.
 */
RoundTimes timedRounds(const Options &options, Tracer &tracer,
                       int min_rounds,
                       const std::function<void(int)> &round);

/** `bench.trace_overhead_pct`: traced over untraced round median. */
double traceOverheadPct(const RoundTimes &times);

/**
 * `compileSouffle` under a `compiler.compile` span, with one child
 * span per executed pass (laid end to end from the pass statistics)
 * and the compile counters of the pass statistics.
 */
souffle::Compiled tracedCompile(Tracer &tracer, const souffle::Graph &graph,
                                const souffle::SouffleOptions &options,
                                const std::string &label);

/** The compile counts of @p compiled: its pass-statistics counters
 *  (zero for a loaded artifact, which searched nothing) and the size
 *  of its emitted source. */
void countCompile(Tracer &tracer, const souffle::Compiled &compiled);

/** `simulate` under a `gpu.simulate` span, plus gpu/kernel counts. */
souffle::SimResult tracedSimulate(Tracer &tracer,
                                  const souffle::CompiledModule &module,
                                  const souffle::DeviceSpec &device);

Report runZooCompile(const Options &options, Tracer &tracer);
Report runNativeInfer(const Options &options, Tracer &tracer);
Report runServeOnline(const Options &options, Tracer &tracer);

} // namespace perfbench
