#pragma once

/**
 * @file
 * In-memory span and counter recorder for the benchmark's traced run.
 *
 * Spans are opened and closed by the benchmark's own files around each
 * call into a layer of the library; nothing inside `src/` records
 * anything. Every span and count belongs to a *round*: one set-up
 * repetition, one timed iteration, or the correctness check. At the
 * end of a run the recorder folds the rounds into flat per-layer
 * metrics (`<layer>.<what>`) and writes a Chrome trace.
 *
 * A disabled recorder, or a round begun with `record = false`, keeps
 * nothing: `open` returns -1 and `close`/`count` return immediately,
 * so the untraced run pays one branch per boundary.
 */

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return on; }

    /** Start a round of @p phase ("setup", "timed" or "check"). */
    void beginRound(const std::string &phase, bool record = true);

    /** Microseconds since the recorder was created. */
    double nowUs() const;

    /**
     * Open a span named `<layer>.<call>` under the innermost open
     * span. Its duration lands in metric `<name>_ms`, and also in
     * `<name>_ms.<detail>` when @p detail is set; @p median_of_rounds
     * folds that per-detail metric by median instead of mean.
     * Returns the span id, or -1 when not recording.
     */
    int open(const std::string &name, const std::string &detail = "",
             bool median_of_rounds = false);
    void close(int span);

    /** A finished child span of @p parent with explicit times. */
    void addSpan(int parent, const std::string &name,
                 const std::string &detail, double start_us, double end_us);

    /** Add @p value to counter @p name in the current round. */
    void count(const std::string &name, double value);

    /**
     * Fold the rounds into per-layer metrics. Each metric is taken
     * over the rounds of the phase it occurs in (timed before setup
     * before check) as the mean per round, or the median for
     * per-detail metrics opened with `median_of_rounds`. The
     * `compiler.compile` span's self time, its duration minus its
     * children, is reported as `compiler.self_ms`.
     */
    std::map<std::string, double> layerMetrics() const;

    /** Recorded rounds per phase. */
    std::map<std::string, int> roundCounts() const;

    /** Write the spans as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::string detail;
        bool medianOfRounds = false;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
        int round = -1;
    };
    struct Round
    {
        std::string phase;
        std::map<std::string, double> counters;
    };

    bool recording() const { return on && roundRecorded; }
    /** Total duration of each span's direct children (us). */
    std::vector<double> childUs() const;

    bool on;
    bool roundRecorded = true;
    std::chrono::steady_clock::time_point origin;
    std::vector<Span> spans;
    std::vector<Round> rounds;
    std::vector<int> openStack;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               const std::string &detail = "",
               bool median_of_rounds = false)
        : tracer(tracer),
          id(tracer.open(name, detail, median_of_rounds))
    {}
    ~ScopedSpan() { tracer.close(id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int spanId() const { return id; }

  private:
    Tracer &tracer;
    int id;
};

} // namespace perfbench
