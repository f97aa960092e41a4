/**
 * @file
 * Benchmark-side plumbing shared by every workload: the run context,
 * the metric sink, the span tracer that times the benchmark's own calls
 * into the library, and small statistics / resource helpers.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** What one invocation asked for. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window, seconds. */
    double seconds = 10.0;
    /** Tiny graphs and short windows (the benchmark's own smoke test). */
    bool smoke = false;
    /** Directory the traced run writes its chrome trace into. */
    std::string out_dir = ".";
    /** Scratch directory for update batches and the durable store. */
    std::string tmp_dir = ".";
    /** Host cores (`nproc`). */
    unsigned nproc = 1;
};

/** One named metric with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name (sorted, so output order is stable). */
using MetricMap = std::map<std::string, Metric>;

/**
 * Everything one workload pass reports: the end-to-end metrics, the
 * per-layer metrics, the operation counts behind `attempted`/`failed`,
 * and provenance lines.
 */
struct PassResult
{
    MetricMap end_to_end;
    MetricMap per_layer;
    /** Operations attempted (jobs, solves, updates, setups). */
    std::uint64_t attempted = 0;
    /** Rejected jobs + oracle mismatches + store commit failures +
     *  determinism violations. */
    std::uint64_t failed = 0;
    /** Human-readable reasons for every failure (printed to stderr). */
    std::vector<std::string> failures;
    /** key -> value provenance (printed as one JSON line). */
    std::map<std::string, std::string> provenance;

    void
    fail(std::string why)
    {
        ++failed;
        failures.push_back(std::move(why));
    }
};

/**
 * In-memory span recorder for the traced run. Spans are recorded by the
 * benchmark around its own calls into the library (and for job lifecycle
 * states it observes through poll()); nothing inside the library is
 * instrumented. Disabled tracers record nothing and cost one branch.
 */
class Tracer
{
  public:
    /** One closed span. `job` groups the spans of one service job
     *  (0 = not a job span); `parent` is the enclosing span's id. */
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t job = 0;
        std::string name;
        std::string layer;
        double start = 0.0;
        double end = 0.0;
        /** Call spans count toward layer self time; observed job
         *  lifecycle spans (queued/running/parked) do not, because many
         *  jobs overlap in time. */
        bool call = true;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

    bool enabled() const { return enabled_; }

    /** Seconds since the tracer was created. */
    double now() const { return at(Clock::now()); }

    /** @p t on the tracer's clock (seconds since creation). */
    double at(Clock::time_point t) const { return secondsBetween(t0_, t); }

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint64_t add(Span span);

    /** RAII call span: opened at construction, closed at destruction,
     *  and the parent of spans opened while it is open on this
     *  thread. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string layer, std::string name,
              std::uint64_t job = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        Span span_;
        std::uint64_t saved_parent_ = 0;
    };

    /** Sum of self time per layer over call spans: a span's duration
     *  minus the part of it its child spans cover. */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as chrome://tracing JSON (microseconds; one
     *  track per job, track 0 for the benchmark thread). */
    bool writeChromeJson(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point t0_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t next_id_ = 1;
    /** Innermost open call span of the recording thread. */
    static thread_local std::uint64_t open_span_;
};

/** Quantile by linear interpolation (q in [0,1]); 0 for no samples. */
double quantile(std::vector<double> values, double q);

/** Median (quantile 0.5). */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Process CPU seconds (user + system) so far. */
double processCpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMiB();

/** Stable 64-bit mix of a seed and a stream tag (splitmix64). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** JSON string literal of @p s (quotes and escapes). */
std::string jsonString(const std::string &s);

/** Number formatted with all significant digits (JSON-safe; non-finite
 *  values print as 0). */
std::string jsonNumber(double v);

} // namespace perfbench
