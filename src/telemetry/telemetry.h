/**
 * @file
 * Process-global metrics registry: counters, gauges, and log2-bucketed
 * latency histograms, registered by name and exportable as JSON.
 *
 * This is the measurement layer behind the paper's evaluation (§5.4,
 * Figures 3-5): per-message verification latency, syscall-pause wait
 * time, AppendWrite queue occupancy, and message throughput. Metrics are
 * recorded only while telemetry is enabled; every hot-path hook checks
 * enabled() once per scope (RAII ScopedTimer / TraceScope), so disabled
 * runs pay a single relaxed atomic load + branch and bench numbers are
 * not perturbed.
 *
 * Naming scheme: `<component>.<metric>[_<unit>]`, e.g.
 * `verifier.msg_latency_ns`, `kernel.syscall_pause_ns`,
 * `ipc.ring_occupancy`. See docs/observability.md.
 */

#ifndef HQ_TELEMETRY_TELEMETRY_H
#define HQ_TELEMETRY_TELEMETRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stats.h"

namespace hq {
namespace telemetry {

// --- Global enable switch --------------------------------------------

namespace detail {
/// Every observability sink's on/off switch in one word, so a site that
/// feeds several sinks (telemetry::emit) still pays one relaxed load.
enum : std::uint32_t {
    kSinkTelemetry = 1u << 0, //!< metrics and the Chrome trace
    kSinkFlight = 1u << 1,    //!< flight-recorder dumps
    kSinkEventLog = 1u << 2,  //!< JSONL event log open
};
extern std::atomic<std::uint32_t> g_sinks;
void setSink(std::uint32_t sink, bool on);
} // namespace detail

/** True when telemetry recording is on (relaxed load: hot-path safe). */
inline bool
enabled()
{
    return detail::g_sinks.load(std::memory_order_relaxed) &
           detail::kSinkTelemetry;
}

/** Turn recording on/off (benches: --telemetry-out; tests). */
void setEnabled(bool on);

/** Monotonic nanoseconds since the process's telemetry epoch. */
std::uint64_t nowNs();

/** The telemetry epoch on the monotonicRawNs() clock. */
std::uint64_t epochRawNs();

/**
 * Raw monotonic nanoseconds (no per-process epoch). Comparable across
 * processes on the same machine, which is what the cross-process lag
 * sidecar needs: the producer stamps in one process and the verifier
 * subtracts in another.
 */
std::uint64_t monotonicRawNs();

// --- Metric types ----------------------------------------------------

/** Monotonic event counter; increments are lock-free and thread-safe. */
class Counter
{
  public:
    void
    add(std::uint64_t delta)
    {
        _value.fetch_add(delta, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/**
 * Instantaneous level (queue occupancy, entry count). Remembers the
 * high-water mark alongside the last set value.
 */
class Gauge
{
  public:
    void
    set(std::uint64_t value)
    {
        _value.store(value, std::memory_order_relaxed);
        std::uint64_t seen = _max.load(std::memory_order_relaxed);
        while (value > seen &&
               !_max.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
        }
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    std::uint64_t
    max() const
    {
        return _max.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        _value.store(0, std::memory_order_relaxed);
        _max.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _value{0};
    std::atomic<std::uint64_t> _max{0};
};

/**
 * Latency histogram with log2 buckets: bucket i counts samples in
 * [2^(i-1), 2^i) (bucket 0 counts zeros; the last bucket is the
 * overflow bucket). Percentiles interpolate within the winning bucket
 * and are clamped to the observed [min, max]; mean/stddev come from the
 * exact Welford accumulator (hq::RunningStat), not the buckets.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    /** Fold one sample (typically nanoseconds) into the histogram. */
    void record(std::uint64_t value);

    /**
     * Fold `repeat` copies of one sample with a single lock acquisition.
     * The batched verifier records one amortized per-message latency per
     * drained batch this way; count still advances by `repeat`, so
     * message-count semantics are unchanged.
     */
    void record(std::uint64_t value, std::uint64_t repeat);

    std::uint64_t count() const;

    /**
     * Value at percentile p in [0, 100]: rank-interpolated within the
     * bucket that holds the p-th sample. Buckets are log2 ranges, so
     * interpolation is geometric (lo * 2^frac) — the unbiased choice
     * for an exponential bucket; linear interpolation lands on the
     * arithmetic midpoint and systematically under-reports high
     * percentiles. Clamped to the observed extrema. 0 when empty.
     */
    double percentile(double p) const;

    double mean() const;
    double stddev() const;
    double min() const;
    double max() const;

    /** Snapshot of the raw bucket counts (index = floor(log2)+1). */
    std::array<std::uint64_t, kBuckets> buckets() const;

    void reset();

  private:
    mutable std::mutex _mutex;
    std::array<std::uint64_t, kBuckets> _buckets{};
    RunningStat _stat;
};

// --- Registry --------------------------------------------------------

/**
 * Process-global name -> metric registry. Metric references returned by
 * counter()/gauge()/histogram() are stable for the process lifetime, so
 * hot paths should look a metric up once (function-local static) and
 * reuse the reference.
 */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create by name. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * All metrics as one JSON object:
     * {"counters":{...},"gauges":{...},"histograms":{...}} with
     * count/mean/stddev/min/max/p50/p90/p99 per histogram.
     */
    std::string toJson() const;

    /**
     * All metrics in the Prometheus text exposition format (version
     * 0.0.4): counters as `<name>_total`, gauges as `<name>` plus a
     * `<name>_max` high-water series, histograms as summaries
     * (quantile 0.5/0.9/0.99 + `_sum`/`_count`). Names are derived via
     * prometheusSeries(), so per-shard and per-pid metrics become
     * labeled series of one family. Ends with a newline; parseable by
     * the node-exporter textfile collector.
     */
    std::string toPrometheus() const;

    /**
     * Visit every metric of one kind in name order. The registry mutex
     * is held across the sweep (registration is rare and hot paths
     * cache references, so this blocks no recorder) — used by the
     * statsboard publisher to build coherent snapshots.
     */
    void forEachCounter(
        const std::function<void(const std::string &, const Counter &)>
            &visit) const;
    void forEachGauge(
        const std::function<void(const std::string &, const Gauge &)>
            &visit) const;
    void forEachHistogram(
        const std::function<void(const std::string &, const Histogram &)>
            &visit) const;

    /** Zero every metric's value (registrations are kept). Tests. */
    void reset();

  private:
    Registry();

    mutable std::mutex _mutex;
    std::map<std::string, std::unique_ptr<Counter>> _counters;
    std::map<std::string, std::unique_ptr<Gauge>> _gauges;
    std::map<std::string, std::unique_ptr<Histogram>> _histograms;
};

namespace detail {

/** Registry accessor dispatched on metric type (HQ_TELEMETRY_HANDLE). */
template <typename Metric> Metric &getMetric(const std::string &name);

template <>
inline Counter &
getMetric<Counter>(const std::string &name)
{
    return Registry::instance().counter(name);
}

template <>
inline Gauge &
getMetric<Gauge>(const std::string &name)
{
    return Registry::instance().gauge(name);
}

template <>
inline Histogram &
getMetric<Histogram>(const std::string &name)
{
    return Registry::instance().histogram(name);
}

} // namespace detail

/**
 * Defines a function `fn()` returning a cached reference to the named
 * metric (`Kind` is Counter, Gauge, or Histogram). The registry lookup
 * runs once, on first use; hot paths pay only a static-local check.
 * Use at namespace scope in a .cc file:
 *
 *   HQ_TELEMETRY_HANDLE(messagesCounter, Counter, "verifier.messages")
 */
#define HQ_TELEMETRY_HANDLE(fn, Kind, metric_name)                        \
    static ::hq::telemetry::Kind &fn()                                    \
    {                                                                     \
        static ::hq::telemetry::Kind &handle =                            \
            ::hq::telemetry::detail::getMetric<::hq::telemetry::Kind>(    \
                metric_name);                                             \
        return handle;                                                    \
    }

// --- RAII instrumentation helper -------------------------------------

/**
 * Times its scope into a histogram. When telemetry is disabled at
 * construction the timer is inert: no clock read, no recording.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &histogram)
        : _histogram(enabled() ? &histogram : nullptr),
          _start(_histogram ? nowNs() : 0)
    {
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        if (_histogram)
            _histogram->record(nowNs() - _start);
    }

    /** Record now instead of at scope exit (and only once). */
    void
    stop()
    {
        if (_histogram)
            _histogram->record(nowNs() - _start);
        _histogram = nullptr;
    }

  private:
    Histogram *_histogram;
    std::uint64_t _start;
};

// --- Prometheus naming -----------------------------------------------

/**
 * A registry metric name mapped onto the Prometheus data model: a
 * `hq_`-prefixed, sanitized family name plus a label set. Structured
 * components become labels instead of name fragments, so the fleet
 * aggregator can sum/filter across them:
 *
 *   verifier.shard3.messages  -> hq_verifier_messages, shard="3"
 *   verifier.lag_ns.pid_42    -> hq_verifier_lag_ns,   pid="42"
 *   ipc.ring_occupancy        -> hq_ipc_ring_occupancy (no labels)
 *
 * Any other character outside [a-zA-Z0-9_] is replaced with '_'.
 */
struct PromSeries
{
    std::string name;   //!< metric family name
    std::string labels; //!< comma-joined `key="value"` pairs ("" = none)
};

PromSeries prometheusSeries(const std::string &metric);

// --- Export ----------------------------------------------------------

/**
 * Write the combined telemetry dump — {"metrics": <Registry::toJson()>,
 * "traceEvents": [...]} — to path. The traceEvents array is the Chrome
 * trace_event format; load the file in chrome://tracing or Perfetto.
 * @return true when the file was written.
 */
bool writeJsonFile(const std::string &path);

/**
 * Shared CLI helper for benches and examples. Strips the observability
 * flags from argv (positional args shift down) and activates the
 * corresponding subsystems:
 *
 *  - `--telemetry-out=FILE` / bare `--telemetry`: enable recording;
 *    with FILE, an atexit hook writes the combined JSON dump there.
 *  - `--event-log=FILE`: open the structured JSONL audit stream
 *    (violations, sequence gaps, epoch timeouts, ring drops) and
 *    enable recording.
 *  - `--statsboard[=NAME]`: enable recording and start the shared-
 *    memory statsboard publisher (segment NAME, default
 *    /hq_stats.<pid>) that tools/hq_stat attaches to.
 *  - `--flight-recorder[=FILE]`: enable the flight recorder, append
 *    triggered dumps (and one final dump at exit) to FILE (default
 *    flight.<pid>.jsonl) and install the fatal-signal dump handler.
 *
 * Call first thing in main().
 */
void handleBenchArgs(int &argc, char **argv);

} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_TELEMETRY_H
