#include "telemetry/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "telemetry/event_log.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/statsboard.h"
#include "telemetry/trace.h"

namespace hq {
namespace telemetry {

namespace detail {
std::atomic<std::uint32_t> g_sinks{0};

void
setSink(std::uint32_t sink, bool on)
{
    if (on)
        g_sinks.fetch_or(sink, std::memory_order_relaxed);
    else
        g_sinks.fetch_and(~sink, std::memory_order_relaxed);
}
} // namespace detail

void
setEnabled(bool on)
{
    detail::setSink(detail::kSinkTelemetry, on);
}

std::uint64_t
epochRawNs()
{
    static const std::uint64_t epoch = monotonicRawNs();
    return epoch;
}

std::uint64_t
nowNs()
{
    const std::uint64_t epoch = epochRawNs();
    return monotonicRawNs() - epoch;
}

std::uint64_t
monotonicRawNs()
{
    // No process-local epoch: steady_clock is CLOCK_MONOTONIC, whose
    // base is machine-wide, so a stamp taken in a forked child is
    // directly comparable in the parent.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// --- Histogram -------------------------------------------------------

namespace {

/** Bucket index for a sample: 0 for 0, else floor(log2)+1, capped. */
int
bucketIndex(std::uint64_t value)
{
    if (value == 0)
        return 0;
    const int width = std::bit_width(value);
    return std::min(width, Histogram::kBuckets - 1);
}

/** Inclusive value range covered by bucket i. */
void
bucketRange(int index, double &lo, double &hi)
{
    if (index == 0) {
        lo = 0.0;
        hi = 1.0;
        return;
    }
    lo = std::ldexp(1.0, index - 1); // 2^(i-1)
    hi = std::ldexp(1.0, index);     // 2^i
}

} // namespace

void
Histogram::record(std::uint64_t value)
{
    std::lock_guard<std::mutex> guard(_mutex);
    ++_buckets[bucketIndex(value)];
    _stat.add(static_cast<double>(value));
}

void
Histogram::record(std::uint64_t value, std::uint64_t repeat)
{
    if (repeat == 0)
        return;
    std::lock_guard<std::mutex> guard(_mutex);
    _buckets[bucketIndex(value)] += repeat;
    _stat.addRepeated(static_cast<double>(value), repeat);
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _stat.count();
}

double
Histogram::percentile(double p) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    const std::uint64_t total = _stat.count();
    if (total == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the percentile sample, 1-based (nearest-rank method).
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(total))));

    std::uint64_t cumulative = 0;
    for (int i = 0; i < kBuckets; ++i) {
        if (_buckets[i] == 0)
            continue;
        if (cumulative + _buckets[i] >= target) {
            double lo = 0.0, hi = 0.0;
            bucketRange(i, lo, hi);
            // Interpolate by rank within the bucket, then clamp to the
            // exactly-tracked extrema so outputs never exceed samples.
            // The buckets are log2 ranges, so the interpolation is
            // geometric — lo * (hi/lo)^frac — which is unbiased for an
            // exponential bucket; the arithmetic (linear) form skews
            // toward the bucket floor and under-reports p99. Bucket 0
            // starts at zero, where the geometric form degenerates, so
            // it keeps the linear ramp.
            const double frac =
                static_cast<double>(target - cumulative) /
                static_cast<double>(_buckets[i]);
            const double value =
                lo > 0.0 ? lo * std::pow(hi / lo, frac)
                         : lo + frac * (hi - lo);
            return std::clamp(value, _stat.min(), _stat.max());
        }
        cumulative += _buckets[i];
    }
    return _stat.max(); // unreachable unless counts raced; be safe
}

double
Histogram::mean() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _stat.mean();
}

double
Histogram::stddev() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _stat.stddev();
}

double
Histogram::min() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _stat.min();
}

double
Histogram::max() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _stat.max();
}

std::array<std::uint64_t, Histogram::kBuckets>
Histogram::buckets() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _buckets;
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> guard(_mutex);
    _buckets.fill(0);
    _stat = RunningStat{};
}

// --- Registry --------------------------------------------------------

Registry::Registry()
{
    // Pre-register the well-known hot-path metrics so every telemetry
    // dump carries them (empty or not) and consumers can rely on the
    // keys being present.
    for (const char *name :
         {"verifier.msg_latency_ns", "verifier.lag_ns",
          "kernel.syscall_pause_ns", "fpga.append_ns"}) {
        _histograms.emplace(name, std::make_unique<Histogram>());
    }
    for (const char *name :
         {"verifier.messages", "verifier.violations",
          "verifier.syscall_acks", "verifier.idle_sleeps",
          "verifier.drain_passes",
          "verifier.lag_slo_breaches",
          "kernel.syscalls",
          "kernel.epoch_timeouts", "ipc.ring_push_fail",
          "ipc.lag_stamp_dropped",
          "fpga.messages", "fpga.dropped",
          "vm.instructions", "vm.instrumentation_ops",
          "statsboard.publishes", "eventlog.records",
          "flight.dropped_records"}) {
        _counters.emplace(name, std::make_unique<Counter>());
    }
    for (const char *name : {"ipc.ring_occupancy", "verifier.policy_entries",
                             "verifier.lag_high_water_ns"}) {
        _gauges.emplace(name, std::make_unique<Gauge>());
    }
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> guard(_mutex);
    auto &slot = _counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> guard(_mutex);
    auto &slot = _gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> guard(_mutex);
    auto &slot = _histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

namespace {

void
appendJsonString(std::ostringstream &os, const std::string &text)
{
    os << '"';
    for (char c : text) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
appendDouble(std::ostringstream &os, double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    os << buf;
}

} // namespace

std::string
Registry::toJson() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, counter] : _counters) {
        if (!first)
            os << ",";
        first = false;
        appendJsonString(os, name);
        os << ":" << counter->value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, gauge] : _gauges) {
        if (!first)
            os << ",";
        first = false;
        appendJsonString(os, name);
        os << ":{\"value\":" << gauge->value() << ",\"max\":"
           << gauge->max() << "}";
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, histogram] : _histograms) {
        if (!first)
            os << ",";
        first = false;
        appendJsonString(os, name);
        os << ":{\"count\":" << histogram->count() << ",\"mean\":";
        appendDouble(os, histogram->mean());
        os << ",\"stddev\":";
        appendDouble(os, histogram->stddev());
        os << ",\"min\":";
        appendDouble(os, histogram->min());
        os << ",\"max\":";
        appendDouble(os, histogram->max());
        os << ",\"p50\":";
        appendDouble(os, histogram->percentile(50));
        os << ",\"p90\":";
        appendDouble(os, histogram->percentile(90));
        os << ",\"p99\":";
        appendDouble(os, histogram->percentile(99));
        os << ",\"buckets\":[";
        const auto buckets = histogram->buckets();
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (i)
                os << ",";
            os << buckets[i];
        }
        os << "]}";
    }
    os << "}}";
    return os.str();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> guard(_mutex);
    for (auto &[name, counter] : _counters)
        counter->reset();
    for (auto &[name, gauge] : _gauges)
        gauge->reset();
    for (auto &[name, histogram] : _histograms)
        histogram->reset();
}

// --- Export ----------------------------------------------------------

bool
writeJsonFile(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"metrics\":" << Registry::instance().toJson()
        << ",\"traceEvents\":" << chromeTraceJson()
        << ",\"displayTimeUnit\":\"ns\"}\n";
    return out.good();
}

namespace {

std::string g_out_path;
std::unique_ptr<StatsPublisher> g_publisher;

void
flushAtExit()
{
    // Stop the statsboard publisher first so its final snapshot lands
    // before (and its segment disappears with) the exit dump.
    if (g_publisher) {
        g_publisher->stop();
        g_publisher.reset();
    }
    // Final flight dump before the event log closes, so the paired
    // flight_dump record still lands in the JSONL stream.
    if (flight::enabled())
        flight::dump("exit");
    EventLog::instance().close();
    if (g_out_path.empty())
        return;
    if (writeJsonFile(g_out_path))
        std::fprintf(stderr, "telemetry: wrote %s\n", g_out_path.c_str());
    else
        std::fprintf(stderr, "telemetry: failed to write %s\n",
                     g_out_path.c_str());
}

} // namespace

void
handleBenchArgs(int &argc, char **argv)
{
    const std::string kOutFlag = "--telemetry-out=";
    const std::string kEventLogFlag = "--event-log=";
    const std::string kStatsBoardFlag = "--statsboard";
    const std::string kFlightFlag = "--flight-recorder";
    bool enable = false;
    std::string event_log_path;
    bool statsboard = false;
    std::string statsboard_name;
    bool flight_recorder = false;
    std::string flight_path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(kOutFlag, 0) == 0) {
            g_out_path = arg.substr(kOutFlag.size());
            enable = true;
        } else if (arg == "--telemetry") {
            enable = true;
        } else if (arg.rfind(kEventLogFlag, 0) == 0) {
            event_log_path = arg.substr(kEventLogFlag.size());
            enable = true;
        } else if (arg.rfind(kStatsBoardFlag, 0) == 0 &&
                   (arg.size() == kStatsBoardFlag.size() ||
                    arg[kStatsBoardFlag.size()] == '=')) {
            statsboard = true;
            enable = true;
            if (arg.size() > kStatsBoardFlag.size() + 1)
                statsboard_name = arg.substr(kStatsBoardFlag.size() + 1);
        } else if (arg.rfind(kFlightFlag, 0) == 0 &&
                   (arg.size() == kFlightFlag.size() ||
                    arg[kFlightFlag.size()] == '=')) {
            flight_recorder = true;
            enable = true;
            if (arg.size() > kFlightFlag.size() + 1)
                flight_path = arg.substr(kFlightFlag.size() + 1);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    if (!enable)
        return;
    // Materialize the singletons *before* registering the atexit hook,
    // so their (atexit-ordered) destructors run after the flush.
    Registry::instance();
    setEnabled(true);
    if (!event_log_path.empty() &&
        !EventLog::instance().open(event_log_path)) {
        std::fprintf(stderr, "telemetry: failed to open event log %s\n",
                     event_log_path.c_str());
    }
    if (statsboard) {
        g_publisher = std::make_unique<StatsPublisher>(
            statsboard_name.empty() ? StatsBoardWriter::defaultName()
                                    : statsboard_name);
        if (g_publisher->valid()) {
            g_publisher->start();
            std::fprintf(stderr, "telemetry: statsboard at %s\n",
                         g_publisher->name().c_str());
        }
    }
    if (flight_recorder) {
        if (flight_path.empty())
            flight_path = "flight." + std::to_string(::getpid()) + ".jsonl";
        if (flight::configure(flight_path)) {
            flight::setEnabled(true);
            flight::installFatalSignalDump();
            std::fprintf(stderr, "telemetry: flight recorder -> %s\n",
                         flight_path.c_str());
        } else {
            std::fprintf(stderr,
                         "telemetry: failed to open flight dump %s\n",
                         flight_path.c_str());
        }
    }
    std::atexit(flushAtExit);
}

} // namespace telemetry
} // namespace hq
