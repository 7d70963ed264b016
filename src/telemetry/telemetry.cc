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
#include <utility>
#include <vector>

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

// --- Prometheus text exposition --------------------------------------

namespace {

bool
allDigits(const std::string &text, std::size_t from)
{
    if (from >= text.size())
        return false;
    for (std::size_t i = from; i < text.size(); ++i) {
        if (text[i] < '0' || text[i] > '9')
            return false;
    }
    return true;
}

void
appendSanitizedComponent(std::string &name, const std::string &component)
{
    name += '_';
    for (char c : component) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        name += ok ? c : '_';
    }
}

void
appendLabel(std::string &labels, const char *key,
            const std::string &value)
{
    if (!labels.empty())
        labels += ',';
    labels += key;
    labels += "=\"";
    labels += value;
    labels += '"';
}

std::string
promDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return buf;
}

/** Accumulates samples grouped per family so each `# TYPE` line is
 *  emitted exactly once even when many labeled series share it. */
struct PromWriter
{
    // family -> exposition type; map keeps the output name-ordered.
    std::map<std::string, const char *> types;
    std::map<std::string, std::vector<std::string>> samples;

    /** One sample line; `name` may extend family (e.g. `_sum`). */
    void
    add(const std::string &family, const char *type,
        const std::string &name, const std::string &labels,
        const std::string &value)
    {
        types.emplace(family, type);
        std::string line = name;
        if (!labels.empty())
            line += '{' + labels + '}';
        line += ' ';
        line += value;
        line += '\n';
        samples[family].push_back(std::move(line));
    }

    std::string
    str() const
    {
        std::string out;
        for (const auto &[family, type] : types) {
            out += "# TYPE ";
            out += family;
            out += ' ';
            out += type;
            out += '\n';
            auto it = samples.find(family);
            if (it != samples.end()) {
                for (const std::string &line : it->second)
                    out += line;
            }
        }
        return out;
    }
};

} // namespace

PromSeries
prometheusSeries(const std::string &metric)
{
    PromSeries out;
    out.name = "hq";
    std::size_t start = 0;
    while (start <= metric.size()) {
        const std::size_t dot = metric.find('.', start);
        const std::size_t len =
            (dot == std::string::npos ? metric.size() : dot) - start;
        const std::string component = metric.substr(start, len);
        if (component.rfind("shard", 0) == 0 &&
            allDigits(component, 5)) {
            appendLabel(out.labels, "shard", component.substr(5));
        } else if (component.rfind("pid_", 0) == 0 &&
                   allDigits(component, 4)) {
            appendLabel(out.labels, "pid", component.substr(4));
        } else if (!component.empty()) {
            appendSanitizedComponent(out.name, component);
        }
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    return out;
}

std::string
Registry::toPrometheus() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    PromWriter writer;
    for (const auto &[name, counter] : _counters) {
        const PromSeries series = prometheusSeries(name);
        const std::string family = series.name + "_total";
        writer.add(family, "counter", family, series.labels,
                   std::to_string(counter->value()));
    }
    for (const auto &[name, gauge] : _gauges) {
        const PromSeries series = prometheusSeries(name);
        writer.add(series.name, "gauge", series.name, series.labels,
                   std::to_string(gauge->value()));
        const std::string family = series.name + "_max";
        writer.add(family, "gauge", family, series.labels,
                   std::to_string(gauge->max()));
    }
    for (const auto &[name, histogram] : _histograms) {
        const PromSeries series = prometheusSeries(name);
        const std::uint64_t count = histogram->count();
        if (count != 0) {
            static constexpr std::pair<const char *, double> kQuantiles[] =
                {{"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0}};
            for (const auto &[q, p] : kQuantiles) {
                std::string labels = series.labels;
                appendLabel(labels, "quantile", q);
                writer.add(series.name, "summary", series.name, labels,
                           promDouble(histogram->percentile(p)));
            }
        }
        writer.add(series.name, "summary", series.name + "_sum",
                   series.labels,
                   promDouble(histogram->mean() *
                              static_cast<double>(count)));
        writer.add(series.name, "summary", series.name + "_count",
                   series.labels, std::to_string(count));
    }
    return writer.str();
}

void
Registry::forEachCounter(
    const std::function<void(const std::string &, const Counter &)>
        &visit) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    for (const auto &[name, counter] : _counters)
        visit(name, *counter);
}

void
Registry::forEachGauge(
    const std::function<void(const std::string &, const Gauge &)> &visit)
    const
{
    std::lock_guard<std::mutex> guard(_mutex);
    for (const auto &[name, gauge] : _gauges)
        visit(name, *gauge);
}

void
Registry::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)>
        &visit) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    for (const auto &[name, histogram] : _histograms)
        visit(name, *histogram);
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
