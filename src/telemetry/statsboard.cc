#include "telemetry/statsboard.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace hq {
namespace telemetry {

namespace {

HQ_TELEMETRY_HANDLE(publishesCounter, Counter, "statsboard.publishes")

void
copyName(char (&dst)[kStatsBoardNameLen], const std::string &src)
{
    std::strncpy(dst, src.c_str(), kStatsBoardNameLen - 1);
    dst[kStatsBoardNameLen - 1] = '\0';
}

static_assert(sizeof(StatsBoardSnapshot) % sizeof(std::uint64_t) == 0,
              "seqlock copy moves whole 64-bit words");
static_assert(alignof(StatsBoardSnapshot) >= alignof(std::uint64_t),
              "seqlock copy requires word alignment");

/**
 * Word-wise copy through relaxed atomic accesses. The seqlock's write
 * and read sides deliberately race on the snapshot payload (that is the
 * whole point of a seqlock — torn copies are detected via the sequence
 * counter and retried), but a plain memcpy makes that race undefined
 * behavior and a TSan report. Copying 64-bit words with relaxed atomics
 * keeps the race benign and defined; the release/acquire fences around
 * the copy still order the words against the counter.
 */
void
seqlockCopy(void *dst, const void *src, std::size_t bytes)
{
    auto *d = static_cast<std::uint64_t *>(dst);
    const auto *s = static_cast<const std::uint64_t *>(src);
    const std::size_t words = bytes / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < words; ++i)
        __atomic_store_n(&d[i], __atomic_load_n(&s[i], __ATOMIC_RELAXED),
                         __ATOMIC_RELAXED);
}

/**
 * Make a snapshot copied from a (possibly foreign) segment safe to
 * walk: any process can publish a board, so fail closed on a count
 * past its array and cut every name to a terminated string.
 */
bool
checkCopied(StatsBoardSnapshot &snapshot)
{
    if (snapshot.n_counters > kStatsBoardMaxCounters ||
        snapshot.n_gauges > kStatsBoardMaxGauges ||
        snapshot.n_histograms > kStatsBoardMaxHistograms)
        return false;
    for (BoardCounter &slot : snapshot.counters)
        slot.name[kStatsBoardNameLen - 1] = '\0';
    for (BoardGauge &slot : snapshot.gauges)
        slot.name[kStatsBoardNameLen - 1] = '\0';
    for (BoardHistogram &slot : snapshot.histograms)
        slot.name[kStatsBoardNameLen - 1] = '\0';
    return true;
}

} // namespace

void
snapshotRegistry(StatsBoardSnapshot &out)
{
    out.publish_ns = nowNs();
    out.wall_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    out.n_counters = 0;
    out.n_gauges = 0;
    out.n_histograms = 0;

    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> guard(registry._mutex);
    for (const auto &[name, counter] : registry._counters) {
        if (out.n_counters >= kStatsBoardMaxCounters)
            break;
        BoardCounter &slot = out.counters[out.n_counters++];
        copyName(slot.name, name);
        slot.value = counter->value();
    }
    for (const auto &[name, gauge] : registry._gauges) {
        if (out.n_gauges >= kStatsBoardMaxGauges)
            break;
        BoardGauge &slot = out.gauges[out.n_gauges++];
        copyName(slot.name, name);
        slot.value = gauge->value();
        slot.max = gauge->max();
    }
    for (const auto &[name, histogram] : registry._histograms) {
        if (out.n_histograms >= kStatsBoardMaxHistograms)
            break;
        BoardHistogram &slot = out.histograms[out.n_histograms++];
        copyName(slot.name, name);
        slot.count = histogram->count();
        slot.mean = histogram->mean();
        slot.min = histogram->min();
        slot.max = histogram->max();
        slot.p50 = histogram->percentile(50);
        slot.p90 = histogram->percentile(90);
        slot.p99 = histogram->percentile(99);
    }
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
formatDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return buf;
}

/** The sample lines of one family, printed under its `# TYPE` line. */
struct PromFamily
{
    const char *type = "";
    std::string samples;
};

/** One sample line of `family`; a summary's `_sum` and `_count` pass
 *  their `suffix` and ride under the base family's `# TYPE` line. */
void
addSample(std::map<std::string, PromFamily> &families,
          const std::string &family, const char *type,
          const std::string &labels, const std::string &value,
          const char *suffix = "")
{
    PromFamily &entry = families[family];
    entry.type = type;
    entry.samples += family + suffix;
    if (!labels.empty())
        entry.samples += '{' + labels + '}';
    entry.samples += ' ' + value + '\n';
}

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
prometheusText(const std::vector<PublishedSnapshot> &boards)
{
    // The map sorts families by name and keeps every sample of a
    // family under its one `# TYPE` line, as the format requires.
    std::map<std::string, PromFamily> families;
    for (const PublishedSnapshot &board : boards) {
        const StatsBoardSnapshot &snap = board.snapshot;
        const std::string board_pid = std::to_string(board.pid);
        // A metric name can carry its own `pid` label (pid_<N>), so
        // the publisher's label needs a name of its own.
        auto seriesOf = [&board_pid](const char *metric) {
            PromSeries series = prometheusSeries(metric);
            appendLabel(series.labels, "board_pid", board_pid);
            return series;
        };
        for (std::uint32_t i = 0; i < snap.n_counters; ++i) {
            const PromSeries series = seriesOf(snap.counters[i].name);
            addSample(families, series.name + "_total", "counter",
                      series.labels, std::to_string(snap.counters[i].value));
        }
        for (std::uint32_t i = 0; i < snap.n_gauges; ++i) {
            const BoardGauge &gauge = snap.gauges[i];
            const PromSeries series = seriesOf(gauge.name);
            addSample(families, series.name, "gauge", series.labels,
                      std::to_string(gauge.value));
            addSample(families, series.name + "_max", "gauge",
                      series.labels, std::to_string(gauge.max));
        }
        for (std::uint32_t i = 0; i < snap.n_histograms; ++i) {
            const BoardHistogram &h = snap.histograms[i];
            const PromSeries series = seriesOf(h.name);
            if (h.count != 0) {
                const std::pair<const char *, double> quantiles[] = {
                    {"0.5", h.p50}, {"0.9", h.p90}, {"0.99", h.p99}};
                for (const auto &[quantile, value] : quantiles) {
                    std::string labels = series.labels;
                    appendLabel(labels, "quantile", quantile);
                    addSample(families, series.name, "summary", labels,
                              formatDouble(value));
                }
            }
            addSample(families, series.name, "summary", series.labels,
                      formatDouble(h.mean * static_cast<double>(h.count)),
                      "_sum");
            addSample(families, series.name, "summary", series.labels,
                      std::to_string(h.count), "_count");
        }
    }
    addSample(families, "hq_statsboards", "gauge", "",
              std::to_string(boards.size()));

    std::string out;
    for (const auto &[family, entry] : families) {
        out += "# TYPE " + family + ' ' + entry.type + '\n';
        out += entry.samples;
    }
    return out;
}

// --- Writer ----------------------------------------------------------

std::string
StatsBoardWriter::defaultName()
{
    return "/hq_stats." + std::to_string(::getpid());
}

StatsBoardWriter::StatsBoardWriter(const std::string &name) : _name(name)
{
    const int fd = ::shm_open(_name.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd < 0) {
        logWarn("statsboard: shm_open(", _name, ") failed: ",
                std::strerror(errno));
        return;
    }
    if (::ftruncate(fd, sizeof(StatsBoardRegion)) != 0) {
        logWarn("statsboard: ftruncate failed: ", std::strerror(errno));
        ::close(fd);
        ::shm_unlink(_name.c_str());
        return;
    }
    void *mapping = ::mmap(nullptr, sizeof(StatsBoardRegion),
                           PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (mapping == MAP_FAILED) {
        logWarn("statsboard: mmap failed: ", std::strerror(errno));
        ::shm_unlink(_name.c_str());
        return;
    }
    _region = new (mapping) StatsBoardRegion;
    _region->magic = kStatsBoardMagic;
    _region->version = kStatsBoardVersion;
    _region->pid = static_cast<std::int32_t>(::getpid());
    _region->seq.store(0, std::memory_order_relaxed);
}

StatsBoardWriter::~StatsBoardWriter()
{
    if (_region) {
        ::munmap(_region, sizeof(StatsBoardRegion));
        ::shm_unlink(_name.c_str());
    }
}

void
StatsBoardWriter::publish(const StatsBoardSnapshot &snapshot)
{
    if (!_region)
        return;
    const std::uint64_t seq = _region->seq.load(std::memory_order_relaxed);
    // Seqlock write side: odd counter marks the snapshot as in flux.
    _region->seq.store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    seqlockCopy(&_region->snapshot, &snapshot, sizeof(snapshot));
    std::atomic_thread_fence(std::memory_order_release);
    _region->seq.store(seq + 2, std::memory_order_release);
    if (enabled())
        publishesCounter().inc();
}

void
StatsBoardWriter::publishRegistry()
{
    // The snapshot is ~20 KB of POD; building it takes the registry
    // mutex briefly (same as the JSON exporter) but never blocks
    // recording hot paths, which only touch atomics.
    static thread_local StatsBoardSnapshot snapshot;
    snapshotRegistry(snapshot);
    publish(snapshot);
}

// --- Reader ----------------------------------------------------------

StatsBoardReader::StatsBoardReader(const std::string &name)
{
    const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
    if (fd < 0)
        return;
    void *mapping = ::mmap(nullptr, sizeof(StatsBoardRegion), PROT_READ,
                           MAP_SHARED, fd, 0);
    ::close(fd);
    if (mapping == MAP_FAILED)
        return;
    const auto *region = static_cast<const StatsBoardRegion *>(mapping);
    if (region->magic != kStatsBoardMagic ||
        region->version != kStatsBoardVersion) {
        ::munmap(mapping, sizeof(StatsBoardRegion));
        return;
    }
    _region = region;
}

StatsBoardReader::~StatsBoardReader()
{
    if (_region) {
        ::munmap(const_cast<StatsBoardRegion *>(_region),
                 sizeof(StatsBoardRegion));
    }
}

bool
StatsBoardReader::read(StatsBoardSnapshot &out) const
{
    if (!_region)
        return false;
    for (int attempt = 0; attempt < 1000; ++attempt) {
        const std::uint64_t before =
            _region->seq.load(std::memory_order_acquire);
        if (before & 1) {
            // Writer mid-publish: spin.
            continue;
        }
        seqlockCopy(&out, &_region->snapshot, sizeof(out));
        std::atomic_thread_fence(std::memory_order_acquire);
        const std::uint64_t after =
            _region->seq.load(std::memory_order_acquire);
        if (before == after)
            return checkCopied(out);
    }
    return false;
}

// --- Publisher -------------------------------------------------------

StatsPublisher::StatsPublisher(const std::string &name,
                               std::chrono::milliseconds interval)
    : _writer(name), _interval(interval)
{
}

StatsPublisher::~StatsPublisher()
{
    stop();
}

void
StatsPublisher::start()
{
    if (!_writer.valid())
        return;
    bool expected = false;
    if (!_running.compare_exchange_strong(expected, true))
        return;
    _thread = std::thread([this] {
        while (_running.load(std::memory_order_relaxed)) {
            _writer.publishRegistry();
            // Sleep in small slices so stop() is prompt even with a
            // long publishing interval.
            auto remaining = _interval;
            while (remaining.count() > 0 &&
                   _running.load(std::memory_order_relaxed)) {
                const auto slice =
                    std::min(remaining, std::chrono::milliseconds(50));
                std::this_thread::sleep_for(slice);
                remaining -= slice;
            }
        }
        // Final snapshot so hq_stat sees the end-of-run totals.
        _writer.publishRegistry();
    });
}

void
StatsPublisher::stop()
{
    if (!_running.exchange(false))
        return;
    if (_thread.joinable())
        _thread.join();
}

} // namespace telemetry
} // namespace hq
