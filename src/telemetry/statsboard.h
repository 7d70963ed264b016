/**
 * @file
 * Live statsboard: the metrics registry exported into a versioned
 * POSIX shared-memory segment so an operator can watch a *running*
 * verifier (tools/hq_stat) instead of waiting for the exit dump.
 *
 * A low-rate publisher thread snapshots the registry into the segment
 * under a seqlock: the writer bumps a sequence counter to an odd value,
 * copies the snapshot, and bumps it even; readers copy, then retry if
 * the counter changed or was odd. Monitored hot paths are never
 * involved — publishing reads the same mutex-guarded metric accessors
 * the JSON exporter uses, a few times per second, and nothing at all
 * happens when no publisher is started.
 *
 * Segment name: /hq_stats.<pid> under /dev/shm (shm_open), so
 * `hq_stat` can discover running instances by scanning the directory.
 *
 * Snapshots are also the input of the one Prometheus renderer
 * (prometheusText), which `hq_stat --prom` runs over every board.
 */

#ifndef HQ_TELEMETRY_STATSBOARD_H
#define HQ_TELEMETRY_STATSBOARD_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace hq {
namespace telemetry {

constexpr std::uint32_t kStatsBoardMagic = 0x42535148; // "HQSB" LE
// v2: capacities raised for the per-shard health/heartbeat/queue-depth
// gauges (16 shards x 4 gauges on top of the base set). Readers check
// the version, so a stale hq_stat never misreads a v2 layout.
constexpr std::uint32_t kStatsBoardVersion = 2;
constexpr std::size_t kStatsBoardNameLen = 48;
constexpr std::size_t kStatsBoardMaxCounters = 128;
constexpr std::size_t kStatsBoardMaxGauges = 96;
constexpr std::size_t kStatsBoardMaxHistograms = 48;

struct BoardCounter
{
    char name[kStatsBoardNameLen];
    std::uint64_t value;
};

struct BoardGauge
{
    char name[kStatsBoardNameLen];
    std::uint64_t value;
    std::uint64_t max;
};

struct BoardHistogram
{
    char name[kStatsBoardNameLen];
    std::uint64_t count;
    double mean;
    double min;
    double max;
    double p50;
    double p90;
    double p99;
};

/** One coherent registry snapshot (the seqlock-protected payload). */
struct StatsBoardSnapshot
{
    std::uint64_t publish_ns = 0;  //!< telemetry::nowNs() at publish
    std::uint64_t wall_ms = 0;     //!< system_clock ms at publish
    std::uint32_t n_counters = 0;
    std::uint32_t n_gauges = 0;
    std::uint32_t n_histograms = 0;
    std::uint32_t pad = 0;
    BoardCounter counters[kStatsBoardMaxCounters];
    BoardGauge gauges[kStatsBoardMaxGauges];
    BoardHistogram histograms[kStatsBoardMaxHistograms];
};

/** Fixed layout of the shared segment. */
struct StatsBoardRegion
{
    std::uint32_t magic;
    std::uint32_t version;
    std::int32_t pid;      //!< publishing process
    std::uint32_t pad;
    std::atomic<std::uint64_t> seq; //!< seqlock counter (odd = writing)
    StatsBoardSnapshot snapshot;
};

/** Build a snapshot of the process-global Registry (alphabetical,
 *  truncated to the board capacities). */
void snapshotRegistry(StatsBoardSnapshot &out);

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

/** One board's snapshot, tagged with the pid that published it. */
struct PublishedSnapshot
{
    std::int32_t pid = 0;
    StatsBoardSnapshot snapshot;
};

/**
 * The boards in the Prometheus text exposition format (version 0.0.4):
 * counters as `<name>_total`, gauges as `<name>` plus a `<name>_max`
 * high-water series, histograms as summaries (quantile 0.5/0.9/0.99
 * when non-empty, then `_sum`/`_count`). Names map through
 * prometheusSeries(); every sample also carries `board_pid="<pid>"`,
 * so each process's series stay apart. Families are sorted by name,
 * each under exactly one `# TYPE` line, and an `hq_statsboards`
 * gauge counts the boards. Ends with a newline, as the node-exporter
 * textfile collector requires.
 */
std::string prometheusText(const std::vector<PublishedSnapshot> &boards);

/** Creator/owner of the shared segment; unlinks it on destruction. */
class StatsBoardWriter
{
  public:
    /** "/hq_stats.<pid>" for the calling process. */
    static std::string defaultName();

    explicit StatsBoardWriter(const std::string &name = defaultName());
    ~StatsBoardWriter();

    StatsBoardWriter(const StatsBoardWriter &) = delete;
    StatsBoardWriter &operator=(const StatsBoardWriter &) = delete;

    bool valid() const { return _region != nullptr; }
    const std::string &name() const { return _name; }

    /** Seqlock-publish one snapshot into the segment. */
    void publish(const StatsBoardSnapshot &snapshot);

    /** snapshotRegistry() + publish(). */
    void publishRegistry();

  private:
    std::string _name;
    StatsBoardRegion *_region = nullptr;
};

/** Read-only attachment to a (possibly foreign) statsboard segment. */
class StatsBoardReader
{
  public:
    explicit StatsBoardReader(const std::string &name);
    ~StatsBoardReader();

    StatsBoardReader(const StatsBoardReader &) = delete;
    StatsBoardReader &operator=(const StatsBoardReader &) = delete;

    bool valid() const { return _region != nullptr; }
    std::int32_t pid() const { return _region ? _region->pid : 0; }

    /**
     * Copy one consistent snapshot out (seqlock retry loop). Every
     * name in the copy is NUL-terminated.
     * @return false when the segment is invalid, a consistent read
     *         could not be obtained within the retry budget, or the
     *         copy counts more entries than the board holds.
     */
    bool read(StatsBoardSnapshot &out) const;

  private:
    const StatsBoardRegion *_region = nullptr;
};

/** Background thread that republishes the registry at a fixed rate. */
class StatsPublisher
{
  public:
    explicit StatsPublisher(
        const std::string &name = StatsBoardWriter::defaultName(),
        std::chrono::milliseconds interval = std::chrono::milliseconds(250));
    ~StatsPublisher();

    bool valid() const { return _writer.valid(); }
    const std::string &name() const { return _writer.name(); }

    void start();
    void stop();

  private:
    StatsBoardWriter _writer;
    std::chrono::milliseconds _interval;
    std::thread _thread;
    std::atomic<bool> _running{false};
};

} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_STATSBOARD_H
