/**
 * @file
 * The per-thread record ring, and the flight recorder that dumps it.
 *
 * Every thread that records owns one of kMaxThreads rings of
 * kRecordsPerThread fixed 64-byte records. Two kinds of record share
 * it: event records (telemetry::emit, one row of the event table in
 * telemetry/events.h) and trace records (TraceScope, traceInstant,
 * traceCounter, traceFlowBegin/End in telemetry/trace.h). Two exporters
 * read it: the Chrome trace (telemetry::writeJsonFile) shows every
 * record, and the flight dump shows the newest kDumpRecordsPerThread
 * event records of each ring.
 *
 * The verifier's security argument is *bounded asynchronous
 * validation*: a syscall may not retire until the owning shard has
 * drained the process's queue. When that bound is about to be violated
 * — a wedged drain loop, an SLO breach, a policy violation — the most
 * valuable evidence is what the enforcement pipeline did in the last
 * few milliseconds, which the metrics registry (monotonic totals)
 * cannot reconstruct. A dump merges every ring by timestamp and appends
 * the snapshot as JSONL next to the event log (`flight_header` +
 * `flight_record` lines), emitting a `flight_dump` event as the
 * cross-reference.
 *
 * Dump triggers: the event table's Limited and Forced rows (policy
 * violations, SLO breaches, fault-injection fires, shard health
 * transitions to STALLED), fatal signals (async-signal-safe path), exit
 * and on demand. Triggered dumps are rate-limited (requestDump) so a
 * violation storm cannot turn the recorder into a log flood.
 *
 * Cost model: with telemetry and the flight recorder both off, every
 * hook is one relaxed load + branch and no ring page is touched (the
 * rings are zero-initialized static storage, left to the zero page
 * until a thread writes). On, a record is one clock read plus eight
 * relaxed 64-bit stores into the thread's own ring — no locks, no RMW
 * on shared cache lines. Readers race benignly with writers: a torn
 * record is confined to the one slot being overwritten, the same
 * tolerance the statsboard seqlock copy uses. Rings are claimed per
 * thread and released at thread exit, so short-lived threads recycle
 * them; a thread that finds all kMaxThreads taken drops its records
 * (counted in `flight.dropped_records`).
 */

#ifndef HQ_TELEMETRY_FLIGHT_RECORDER_H
#define HQ_TELEMETRY_FLIGHT_RECORDER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/events.h"

namespace hq {
namespace telemetry {
namespace flight {

/** One ring record; exactly 64 bytes (one cache line). */
struct Record
{
    std::uint64_t ts_ns = 0; //!< monotonicRawNs() at record time
    std::uint64_t seq = 0;   //!< per-thread monotonic record index
    std::uint64_t pid = 0;   //!< monitored pid (0 = none)
    /// Events: the event's args. Trace: 'X' duration, 'C' value,
    /// 's'/'f' flow id.
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    const char *name = nullptr; //!< trace records: the literal name
    std::uint32_t kind = 0;     //!< events: telemetry::Event
    std::uint32_t thread = 0;   //!< ring slot id (stable per thread)
    std::int32_t shard = -1;    //!< verifier shard (-1 = none)
    char phase = 0;             //!< 0 = event; else a Chrome phase
    char pad[3] = {};
};
static_assert(sizeof(Record) == 64, "ring records are one cache line");

/** True for an event record of a known kind (not a trace record). */
inline bool
isEventRecord(const Record &record)
{
    return record.phase == 0 && record.kind < kEventKinds;
}

/** Records retained per thread ring (power of two). */
constexpr std::size_t kRecordsPerThread = 1 << 14;
/** Newest event records per ring that a flight dump writes. */
constexpr std::size_t kDumpRecordsPerThread = 512;
/** Concurrent recording threads tracked; later threads drop records. */
constexpr std::size_t kMaxThreads = 64;

namespace detail {
/** Append `record` to the calling thread's ring (fills seq, thread). */
void append(Record record);
} // namespace detail

/** True when the recorder is on (one relaxed load; hot-path safe). */
inline bool
enabled()
{
    return telemetry::detail::g_sinks.load(std::memory_order_relaxed) &
           telemetry::detail::kSinkFlight;
}

/** Turn recording on/off (--flight-recorder flag; tests). */
void setEnabled(bool on);

/**
 * Open (truncate) the JSONL dump file; dumps append to it so one run's
 * triggered dumps land in a single stream. The descriptor is kept open
 * for the async-signal-safe path. An empty path closes the file.
 * @return true when the file is ready (or was closed on "").
 */
bool configure(const std::string &path);

/** Currently configured dump path ("" = none). */
std::string dumpPath();

/**
 * Append one dump to the configured file: one `flight_header` line
 * (trigger, record count) followed by one `flight_record` line per
 * snapshot() record, and emit a `flight_dump` event.
 * @return number of records written (0 when no file is configured).
 */
std::size_t dump(const char *trigger);

/**
 * Rate-limited dump() triggered by an event of `kind`: at most one dump
 * per second per HQ_TELEMETRY_EVENTS row fires, however many events of
 * that kind ask (violation storms, per-message SLO breaches), so a
 * storm of one kind never suppresses the first dump of another.
 * No-op when disabled or unconfigured.
 */
void requestDump(Event kind);

/** The newest kDumpRecordsPerThread event records of every ring,
 *  merged oldest-first: what a dump writes. */
std::vector<Record> snapshot();

/** Every retained record, trace and event, merged oldest-first: what
 *  the Chrome trace shows. */
std::vector<Record> snapshotAll();

/**
 * Async-signal-safe dump of every ring to `fd` (same JSONL schema, no
 * timestamp merge — records appear per-ring). Only write(2) and stack
 * buffers; callable from a fatal-signal handler.
 */
void dumpSignalSafe(int fd, const char *trigger);

/**
 * Install fatal-signal handlers (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT)
 * that dumpSignalSafe() into the configured file and then re-raise with
 * default disposition, so a crashing run leaves its last records behind.
 */
void installFatalSignalDump();

/** Records written to all rings since the last reset (tests). */
std::uint64_t recordsWritten();

/** Rings held by a thread now or claimed since the last reset (tests). */
std::size_t ringsClaimed();

/** Drop every ring's records and the dump rate limit.
 *  Test isolation only — racing recorders may keep stale slots. */
void resetForTest();

} // namespace flight
} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_FLIGHT_RECORDER_H
