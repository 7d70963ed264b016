/**
 * @file
 * Trace hooks producing Chrome trace_event JSON (load in
 * chrome://tracing or https://ui.perfetto.dev).
 *
 * Each hook writes one 64-byte record into the calling thread's record
 * ring (telemetry/flight_recorder.h), the same ring that holds the
 * event records of telemetry::emit(); chromeTraceJson() exports the
 * whole ring. Hooks write only while telemetry::enabled(): disabled,
 * each is one relaxed load + branch. When a ring wraps, the oldest
 * records are overwritten — a trace is a window onto the tail of the
 * run, never a source of back-pressure.
 *
 * Names must be string literals (or otherwise outlive the ring): the
 * ring stores the pointer, not a copy.
 */

#ifndef HQ_TELEMETRY_TRACE_H
#define HQ_TELEMETRY_TRACE_H

#include <cstdint>
#include <string>

#include "telemetry/telemetry.h"

namespace hq {
namespace telemetry {

namespace detail {
/** Append one trace record (Chrome phase X / i / C / s / f). */
void traceRecord(char phase, const char *name, std::uint64_t ts_ns,
                 std::uint64_t value);
} // namespace detail

/**
 * Every retained ring record as a Chrome trace_event JSON array, oldest
 * first. Event records become instants (or counter tracks, per their
 * event-table row). Timestamps are microseconds since the telemetry
 * epoch ("ts"/"dur" fields) as the format requires.
 */
std::string chromeTraceJson();

/**
 * RAII complete-event ('X') scope. Inert when telemetry is disabled at
 * construction: no clock read, no ring write.
 */
class TraceScope
{
  public:
    /** @param name string literal naming the scope. */
    explicit TraceScope(const char *name)
        : _name(enabled() ? name : nullptr),
          _start(_name ? monotonicRawNs() : 0)
    {
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    ~TraceScope()
    {
        if (_name)
            detail::traceRecord('X', _name, _start,
                                monotonicRawNs() - _start);
    }

  private:
    const char *_name;
    std::uint64_t _start;
};

/** Record an instant event (vertical tick in the trace viewer). */
inline void
traceInstant(const char *name)
{
    if (enabled())
        detail::traceRecord('i', name, monotonicRawNs(), 0);
}

/** Record a counter sample (stacked area track in the trace viewer). */
inline void
traceCounter(const char *name, std::uint64_t value)
{
    if (enabled())
        detail::traceRecord('C', name, monotonicRawNs(), value);
}

/**
 * Begin a flow (Perfetto draws an arrow from here to the matching
 * traceFlowEnd with the same id, across threads). Emit inside an 'X'
 * slice on the producing thread — flow events bind to the slice
 * enclosing their timestamp. The verifier keys lag flows by
 * (channel id << 32) | sequence.
 */
inline void
traceFlowBegin(const char *name, std::uint64_t id)
{
    if (enabled())
        detail::traceRecord('s', name, monotonicRawNs(), id);
}

/** End a flow begun by traceFlowBegin(name, id) on another thread. */
inline void
traceFlowEnd(const char *name, std::uint64_t id)
{
    if (enabled())
        detail::traceRecord('f', name, monotonicRawNs(), id);
}

} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_TRACE_H
