/**
 * @file
 * Structured JSONL audit stream — the machine-readable counterpart of
 * the paper's correctness evidence (Tables 4/5).
 *
 * When opened (`--event-log=FILE`), every security-relevant event is
 * appended as one self-contained JSON object per line: policy
 * violations, message-sequence gaps (FPGA integrity check),
 * synchronization-epoch timeouts (§3.3), and ring drops (the AFU has no
 * back-pressure). Each record carries the pid, opcode and arguments of
 * the offending message where one exists, the measured verification
 * lag, and both wall-clock and monotonic timestamps, so a run's
 * violation log can be joined against its telemetry trace.
 *
 * Producers do not call the log directly: telemetry::emit() appends the
 * event kinds whose row in the event table (telemetry/events.h) says
 * so. The log is inert until opened: emit pays one relaxed atomic load.
 * Appends are mutex-serialized (violations are rare by construction —
 * a monitored program is killed or already compromised when they
 * fire), and the stream is flushed per record so a killed process
 * leaves a complete audit trail.
 */

#ifndef HQ_TELEMETRY_EVENT_LOG_H
#define HQ_TELEMETRY_EVENT_LOG_H

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "telemetry/events.h"

namespace hq {
namespace telemetry {

/** Process-global JSONL sink. open() activates it. */
class EventLog
{
  public:
    static EventLog &instance();

    /** Open (truncate) the sink; activates logging. */
    bool open(const std::string &path);

    /** Flush and deactivate. Safe to call when never opened. */
    void close();

    bool
    active() const
    {
        return detail::g_sinks.load(std::memory_order_relaxed) &
               detail::kSinkEventLog;
    }

    /** Append one record of JSONL type `type` (no-op while inactive). */
    void write(const char *type, const EventFields &fields);

    /** Records appended since open(). */
    std::uint64_t recorded() const
    {
        return _recorded.load(std::memory_order_relaxed);
    }

  private:
    EventLog() = default;

    std::atomic<std::uint64_t> _recorded{0};
    std::mutex _mutex;
    std::ofstream _out;
};

} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_EVENT_LOG_H
