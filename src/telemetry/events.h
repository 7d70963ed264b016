/**
 * @file
 * The one event table. Every security and pipeline event that the
 * kernel module, the verifier, the fault injector, the AFU and the
 * health watchdog raise is one row of HQ_TELEMETRY_EVENTS, and every
 * site reports it with one telemetry::emit() call. The row decides the
 * fan-out, so one kind behaves the same wherever it is raised:
 *
 *   X(Kind, name, ring_name, subsystem, log, ring, dump, counter)
 *
 *  - name: the JSONL event-log "type"; also the trigger of the flight
 *    dumps the kind requests.
 *  - ring_name: the flight_record "code" and Chrome trace event name
 *    (nullptr: same as name).
 *  - subsystem: the flight_record "subsystem".
 *  - log: appended to the JSONL event log while it is open.
 *  - ring: None, or written to the calling thread's record ring while
 *    telemetry or the flight recorder is on, and drawn on the Chrome
 *    trace as an Instant or as a Counter track of arg0.
 *  - dump: None, Limited (flight::requestDump, at most one per second
 *    per row) or Forced (flight::dump) while the flight recorder is on.
 *  - counter: global registry counter bumped while telemetry is on
 *    (nullptr: none).
 *
 * scripts/analyze_telemetry.py's EVENT_KINDS must list every logged
 * name; tests/test_observability.cc checks that it does.
 */

#ifndef HQ_TELEMETRY_EVENTS_H
#define HQ_TELEMETRY_EVENTS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "telemetry/telemetry.h"

#define HQ_TELEMETRY_EVENTS(X)                                                 \
    /* --- Verifier */                                                         \
    X(DrainBatch, "drain_batch", nullptr, "verifier", false, Counter, None,    \
      nullptr) /* arg0 = messages drained, arg1 = channel id */                \
    X(SyscallAck, "syscall_ack", nullptr, "verifier", false, Instant, None,    \
      "verifier.syscall_acks") /* arg0 = acks so far for pid */                \
    X(SloBreach, "slo_breach", nullptr, "verifier", false, Instant, Limited,   \
      "verifier.lag_slo_breaches") /* arg0 = latency, arg1 = SLO (ns) */       \
    X(Violation, "violation", nullptr, "verifier", true, Instant, Limited,     \
      "verifier.violations") /* failed check; the message's fields */          \
    X(SeqGap, "seq_gap", "violation", "verifier", true, Instant, Limited,      \
      "verifier.violations") /* FPGA sequence gap (lost messages) */           \
    X(CorruptMsg, "corrupt_msg", "violation", "verifier", true, Instant,       \
      Limited, "verifier.violations") /* CRC guard failed (bit flip) */        \
    /* --- Kernel module */                                                    \
    X(EpochTimeout, "epoch_timeout", nullptr, "kernel", true, Instant,         \
      Limited, "kernel.epoch_timeouts") /* arg0 = sysno, arg1 = epoch ns */    \
    X(ProcessKilled, "process_killed", nullptr, "kernel", false, Instant,      \
      None, nullptr) /* arg0 = unacked System-Call depth */                    \
    X(SpecKill, "spec_kill", nullptr, "kernel", true, None, None,              \
      nullptr) /* kill in the window; arg0 = depth, arg1 = window */           \
    X(SyscallResume, "syscall_resume", nullptr, "kernel", false, Instant,      \
      None, nullptr) /* arg0 = acks delivered, arg1 = acks credited */         \
    X(VerifierRestart, "verifier_restart", nullptr, "kernel", true, Instant,   \
      None, nullptr) /* arg0 = live pids replayed */                           \
    /* --- Device, fault injection, health, flight recorder */                 \
    X(RingDrop, "ring_drop", nullptr, "fpga", true, Instant, None,             \
      "fpga.dropped") /* host buffer full: the message is lost */              \
    X(FaultInjected, "fault_injected", nullptr, "fault", false, Instant,       \
      Limited, nullptr) /* arg0 = site index, arg1 = injections */             \
    X(SilentAccept, "silent_accept", nullptr, "fault", true, Instant, None,    \
      nullptr) /* no detector fired; arg0 = injections */                      \
    X(HealthChange, "health_change", "health_transition", "health", true,      \
      Instant, None, "verifier.health_transitions") /* arg0/1 = from/to */     \
    X(ShardStalled, "health_change", "health_transition", "health", true,      \
      Instant, Forced, "verifier.health_transitions") /* to = STALLED */       \
    X(FlightDump, "flight_dump", nullptr, "flight", true, None, None,          \
      "flight.dumps") /* arg0 = records, reason = trigger */

namespace hq {
namespace telemetry {

enum class Event : std::uint32_t {
#define HQ_EVENT_ENUM(kind, ...) kind,
    HQ_TELEMETRY_EVENTS(HQ_EVENT_ENUM)
#undef HQ_EVENT_ENUM
};

enum class RingAs : std::uint8_t { None, Instant, Counter };
enum class Dump : std::uint8_t { None, Limited, Forced };

/** One row of HQ_TELEMETRY_EVENTS. */
struct EventSpec
{
    const char *name;
    const char *ring_name;
    const char *subsystem;
    bool log;
    RingAs ring;
    Dump dump;
    const char *counter;
};

constexpr const char *
orName(const char *name, const char *fallback)
{
    return name != nullptr ? name : fallback;
}

/** HQ_TELEMETRY_EVENTS as data, indexed by Event. */
inline constexpr EventSpec kEventSpecs[] = {
#define HQ_EVENT_SPEC(kind, name, ring_name, subsystem, log, ring, dump,    \
                      counter)                                             \
    {name, orName(ring_name, name), subsystem, log, RingAs::ring,          \
     Dump::dump, counter},
    HQ_TELEMETRY_EVENTS(HQ_EVENT_SPEC)
#undef HQ_EVENT_SPEC
};

inline constexpr std::size_t kEventKinds =
    sizeof(kEventSpecs) / sizeof(kEventSpecs[0]);

inline const EventSpec &
eventSpec(Event kind)
{
    return kEventSpecs[static_cast<std::size_t>(kind)];
}

/**
 * What one event carries. Every sink writes pid, shard, arg0 and arg1;
 * the event log also writes policy, op, seq, lag_ns and reason. Fields
 * left out are written as 0 / -1 / "".
 */
struct EventFields
{
    Pid pid = 0;
    /// Verifier shard that owns pid's state (-1 when not the verifier).
    std::int32_t shard = -1;
    /// Policy family of a verdict ("cfi", "ifc", ...); "transport" for
    /// integrity failures (CRC, seq gap).
    std::string_view policy = {};
    std::string_view op = {}; //!< opcode name of the offending message
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint32_t seq = 0;
    std::uint64_t lag_ns = 0; //!< verification lag when known
    std::string_view reason = {};
};

namespace detail {
void emitSlow(Event kind, std::uint32_t sinks, const EventFields &fields);
} // namespace detail

/** Report one event to every sink its table row names. One relaxed
 *  load when every sink is off. */
inline void
emit(Event kind, const EventFields &fields = {})
{
    const std::uint32_t sinks =
        detail::g_sinks.load(std::memory_order_relaxed);
    if (sinks != 0)
        detail::emitSlow(kind, sinks, fields);
}

} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_EVENTS_H
