#include "telemetry/event_log.h"

#include <chrono>

#include "telemetry/flight_recorder.h"

namespace hq {
namespace telemetry {

namespace {

HQ_TELEMETRY_HANDLE(recordsCounter, Counter, "eventlog.records")

/** The registry counter of each event kind (nullptr: none). */
Counter *
eventCounter(Event kind)
{
    static Counter *const *counters = [] {
        static Counter *table[kEventKinds] = {};
        for (std::size_t i = 0; i < kEventKinds; ++i) {
            if (kEventSpecs[i].counter != nullptr)
                table[i] =
                    &Registry::instance().counter(kEventSpecs[i].counter);
        }
        return table;
    }();
    return counters[static_cast<std::size_t>(kind)];
}

} // namespace

namespace detail {

void
emitSlow(Event kind, std::uint32_t sinks, const EventFields &fields)
{
    const EventSpec &spec = eventSpec(kind);
    if ((sinks & kSinkTelemetry) && spec.counter != nullptr)
        eventCounter(kind)->inc();
    if ((sinks & kSinkEventLog) && spec.log)
        EventLog::instance().write(spec.name, fields);
    if ((sinks & (kSinkTelemetry | kSinkFlight)) &&
        spec.ring != RingAs::None) {
        flight::Record record;
        record.ts_ns = monotonicRawNs();
        record.pid = fields.pid;
        record.arg0 = fields.arg0;
        record.arg1 = fields.arg1;
        record.kind = static_cast<std::uint32_t>(kind);
        record.shard = fields.shard;
        flight::detail::append(record);
    }
    if (sinks & kSinkFlight) {
        if (spec.dump == Dump::Forced)
            flight::dump(spec.name);
        else if (spec.dump == Dump::Limited)
            flight::requestDump(kind);
    }
}

} // namespace detail

EventLog &
EventLog::instance()
{
    static EventLog log;
    return log;
}

bool
EventLog::open(const std::string &path)
{
    std::lock_guard<std::mutex> guard(_mutex);
    if (_out.is_open())
        _out.close();
    _out.open(path, std::ios::trunc);
    const bool ok = _out.is_open();
    _recorded.store(0, std::memory_order_relaxed);
    detail::setSink(detail::kSinkEventLog, ok);
    return ok;
}

void
EventLog::close()
{
    std::lock_guard<std::mutex> guard(_mutex);
    detail::setSink(detail::kSinkEventLog, false);
    if (_out.is_open()) {
        _out.flush();
        _out.close();
    }
}

namespace {

/** Escape the reason string for embedding in a JSON literal. */
void
appendEscaped(std::ofstream &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '"':
            out << "\\\"";
            break;
          case '\\':
            out << "\\\\";
            break;
          case '\n':
            out << "\\n";
            break;
          case '\t':
            out << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) >= 0x20)
                out << c;
        }
    }
}

} // namespace

void
EventLog::write(const char *type, const EventFields &fields)
{
    if (!active())
        return;
    const auto wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const std::uint64_t ts_ns = nowNs();

    std::lock_guard<std::mutex> guard(_mutex);
    if (!_out.is_open())
        return;
    _out << "{\"type\":\"" << type << "\",\"ts_wall_ms\":" << wall_ms
         << ",\"ts_ns\":" << ts_ns << ",\"pid\":" << fields.pid
         << ",\"shard\":" << fields.shard << ",\"policy\":\"";
    appendEscaped(_out, fields.policy);
    _out << "\",\"op\":\"";
    appendEscaped(_out, fields.op);
    _out << "\",\"arg0\":" << fields.arg0 << ",\"arg1\":" << fields.arg1
         << ",\"seq\":" << fields.seq << ",\"lag_ns\":" << fields.lag_ns
         << ",\"reason\":\"";
    appendEscaped(_out, fields.reason);
    _out << "\"}\n";
    // Flush per record: violations usually precede a kill, and a
    // truncated audit line defeats the log's purpose.
    _out.flush();
    _recorded.fetch_add(1, std::memory_order_relaxed);
    recordsCounter().inc();
}

} // namespace telemetry
} // namespace hq
