#include "telemetry/trace.h"

#include <cstdio>
#include <sstream>

#include "telemetry/flight_recorder.h"

namespace hq {
namespace telemetry {

void
detail::traceRecord(char phase, const char *name, std::uint64_t ts_ns,
                    std::uint64_t value)
{
    flight::Record record;
    record.ts_ns = ts_ns;
    record.arg0 = value;
    record.name = name;
    record.phase = phase;
    flight::detail::append(record);
}

std::string
chromeTraceJson()
{
    const std::uint64_t epoch = epochRawNs();
    std::ostringstream os;
    os << "[";
    bool first = true;
    char buf[64];
    for (const flight::Record &r : flight::snapshotAll()) {
        const char *name = r.name;
        const char *cat = "hq";
        char phase = r.phase;
        if (flight::isEventRecord(r)) {
            const EventSpec &spec = eventSpec(static_cast<Event>(r.kind));
            name = spec.ring_name;
            cat = spec.subsystem;
            phase = spec.ring == RingAs::Counter ? 'C' : 'i';
        } else if (phase == 0 || name == nullptr) {
            continue; // torn or unknown record
        }
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
           << "\",\"ph\":\"" << phase << "\",\"pid\":1,\"tid\":"
           << r.thread;
        const std::uint64_t ts = r.ts_ns > epoch ? r.ts_ns - epoch : 0;
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                      static_cast<double>(ts) / 1000.0);
        os << buf;
        if (phase == 'X') {
            std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                          static_cast<double>(r.arg0) / 1000.0);
            os << buf;
        } else if (phase == 'C') {
            os << ",\"args\":{\"value\":" << r.arg0 << "}";
        } else if (phase == 'i') {
            os << ",\"s\":\"t\"";
            if (r.phase == 0)
                os << ",\"args\":{\"pid\":" << r.pid << ",\"shard\":"
                   << r.shard << ",\"arg0\":" << r.arg0
                   << ",\"arg1\":" << r.arg1 << "}";
        } else if (phase == 's' || phase == 'f') {
            // Flow events pair by (cat, name, id); "bp":"e" binds the
            // finish to the enclosing slice, which Perfetto requires to
            // draw the arrow into the verifier's check slice.
            std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                          static_cast<unsigned long long>(r.arg0));
            os << buf;
            if (phase == 'f')
                os << ",\"bp\":\"e\"";
        }
        os << "}";
    }
    os << "]";
    return os.str();
}

} // namespace telemetry
} // namespace hq
