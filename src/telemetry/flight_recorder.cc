#include "telemetry/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <mutex>

#include "telemetry/events.h"

namespace hq {
namespace telemetry {
namespace flight {

namespace {

HQ_TELEMETRY_HANDLE(droppedCounter, Counter, "flight.dropped_records")

constexpr std::size_t kWordsPerRecord = sizeof(Record) / sizeof(std::uint64_t);

/**
 * One thread's ring. Records live as relaxed-atomic 64-bit words so the
 * exporters may read while the owner writes: the race is benign and
 * defined, and tearing is confined to the slot being overwritten.
 */
struct Ring
{
    std::atomic<std::uint64_t> next{0}; //!< records ever written
    std::atomic<bool> used{false};      //!< ever owned by a thread
    std::atomic<std::uint64_t> words[kRecordsPerThread * kWordsPerRecord];
};

// Static pool: zero-page-backed until a thread actually records.
Ring g_rings[kMaxThreads];
std::atomic<std::uint32_t> g_slot_taken[kMaxThreads];

/** Claims a ring slot for the thread's lifetime; releases on exit so
 *  short-lived threads recycle slots (their records persist until the
 *  next owner overwrites them). */
struct SlotOwner
{
    int slot = -1;

    SlotOwner()
    {
        for (std::size_t i = 0; i < kMaxThreads; ++i) {
            std::uint32_t expected = 0;
            if (g_slot_taken[i].compare_exchange_strong(
                    expected, 1, std::memory_order_acq_rel)) {
                slot = static_cast<int>(i);
                g_rings[i].used.store(true, std::memory_order_relaxed);
                return;
            }
        }
    }

    ~SlotOwner()
    {
        if (slot >= 0)
            g_slot_taken[slot].store(0, std::memory_order_release);
    }
};

int
threadSlot()
{
    thread_local SlotOwner owner;
    return owner.slot;
}

// --- Dump file state -------------------------------------------------

std::mutex g_dump_mutex;      //!< serializes configure() and dump()
std::atomic<int> g_fd{-1};    //!< kept open for the signal-safe path
std::string g_path;           //!< guarded by g_dump_mutex
/// Last requestDump() per HQ_TELEMETRY_EVENTS row (0 = never).
std::atomic<std::uint64_t> g_last_dump_ns[kEventKinds];

// --- Manual formatting (shared by dump() and the signal path) --------
//
// No snprintf: the signal-safe dump may run inside a SIGSEGV handler,
// so every formatter below touches only its arguments and the caller's
// stack buffer.

char *
appendLiteral(char *out, const char *end, const char *text)
{
    while (*text != '\0' && out < end)
        *out++ = *text++;
    return out;
}

char *
appendU64(char *out, const char *end, std::uint64_t value)
{
    char digits[20];
    std::size_t n = 0;
    do {
        digits[n++] = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value != 0);
    while (n > 0 && out < end)
        *out++ = digits[--n];
    return out;
}

char *
appendI64(char *out, const char *end, std::int64_t value)
{
    if (value < 0) {
        if (out < end)
            *out++ = '-';
        return appendU64(out, end, static_cast<std::uint64_t>(-value));
    }
    return appendU64(out, end, static_cast<std::uint64_t>(value));
}

/** Copy `text` dropping anything that would need JSON escaping. */
char *
appendSanitized(char *out, const char *end, const char *text)
{
    for (; *text != '\0'; ++text) {
        const unsigned char c = static_cast<unsigned char>(*text);
        if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && out < end)
            *out++ = static_cast<char>(c);
    }
    return out;
}

/** One `flight_record` JSONL line (keys in fixed schema order). */
std::size_t
formatRecordLine(char *buf, std::size_t cap, const Record &r)
{
    char *out = buf;
    const char *end = buf + cap - 1; // room for '\n'
    out = appendLiteral(out, end, "{\"type\":\"flight_record\",\"ts_ns\":");
    out = appendU64(out, end, r.ts_ns);
    out = appendLiteral(out, end, ",\"thread\":");
    out = appendU64(out, end, r.thread);
    out = appendLiteral(out, end, ",\"seq\":");
    out = appendU64(out, end, r.seq);
    const EventSpec &spec = eventSpec(static_cast<Event>(r.kind));
    out = appendLiteral(out, end, ",\"subsystem\":\"");
    out = appendSanitized(out, end, spec.subsystem);
    out = appendLiteral(out, end, "\",\"code\":\"");
    out = appendSanitized(out, end, spec.ring_name);
    out = appendLiteral(out, end, "\",\"pid\":");
    out = appendU64(out, end, r.pid);
    out = appendLiteral(out, end, ",\"shard\":");
    out = appendI64(out, end, r.shard);
    out = appendLiteral(out, end, ",\"arg0\":");
    out = appendU64(out, end, r.arg0);
    out = appendLiteral(out, end, ",\"arg1\":");
    out = appendU64(out, end, r.arg1);
    out = appendLiteral(out, end, "}");
    *out++ = '\n';
    return static_cast<std::size_t>(out - buf);
}

/** One `flight_header` JSONL line. */
std::size_t
formatHeaderLine(char *buf, std::size_t cap, const char *trigger,
                 std::size_t records)
{
    char *out = buf;
    const char *end = buf + cap - 1;
    out = appendLiteral(out, end,
                        "{\"type\":\"flight_header\",\"trigger\":\"");
    out = appendSanitized(out, end, trigger);
    out = appendLiteral(out, end, "\",\"ts_wall_ms\":");
    // time(2) is async-signal-safe; millisecond precision is not needed
    // for a crash header, second granularity keys the join.
    out = appendU64(out, end,
                    static_cast<std::uint64_t>(::time(nullptr)) * 1000u);
    out = appendLiteral(out, end, ",\"pid\":");
    out = appendU64(out, end, static_cast<std::uint64_t>(::getpid()));
    out = appendLiteral(out, end, ",\"records\":");
    out = appendU64(out, end, records);
    out = appendLiteral(out, end, "}");
    *out++ = '\n';
    return static_cast<std::size_t>(out - buf);
}

/** Read one record out of a ring slot (relaxed word loads). */
Record
loadRecord(const Ring &ring, std::uint64_t index)
{
    std::uint64_t words[kWordsPerRecord];
    const std::size_t base =
        (index & (kRecordsPerThread - 1)) * kWordsPerRecord;
    for (std::size_t w = 0; w < kWordsPerRecord; ++w)
        words[w] = ring.words[base + w].load(std::memory_order_relaxed);
    Record record;
    std::memcpy(&record, words, sizeof(record));
    return record;
}

/** The slice [lo, hi) of one ring that an exporter reads, holding
 *  `count` records of the exporter's view. */
struct Window
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::size_t count = 0;
};

/** The flight view (newest kDumpRecordsPerThread event records) or the
 *  whole retained ring. Signal-safe. */
Window
ringWindow(const Ring &ring, bool events_only)
{
    Window w;
    w.hi = ring.next.load(std::memory_order_acquire);
    const std::uint64_t oldest =
        w.hi > kRecordsPerThread ? w.hi - kRecordsPerThread : 0;
    if (!events_only) {
        w.lo = oldest;
        w.count = static_cast<std::size_t>(w.hi - oldest);
        return w;
    }
    w.lo = w.hi;
    while (w.lo > oldest && w.count < kDumpRecordsPerThread) {
        if (isEventRecord(loadRecord(ring, --w.lo)))
            ++w.count;
    }
    return w;
}

/** Calls visit(record) on each record of the window's view. */
template <typename Visit>
void
forEachRecord(const Ring &ring, const Window &w, bool events_only,
              Visit &&visit)
{
    for (std::uint64_t k = w.lo; k < w.hi; ++k) {
        const Record record = loadRecord(ring, k);
        if (!events_only || isEventRecord(record))
            visit(record);
    }
}

/** One view of every ring, merged oldest-first. */
std::vector<Record>
collectRecords(bool events_only)
{
    std::vector<Record> out;
    for (const Ring &ring : g_rings) {
        if (!ring.used.load(std::memory_order_relaxed))
            continue;
        forEachRecord(ring, ringWindow(ring, events_only), events_only,
                      [&out](const Record &r) { out.push_back(r); });
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Record &a, const Record &b) {
                         return a.ts_ns < b.ts_ns;
                     });
    return out;
}

bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

constexpr std::size_t kLineCap = 320;

} // namespace

namespace detail {

void
append(Record record)
{
    const int slot = threadSlot();
    if (slot < 0) {
        droppedCounter().inc();
        return;
    }
    Ring &ring = g_rings[slot];
    // The owner is the ring's only writer: publish the cursor after the
    // slot so readers see whole records (bar a wrap-around overwrite).
    const std::uint64_t index = ring.next.load(std::memory_order_relaxed);
    record.seq = index;
    record.thread = static_cast<std::uint32_t>(slot);
    std::uint64_t words[kWordsPerRecord];
    std::memcpy(words, &record, sizeof(record));
    const std::size_t base =
        (index & (kRecordsPerThread - 1)) * kWordsPerRecord;
    for (std::size_t w = 0; w < kWordsPerRecord; ++w)
        ring.words[base + w].store(words[w], std::memory_order_relaxed);
    ring.next.store(index + 1, std::memory_order_release);
}

} // namespace detail

void
setEnabled(bool on)
{
    telemetry::detail::setSink(telemetry::detail::kSinkFlight, on);
}

bool
configure(const std::string &path)
{
    std::lock_guard<std::mutex> guard(g_dump_mutex);
    const int old_fd = g_fd.exchange(-1, std::memory_order_relaxed);
    if (old_fd >= 0)
        ::close(old_fd);
    g_path.clear();
    if (path.empty())
        return true;
    // O_APPEND: the signal-safe path and repeated triggered dumps all
    // append to one per-run stream.
    const int fd =
        ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_APPEND, 0644);
    if (fd < 0)
        return false;
    g_path = path;
    g_fd.store(fd, std::memory_order_relaxed);
    return true;
}

std::string
dumpPath()
{
    std::lock_guard<std::mutex> guard(g_dump_mutex);
    return g_path;
}

std::vector<Record>
snapshot()
{
    return collectRecords(true);
}

std::vector<Record>
snapshotAll()
{
    return collectRecords(false);
}

std::size_t
dump(const char *trigger)
{
    std::size_t written = 0;
    {
        std::lock_guard<std::mutex> guard(g_dump_mutex);
        const int fd = g_fd.load(std::memory_order_relaxed);
        if (fd < 0)
            return 0;
        const std::vector<Record> records = snapshot();
        std::string out;
        out.reserve((records.size() + 1) * 160);
        char line[kLineCap];
        out.append(line, formatHeaderLine(line, sizeof(line), trigger,
                                          records.size()));
        for (const Record &r : records)
            out.append(line, formatRecordLine(line, sizeof(line), r));
        writeAll(fd, out.data(), out.size());
        written = records.size();
    }
    emit(Event::FlightDump, {.arg0 = written, .reason = trigger});
    return written;
}

void
requestDump(Event kind)
{
    if (!enabled() || g_fd.load(std::memory_order_relaxed) < 0)
        return;
    constexpr std::uint64_t kMinGapNs = 1'000'000'000; // 1 dump/sec
    std::atomic<std::uint64_t> &last_dump =
        g_last_dump_ns[static_cast<std::size_t>(kind)];
    const std::uint64_t now = monotonicRawNs();
    std::uint64_t last = last_dump.load(std::memory_order_relaxed);
    if (last != 0 && now - last < kMinGapNs)
        return;
    // One requester wins the window; the losers' triggers were within
    // the last second of the dump that does land for the same kind.
    if (!last_dump.compare_exchange_strong(last, now,
                                           std::memory_order_relaxed))
        return;
    dump(eventSpec(kind).name);
}

void
dumpSignalSafe(int fd, const char *trigger)
{
    if (fd < 0)
        return;
    // Fix each ring's window first so the header's count matches the
    // lines below even while other threads keep recording.
    Window windows[kMaxThreads];
    std::size_t total = 0;
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
        if (!g_rings[i].used.load(std::memory_order_relaxed))
            continue;
        windows[i] = ringWindow(g_rings[i], true);
        total += windows[i].count;
    }
    char line[kLineCap];
    writeAll(fd, line, formatHeaderLine(line, sizeof(line), trigger, total));
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
        forEachRecord(g_rings[i], windows[i], true, [&](const Record &r) {
            writeAll(fd, line, formatRecordLine(line, sizeof(line), r));
        });
    }
}

namespace {

extern "C" void
fatalSignalHandler(int signum)
{
    const int fd = g_fd.load(std::memory_order_relaxed);
    if (fd >= 0)
        dumpSignalSafe(fd, "fatal signal");
    // SA_RESETHAND restored the default disposition; re-raise so the
    // process still dies with the original signal (core dumps intact).
    ::raise(signum);
}

} // namespace

void
installFatalSignalDump()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = fatalSignalHandler;
    action.sa_flags = SA_RESETHAND | SA_NODEFER;
    sigemptyset(&action.sa_mask);
    for (int signum : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
        ::sigaction(signum, &action, nullptr);
}

std::uint64_t
recordsWritten()
{
    std::uint64_t total = 0;
    for (const Ring &ring : g_rings)
        total += ring.next.load(std::memory_order_relaxed);
    return total;
}

std::size_t
ringsClaimed()
{
    std::size_t claimed = 0;
    for (const Ring &ring : g_rings)
        claimed += ring.used.load(std::memory_order_relaxed) ? 1 : 0;
    return claimed;
}

void
resetForTest()
{
    std::lock_guard<std::mutex> guard(g_dump_mutex);
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
        Ring &ring = g_rings[i];
        if (!ring.used.load(std::memory_order_relaxed))
            continue;
        ring.next.store(0, std::memory_order_relaxed);
        ring.used.store(g_slot_taken[i].load(std::memory_order_relaxed) != 0,
                        std::memory_order_relaxed);
    }
    for (std::atomic<std::uint64_t> &last_dump : g_last_dump_ns)
        last_dump.store(0, std::memory_order_relaxed);
}

} // namespace flight
} // namespace telemetry
} // namespace hq
