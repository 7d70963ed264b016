/**
 * @file
 * hq_stat: live statsboard viewer.
 *
 * Attaches read-only to the shared-memory statsboard segment a running
 * HerQules process publishes (`--statsboard` flag; segment
 * /hq_stats.<pid> under /dev/shm) and renders its metrics without
 * perturbing the publisher: readers take no locks, only seqlock-retried
 * copies of a snapshot the publisher refreshes a few times per second.
 *
 * Usage:
 *   hq_stat                  attach to the only running board (or list)
 *   hq_stat --board=NAME     attach to a specific segment (e.g.
 *                            /hq_stats.1234 or hq_stats.1234)
 *   hq_stat --list           list discoverable live boards and exit
 *   hq_stat --json           dump one snapshot as JSON and exit
 *   hq_stat --watch[=MS]     top-style live view (default 1000 ms)
 *   hq_stat --prom[=FILE]    fleet mode: aggregate every live board
 *                            into one Prometheus text-exposition
 *                            snapshot (board_pid label per process),
 *                            written to FILE (node-exporter textfile
 *                            collector) or stdout
 *   hq_stat --prune          unlink orphaned segments whose publishing
 *                            process is dead, then exit
 */

#include <dirent.h>
#include <signal.h>
#include <sys/mman.h>

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/statsboard.h"

using hq::telemetry::BoardCounter;
using hq::telemetry::BoardGauge;
using hq::telemetry::BoardHistogram;
using hq::telemetry::prometheusText;
using hq::telemetry::PublishedSnapshot;
using hq::telemetry::StatsBoardReader;
using hq::telemetry::StatsBoardSnapshot;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/** Discoverable statsboard segments, as shm names ("/hq_stats.<pid>"). */
std::vector<std::string>
discoverBoards()
{
    std::vector<std::string> boards;
    DIR *dir = ::opendir("/dev/shm");
    if (dir == nullptr)
        return boards;
    while (const dirent *entry = ::readdir(dir)) {
        if (std::strncmp(entry->d_name, "hq_stats.", 9) == 0)
            boards.push_back(std::string("/") + entry->d_name);
    }
    ::closedir(dir);
    return boards;
}

/** Publishing pid encoded in a segment name ("/hq_stats.<pid>"); 0 when
 *  the suffix is not numeric. */
std::int32_t
boardPidFromName(const std::string &name)
{
    const std::size_t dot = name.rfind('.');
    if (dot == std::string::npos || dot + 1 >= name.size())
        return 0;
    char *end = nullptr;
    const long pid = std::strtol(name.c_str() + dot + 1, &end, 10);
    if (end == nullptr || *end != '\0' || pid <= 0)
        return 0;
    return static_cast<std::int32_t>(pid);
}

/** True when `pid` still exists (EPERM counts: alive but foreign). */
bool
pidAlive(std::int32_t pid)
{
    if (pid <= 0)
        return false;
    return ::kill(pid, 0) == 0 || errno == EPERM;
}

/** Live boards only: the publisher encodes its pid in the segment name
 *  (and in the region header), so a dead owner marks an orphan left by
 *  a crash — skip it rather than reporting stale metrics. */
std::vector<std::string>
discoverLiveBoards()
{
    std::vector<std::string> live;
    for (const std::string &name : discoverBoards()) {
        if (pidAlive(boardPidFromName(name)))
            live.push_back(name);
    }
    return live;
}

/** --prune: unlink segments whose publishing process is dead. */
int
pruneBoards()
{
    int pruned = 0;
    for (const std::string &name : discoverBoards()) {
        const std::int32_t pid = boardPidFromName(name);
        if (pidAlive(pid))
            continue;
        if (::shm_unlink(name.c_str()) == 0) {
            std::printf("pruned %s (pid %d dead)\n", name.c_str(), pid);
            ++pruned;
        } else {
            std::fprintf(stderr, "hq_stat: cannot unlink %s: %s\n",
                         name.c_str(), std::strerror(errno));
        }
    }
    std::printf("%d orphaned board(s) pruned\n", pruned);
    return 0;
}

const BoardCounter *
findCounter(const StatsBoardSnapshot &snap, const char *name)
{
    for (std::uint32_t i = 0; i < snap.n_counters; ++i)
        if (std::strcmp(snap.counters[i].name, name) == 0)
            return &snap.counters[i];
    return nullptr;
}

const BoardGauge *
findGauge(const StatsBoardSnapshot &snap, const char *name)
{
    for (std::uint32_t i = 0; i < snap.n_gauges; ++i)
        if (std::strcmp(snap.gauges[i].name, name) == 0)
            return &snap.gauges[i];
    return nullptr;
}

const BoardHistogram *
findHistogram(const StatsBoardSnapshot &snap, const char *name)
{
    for (std::uint32_t i = 0; i < snap.n_histograms; ++i)
        if (std::strcmp(snap.histograms[i].name, name) == 0)
            return &snap.histograms[i];
    return nullptr;
}

std::uint64_t
counterValue(const StatsBoardSnapshot &snap, const char *name)
{
    const BoardCounter *c = findCounter(snap, name);
    return c ? c->value : 0;
}

/** Render nanoseconds with an adaptive unit (ns/us/ms/s). */
std::string
fmtNs(double ns)
{
    char buf[32];
    if (ns < 1e3)
        std::snprintf(buf, sizeof buf, "%.0fns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
    else
        std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
    return buf;
}

void
printJson(const StatsBoardSnapshot &snap, std::int32_t pid)
{
    std::printf("{\"pid\":%d,\"publish_ns\":%" PRIu64
                ",\"wall_ms\":%" PRIu64 ",\"counters\":{",
                pid, snap.publish_ns, snap.wall_ms);
    for (std::uint32_t i = 0; i < snap.n_counters; ++i)
        std::printf("%s\"%s\":%" PRIu64, i ? "," : "",
                    snap.counters[i].name, snap.counters[i].value);
    std::printf("},\"gauges\":{");
    for (std::uint32_t i = 0; i < snap.n_gauges; ++i)
        std::printf("%s\"%s\":{\"value\":%" PRIu64 ",\"max\":%" PRIu64 "}",
                    i ? "," : "", snap.gauges[i].name,
                    snap.gauges[i].value, snap.gauges[i].max);
    std::printf("},\"histograms\":{");
    for (std::uint32_t i = 0; i < snap.n_histograms; ++i) {
        const BoardHistogram &h = snap.histograms[i];
        std::printf("%s\"%s\":{\"count\":%" PRIu64
                    ",\"mean\":%.1f,\"min\":%.1f,\"max\":%.1f,"
                    "\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f}",
                    i ? "," : "", h.name, h.count, h.mean, h.min, h.max,
                    h.p50, h.p90, h.p99);
    }
    std::printf("}}\n");
}

void
printFull(const StatsBoardSnapshot &snap, std::int32_t pid)
{
    std::printf("statsboard pid %d (published %" PRIu64 " ms wall)\n",
                pid, snap.wall_ms);
    std::printf("%-36s %15s\n", "counter", "value");
    for (std::uint32_t i = 0; i < snap.n_counters; ++i)
        std::printf("%-36s %15" PRIu64 "\n", snap.counters[i].name,
                    snap.counters[i].value);
    std::printf("\n%-36s %15s %15s\n", "gauge", "value", "max");
    for (std::uint32_t i = 0; i < snap.n_gauges; ++i)
        std::printf("%-36s %15" PRIu64 " %15" PRIu64 "\n",
                    snap.gauges[i].name, snap.gauges[i].value,
                    snap.gauges[i].max);
    std::printf("\n%-36s %12s %10s %10s %10s %10s\n", "histogram",
                "count", "mean", "p50", "p90", "p99");
    for (std::uint32_t i = 0; i < snap.n_histograms; ++i) {
        const BoardHistogram &h = snap.histograms[i];
        std::printf("%-36s %12" PRIu64 " %10s %10s %10s %10s\n", h.name,
                    h.count, fmtNs(h.mean).c_str(), fmtNs(h.p50).c_str(),
                    fmtNs(h.p90).c_str(), fmtNs(h.p99).c_str());
    }
}

/** One refresh of the --watch dashboard. */
void
printWatch(const StatsBoardSnapshot &snap, const StatsBoardSnapshot &prev,
           bool have_prev, std::int32_t pid)
{
    // ANSI clear + home; keeps the view top-style without curses.
    std::printf("\033[2J\033[H");
    std::printf("hq_stat -- pid %d -- wall %" PRIu64 " ms\n\n", pid,
                snap.wall_ms);

    const std::uint64_t msgs = counterValue(snap, "verifier.messages");
    double rate = 0;
    if (have_prev && snap.wall_ms > prev.wall_ms) {
        const std::uint64_t prev_msgs =
            counterValue(prev, "verifier.messages");
        rate = 1000.0 * static_cast<double>(msgs - prev_msgs) /
               static_cast<double>(snap.wall_ms - prev.wall_ms);
    }
    std::printf("  throughput     %12.0f msg/s   (total %" PRIu64 ")\n",
                rate, msgs);

    if (const BoardHistogram *lag = findHistogram(snap, "verifier.lag_ns"))
        std::printf("  verif. lag     p50 %s  p90 %s  p99 %s  (n=%" PRIu64
                    ")\n",
                    fmtNs(lag->p50).c_str(), fmtNs(lag->p90).c_str(),
                    fmtNs(lag->p99).c_str(), lag->count);
    if (const BoardGauge *hw = findGauge(snap, "verifier.lag_high_water_ns"))
        std::printf("  lag high-water %s   SLO breaches %" PRIu64 "\n",
                    fmtNs(static_cast<double>(hw->max)).c_str(),
                    counterValue(snap, "verifier.lag_slo_breaches"));
    if (const BoardHistogram *pause =
            findHistogram(snap, "kernel.syscall_pause_ns"))
        std::printf("  syscall pause  p50 %s  p99 %s  (n=%" PRIu64 ")\n",
                    fmtNs(pause->p50).c_str(), fmtNs(pause->p99).c_str(),
                    pause->count);

    std::printf("  violations     %12" PRIu64 "   epoch timeouts %" PRIu64
                "\n",
                counterValue(snap, "verifier.violations"),
                counterValue(snap, "kernel.epoch_timeouts"));
    std::printf("  stamp drops    %12" PRIu64 "\n\n",
                counterValue(snap, "ipc.lag_stamp_dropped"));

    std::printf("  %-34s %12s %12s\n", "ring occupancy", "now", "max");
    for (std::uint32_t i = 0; i < snap.n_gauges; ++i) {
        const BoardGauge &g = snap.gauges[i];
        if (std::strstr(g.name, "occupancy") == nullptr)
            continue;
        std::printf("  %-34s %12" PRIu64 " %12" PRIu64 "\n", g.name,
                    g.value, g.max);
    }
    std::printf("\n  (q/Ctrl-C to quit)\n");
    std::fflush(stdout);
}

// --- Fleet Prometheus aggregation ------------------------------------

/**
 * Fleet mode: one aggregated snapshot across every live board (or just
 * `board` when given). Written atomically enough for the textfile
 * collector: to a temp file renamed over FILE, or to stdout.
 */
int
promExport(const std::string &board, const std::string &file)
{
    std::vector<std::string> boards;
    if (!board.empty())
        boards.push_back(board);
    else
        boards = discoverLiveBoards();
    if (boards.empty()) {
        std::fprintf(stderr,
                     "hq_stat: no live statsboard segments in /dev/shm "
                     "(run the target with --statsboard)\n");
        return 1;
    }

    std::vector<PublishedSnapshot> snapshots;
    for (const std::string &name : boards) {
        StatsBoardReader reader(name);
        PublishedSnapshot &board = snapshots.emplace_back();
        if (!reader.valid() || !reader.read(board.snapshot)) {
            std::fprintf(stderr, "hq_stat: skipping %s (no snapshot)\n",
                         name.c_str());
            snapshots.pop_back();
            continue;
        }
        board.pid = reader.pid();
    }
    if (snapshots.empty()) {
        std::fprintf(stderr, "hq_stat: no board yielded a snapshot\n");
        return 1;
    }
    const std::string text = prometheusText(snapshots);

    if (file.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return 0;
    }
    const std::string tmp = file + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "hq_stat: cannot write %s: %s\n",
                     tmp.c_str(), std::strerror(errno));
        return 1;
    }
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    if (std::rename(tmp.c_str(), file.c_str()) != 0) {
        std::fprintf(stderr, "hq_stat: cannot rename %s -> %s: %s\n",
                     tmp.c_str(), file.c_str(), std::strerror(errno));
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string board;
    bool json = false;
    bool list = false;
    bool watch = false;
    bool prom = false;
    bool prune = false;
    std::string prom_file;
    long watch_ms = 1000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--board=", 0) == 0) {
            board = arg.substr(8);
            if (!board.empty() && board[0] != '/')
                board = "/" + board;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--prune") {
            prune = true;
        } else if (arg == "--prom") {
            prom = true;
        } else if (arg.rfind("--prom=", 0) == 0) {
            prom = true;
            prom_file = arg.substr(7);
        } else if (arg == "--watch") {
            watch = true;
        } else if (arg.rfind("--watch=", 0) == 0) {
            watch = true;
            watch_ms = std::strtol(arg.c_str() + 8, nullptr, 10);
            if (watch_ms < 50)
                watch_ms = 50;
        } else {
            std::fprintf(stderr,
                         "usage: hq_stat [--board=NAME] [--list] "
                         "[--json] [--watch[=MS]] [--prom[=FILE]] "
                         "[--prune]\n");
            return 2;
        }
    }

    if (prune)
        return pruneBoards();
    if (prom)
        return promExport(board, prom_file);

    const std::vector<std::string> boards = discoverLiveBoards();
    if (list) {
        for (const std::string &name : boards)
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (board.empty()) {
        if (boards.empty()) {
            std::fprintf(stderr,
                         "hq_stat: no statsboard segments in /dev/shm "
                         "(run the target with --statsboard)\n");
            return 1;
        }
        if (boards.size() > 1) {
            std::fprintf(stderr,
                         "hq_stat: multiple boards; pick one with "
                         "--board=NAME:\n");
            for (const std::string &name : boards)
                std::fprintf(stderr, "  %s\n", name.c_str());
            return 1;
        }
        board = boards.front();
    }

    StatsBoardReader reader(board);
    if (!reader.valid()) {
        std::fprintf(stderr, "hq_stat: cannot attach to %s\n",
                     board.c_str());
        return 1;
    }

    StatsBoardSnapshot snap;
    if (!reader.read(snap)) {
        std::fprintf(stderr, "hq_stat: no consistent snapshot from %s\n",
                     board.c_str());
        return 1;
    }

    if (!watch) {
        if (json)
            printJson(snap, reader.pid());
        else
            printFull(snap, reader.pid());
        return 0;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    StatsBoardSnapshot prev;
    bool have_prev = false;
    while (!g_stop) {
        if (reader.read(snap)) {
            printWatch(snap, prev, have_prev, reader.pid());
            prev = snap;
            have_prev = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
    }
    std::printf("\n");
    return 0;
}
