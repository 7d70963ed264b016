/**
 * @file
 * The NGINX-like server workload: an event loop dispatching requests
 * through function-pointer module handlers with a high system-call
 * rate. Prints request throughput under the baseline and each HQ-CFI
 * variant — the NGINX bars of Figures 3 and 5.
 *
 * Gating flags exercise the async-ack pipeline (DESIGN.md §13):
 *   --gating=strict|spec             kernel gate mode for the table run
 *   --spec-window=K                  speculation window for spec mode
 *                                    (--gating=spec --spec-window=1
 *                                    runs one syscall ahead of acks)
 *   --elide-ro                       elide read-only syscalls (§5.3.3)
 *   --latency-sweep[=FILE]           p50/p99 syscall-pause sweep across
 *                                    strict/spec-K/elide-ro,
 *                                    written as hq-latency-bench/1 JSON
 *                                    (scripts/analyze_telemetry.py
 *                                    latency gates the p99 speedup)
 *
 * Build: cmake --build build && ./build/examples/nginx_sim
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "faultinject/fault.h"
#include "telemetry/telemetry.h"
#include "workloads/runner.h"

using namespace hq;

namespace {

struct GatingMode
{
    const char *name;
    std::size_t speculation_window;
    bool elide_readonly;
};

struct ModeResult
{
    double p50_ns = 0.0;
    double p99_ns = 0.0;
    std::uint64_t pause_samples = 0;
    std::uint64_t acks_batched = 0;
    double requests_per_sec = 0.0;
    BenchmarkOutcome outcome;
};

ModeResult
runGatingMode(const GatingMode &mode, double scale, std::size_t num_shards)
{
    // Fresh metric values per mode so the pause histogram holds exactly
    // this mode's samples (registrations survive the reset).
    telemetry::Registry::instance().reset();

    RunnerOptions options;
    options.scale = scale;
    options.num_shards = num_shards;
    options.speculation_window = mode.speculation_window;
    options.elide_readonly = mode.elide_readonly;
    WorkloadRunner runner(options);
    const SpecProfile &nginx = specProfile("nginx");

    ModeResult result;
    result.outcome = runner.run(nginx, CfiDesign::HqRetPtr);
    const auto &hist = telemetry::Registry::instance().histogram(
        "kernel.syscall_pause_ns");
    result.p50_ns = hist.percentile(50);
    result.p99_ns = hist.percentile(99);
    result.pause_samples = hist.count();
    result.acks_batched = telemetry::Registry::instance()
                              .counter("verifier.acks_batched")
                              .value();
    const double requests = static_cast<double>(nginx.work_items) * scale;
    result.requests_per_sec = result.outcome.seconds > 0
                                  ? requests / result.outcome.seconds
                                  : 0.0;
    return result;
}

int
runLatencySweep(double scale, std::size_t num_shards,
                std::size_t spec_window, const char *json_path)
{
    // The sweep needs the pause histogram regardless of --telemetry-out.
    telemetry::setEnabled(true);

    const GatingMode modes[] = {
        {"strict", 0, false},
        {"spec", spec_window, false},
        // nginx's request loop issues write-like syscalls only, so
        // elide-ro reports strict-equivalent numbers here; the mode is
        // swept so read-only-heavy profiles can reuse this harness.
        {"elide_ro", 0, true},
    };
    constexpr int kModes = sizeof(modes) / sizeof(modes[0]);

    std::printf("=== Gating latency sweep (scale %.2f, %zu shard%s, "
                "spec window %zu) ===\n",
                scale, num_shards, num_shards == 1 ? "" : "s",
                spec_window);
    std::printf("%-10s %10s %10s %10s %12s %8s %8s %8s\n", "mode",
                "p50(ns)", "p99(ns)", "samples", "requests/s", "waits",
                "spec", "depth");

    ModeResult results[kModes];
    bool ok = true;
    for (int i = 0; i < kModes; ++i) {
        results[i] = runGatingMode(modes[i], scale, num_shards);
        const ModeResult &r = results[i];
        // Any violation/kill on this benign workload is a failed run.
        if (!r.outcome.ok || r.pause_samples == 0)
            ok = false;
        std::printf("%-10s %10.0f %10.0f %10llu %12.0f %8llu %8llu "
                    "%8llu\n",
                    modes[i].name, r.p50_ns, r.p99_ns,
                    static_cast<unsigned long long>(r.pause_samples),
                    r.requests_per_sec,
                    static_cast<unsigned long long>(
                        r.outcome.syscall_waits),
                    static_cast<unsigned long long>(
                        r.outcome.spec_syscalls),
                    static_cast<unsigned long long>(
                        r.outcome.max_spec_depth));
    }

    if (json_path != nullptr && json_path[0] != '\0') {
        std::FILE *out = std::fopen(json_path, "w");
        if (out == nullptr) {
            std::fprintf(stderr, "nginx_sim: cannot write %s\n",
                         json_path);
            return 1;
        }
        std::fprintf(out,
                     "{\n  \"schema\": \"hq-latency-bench/1\",\n"
                     "  \"scale\": %.4f,\n  \"num_shards\": %zu,\n"
                     "  \"spec_window\": %zu,\n  \"modes\": {\n",
                     scale, num_shards, spec_window);
        for (int i = 0; i < kModes; ++i) {
            const ModeResult &r = results[i];
            std::fprintf(
                out,
                "    \"%s\": {\"p50_ns\": %.1f, \"p99_ns\": %.1f, "
                "\"pause_samples\": %llu, \"requests_per_sec\": %.1f, "
                "\"syscalls\": %llu, \"waits\": %llu, "
                "\"spec_syscalls\": %llu, \"max_spec_depth\": %llu}%s\n",
                modes[i].name, r.p50_ns, r.p99_ns,
                static_cast<unsigned long long>(r.pause_samples),
                r.requests_per_sec,
                static_cast<unsigned long long>(r.outcome.syscalls),
                static_cast<unsigned long long>(r.outcome.syscall_waits),
                static_cast<unsigned long long>(r.outcome.spec_syscalls),
                static_cast<unsigned long long>(
                    r.outcome.max_spec_depth),
                i + 1 < kModes ? "," : "");
        }
        std::fprintf(out, "  },\n  \"ok\": %s\n}\n",
                     ok ? "true" : "false");
        std::fclose(out);
        std::printf("\nwrote %s\n", json_path);
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    telemetry::handleBenchArgs(argc, argv);
    faultinject::handleArgs(argc, argv);
    setLogLevel(LogLevel::Error);

    double scale = 1.0;
    std::size_t num_shards = 1;
    bool health_enabled = false;
    bool elide_ro = false;
    std::size_t spec_window = 4;
    const char *gating = "strict";
    bool latency_sweep = false;
    const char *sweep_json = "";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--shards=", 9) == 0)
            num_shards = static_cast<std::size_t>(
                std::strtoul(argv[i] + 9, nullptr, 10));
        else if (std::strcmp(argv[i], "--health") == 0)
            health_enabled = true;
        else if (std::strcmp(argv[i], "--elide-ro") == 0)
            elide_ro = true;
        else if (std::strncmp(argv[i], "--gating=", 9) == 0)
            gating = argv[i] + 9;
        else if (std::strncmp(argv[i], "--spec-window=", 14) == 0)
            spec_window = static_cast<std::size_t>(
                std::strtoul(argv[i] + 14, nullptr, 10));
        else if (std::strcmp(argv[i], "--latency-sweep") == 0)
            latency_sweep = true;
        else if (std::strncmp(argv[i], "--latency-sweep=", 16) == 0) {
            latency_sweep = true;
            sweep_json = argv[i] + 16;
        } else if (argv[i][0] != '-') {
            char *end = nullptr;
            scale = std::strtod(argv[i], &end);
            if (*end != '\0' || !(scale > 0.0)) {
                std::fprintf(stderr, "nginx_sim: bad scale %s\n", argv[i]);
                return 2;
            }
        } else {
            // A misspelt or retired flag must not quietly run another
            // mode.
            std::fprintf(stderr, "nginx_sim: unknown flag %s\n", argv[i]);
            return 2;
        }
    }

    if (latency_sweep)
        return runLatencySweep(scale, num_shards, spec_window,
                               sweep_json);

    RunnerOptions options;
    options.scale = scale;
    options.num_shards = num_shards;
    options.health_enabled = health_enabled;
    options.elide_readonly = elide_ro;
    if (std::strcmp(gating, "spec") == 0)
        options.speculation_window = spec_window;
    else if (std::strcmp(gating, "strict") != 0) {
        std::fprintf(stderr,
                     "nginx_sim: unknown --gating=%s (strict|spec)\n",
                     gating);
        return 2;
    }
    WorkloadRunner runner(options);
    const SpecProfile &nginx = specProfile("nginx");

    std::printf("Simulated NGINX: request throughput under CFI designs "
                "(scale %.2f, %zu shard%s, gating %s)\n\n",
                scale, num_shards, num_shards == 1 ? "" : "s", gating);
    std::printf("%-18s %14s %12s %10s\n", "Design", "requests/s",
                "messages", "syscalls");

    for (CfiDesign design :
         {CfiDesign::Baseline, CfiDesign::HqSfeStk, CfiDesign::HqRetPtr,
          CfiDesign::ClangCfi, CfiDesign::Cpi}) {
        const BenchmarkOutcome outcome = runner.run(nginx, design);
        const double requests =
            static_cast<double>(nginx.work_items) * scale;
        std::printf("%-18s %14.0f %12llu %10llu\n",
                    designInfo(design).name.c_str(),
                    outcome.seconds > 0 ? requests / outcome.seconds : 0,
                    static_cast<unsigned long long>(outcome.messages_sent),
                    static_cast<unsigned long long>(outcome.syscalls));
    }

    std::printf("\nEach request dispatches through writable module "
                "handler pointers and\nends in a system call, so both "
                "the pointer checks and the System-Call\n"
                "synchronization are on the hot path.\n");

    if (faultinject::armed()) {
        // Single-process workload: faults and detectors share one
        // registry, so the silent-accept audit runs directly.
        const int silent = faultinject::emitAuditRecords();
        std::printf("\nchaos: [%s]\n",
                    faultinject::FaultPlan::instance().describe().c_str());
        std::printf("chaos: silent accepts %d -> %s\n", silent,
                    silent == 0 ? "every injected fault detected or "
                                  "safely denied"
                                : "CHAOS FAILURE");
        return silent == 0 ? 0 : 1;
    }
    return 0;
}
