/**
 * @file
 * hq_perfbench: one workload per invocation.
 *
 *   hq_perfbench --workload <spec-mix|nginx-gate|verify-replay>
 *                --seed N --seconds S --trace 0|1
 *                [--smoke] [--trace-out FILE] [--commit SHA]
 *                [--print-draw]
 *   hq_perfbench --quartiles V...   (prints q1 median q3)
 *
 * Prints a "# detail" JSON line (environment, quartiles of the in-run
 * trials, failure reasons) and, last, the result line:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 * Exits 0 when the run completed, whether or not it was correct.
 */

#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/crc32.h"
#include "common/log.h"
#include "telemetry/telemetry.h"

#ifndef HQ_PERFBENCH_BUILD_TYPE
#define HQ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hqbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hq_perfbench: " << why
              << "\nusage: hq_perfbench --workload "
                 "<spec-mix|nginx-gate|verify-replay> --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--trace-out FILE] "
                 "[--commit SHA] [--print-draw]\n";
    std::exit(2);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
printDetail(const Options &options, const Report &report)
{
    std::string line = "# detail {\"workload\":" +
                       jsonString(options.workload) +
                       ",\"seed\":" + std::to_string(options.seed) +
                       ",\"trace\":" + (options.trace ? "1" : "0") +
                       ",\"env\":{\"nproc\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"crc32\":" + jsonString(hq::crc32::implName()) +
                       ",\"build_type\":" +
                       jsonString(HQ_PERFBENCH_BUILD_TYPE) +
                       ",\"commit\":" + jsonString(options.commit) +
                       "},\"quartiles\":{";
    bool first = true;
    for (const auto &[name, q] : report.spreads) {
        line += (first ? "" : ",") + jsonString(name) + ":{\"q1\":" +
                number(q.q1) + ",\"median\":" + number(q.median) +
                ",\"q3\":" + number(q.q3) +
                ",\"n\":" + std::to_string(q.n) + "}";
        first = false;
    }
    line += "},\"info\":{";
    first = true;
    for (const auto &[name, value] : report.info) {
        line += (first ? "" : ",") + jsonString(name) + ":" + number(value);
        first = false;
    }
    line += "},\"failures\":[";
    first = true;
    for (const std::string &why : report.failures) {
        line += (first ? "" : ",") + jsonString(why);
        first = false;
    }
    line += "]";
    if (options.trace) {
        line += ",\"spans\":{";
        first = true;
        for (const auto &[name, t] : Tracer::get().totals()) {
            line += (first ? "" : ",") + jsonString(name) +
                    ":{\"count\":" + std::to_string(t.count) +
                    ",\"total_ms\":" + number(t.total_ms) +
                    ",\"self_ms\":" + number(t.self_ms) + "}";
            first = false;
        }
        line += "},\"spans_dropped\":" +
                std::to_string(Tracer::get().dropped());
    }
    std::cout << line << "}\n";
}

void
printResult(const Report &report)
{
    std::string line = "{\"correct\": ";
    line += report.failed == 0 && report.attempted > 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted) +
            ", \"failed\": " + std::to_string(report.failed) +
            ", \"metrics\": {";
    bool first = true;
    for (const Report::Metric &metric : report.metrics) {
        line += (first ? "" : ", ") + jsonString(metric.name) +
                ": {\"value\": " + number(metric.value) +
                ", \"unit\": " + jsonString(metric.unit) + "}";
        first = false;
    }
    std::cout << line << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    bool print_draw = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quartiles") {
            // Self-check hook: the quartiles of the values that follow.
            std::vector<double> values;
            for (++i; i < argc; ++i)
                values.push_back(std::strtod(argv[i], nullptr));
            const Quartiles q = quartiles(values);
            std::printf("%.17g %.17g %.17g\n", q.q1, q.median, q.q3);
            return 0;
        }
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value().c_str(), nullptr);
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            options.trace = v == "1";
            have_trace = true;
        } else if (arg == "--trace-out") {
            options.trace_out = value();
        } else if (arg == "--commit") {
            options.commit = value();
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--print-draw") {
            print_draw = true;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (print_draw) {
        for (const std::string &name : specMixDraw(options.seed))
            std::cout << "spec-mix " << name << "\n";
        for (const std::string &name : replayDraw(options.seed))
            std::cout << "verify-replay " << name << "\n";
        return 0;
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");

    hq::setLogLevel(hq::LogLevel::Error);
    hq::telemetry::setEnabled(false);
    Tracer::get().setOn(options.trace);

    Report report;
    if (options.workload == "spec-mix")
        report = runSpecMix(options);
    else if (options.workload == "nginx-gate")
        report = runNginxGate(options);
    else if (options.workload == "verify-replay")
        report = runVerifyReplay(options);
    else
        usage("unknown workload '" + options.workload + "'");
    Tracer::get().setOn(false);

    if (options.trace && !options.trace_out.empty() &&
        !Tracer::get().write(options.trace_out))
        std::cerr << "hq_perfbench: could not write " << options.trace_out
                  << "\n";
    for (const std::string &why : report.failures)
        std::cerr << "hq_perfbench: FAILED: " << why << "\n";
    printDetail(options, report);
    printResult(report);
    return 0;
}
