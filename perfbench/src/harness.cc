/**
 * @file
 * Statistics, clocks, tracing, the pause sink and program set-up.
 */

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iostream>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "runtime/runtime.h"
#include "telemetry/telemetry.h"
#include "verifier/verifier.h"
#include "workloads/spec_generator.h"

namespace hqbench {

using namespace hq;

// --- Statistics --------------------------------------------------------

Quartiles
quartiles(std::vector<double> values)
{
    Quartiles q;
    q.n = values.size();
    if (values.empty())
        return q;
    std::sort(values.begin(), values.end());
    if (values.size() == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    // statistics.quantiles(method="exclusive"): m = n + 1, cut points
    // at i*m/4 interpolated (or, at the ends, extrapolated) between
    // neighbours.
    const auto n = static_cast<long long>(values.size());
    const long long m = n + 1;
    double cuts[3];
    for (long long i = 1; i <= 3; ++i) {
        const long long j = std::clamp(i * m / 4, 1LL, n - 1);
        const long long delta = i * m - j * 4;
        cuts[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                       values[j] * static_cast<double>(delta)) /
                      4.0;
    }
    q.q1 = cuts[0];
    q.q3 = cuts[2];
    q.median = n % 2 ? values[n / 2]
                     : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    return q;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quartiles(std::move(values)).median;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// --- Clocks and resources ----------------------------------------------

namespace {

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

std::uint64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(monoNs() - start_ns) * 1e-9;
}

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace {

/** The CPUs this process may run on, read once at start-up. */
const cpu_set_t &
processCpus()
{
    static const cpu_set_t cpus = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            CPU_ZERO(&set);
        return set;
    }();
    return cpus;
}

} // namespace

CpuSlot::CpuSlot(std::size_t slot, Mode mode)
{
    const cpu_set_t &all = processCpus();
    const int count = CPU_COUNT(&all);
    if (count < 2)
        return;
    int wanted = static_cast<int>(slot % static_cast<std::size_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &all) || wanted-- != 0)
            continue;
        cpu_set_t mask;
        if (mode == Mode::Only) {
            CPU_ZERO(&mask);
            CPU_SET(cpu, &mask);
        } else {
            mask = all;
            CPU_CLR(cpu, &mask);
        }
        _pinned = pthread_setaffinity_np(pthread_self(), sizeof(mask),
                                         &mask) == 0;
        return;
    }
}

CpuSlot::~CpuSlot()
{
    if (_pinned)
        pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                               &processCpus());
}

// --- Span tracer -------------------------------------------------------

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

std::size_t
Tracer::open(const char *name)
{
    if (_spans.size() >= _limit) {
        ++_dropped;
        return npos;
    }
    const std::size_t parent = _stack.empty() ? npos : _stack.back();
    _spans.push_back({name, monoNs(), 0, _trial, parent});
    _stack.push_back(_spans.size() - 1);
    return _spans.size() - 1;
}

void
Tracer::close(std::size_t index)
{
    _spans[index].end_ns = monoNs();
    if (!_stack.empty() && _stack.back() == index)
        _stack.pop_back();
}

void
Tracer::add(const char *name, std::uint64_t start_ns, std::uint64_t end_ns)
{
    if (!_on)
        return;
    if (_spans.size() >= _limit) {
        ++_dropped;
        return;
    }
    const std::size_t parent = _stack.empty() ? npos : _stack.back();
    _spans.push_back({name, start_ns, end_ns, _trial, parent});
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::vector<double> child_ms(_spans.size(), 0.0);
    for (const Span &span : _spans) {
        if (span.parent != npos)
            child_ms[span.parent] +=
                static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const double ms =
            static_cast<double>(_spans[i].end_ns - _spans[i].start_ns) *
            1e-6;
        Totals &t = out[_spans[i].name];
        ++t.count;
        t.total_ms += ms;
        t.self_ms += ms - child_ms[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    const std::uint64_t base = _spans.empty() ? 0 : _spans[0].start_ns;
    std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        std::fprintf(file,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%lld,\"trial\":%llu}}\n",
                     i ? "," : "", span.name,
                     static_cast<double>(span.start_ns - base) * 1e-3,
                     static_cast<double>(span.end_ns - span.start_ns) *
                         1e-3,
                     i,
                     span.parent == npos
                         ? -1LL
                         : static_cast<long long>(span.parent),
                     static_cast<unsigned long long>(span.trial));
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
}

// --- Syscall pause sink ------------------------------------------------

void
GateSink::onInstr(const ir::Instr &instr)
{
    if (_in_syscall) {
        const std::uint64_t now = monoNs();
        pause_us.push_back(static_cast<double>(now - _syscall_start) *
                           1e-3);
        Tracer::get().add("kernel.syscall", _syscall_start, now);
        _in_syscall = false;
    }
    if (instr.op == ir::IrOp::Syscall) {
        ++syscalls;
        if (_channel != nullptr)
            backlog.push_back(static_cast<double>(_channel->pending()));
        _in_syscall = true;
        _syscall_start = monoNs();
    }
}

// --- Program set-up ------------------------------------------------------

Status
RecordingChannel::sendImpl(const Message &message)
{
    recorded.push_back(message);
    return ShmChannel::sendImpl(message);
}

std::uint64_t
countMessageSites(const ir::Module &module)
{
    std::uint64_t sites = 0;
    for (const ir::Function &function : module.functions)
        for (const ir::BasicBlock &block : function.blocks)
            for (const ir::Instr &instr : block.instrs) {
                const ir::IrOp op = instr.op;
                const bool pointer_msg = op >= ir::IrOp::HqDefine &&
                                         op <= ir::IrOp::HqSyscallMsg;
                const bool data_msg = op >= ir::IrOp::DfiWriteMsg &&
                                      op <= ir::IrOp::LabelJoinMsg;
                sites += pointer_msg || data_msg;
            }
    return sites;
}

bool
prepareProgram(Program &program, std::size_t slot, std::string &why)
{
    const std::string name = program.profile->name;
    std::uint64_t start = monoNs();
    {
        SpanScope span("workloads.build");
        program.baseline = buildSpecModule(*program.profile, program.scale);
    }
    program.build_ms = secondsSince(start) * 1e3;
    program.work_items = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(
                static_cast<double>(program.profile->work_items) *
                program.scale));
    program.instrumented = program.baseline;

    start = monoNs();
    {
        SpanScope span("compiler.instrument");
        const Status status =
            instrumentModule(program.instrumented, program.design);
        if (!status.isOk()) {
            why = name + ": instrumentation failed: " + status.toString();
            return false;
        }
    }
    program.instrument_ms = secondsSince(start) * 1e3;
    program.msg_sites = countMessageSites(program.instrumented);
    // The baseline keeps the modern devirtualization the HQ designs get.
    const Status status = instrumentModule(program.baseline,
                                           CfiDesign::Baseline);
    if (!status.isOk()) {
        why = name + ": baseline pipeline failed: " + status.toString();
        return false;
    }

    // Reference output and syscall count from the unprotected program.
    {
        GateSink sink(nullptr);
        VmConfig config = makeVmConfig(CfiDesign::Baseline);
        config.cycle_sink = &sink;
        Vm vm(program.baseline, config, nullptr);
        CpuSlot cpu(slot);
        SpanScope span("runtime.vm_run");
        const RunResult result = vm.run();
        if (result.exit != ExitKind::Ok) {
            why = name + ": baseline run failed: " + result.detail;
            return false;
        }
        program.checksum = result.return_value;
        program.syscalls = sink.syscalls;
    }

    // Capture the instrumented stream under a real strict gate.
    KernelModule kernel;
    Verifier::Config vconfig;
    vconfig.num_shards = 1;
    Verifier verifier(kernel, std::make_shared<PointerIntegrityPolicy>(),
                      vconfig);
    RecordingChannel channel(1 << 14);
    verifier.attachChannel(&channel, 1);
    HqRuntime runtime(1, channel, kernel);
    if (!runtime.enable().isOk()) {
        why = name + ": runtime enable failed";
        return false;
    }
    {
        CpuSlot helpers(slot, CpuSlot::Mode::AllBut);
        verifier.start();
    }
    VmConfig config = makeVmConfig(program.design);
    config.stop_on_inline_violation = false;
    Vm vm(program.instrumented, config, &runtime);
    RunResult result;
    {
        CpuSlot cpu(slot);
        SpanScope span("runtime.vm_run");
        result = vm.run();
    }
    verifier.stop();

    const VerifierProcessStats vstats = verifier.statsFor(1);
    const KernelProcessStats kstats = kernel.statsFor(1);
    if (result.exit != ExitKind::Ok || result.return_value !=
                                           program.checksum) {
        why = name + ": instrumented capture run diverged (" +
              exitKindName(result.exit) + ")";
        return false;
    }
    if (verifier.hasViolation(1) || kernel.isKilled(1) ||
        kstats.epoch_timeouts != 0) {
        why = name + ": capture run flagged a violation";
        return false;
    }
    if (kstats.syscalls != program.syscalls ||
        vstats.messages != runtime.messagesSent() ||
        channel.recorded.size() != runtime.messagesSent()) {
        why = name + ": capture counts disagree";
        return false;
    }
    program.messages = runtime.messagesSent();
    program.hq_ops = result.hq_ops;
    program.max_entries = vstats.max_entries;
    program.stream = std::move(channel.recorded);
    for (Message &message : program.stream) {
        message.pid = 0;
        message.seq = 0;
        message.pad = 0;
    }
    return true;
}

// --- Reports -----------------------------------------------------------

void
Report::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
requireTelemetryOff(const char *where)
{
    if (telemetry::enabled()) {
        std::cerr << "perfbench: telemetry is enabled during " << where
                  << "; end-to-end legs must run with it off\n";
        std::exit(3);
    }
}

} // namespace hqbench
