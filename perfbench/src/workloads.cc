/**
 * @file
 * The three closed-loop workloads and the trial engine they share.
 *
 *  - spec-mix: a seeded, stratified draw of SPEC-like profiles under
 *    HQ-CFI-SfeStk; interleaved baseline/instrumented pairs.
 *  - nginx-gate: nginx under HQ-CFI-RetPtr with a strict gate; the
 *    verifier drain, ack flush and kernel resume sit on every syscall.
 *  - verify-replay: captured streams replayed into v2 shared-memory
 *    rings for four pids over two verifier shards, with no VM, plus a
 *    fifth control pid carrying one planted violation.
 */

#include "bench.h"

#include <algorithm>
#include <functional>

#include "ipc/frame.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "runtime/runtime.h"
#include "verifier/verifier.h"

namespace hqbench {

using namespace hq;

namespace {

constexpr std::size_t kChannelCapacity = 1 << 14;
/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 7;
/** Share of a traced run spent on trials; the stage legs get the rest. */
constexpr double kTracedTrialShare = 0.6;

// --- Trial engine ------------------------------------------------------

/** Spans the timed trials of a traced run may keep (~100 B each in
 *  the written file); the stage legs get the rest of kTraceSpans. */
constexpr std::size_t kTrialSpans = 200'000;
constexpr std::size_t kTraceSpans = 260'000;

/**
 * Closed loop: run trial(i) back to back until the run's trial time
 * has passed and at least four trials ran. Each trial builds its own
 * harness; the warm-up trial was run (and discarded) by set-up.
 *
 * In a traced run, half of the trials run untraced so the run can
 * report its own overhead; blocks of two keep both pair orders in
 * each half. Tracing stays on for the stage legs that follow.
 */
void
runTrials(const Options &options,
          const std::function<void(std::size_t)> &trial)
{
    Tracer &tracer = Tracer::get();
    tracer.setLimit(kTrialSpans);
    const double seconds = options.trace
                               ? options.seconds * kTracedTrialShare
                               : options.seconds;
    const std::uint64_t start = monoNs();
    for (std::size_t i = 0; i < 4 || secondsSince(start) < seconds; ++i) {
        tracer.nextTrial();
        tracer.setOn(options.trace && (i / 2) % 2 == 1);
        SpanScope span("bench.trial");
        trial(i);
    }
    tracer.setOn(options.trace);
    tracer.setLimit(kTraceSpans);
}

/** One protected run (a VM run or a verified replay) as measured. */
struct Run
{
    double seconds = 0.0;
    std::uint64_t verified = 0;
    std::uint64_t waits = 0;
    std::uint64_t max_entries = 0;
    double verifier_cpu_s = 0.0;
    std::vector<double> pause_us;
    std::vector<double> backlog;
    /** pause_us split by replayed stream (verify-replay only). */
    std::vector<std::vector<double>> stream_pause_us;
};

/** Everything the protected runs measured, pooled over the run. */
struct Samples
{
    std::vector<double> pause_us;
    std::vector<double> backlog;
    std::uint64_t waits = 0;
    std::uint64_t max_entries = 0;
    double verifier_cpu_s = 0.0;
    double protected_s = 0.0;
    /** Trial times, split by tracing state (overhead). */
    std::vector<double> traced_s;
    std::vector<double> untraced_s;

    void
    add(const Run &run)
    {
        pause_us.insert(pause_us.end(), run.pause_us.begin(),
                        run.pause_us.end());
        backlog.insert(backlog.end(), run.backlog.begin(),
                       run.backlog.end());
        waits += run.waits;
        max_entries = std::max(max_entries, run.max_entries);
        verifier_cpu_s += run.verifier_cpu_s;
        protected_s += run.seconds;
    }

    void
    addTrialTime(double seconds)
    {
        (Tracer::get().on() ? traced_s : untraced_s).push_back(seconds);
    }
};

/** Pause distribution shape in the detail line (why did p90 move). */
void
describePauses(Report &report, const std::string &prefix,
               const std::vector<double> &pause_us)
{
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0})
        report.info[prefix + ".p" + std::to_string(static_cast<int>(p))] =
            percentile(pause_us, p);
    report.info[prefix + ".samples"] = static_cast<double>(pause_us.size());
}

// --- Set-up --------------------------------------------------------------

struct Plan
{
    std::vector<std::string> names;
    CfiDesign design = CfiDesign::HqSfeStk;
    std::vector<double> scales; //!< per program
};

/** Set-up times, one entry per repetition. */
struct SetupLog
{
    std::vector<double> seconds;
    std::vector<double> build_ms;
    std::vector<double> instrument_ms;
};

/**
 * Set up kSetupReps times and keep the last: build, instrument and
 * capture every program, then `finish` does the workload's own set-up
 * and one warm-up trial, whose results are discarded. Returns false
 * after recording the failure when any step misbehaves.
 */
bool
setUp(const Options &options, const Plan &plan,
      std::vector<Program> &programs, SetupLog &log, Report &report,
      const std::function<void(Report &)> &finish)
{
    const int reps = options.smoke ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t start = monoNs();
        programs.clear();
        programs.resize(plan.names.size());
        double build = 0.0, instrument = 0.0;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            Program &program = programs[i];
            program.profile = &specProfile(plan.names[i]);
            program.design = plan.design;
            program.scale = plan.scales[i];
            std::string why;
            if (!prepareProgram(program, rep * programs.size() + i,
                                why)) {
                report.check(false, "set-up: " + why);
                return false;
            }
            build += program.build_ms;
            instrument += program.instrument_ms;
        }
        Report warmup;
        finish(warmup);
        if (warmup.failed != 0) {
            report.check(false, "warm-up: " + warmup.failures[0]);
            return false;
        }
        log.seconds.push_back(secondsSince(start));
        log.build_ms.push_back(build);
        log.instrument_ms.push_back(instrument);
    }
    report.spreads["setup_s"] = quartiles(log.seconds);
    return true;
}

// --- Per-layer metrics -------------------------------------------------------

/** What differs between workloads in the per-layer report. */
struct LayerInputs
{
    std::vector<double> baseline_s;    //!< unprotected trial times
    std::vector<double> protected_s;   //!< protected trial times
    std::uint64_t messages = 0;        //!< verified per trial
    std::uint64_t syscalls = 0;        //!< gated per trial
    std::vector<const std::vector<Message> *> streams;
    Transport transport = Transport::ModelV1;
};

void
addLayerMetrics(const Options &options, const std::vector<Program> &programs,
                const SetupLog &log, const Samples &samples,
                const LayerInputs &in, Report &report)
{
    std::uint64_t sites = 0, captured = 0, hq_ops = 0, work = 0,
                  max_entries = samples.max_entries;
    for (const Program &program : programs) {
        sites += program.msg_sites;
        captured += program.messages;
        hq_ops += program.hq_ops;
        work += program.work_items;
        max_entries = std::max(max_entries, program.max_entries);
    }
    const double kitems = static_cast<double>(work) / 1000.0;
    const double pauses = static_cast<double>(samples.pause_us.size());

    report.metric("workloads.build_ms", median(log.build_ms), "ms");
    report.metric("compiler.instrument_ms", median(log.instrument_ms),
                  "ms");
    report.metric("compiler.msg_sites", static_cast<double>(sites),
                  "count");
    report.metric("runtime.msgs_per_kitem",
                  static_cast<double>(captured) / kitems, "msg/kitem");
    report.metric("runtime.hq_ops_per_kitem",
                  static_cast<double>(hq_ops) / kitems, "op/kitem");
    report.metric("runtime.baseline_s", median(in.baseline_s), "s");
    report.metric("runtime.instrumented_s", median(in.protected_s), "s");
    report.metric("ipc.backlog_at_syscall_p90",
                  percentile(samples.backlog, 90), "msg");
    report.metric("verifier.cpu_share",
                  samples.verifier_cpu_s / samples.protected_s, "share");
    report.metric("verifier.messages", static_cast<double>(in.messages),
                  "count");
    report.metric("policy.entries_max", static_cast<double>(max_entries),
                  "count");
    report.metric("kernel.syscalls", static_cast<double>(in.syscalls),
                  "count");
    report.metric("kernel.waits_per_syscall",
                  pauses > 0 ? static_cast<double>(samples.waits) / pauses
                             : 0.0,
                  "ratio");
    report.metric("kernel.syscall_pause_p50_us",
                  percentile(samples.pause_us, 50), "us");
    report.metric("kernel.syscall_pause_p90_us",
                  percentile(samples.pause_us, 90), "us");
    report.metric("kernel.syscall_pause_p99_us",
                  percentile(samples.pause_us, 99), "us");
    report.metric("trace.overhead_ratio",
                  median(samples.traced_s) / median(samples.untraced_s),
                  "ratio");
    runStageLegs(in.streams, in.transport,
                 options.seconds * (1.0 - kTracedTrialShare), report);
}

// --- VM workloads ----------------------------------------------------------

/** Unprotected run; checks output and syscall count. */
Run
runBaseline(const Program &program, std::size_t slot, Report &report)
{
    requireTelemetryOff("baseline run");
    GateSink sink(nullptr);
    VmConfig config = makeVmConfig(CfiDesign::Baseline);
    config.cycle_sink = &sink;
    Vm vm(program.baseline, config, nullptr);
    Run run;
    RunResult result;
    {
        CpuSlot cpu(slot);
        SpanScope span("runtime.vm_run");
        const std::uint64_t start = monoNs();
        result = vm.run();
        run.seconds = secondsSince(start);
    }
    report.check(result.exit == ExitKind::Ok &&
                     result.return_value == program.checksum &&
                     sink.syscalls == program.syscalls,
                 program.profile->name + ": baseline run diverged");
    return run;
}

/**
 * Protected run on a fresh harness (kernel module, 1-shard verifier,
 * MODEL v1 channel, runtime), as WorkloadRunner::execute builds it.
 * Checks output, syscall and message counts, and that nothing was
 * flagged, killed or timed out.
 */
Run
runInstrumented(const Program &program, std::size_t slot, Report &report)
{
    requireTelemetryOff("instrumented run");
    KernelModule kernel;
    Verifier::Config vconfig;
    vconfig.num_shards = 1;
    Verifier verifier(kernel, std::make_shared<PointerIntegrityPolicy>(),
                      vconfig);
    std::unique_ptr<Channel> channel =
        makeChannel(ChannelKind::UarchModel, kChannelCapacity);
    verifier.attachChannel(channel.get(), 1);
    HqRuntime runtime(1, *channel, kernel);
    const bool enabled = runtime.enable().isOk();
    {
        CpuSlot helpers(slot, CpuSlot::Mode::AllBut);
        verifier.start();
    }

    GateSink sink(channel.get());
    VmConfig config = makeVmConfig(program.design);
    config.stop_on_inline_violation = false;
    config.cycle_sink = &sink;
    Vm vm(program.instrumented, config, &runtime);

    Run run;
    RunResult result;
    {
        CpuSlot cpu(slot);
        SpanScope span("runtime.vm_run");
        const double cpu0 = processCpuSeconds() - threadCpuSeconds();
        const std::uint64_t start = monoNs();
        result = vm.run();
        run.seconds = secondsSince(start);
        run.verifier_cpu_s =
            processCpuSeconds() - threadCpuSeconds() - cpu0;
    }
    verifier.stop();

    const KernelProcessStats kstats = kernel.statsFor(1);
    const VerifierProcessStats vstats = verifier.statsFor(1);
    run.verified = vstats.messages;
    run.waits = kstats.waits;
    run.max_entries = vstats.max_entries;
    run.pause_us = std::move(sink.pause_us);
    run.backlog = std::move(sink.backlog);

    const bool output_ok = enabled && result.exit == ExitKind::Ok &&
                           result.return_value == program.checksum;
    const bool clean = !verifier.hasViolation(1) && !kernel.isKilled(1) &&
                       kstats.epoch_timeouts == 0;
    const bool counts_ok = kstats.syscalls == program.syscalls &&
                           sink.syscalls == program.syscalls &&
                           runtime.messagesSent() == program.messages &&
                           vstats.messages == program.messages;
    report.check(output_ok && clean && counts_ok,
                 program.profile->name + ": instrumented run " +
                     (!output_ok ? "diverged"
                                 : !clean ? "was flagged or killed"
                                          : "counts differ"));
    return run;
}

/**
 * Closed-loop rounds of one interleaved baseline/instrumented pair per
 * program. Both sides of a pair run on the same CPU; pairs rotate over
 * the CPUs and alternate which side goes first.
 */
Report
runVmWorkload(const Options &options, const Plan &plan)
{
    Report report;
    std::vector<Program> programs;
    SetupLog log;
    const bool ok = setUp(options, plan, programs, log, report,
                          [&](Report &warmup) {
                              for (std::size_t i = 0; i < programs.size();
                                   ++i) {
                                  runBaseline(programs[i], i, warmup);
                                  runInstrumented(programs[i], i, warmup);
                              }
                          });
    if (!ok)
        return report;

    const std::size_t n = programs.size();
    std::vector<std::vector<double>> ratios(n), pauses(n);
    std::vector<double> rates;
    Samples samples;
    LayerInputs layers;
    runTrials(options, [&](std::size_t round) {
        double base_total = 0.0, inst_total = 0.0;
        std::uint64_t verified = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t slot = round * n + i;
            Run base, inst;
            if ((round + i) % 2 == 0) {
                base = runBaseline(programs[i], slot, report);
                inst = runInstrumented(programs[i], slot, report);
            } else {
                inst = runInstrumented(programs[i], slot, report);
                base = runBaseline(programs[i], slot, report);
            }
            ratios[i].push_back(inst.seconds / base.seconds);
            pauses[i].insert(pauses[i].end(), inst.pause_us.begin(),
                             inst.pause_us.end());
            base_total += base.seconds;
            inst_total += inst.seconds;
            verified += inst.verified;
            samples.add(inst);
        }
        rates.push_back(static_cast<double>(verified) / inst_total / 1e6);
        layers.baseline_s.push_back(base_total);
        layers.protected_s.push_back(inst_total);
        samples.addTrialTime(inst_total);
    });

    // Each program weighs the same, as in a SPEC geomean.
    std::vector<double> slowdowns;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &name = programs[i].profile->name;
        const Quartiles q = quartiles(ratios[i]);
        slowdowns.push_back(q.median);
        report.spreads["slowdown." + name] = q;
        describePauses(report, "pause." + name, pauses[i]);
    }
    describePauses(report, "pause", samples.pause_us);
    report.spreads["verified_mmsg_s"] = quartiles(rates);
    report.spreads["baseline_s"] = quartiles(layers.baseline_s);
    report.spreads["instrumented_s"] = quartiles(layers.protected_s);
    report.info["rounds"] = static_cast<double>(rates.size());

    if (!options.trace) {
        report.metric("setup_s", median(log.seconds), "s");
        report.metric("slowdown", geomean(slowdowns), "ratio");
        report.metric("verified_mmsg_s", median(rates), "Mmsg/s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return report;
    }
    for (const Program &program : programs) {
        layers.messages += program.messages;
        layers.syscalls += program.syscalls;
        layers.streams.push_back(&program.stream);
    }
    layers.transport = Transport::ModelV1;
    addLayerMetrics(options, programs, log, samples, layers, report);
    return report;
}

/**
 * Strata for the seeded draws. Members of a stratum share a behaviour
 * class, so a seed changes which benchmark stands for each class but
 * not the mix of classes; pointer-heavy C is split by the generator
 * traits that change its program most.
 */
const std::vector<std::vector<std::string>> &
specStrata()
{
    static const std::vector<std::vector<std::string>> kStrata = {
        // pointer-heavy C, interpreter-like (decayed function pointers)
        {"perlbench", "perlbench_r", "perlbench_s"},
        // pointer-heavy C, compiler-like (recursion, casted signatures)
        {"gcc", "gcc_r", "gcc_s"},
        // mixed integer
        {"bzip2", "gobmk", "hmmer", "sjeng", "x264_r", "xz_r", "x264_s",
         "xz_s"},
        // numeric kernels
        {"libquantum", "milc", "lbm", "lbm_r", "nab_r", "lbm_s", "nab_s"},
        // virtual-dispatch-heavy C++ (omnetpp's genuine UAF excluded)
        {"xalancbmk", "xalancbmk_r", "leela_r", "xalancbmk_s", "leela_s",
         "omnetpp_s"},
    };
    return kStrata;
}

std::string
drawFrom(Rng &rng, const std::vector<std::string> &stratum,
         const std::vector<std::string> &taken)
{
    while (true) {
        const std::string &name = stratum[rng.below(stratum.size())];
        if (std::find(taken.begin(), taken.end(), name) == taken.end())
            return name;
    }
}

} // namespace

std::vector<std::string>
specMixDraw(std::uint64_t seed)
{
    Rng rng(seed ^ 0x5bec0001);
    // h264ref (the highest message rate) always, then one per stratum.
    std::vector<std::string> draw = {"h264ref"};
    for (const auto &stratum : specStrata())
        draw.push_back(drawFrom(rng, stratum, draw));
    return draw;
}

std::vector<std::string>
replayDraw(std::uint64_t seed)
{
    Rng rng(seed ^ 0x4e91a7);
    const auto &strata = specStrata();
    // Define-heavy pointer C beside check-heavy OOP C++.
    std::vector<std::string> draw;
    draw.push_back(drawFrom(rng, strata[0], draw));
    draw.push_back(drawFrom(rng, strata[4], draw));
    draw.push_back(drawFrom(rng, strata[1], draw));
    draw.push_back(drawFrom(rng, strata[4], draw));
    return draw;
}

Report
runSpecMix(const Options &options)
{
    Plan plan;
    plan.names = specMixDraw(options.seed);
    plan.design = CfiDesign::HqSfeStk;
    plan.scales.assign(plan.names.size(), options.smoke ? 0.02 : 0.5);
    return runVmWorkload(options, plan);
}

Report
runNginxGate(const Options &options)
{
    Plan plan;
    plan.names = {"nginx"};
    plan.design = CfiDesign::HqRetPtr;
    // The seed jitters the request count by up to +-5%: a different
    // input of the same character.
    Rng rng(options.seed ^ 0x96e1);
    const double jitter =
        0.95 + 0.1 * static_cast<double>(rng.below(1001)) / 1000.0;
    plan.scales = {(options.smoke ? 0.02 : 0.25) * jitter};
    return runVmWorkload(options, plan);
}

// --- verify-replay -------------------------------------------------------

namespace {

constexpr std::size_t kReplayShards = 2;
constexpr std::size_t kReplayRing = 1 << 14;
/** Largest sendBatch a replay sends (a runtime's flush size). */
constexpr std::size_t kReplayChunk = 256;
/** Messages the control pid replays before its planted violation. */
constexpr std::size_t kControlMessages = 4000;
constexpr Addr kPlantedAddr = 0x7ffe0000dead0000ULL;

struct ReplaySet
{
    /** streams[k] belongs to pid k + 1; the last is the control pid. */
    std::vector<std::vector<Message>> streams;
    std::vector<std::uint64_t> syscalls;
    std::uint64_t total = 0;

    Pid controlPid() const { return static_cast<Pid>(streams.size()); }
};

/**
 * The control pid's stream: a short prefix of a captured stream with
 * its syscalls removed (so its length never depends on when the kill
 * lands) and one planted define plus a PointerCheck of the same
 * address with the wrong value at a seeded position.
 */
std::vector<Message>
controlStream(const std::vector<Message> &source, Rng &rng)
{
    std::vector<Message> out;
    for (const Message &message : source) {
        if (out.size() >= kControlMessages)
            break;
        if (message.op != Opcode::Syscall)
            out.push_back(message);
    }
    const std::size_t define_at = 1 + rng.below(out.size() / 2);
    const std::size_t check_at =
        define_at + 1 + rng.below(out.size() - define_at - 1);
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(check_at),
               Message(Opcode::PointerCheck, kPlantedAddr, 0xbad));
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(define_at),
               Message(Opcode::PointerDefine, kPlantedAddr, 0x600d));
    return out;
}

/**
 * The streams one replay sends: each captured stream `passes` times
 * back to back (a longer-running program without a longer capture),
 * then the control stream.
 */
ReplaySet
makeReplaySet(const std::vector<Program> &programs, std::size_t passes,
              std::uint64_t seed)
{
    ReplaySet set;
    for (const Program &program : programs) {
        std::vector<Message> stream;
        stream.reserve(program.stream.size() * passes);
        for (std::size_t pass = 0; pass < passes; ++pass)
            stream.insert(stream.end(), program.stream.begin(),
                          program.stream.end());
        set.streams.push_back(std::move(stream));
        set.syscalls.push_back(program.syscalls * passes);
    }
    Rng rng(seed ^ 0xc0de);
    set.streams.push_back(controlStream(programs[0].stream, rng));
    set.syscalls.push_back(0);
    for (std::size_t k = 0; k < set.streams.size(); ++k) {
        for (Message &message : set.streams[k])
            message.pid = static_cast<Pid>(k + 1);
        set.total += set.streams[k].size();
    }
    return set;
}

/** Where the next chunk from `cursor` ends (after a Syscall, if any). */
std::size_t
chunkEnd(const std::vector<Message> &stream, std::size_t cursor)
{
    const std::size_t limit = std::min(stream.size(), cursor + kReplayChunk);
    for (std::size_t i = cursor; i < limit; ++i)
        if (stream[i].op == Opcode::Syscall)
            return i + 1;
    return limit;
}

std::vector<std::unique_ptr<ShmChannel>>
makeV2Channels(std::size_t count)
{
    std::vector<std::unique_ptr<ShmChannel>> channels;
    for (std::size_t k = 0; k < count; ++k) {
        channels.push_back(std::make_unique<ShmChannel>(kReplayRing));
        channels.back()->negotiateFormat(WireFormat::V2);
    }
    return channels;
}

/**
 * One producer replays every stream round-robin in chunks of at most
 * kReplayChunk messages, each chunk ending at the stream's next
 * System-Call message, where the producer enters the kernel gate as
 * the captured program did. Nothing else runs: `drain(k)` empties the
 * consumer group that stream k belongs to on the producer's own
 * thread. At a gate that is the pause: the pid's shard is verified up
 * to its System-Call message, then syscallEnter() is admitted. Before a
 * chunk would fill a ring past half, the group is drained too, as a
 * full ring would block the program until the verifier caught up.
 * Returns the time from the first send until every group is drained.
 */
double
produce(const ReplaySet &set,
        std::vector<std::unique_ptr<ShmChannel>> &channels,
        KernelModule &kernel, Run &run, Report &report,
        const std::function<void(std::size_t)> &drain)
{
    const std::size_t n = set.streams.size();
    std::vector<std::size_t> cursor(n, 0);
    run.stream_pause_us.resize(n);
    const std::uint64_t start = monoNs();
    for (std::size_t live = n; live > 0;) {
        live = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const std::vector<Message> &stream = set.streams[k];
            if (cursor[k] >= stream.size())
                continue;
            ++live;
            if (channels[k]->pending() > kReplayRing / 2)
                drain(k);
            const std::size_t end = chunkEnd(stream, cursor[k]);
            Status status;
            {
                SpanScope span("ipc.send_batch");
                status = channels[k]->sendBatch(stream.data() + cursor[k],
                                                end - cursor[k]);
            }
            cursor[k] = status.isOk() ? end : stream.size();
            if (!status.isOk()) {
                report.fail("replay: sendBatch failed");
                continue;
            }
            const Message &last = stream[end - 1];
            if (last.op != Opcode::Syscall)
                continue;
            const Pid pid = static_cast<Pid>(k + 1);
            run.backlog.push_back(
                static_cast<double>(channels[k]->pending()));
            const std::uint64_t enter = monoNs();
            drain(k);
            status = kernel.syscallEnter(pid, last.arg0);
            const std::uint64_t resume = monoNs();
            run.pause_us.push_back(static_cast<double>(resume - enter) *
                                   1e-3);
            run.stream_pause_us[k].push_back(run.pause_us.back());
            Tracer::get().add("kernel.syscall", enter, resume);
            if (!status.isOk()) {
                report.fail("replay: pid " + std::to_string(pid) +
                            " denied at a syscall");
                cursor[k] = stream.size();
            }
        }
    }
    for (std::size_t k = 0; k < n; ++k)
        drain(k);
    return secondsSince(start);
}

/**
 * The replay under a strict gate and a 2-shard verifier whose shards
 * are drained by the producer (Verifier::pollShard). Checks that
 * exactly the control pid is flagged and killed, and that every pid's
 * verified messages and gated syscalls match its stream.
 */
Run
replayVerified(const ReplaySet &set, std::size_t slot, Report &report)
{
    requireTelemetryOff("verified replay");
    KernelModule kernel;
    Verifier::Config vconfig;
    vconfig.num_shards = kReplayShards;
    Verifier verifier(kernel, std::make_shared<PointerIntegrityPolicy>(),
                      vconfig);
    auto channels = makeV2Channels(set.streams.size());
    bool setup_ok = true;
    for (std::size_t k = 0; k < channels.size(); ++k) {
        const Pid pid = static_cast<Pid>(k + 1);
        setup_ok = setup_ok && kernel.enableProcess(pid).isOk() &&
                   channels[k]->format() == WireFormat::V2;
        verifier.attachChannel(channels[k].get(), pid);
    }

    Run run;
    {
        CpuSlot cpu(slot);
        run.seconds = produce(set, channels, kernel, run, report,
                              [&](std::size_t k) {
                                  const std::size_t shard = verifier.shardOf(
                                      static_cast<Pid>(k + 1));
                                  while (verifier.pollShard(shard) > 0) {
                                  }
                              });
    }

    bool verdicts_ok = setup_ok;
    bool counts_ok = verifier.totalMessages() == set.total;
    for (std::size_t k = 0; k < set.streams.size(); ++k) {
        const Pid pid = static_cast<Pid>(k + 1);
        const VerifierProcessStats vstats = verifier.statsFor(pid);
        const KernelProcessStats kstats = kernel.statsFor(pid);
        const bool control = pid == set.controlPid();
        counts_ok = counts_ok &&
                    vstats.messages == set.streams[k].size() &&
                    kstats.syscalls == set.syscalls[k];
        verdicts_ok = verdicts_ok &&
                      verifier.hasViolation(pid) == control &&
                      kernel.isKilled(pid) == control &&
                      kstats.epoch_timeouts == 0;
        run.verified += vstats.messages;
        run.waits += kstats.waits;
        run.max_entries = std::max<std::uint64_t>(run.max_entries,
                                                  vstats.max_entries);
    }
    report.check(verdicts_ok, "replay: verdicts wrong (a missed or "
                              "spurious kill)");
    report.check(counts_ok, "replay: verified counts differ");
    return run;
}

/**
 * The same replay with nothing but transport: the producer drains and
 * decodes the v2 frames of stream k's group (k mod kReplayShards) where
 * the verified replay polls its shard (no verifier, no policy, no
 * gate).
 */
double
replayTransport(const ReplaySet &set, std::size_t slot, Report &report)
{
    requireTelemetryOff("transport replay");
    KernelModule kernel; // no pid enabled: syscallEnter does not gate
    Run unused;
    auto channels = makeV2Channels(set.streams.size());
    std::vector<Message> scratch(frame::kMaxRecords);
    std::uint64_t decoded = 0;
    bool corrupt = false;
    CpuSlot cpu(slot);
    const double seconds =
        produce(set, channels, kernel, unused, report, [&](std::size_t k) {
            for (std::size_t c = k % kReplayShards; c < channels.size();
                 c += kReplayShards)
                while (const std::size_t got = drainFrames(
                           *channels[c], scratch.data(), corrupt))
                    decoded += got;
        });
    report.check(!corrupt && decoded == set.total,
                 "replay: transport leg lost or corrupted frames");
    return seconds;
}
} // namespace

Report
runVerifyReplay(const Options &options)
{
    Report report;
    Plan plan;
    plan.names = replayDraw(options.seed);
    plan.design = CfiDesign::HqSfeStk;
    plan.scales.assign(plan.names.size(), options.smoke ? 0.02 : 2.0);
    const std::size_t passes = options.smoke ? 1 : 6;

    std::vector<Program> programs;
    SetupLog log;
    ReplaySet set;
    const bool ok = setUp(options, plan, programs, log, report,
                          [&](Report &warmup) {
                              set = ReplaySet{}; // one copy at a time
                              set = makeReplaySet(programs, passes,
                                                  options.seed);
                              replayVerified(set, 0, warmup);
                              replayTransport(set, 0, warmup);
                          });
    if (!ok)
        return report;

    std::vector<double> rates, ratios;
    std::vector<std::vector<double>> pauses(set.streams.size());
    Samples samples;
    LayerInputs layers;
    runTrials(options, [&](std::size_t i) {
        Run verified;
        double transport = 0.0;
        if (i % 2 == 0) {
            verified = replayVerified(set, i, report);
            transport = replayTransport(set, i, report);
        } else {
            transport = replayTransport(set, i, report);
            verified = replayVerified(set, i, report);
        }
        rates.push_back(static_cast<double>(verified.verified) /
                        verified.seconds / 1e6);
        ratios.push_back(verified.seconds / transport);
        layers.baseline_s.push_back(transport);
        layers.protected_s.push_back(verified.seconds);
        samples.add(verified);
        samples.addTrialTime(verified.seconds);
        for (std::size_t k = 0; k < pauses.size(); ++k)
            pauses[k].insert(pauses[k].end(),
                             verified.stream_pause_us[k].begin(),
                             verified.stream_pause_us[k].end());
    });

    for (std::size_t k = 0; k < programs.size(); ++k)
        describePauses(report, "pause." + programs[k].profile->name,
                       pauses[k]);
    report.spreads["verified_mmsg_s"] = quartiles(rates);
    report.spreads["slowdown"] = quartiles(ratios);
    describePauses(report, "pause", samples.pause_us);
    report.info["trials"] = static_cast<double>(rates.size());
    report.info["messages_per_trial"] = static_cast<double>(set.total);

    if (!options.trace) {
        report.metric("setup_s", median(log.seconds), "s");
        report.metric("slowdown", median(ratios), "ratio");
        report.metric("verified_mmsg_s", median(rates), "Mmsg/s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return report;
    }
    // No VM in the timed loop: the transport-only and verified replays
    // stand in for the baseline and instrumented runs.
    layers.messages = set.total;
    for (std::size_t k = 0; k < set.streams.size(); ++k) {
        layers.syscalls += set.syscalls[k];
        layers.streams.push_back(&set.streams[k]);
    }
    layers.transport = Transport::ShmV2;
    addLayerMetrics(options, programs, log, samples, layers, report);
    return report;
}

} // namespace hqbench
