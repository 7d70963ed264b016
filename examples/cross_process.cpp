/**
 * @file
 * Real two-process deployment: fork() a monitored child whose only link
 * to the parent (verifier) is an AppendWrite ring in shared memory.
 * The child corrupts a "function pointer" after defining it; the parent
 * detects the mismatch. Process isolation — the property HerQules
 * builds on — is real here: the child cannot reach the parent's shadow
 * store at all.
 *
 * Build: cmake --build build && ./build/examples/cross_process
 *
 * Two modes:
 *  - default: the original one-shot demo (3 messages, 1 violation).
 *  - --shards=N: verifier shard count for streaming mode (default 1;
 *    the single child routes to one shard, so N>1 exercises pid→shard
 *    routing rather than parallel speedup).
 *  - --duration=SECS: streaming mode. The parent runs a real Verifier +
 *    KernelModule and the child emits pointer-integrity traffic for
 *    SECS seconds, ending with a deliberate corruption. Combine with
 *    the shared observability flags to watch it live:
 *
 *      ./cross_process --duration=30 --statsboard &
 *      ./hq_stat --watch
 *
 *    plus --telemetry-out=FILE / --event-log=FILE for the exit dump
 *    and the structured violation log.
 *  - --health: run the shard health watchdog (per-shard OK/DEGRADED/
 *    STALLED state published to the statsboard; pairs with
 *    `hq_stat --prom` for the fleet exporter).
 *  - --spec-window=K: kernel speculation window for chaos legs that
 *    sweep the async ack path (DESIGN.md §13) under injected faults.
 *  - --ifc: compose the taint/IFC label policy with pointer integrity
 *    (docs/policies.md) and mix live label traffic into every burst,
 *    ending in a data-only leak. Chaos legs use this to prove dropped
 *    or corrupted label ops fail closed like pointer ops do.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/log.h"
#include "faultinject/fault.h"
#include "ipc/xproc_ring.h"
#include "kernel/kernel.h"
#include "policy/ifc.h"
#include "policy/pointer_integrity.h"
#include "policy/policy_module.h"
#include "telemetry/telemetry.h"
#include "verifier/verifier.h"

using namespace hq;

namespace {

/** The original single-shot demo: manual context, 3 messages. */
int
runOneShot(XprocChannel &channel)
{
    const pid_t child = fork();
    if (child == 0) {
        // ----- monitored process ------------------------------------
        // Define a pointer, "use" it legitimately, then get exploited:
        // the attacker overwrites the in-memory value, and the next
        // check ships the corrupt value as evidence.
        channel.send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA));
        channel.send(Message(Opcode::PointerCheck, 0x1000, 0xAAAA));
        channel.send(Message(Opcode::PointerCheck, 0x1000, 0xBADBAD));
        channel.send(Message(Opcode::Syscall, 59));
        _exit(0);
    }

    // ----- verifier process ------------------------------------------
    PointerIntegrityContext context(static_cast<Pid>(child));
    std::uint64_t processed = 0;
    std::uint64_t violations = 0;
    bool saw_syscall = false;
    while (!saw_syscall) {
        Message message;
        if (!channel.tryRecv(message))
            continue;
        ++processed;
        if (!context.handleMessage(message).isOk())
            ++violations;
        saw_syscall = message.op == Opcode::Syscall;
    }
    int wstatus = 0;
    waitpid(child, &wstatus, 0);

    std::printf("cross-process HerQules demo\n");
    std::printf("  child pid %d, messages processed %llu, violations "
                "%llu\n",
                child, static_cast<unsigned long long>(processed),
                static_cast<unsigned long long>(violations));
    std::printf("  -> %s\n",
                violations == 1
                    ? "corruption detected across a real process "
                      "boundary"
                    : "UNEXPECTED RESULT");
    return violations == 1 ? 0 : 1;
}

/**
 * Streaming mode: a full parent-side verifier pipeline processing a
 * sustained message stream from the forked child, so the statsboard,
 * lag histograms, and event log have live data to show.
 */
int
runStreaming(XprocChannel &channel, long duration_secs,
             std::size_t num_shards, WireFormat format,
             bool health_enabled, std::size_t spec_window,
             bool ifc_enabled)
{
    if (format != WireFormat::V1 && !channel.negotiateFormat(format)) {
        std::fprintf(stderr, "channel refused wire format %s\n",
                     wireFormatName(format));
        return 1;
    }
    const bool chaos = faultinject::armed();
    if (chaos) {
        // The audit needs the child's injected counts and child-side
        // detector deltas (the parent only sees its own registry).
        // A pipe carries the report back across the fork boundary.
        channel.setSendTimeout(std::chrono::seconds(2));
    }
    int report_pipe[2] = {-1, -1};
    if (chaos && pipe(report_pipe) != 0) {
        std::perror("pipe");
        return 1;
    }

    const pid_t child = fork();
    if (child == 0) {
        // ----- monitored process ------------------------------------
        // Steady pointer-integrity traffic: define once, check in
        // bursts, yield between bursts so the run lasts the requested
        // wall time instead of saturating the ring.
        if (chaos)
            close(report_pipe[0]);
        bool send_ok =
            channel.send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA))
                .isOk();
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(duration_secs);
        Message burst[64];
        for (auto &message : burst)
            message = Message(Opcode::PointerCheck, 0x1000, 0xAAAA);
        if (ifc_enabled) {
            // Live label traffic rides every burst so faults land while
            // the IFC table is hot: rebind a secret source, propagate it
            // one hop, and sink-check a facet the flow does NOT carry
            // (violation-free in a fault-free run). Drops here are
            // caught by the sequence check, corruption by the CRCs.
            for (std::size_t i = 0; i < 64; i += 4) {
                burst[i + 1] = Message(Opcode::LabelDef, 0x2000,
                                       label::kSecret);
                burst[i + 2] = Message(Opcode::LabelJoin, 0x2000, 0x2008);
                burst[i + 3] = Message(Opcode::LabelCheck, 0x2008,
                                       label::kTainted);
            }
        }
        while (send_ok && std::chrono::steady_clock::now() < deadline) {
            // sendBatch exercises the real batched transmit: a loop of
            // stamped sends on v1, whole frames on a v2 channel.
            send_ok = channel.sendBatch(burst, 64).isOk();
            usleep(1000);
        }
        // Finale: the "exploit" corrupts the pointer, then a syscall
        // forces synchronization so nothing is left in flight. Under
        // chaos a send may fail closed instead; that is a legitimate
        // outcome the parent distinguishes via the exit code.
        if (send_ok) {
            if (ifc_enabled) {
                // The data-only leak: the secret flows to an address
                // whose sink forbids it. One guaranteed IFC violation.
                channel.send(
                    Message(Opcode::LabelJoin, 0x2000, 0x4000));
                channel.send(Message(Opcode::LabelCheck, 0x4000,
                                     label::kSecret));
            }
            channel.send(Message(Opcode::PointerCheck, 0x1000, 0xBADBAD));
            channel.send(Message(Opcode::Syscall, 59));
        }
        if (chaos) {
            const std::string report =
                faultinject::exportCrossProcessReport();
            ssize_t ignored =
                write(report_pipe[1], report.data(), report.size());
            (void)ignored;
            close(report_pipe[1]);
        }
        _exit(send_ok ? 0 : 3);
    }

    // ----- verifier process ------------------------------------------
    const Pid pid = static_cast<Pid>(child);
    KernelModule::Config kconfig;
    kconfig.speculation_window = spec_window;
    KernelModule kernel(kconfig);
    std::shared_ptr<Policy> policy;
    if (ifc_enabled) {
        auto multi = std::make_shared<MultiPolicy>();
        multi->addPolicy(std::make_unique<PointerIntegrityPolicy>());
        multi->addPolicy(std::make_unique<IfcPolicy>());
        policy = multi;
    } else {
        policy = std::make_shared<PointerIntegrityPolicy>();
    }
    Verifier::Config config;
    config.kill_on_violation = false; // count, don't kill (§5 style)
    config.num_shards = num_shards;
    if (health_enabled) {
        // Snappy watchdog so a short --duration run still publishes
        // per-shard health/heartbeat series into the statsboard.
        config.health_enabled = true;
        config.health.interval = std::chrono::milliseconds(50);
    }
    Verifier verifier(kernel, policy, config);
    kernel.enableProcess(pid);
    verifier.attachChannel(&channel, pid);
    verifier.start();

    std::string child_report;
    if (chaos) {
        close(report_pipe[1]);
        char buf[4096];
        ssize_t n;
        while ((n = read(report_pipe[0], buf, sizeof(buf))) > 0)
            child_report.append(buf, static_cast<std::size_t>(n));
        close(report_pipe[0]);
    }
    int wstatus = 0;
    waitpid(child, &wstatus, 0);
    // Drain whatever the child left in the ring before stopping.
    verifier.stop();
    kernel.exitProcess(pid);

    const VerifierProcessStats stats = verifier.statsFor(pid);
    std::printf("cross-process HerQules demo (streaming %lds, %zu "
                "shard%s, wire %s)\n",
                duration_secs, verifier.numShards(),
                verifier.numShards() == 1 ? "" : "s",
                wireFormatName(channel.format()));
    std::printf("  child pid %d, messages %llu, violations %llu, "
                "syscall acks %llu\n",
                child,
                static_cast<unsigned long long>(stats.messages),
                static_cast<unsigned long long>(stats.violations),
                static_cast<unsigned long long>(stats.syscall_acks));

    if (!chaos) {
        // --ifc adds exactly one label-flow violation (the secret
        // reaching the forbidding sink) on top of the pointer one.
        const std::uint64_t expected = ifc_enabled ? 2 : 1;
        std::printf("  -> %s\n",
                    stats.violations == expected
                        ? "corruption detected across a real process "
                          "boundary"
                        : "UNEXPECTED RESULT");
        return stats.violations == expected ? 0 : 1;
    }

    // ----- chaos verdict ---------------------------------------------
    // Under injected faults the exact violation count is not meaningful
    // (every drop/dup/corruption adds one); what must hold is that no
    // injected fault class went undetected and the child either
    // finished or failed *closed*.
    const bool child_ok =
        WIFEXITED(wstatus) &&
        (WEXITSTATUS(wstatus) == 0 || WEXITSTATUS(wstatus) == 3);
    if (!faultinject::absorbCrossProcessReport(child_report)) {
        std::printf("  -> CHAOS FAILURE: child fault report missing or "
                    "malformed\n");
        return 1;
    }
    const int silent = faultinject::emitAuditRecords();
    std::printf("  chaos: [%s]\n",
                faultinject::FaultPlan::instance().describe().c_str());
    std::printf("  chaos: child exit %s, silent accepts %d\n",
                child_ok ? "clean/fail-closed" : "UNEXPECTED", silent);
    std::printf("  -> %s\n", (silent == 0 && child_ok)
                                 ? "every injected fault detected or "
                                   "safely denied"
                                 : "CHAOS FAILURE: silent acceptance");
    return (silent == 0 && child_ok) ? 0 : 1;
}

/**
 * Value of a numeric `--name=N` flag. Anything but a whole decimal
 * number in T's range (empty, trailing characters, overflow) exits 2
 * with a message: a typo must never quietly run another mode.
 */
template <typename T>
T
numericFlag(const char *arg, std::size_t prefix_len)
{
    const char *text = arg + prefix_len;
    const char *end = text + std::strlen(text);
    T value{};
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc() || stop != end) {
        std::fprintf(stderr, "cross_process: invalid number in %s\n", arg);
        std::exit(2);
    }
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    telemetry::handleBenchArgs(argc, argv);
    faultinject::handleArgs(argc, argv);
    setLogLevel(LogLevel::Error);

    long duration_secs = 0;
    std::size_t num_shards = 1; // single child; >1 exercises routing
    WireFormat format = WireFormat::V1;
    bool health_enabled = false;
    std::size_t spec_window = 0;
    bool ifc_enabled = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--duration=", 11) == 0)
            duration_secs = numericFlag<long>(argv[i], 11);
        else if (std::strncmp(argv[i], "--shards=", 9) == 0)
            num_shards = numericFlag<std::size_t>(argv[i], 9);
        else if (std::strcmp(argv[i], "--format=v2") == 0)
            format = WireFormat::V2;
        else if (std::strcmp(argv[i], "--format=v1") == 0)
            format = WireFormat::V1;
        else if (std::strcmp(argv[i], "--health") == 0)
            health_enabled = true;
        else if (std::strncmp(argv[i], "--spec-window=", 14) == 0)
            spec_window = numericFlag<std::size_t>(argv[i], 14);
        else if (std::strcmp(argv[i], "--ifc") == 0)
            ifc_enabled = true;
        else {
            // A misspelt or retired flag must not quietly run another
            // mode.
            std::fprintf(stderr, "cross_process: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (ifc_enabled && duration_secs <= 0) {
        // Label traffic only flows in the streaming pipeline; the
        // one-shot demo's manual context is CFI-only.
        std::fprintf(stderr, "--ifc: using streaming mode (2s)\n");
        duration_secs = 2;
    }
    if (faultinject::armed() && duration_secs <= 0) {
        // The one-shot demo spins until it sees the Syscall message,
        // which an injected drop could lose forever; chaos runs use the
        // streaming pipeline (send timeouts, audit, bounded duration).
        std::fprintf(stderr,
                     "faultinject armed: using streaming mode (2s)\n");
        duration_secs = 2;
    }
    if (format != WireFormat::V1 && duration_secs <= 0) {
        // The one-shot demo's manual tryRecv loop speaks v1 only; the
        // framed format needs the verifier pipeline to decode.
        std::fprintf(stderr, "wire format %s: using streaming mode "
                             "(2s)\n",
                     wireFormatName(format));
        duration_secs = 2;
    }

    XprocChannel channel(1 << 10);
    return duration_secs > 0
               ? runStreaming(channel, duration_secs, num_shards, format,
                              health_enabled, spec_window, ifc_enabled)
               : runOneShot(channel);
}
