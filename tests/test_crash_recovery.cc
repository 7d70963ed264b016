/**
 * @file
 * Verifier crash and restart: the fail-closed story end to end.
 *
 * HerQules' security argument requires that a dead verifier never
 * silently degrades enforcement (§3.4): with nobody to ack System-Call
 * messages, the kernel epoch timeout must deny the monitored program's
 * next syscall. Recovery is a *new* verifier that re-attaches the
 * channels, rebuilds per-process policy state via
 * KernelModule::replayProcessesTo, and resyncs to the live sequence
 * stream without reporting a spurious gap.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "faultinject/fault.h"
#include "ipc/shm_channel.h"
#include "kernel/kernel.h"
#include "policy/ifc.h"
#include "policy/pointer_integrity.h"
#include "policy/policy_module.h"
#include "telemetry/event_log.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

namespace fi = faultinject;

constexpr Pid kPid = 91;

KernelModule::Config
fastEpochConfig()
{
    KernelModule::Config config;
    config.epoch = std::chrono::milliseconds(100);
    config.spin = std::chrono::microseconds(10);
    return config;
}

Verifier::Config
noKillConfig()
{
    Verifier::Config config;
    config.kill_on_violation = false;
    return config;
}

class CrashRecoveryTest : public ::testing::Test
{
  protected:
    void SetUp() override { fi::disarmAll(); }
    void TearDown() override { fi::disarmAll(); }
};

TEST_F(CrashRecoveryTest, CrashAtMessageNStopsAllProcessing)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy, noKillConfig());
    kernel.enableProcess(kPid);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, kPid);

    // Crash exactly while handling the 6th message.
    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/5, /*max_fires=*/1);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x100 + i, i))
                .isOk());
    verifier.poll();

    EXPECT_TRUE(verifier.crashed());
    EXPECT_EQ(verifier.statsFor(kPid).messages, 5u)
        << "messages past the crash point must not be processed";
    // A dead verifier verifies nothing, ever.
    ASSERT_TRUE(
        channel.send(Message(Opcode::PointerCheck, 0x100, 0)).isOk());
    EXPECT_EQ(verifier.poll(), 0u);
}

TEST_F(CrashRecoveryTest, SyscallAfterCrashIsDeniedWithinEpochTimeout)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy, noKillConfig());
    kernel.enableProcess(kPid);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, kPid);

    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/0, /*max_fires=*/1);
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1, 0)).isOk());
    verifier.poll();
    ASSERT_TRUE(verifier.crashed());

    // The System-Call message died with the verifier: no ack will ever
    // arrive, so the pause must end in denial at the epoch — fail
    // closed, bounded in time.
    const auto start = std::chrono::steady_clock::now();
    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(kernel.statsFor(kPid).epoch_timeouts, 1u);
    EXPECT_LE(elapsed, 10 * fastEpochConfig().epoch)
        << "denial must arrive within a bounded number of epochs";
}

TEST_F(CrashRecoveryTest, RestartReplaysReattachesAndResyncsSequence)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    ShmChannel channel(1 << 10);

    auto crashed = std::make_unique<Verifier>(kernel, policy,
                                              noKillConfig());
    kernel.enableProcess(kPid); // delivered to `crashed` (the listener)
    crashed->attachChannel(&channel, kPid);
    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/5, /*max_fires=*/1);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x100 + i, i))
                .isOk());
    crashed->poll();
    ASSERT_TRUE(crashed->crashed());
    fi::disarmAll();

    // Restart: a new verifier takes over the kernel listener slot,
    // rebuilds per-process policy contexts from the kernel's live set,
    // and re-attaches the same channel.
    Verifier restarted(kernel, policy, noKillConfig());
    EXPECT_EQ(kernel.replayProcessesTo(&restarted), 1u);
    restarted.attachChannel(&channel, kPid);

    // New traffic continues the sender's sequence counter (the crashed
    // verifier consumed seqs 0..9). The restarted verifier must adopt
    // the live stream as its baseline, not report a spurious gap.
    ASSERT_TRUE(
        channel.send(Message(Opcode::PointerDefine, 0x500, 0xAA)).isOk());
    ASSERT_TRUE(
        channel.send(Message(Opcode::PointerCheck, 0x500, 0xAA)).isOk());
    restarted.poll();
    const auto stats = restarted.statsFor(kPid);
    EXPECT_EQ(stats.messages, 2u);
    EXPECT_EQ(stats.violations, 0u)
        << "restart resync must not flag a false sequence gap";

    // And enforcement is live again: a Syscall message gets acked and
    // the kernel pause resolves to Ok.
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1, 0)).isOk());
    restarted.poll();
    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    EXPECT_TRUE(status.isOk()) << status.toString();
    EXPECT_EQ(restarted.statsFor(kPid).syscall_acks, 1u);

    // The old verifier's destructor must not clobber the replacement's
    // listener registration (clearListener is conditional).
    crashed.reset();
    kernel.exitProcess(kPid); // delivered to `restarted`, no crash
}

TEST_F(CrashRecoveryTest, ReplayEmitsVerifierRestartRecord)
{
    const std::string path =
        ::testing::TempDir() + "crash_recovery_restart.jsonl";
    ASSERT_TRUE(telemetry::EventLog::instance().open(path));

    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    kernel.enableProcess(kPid);
    Verifier restarted(kernel, policy, noKillConfig());
    EXPECT_EQ(kernel.replayProcessesTo(&restarted), 1u);
    telemetry::EventLog::instance().close();

    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("\"type\":\"verifier_restart\""),
              std::string::npos)
        << contents;
    std::remove(path.c_str());
}

TEST_F(CrashRecoveryTest, StopAndDestroyAfterCrashInEventLoopIsSafe)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    kernel.enableProcess(kPid);
    ShmChannel channel(1 << 10);
    {
        Verifier verifier(kernel, policy, noKillConfig());
        verifier.attachChannel(&channel, kPid);
        verifier.start();

        fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                      /*after_n=*/0, /*max_fires=*/1);
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x1, 0x2))
                .isOk());
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!verifier.crashed() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_TRUE(verifier.crashed());

        // The injected crash cleared _running from inside the event
        // loop; stop() and the destructor must still join the thread
        // instead of leaking it joinable (std::terminate).
        verifier.stop();
    } // destructor runs here — must not terminate
    SUCCEED();
}

TEST_F(CrashRecoveryTest, KillOnVerifierExitKillsProcessesAfterCrash)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config = noKillConfig();
    config.kill_on_verifier_exit = true;
    Verifier verifier(kernel, policy, config);
    kernel.enableProcess(kPid);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, kPid);

    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/0, /*max_fires=*/1);
    ASSERT_TRUE(
        channel.send(Message(Opcode::PointerDefine, 0x1, 0x2)).isOk());
    verifier.poll();
    ASSERT_TRUE(verifier.crashed());

    // Without a verifier no violations can be detected: shutting down
    // must take the monitored processes with it (paper §3.4 default).
    verifier.stop();
    EXPECT_TRUE(kernel.isKilled(kPid));
    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::PolicyViolation);
}

// ---------------------------------------------------------------------
// Crash recovery under bounded speculation (DESIGN.md §13)
// ---------------------------------------------------------------------

TEST_F(CrashRecoveryTest, CrashDropsPendingBatchedAcksFailClosed)
{
    // Acks are queued per drained message and flushed once per poll
    // round. A crash inside the round must drop the whole pending batch
    // unsent: an ack credited by a half-processed round would resume a
    // syscall nobody fully validated.
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy, noKillConfig());
    kernel.enableProcess(kPid);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, kPid);

    // The Syscall message is handled (ack queued), then the crash fires
    // on the next message — before the round's flush.
    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/1, /*max_fires=*/1);
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1, 0)).isOk());
    ASSERT_TRUE(
        channel.send(Message(Opcode::PointerDefine, 0x100, 0)).isOk());
    verifier.poll();
    ASSERT_TRUE(verifier.crashed());

    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(kernel.statsFor(kPid).epoch_timeouts, 1u);
}

TEST_F(CrashRecoveryTest, SpeculationDepthSurvivesCrashAndReplay)
{
    // In-flight speculation lives in the kernel's per-process context,
    // so a verifier death must neither erase it (the retired-but-unacked
    // syscalls happened) nor let it grow past the window while nobody is
    // acking. A restarted verifier's acks drain the carried-over depth.
    KernelModule::Config kconfig = fastEpochConfig();
    kconfig.speculation_window = 4;
    KernelModule kernel(kconfig);
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    ShmChannel channel(1 << 10);

    auto crashed = std::make_unique<Verifier>(kernel, policy,
                                              noKillConfig());
    kernel.enableProcess(kPid);
    crashed->attachChannel(&channel, kPid);

    // Two syscalls retire ahead of their acks, then the verifier dies
    // before validating anything.
    ASSERT_TRUE(kernel.syscallEnter(kPid, 1).isOk());
    ASSERT_TRUE(kernel.syscallEnter(kPid, 1).isOk());
    ASSERT_EQ(kernel.speculationDepth(kPid), 2u);
    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/0, /*max_fires=*/1);
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1, 0)).isOk());
    crashed->poll();
    ASSERT_TRUE(crashed->crashed());
    fi::disarmAll();

    // The crash changed nothing about what already retired.
    EXPECT_EQ(kernel.speculationDepth(kPid), 2u);

    // Restart and replay: the carried-over depth is visible to the new
    // verifier via the kernel, and fresh sync messages drain it.
    Verifier restarted(kernel, policy, noKillConfig());
    EXPECT_EQ(kernel.replayProcessesTo(&restarted), 1u);
    restarted.attachChannel(&channel, kPid);
    EXPECT_EQ(kernel.speculationDepth(kPid), 2u)
        << "replay must not invent or drop acks";

    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1, 0)).isOk());
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1, 0)).isOk());
    restarted.poll();
    EXPECT_EQ(kernel.speculationDepth(kPid), 0u);

    // Fully caught up: even a barrier syscall (strict catch-up) passes
    // once its own sync message is acked.
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 59, 0)).isOk());
    restarted.poll();
    EXPECT_TRUE(kernel.syscallEnter(kPid, 59).isOk());

    crashed.reset();
    kernel.exitProcess(kPid);
}

// ---------------------------------------------------------------------
// IFC label-state recovery (policy diversity: the second table family)
// ---------------------------------------------------------------------

std::shared_ptr<MultiPolicy>
cfiPlusIfcPolicy()
{
    auto multi = std::make_shared<MultiPolicy>();
    multi->addPolicy(std::make_unique<PointerIntegrityPolicy>());
    multi->addPolicy(std::make_unique<IfcPolicy>());
    return multi;
}

IfcContext *
ifcContextOf(Verifier &verifier, Pid pid)
{
    auto *multi = static_cast<MultiPolicyContext *>(verifier.contextFor(pid));
    return multi == nullptr
               ? nullptr
               : static_cast<IfcContext *>(multi->contextFor("ifc"));
}

/**
 * A deterministic label workload: definitions across two facets, join
 * chains, a declassification, and passing sink checks — enough shape
 * that a half-applied table cannot collide with the full one.
 */
std::vector<Message>
labelStream()
{
    std::vector<Message> stream;
    for (int i = 0; i < 10; ++i)
        stream.push_back(
            Message(Opcode::LabelDef, 0x1000 + 8 * i, label::kSecret));
    for (int i = 0; i < 5; ++i)
        stream.push_back(
            Message(Opcode::LabelDef, 0x2000 + 8 * i, label::kTainted));
    // Propagation chains off both facets, converging at 0x5000.
    stream.push_back(Message(Opcode::LabelJoin, 0x1000, 0x3000));
    stream.push_back(Message(Opcode::LabelJoin, 0x3000, 0x3008));
    stream.push_back(Message(Opcode::LabelJoin, 0x2000, 0x5000));
    stream.push_back(Message(Opcode::LabelJoin, 0x3008, 0x5000));
    // Declassify one source; its entry must vanish from the table.
    stream.push_back(Message(Opcode::LabelDef, 0x1048, label::kPublic));
    // Sink checks that pass (unlabeled address / non-forbidden facet).
    stream.push_back(Message(Opcode::LabelCheck, 0x9000, label::kSecret));
    stream.push_back(Message(Opcode::LabelCheck, 0x2000, label::kSecret));
    return stream;
}

TEST_F(CrashRecoveryTest, IfcLabelTableReconstructsBitIdenticallyOnReplay)
{
    // Reference: an uncrashed verifier processes the whole label stream.
    const std::vector<Message> stream = labelStream();
    std::uint64_t reference_fingerprint = 0;
    std::vector<std::pair<Addr, std::uint64_t>> reference_table;
    {
        KernelModule kernel(fastEpochConfig());
        Verifier verifier(kernel, cfiPlusIfcPolicy(), noKillConfig());
        kernel.enableProcess(kPid);
        ShmChannel channel(1 << 10);
        verifier.attachChannel(&channel, kPid);
        for (const Message &message : stream)
            ASSERT_TRUE(channel.send(message).isOk());
        verifier.poll();
        IfcContext *ifc = ifcContextOf(verifier, kPid);
        ASSERT_NE(ifc, nullptr);
        ASSERT_GT(ifc->entryCount(), 0u);
        reference_fingerprint = ifc->tableFingerprint();
        reference_table = ifc->tableSnapshot();
    }

    // Crash mid-epoch with live labels: the fault fires while the label
    // table is half-built.
    KernelModule kernel(fastEpochConfig());
    ShmChannel channel(1 << 10);
    auto crashed = std::make_unique<Verifier>(kernel, cfiPlusIfcPolicy(),
                                              noKillConfig());
    kernel.enableProcess(kPid);
    crashed->attachChannel(&channel, kPid);
    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/7, /*max_fires=*/1);
    for (const Message &message : stream)
        ASSERT_TRUE(channel.send(message).isOk());
    crashed->poll();
    ASSERT_TRUE(crashed->crashed());
    fi::disarmAll();

    IfcContext *partial = ifcContextOf(*crashed, kPid);
    ASSERT_NE(partial, nullptr);
    EXPECT_NE(partial->tableFingerprint(), reference_fingerprint)
        << "crash should have left a partially built label table";

    // Restart: fresh contexts via the kernel's replay, then the sender
    // republishes its label state (the runtime knows every definition it
    // made; reconstruction = replaying them onto the empty slice).
    Verifier restarted(kernel, cfiPlusIfcPolicy(), noKillConfig());
    EXPECT_EQ(kernel.replayProcessesTo(&restarted), 1u);
    restarted.attachChannel(&channel, kPid);
    IfcContext *rebuilt = ifcContextOf(restarted, kPid);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(rebuilt->entryCount(), 0u)
        << "replayProcessesTo must mint a fresh, empty label slice";

    for (const Message &message : stream)
        ASSERT_TRUE(channel.send(message).isOk());
    restarted.poll();

    EXPECT_EQ(restarted.statsFor(kPid).violations, 0u)
        << "replaying a clean label stream must not flag violations";
    EXPECT_EQ(rebuilt->tableFingerprint(), reference_fingerprint)
        << "replayed label table diverged from the uncrashed reference";
    EXPECT_EQ(rebuilt->tableSnapshot(), reference_table)
        << "fingerprints collided but bindings differ";

    crashed.reset();
    kernel.exitProcess(kPid);
}

TEST_F(CrashRecoveryTest, IfcReplayConvergesFromAnyCrashPoint)
{
    // Sweep the crash point across the stream: wherever the verifier
    // dies, fresh-context replay converges to the same fingerprint.
    const std::vector<Message> stream = labelStream();
    std::uint64_t reference_fingerprint = 0;
    {
        KernelModule kernel(fastEpochConfig());
        Verifier verifier(kernel, cfiPlusIfcPolicy(), noKillConfig());
        kernel.enableProcess(kPid);
        ShmChannel channel(1 << 10);
        verifier.attachChannel(&channel, kPid);
        for (const Message &message : stream)
            ASSERT_TRUE(channel.send(message).isOk());
        verifier.poll();
        reference_fingerprint =
            ifcContextOf(verifier, kPid)->tableFingerprint();
    }

    for (std::size_t crash_at = 1; crash_at < stream.size();
         crash_at += 5) {
        KernelModule kernel(fastEpochConfig());
        ShmChannel channel(1 << 10);
        auto crashed = std::make_unique<Verifier>(
            kernel, cfiPlusIfcPolicy(), noKillConfig());
        kernel.enableProcess(kPid);
        crashed->attachChannel(&channel, kPid);
        fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                      crash_at, /*max_fires=*/1);
        for (const Message &message : stream)
            ASSERT_TRUE(channel.send(message).isOk());
        crashed->poll();
        ASSERT_TRUE(crashed->crashed()) << "crash_at=" << crash_at;
        fi::disarmAll();

        Verifier restarted(kernel, cfiPlusIfcPolicy(), noKillConfig());
        ASSERT_EQ(kernel.replayProcessesTo(&restarted), 1u);
        restarted.attachChannel(&channel, kPid);
        for (const Message &message : stream)
            ASSERT_TRUE(channel.send(message).isOk());
        restarted.poll();
        EXPECT_EQ(ifcContextOf(restarted, kPid)->tableFingerprint(),
                  reference_fingerprint)
            << "replay diverged when crashing at message " << crash_at;

        crashed.reset();
        kernel.exitProcess(kPid);
    }
}

} // namespace
} // namespace hq
