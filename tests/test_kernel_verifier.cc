/**
 * @file
 * Tests of bounded asynchronous validation end-to-end: kernel module
 * syscall gating, the verifier event loop, fork/exit lifecycle, epoch
 * timeouts, and the FPGA sequence-integrity path.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "faultinject/fault.h"
#include "fpga/fpga_channel.h"
#include "ipc/frame.h"
#include "ipc/posix_channels.h"
#include "ipc/shm_channel.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "telemetry/event_log.h"
#include "uarch/uarch_model_channel.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

KernelModule::Config
shortEpoch()
{
    KernelModule::Config config;
    config.epoch = std::chrono::milliseconds(50);
    return config;
}

TEST(Kernel, SyscallPassThroughWhenNotEnabled)
{
    KernelModule kernel;
    EXPECT_TRUE(kernel.syscallEnter(1, 0).isOk());
}

TEST(Kernel, EnableForkExitLifecycle)
{
    KernelModule kernel;
    EXPECT_TRUE(kernel.enableProcess(1).isOk());
    EXPECT_FALSE(kernel.enableProcess(1).isOk()); // duplicate
    EXPECT_TRUE(kernel.forkProcess(1, 2).isOk());
    EXPECT_FALSE(kernel.forkProcess(99, 100).isOk()); // unknown parent
    EXPECT_FALSE(kernel.forkProcess(1, 2).isOk());    // child in use
    EXPECT_TRUE(kernel.isEnabled(2));
    kernel.exitProcess(2);
    EXPECT_FALSE(kernel.isEnabled(2));
}

TEST(Kernel, SyscallResumesAfterVerifierAck)
{
    KernelModule kernel(shortEpoch());
    ASSERT_TRUE(kernel.enableProcess(1).isOk());

    // Pre-acked path (the pipelined fast path): resume before enter.
    kernel.syscallResume(1);
    EXPECT_TRUE(kernel.syscallEnter(1, 42).isOk());

    // The sync variable is consumed: the next syscall must wait again.
    // The acker resumes only once the gate is really waiting (`waits`
    // is bumped under the bucket lock before the cv wait), so the ack
    // can never overtake the gate however the threads are scheduled.
    std::thread acker([&kernel] {
        while (kernel.statsFor(1).waits == 0)
            std::this_thread::yield();
        kernel.syscallResume(1);
    });
    EXPECT_TRUE(kernel.syscallEnter(1, 43).isOk());
    acker.join();
    EXPECT_EQ(kernel.statsFor(1).syscalls, 2u);
    EXPECT_EQ(kernel.statsFor(1).waits, 1u);
}

TEST(Kernel, EpochTimeoutKillsProcess)
{
    KernelModule kernel(shortEpoch());
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    Status s = kernel.syscallEnter(1, 42);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::PolicyViolation);
    EXPECT_TRUE(kernel.isKilled(1));
    EXPECT_EQ(kernel.statsFor(1).epoch_timeouts, 1u);
}

TEST(Kernel, KilledProcessCannotSyscall)
{
    KernelModule kernel(shortEpoch());
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    kernel.killProcess(1, "policy violation");
    Status s = kernel.syscallEnter(1, 1);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.message(), "policy violation");
}

TEST(Kernel, KillUnblocksWaitingSyscall)
{
    KernelModule kernel; // default long epoch
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    std::thread killer([&kernel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        kernel.killProcess(1, "violation detected");
    });
    Status s = kernel.syscallEnter(1, 7);
    killer.join();
    EXPECT_FALSE(s.isOk());
}

// ---------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------

struct VerifierFixture
{
    KernelModule kernel{shortEpoch()};
    std::shared_ptr<PointerIntegrityPolicy> policy =
        std::make_shared<PointerIntegrityPolicy>();
};

TEST(Verifier, CreatesContextOnEnable)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    EXPECT_NE(verifier.contextFor(1), nullptr);
}

TEST(Verifier, ProcessesMessagesAndDetectsViolation)
{
    VerifierFixture fx;
    Verifier::Config config;
    config.kill_on_violation = false;
    Verifier verifier(fx.kernel, fx.policy, config);

    ShmChannel channel(64);
    verifier.attachChannel(&channel, /*owner=*/1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    channel.send(Message(Opcode::PointerCheck, 0x100, 0xBB)); // corrupt
    EXPECT_EQ(verifier.poll(), 2u);
    EXPECT_TRUE(verifier.hasViolation(1));
    EXPECT_EQ(verifier.statsFor(1).messages, 2u);
    EXPECT_EQ(verifier.statsFor(1).violations, 1u);
    EXPECT_FALSE(fx.kernel.isKilled(1)); // continue-after-violation mode
}

TEST(Verifier, KillsOnViolationByDefault)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    channel.send(Message(Opcode::PointerCheck, 0x100, 0xAA));
    verifier.poll();
    EXPECT_TRUE(fx.kernel.isKilled(1));
}

TEST(Verifier, SyscallMessageTriggersKernelResume)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    channel.send(Message(Opcode::Syscall, /*sysno=*/1));
    verifier.poll();
    EXPECT_EQ(verifier.statsFor(1).syscall_acks, 1u);
    // The kernel sync variable was set: syscallEnter returns immediately.
    EXPECT_TRUE(fx.kernel.syscallEnter(1, 1).isOk());
}

TEST(Verifier, NoResumeAfterViolationWhenKilling)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    channel.send(Message(Opcode::PointerCheck, 0x666, 0x1)); // violation
    channel.send(Message(Opcode::Syscall, 1)); // attacker-forged sync
    verifier.poll();
    EXPECT_EQ(verifier.statsFor(1).syscall_acks, 0u);
    EXPECT_FALSE(fx.kernel.syscallEnter(1, 1).isOk());
}

TEST(Verifier, ForkClonesPolicyContext)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel parent_channel(64);
    ShmChannel child_channel(64);
    verifier.attachChannel(&parent_channel, 1);
    verifier.attachChannel(&child_channel, 2);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    parent_channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    verifier.poll();
    ASSERT_TRUE(fx.kernel.forkProcess(1, 2).isOk());

    // Child inherits the parent's shadow store.
    Verifier::Config config;
    child_channel.send(Message(Opcode::PointerCheck, 0x100, 0xAA));
    verifier.poll();
    EXPECT_FALSE(verifier.hasViolation(2));
}

TEST(Verifier, ExitKeepsContextButStopsProcessing)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    verifier.poll();
    fx.kernel.exitProcess(1);
    // The context is kept for post-mortem inspection, but stale
    // messages after exit are ignored.
    EXPECT_NE(verifier.contextFor(1), nullptr);
    EXPECT_EQ(verifier.statsFor(1).messages, 1u);
    channel.send(Message(Opcode::PointerCheck, 0x100, 0xAA));
    verifier.poll();
    EXPECT_EQ(verifier.statsFor(1).messages, 1u);
    EXPECT_FALSE(verifier.hasViolation(1));
}

TEST(Verifier, SequenceGapIsIntegrityViolation)
{
    VerifierFixture fx;
    Verifier::Config config;
    config.kill_on_violation = false;
    Verifier verifier(fx.kernel, fx.policy, config);

    FpgaConfig fpga_config;
    fpga_config.host_buffer_messages = 4; // tiny: force drops
    fpga_config.mmio_write_ns = 0;
    FpgaChannel channel(fpga_config);
    channel.afu().setPidRegister(1);
    verifier.attachChannel(&channel, 1, /*device_stamped=*/true);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    // Overrun the 4-slot host buffer without draining: drops occur.
    for (int i = 0; i < 8; ++i)
        channel.send(Message(Opcode::Heartbeat, i));
    verifier.poll();
    // Send one more; its seq exposes the gap left by the drops.
    channel.send(Message(Opcode::Heartbeat, 99));
    verifier.poll();
    EXPECT_TRUE(verifier.hasViolation(1));
}

TEST(Verifier, DeviceStampedPidRouting)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    FpgaConfig fpga_config;
    fpga_config.mmio_write_ns = 0;
    FpgaChannel channel(fpga_config);
    verifier.attachChannel(&channel, /*owner=*/0, /*device_stamped=*/true);
    ASSERT_TRUE(fx.kernel.enableProcess(7).isOk());

    channel.afu().setPidRegister(7);
    channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    verifier.poll();
    EXPECT_EQ(verifier.statsFor(7).messages, 1u);
}

TEST(Verifier, BackgroundEventLoopHandshake)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    UarchModelChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    verifier.start();

    // Monitored-program side: send work + sync, then enter a syscall.
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x1000 + 8 * i, i))
                .isOk());
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1)).isOk());
    EXPECT_TRUE(fx.kernel.syscallEnter(1, 1).isOk());

    verifier.stop();
    EXPECT_EQ(verifier.statsFor(1).messages, 101u);
    EXPECT_FALSE(verifier.hasViolation(1));
}

TEST(Verifier, KillOnVerifierExit)
{
    VerifierFixture fx;
    Verifier::Config config;
    config.kill_on_verifier_exit = true;
    Verifier verifier(fx.kernel, fx.policy, config);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    ASSERT_TRUE(fx.kernel.enableProcess(2).isOk());
    fx.kernel.exitProcess(2); // already gone: must not be re-killed
    verifier.start();
    verifier.stop();
    // Without a verifier nothing can validate messages: pid 1 dies.
    EXPECT_TRUE(fx.kernel.isKilled(1));
    EXPECT_FALSE(fx.kernel.syscallEnter(1, 1).isOk());
}

TEST(Verifier, NoKillOnExitByDefault)
{
    VerifierFixture fx;
    {
        Verifier verifier(fx.kernel, fx.policy);
        ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
        verifier.start();
        verifier.stop();
    }
    EXPECT_FALSE(fx.kernel.isKilled(1));
}

// ---------------------------------------------------------------------
// Batched draining: the fast path must be invisible to the semantics.
// ---------------------------------------------------------------------

TEST(Verifier, SyscallAckOnlyAfterEarlierMessagesUnderBatching)
{
    // A DEFINE, a matching CHECK, and a Syscall sync all land in one
    // drained batch: the ack must reflect the fully-processed prefix
    // (the CHECK passes only if the DEFINE ran first), proving in-order
    // processing inside a batch.
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy); // default poll_batch = 64
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    for (int i = 0; i < 20; ++i)
        channel.send(Message(Opcode::PointerDefine, 0x1000 + 8 * i, i));
    for (int i = 0; i < 20; ++i)
        channel.send(Message(Opcode::PointerCheck, 0x1000 + 8 * i, i));
    channel.send(Message(Opcode::Syscall, 1));
    EXPECT_EQ(verifier.poll(), 41u);
    EXPECT_FALSE(verifier.hasViolation(1));
    EXPECT_EQ(verifier.statsFor(1).syscall_acks, 1u);
    EXPECT_TRUE(fx.kernel.syscallEnter(1, 1).isOk());
}

TEST(Verifier, ViolationBeforeSyscallInSameBatchSuppressesAck)
{
    // The violating CHECK and the attacker-forged Syscall sync arrive in
    // the same batch; the ack must still be suppressed.
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    channel.send(Message(Opcode::PointerCheck, 0x666, 0x1)); // violation
    channel.send(Message(Opcode::Syscall, 1));
    verifier.poll();
    EXPECT_EQ(verifier.statsFor(1).syscall_acks, 0u);
    EXPECT_FALSE(fx.kernel.syscallEnter(1, 1).isOk());
}

TEST(Verifier, PollBatchOneMatchesDefaultSemantics)
{
    // Degenerate single-message batches must behave identically.
    VerifierFixture fx;
    Verifier::Config config;
    config.kill_on_violation = false;
    config.poll_batch = 1;
    Verifier verifier(fx.kernel, fx.policy, config);
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    channel.send(Message(Opcode::PointerCheck, 0x100, 0xBB)); // corrupt
    channel.send(Message(Opcode::Syscall, 1));
    EXPECT_EQ(verifier.poll(), 3u);
    EXPECT_TRUE(verifier.hasViolation(1));
    EXPECT_EQ(verifier.statsFor(1).messages, 3u);
    EXPECT_EQ(verifier.statsFor(1).syscall_acks, 1u); // not killing
}

TEST(Verifier, PollBatchConfigIsClamped)
{
    VerifierFixture fx;
    Verifier::Config config;
    config.poll_batch = 0; // clamped up to 1
    Verifier verifier(fx.kernel, fx.policy, config);
    // The clamp happens at config time (constructor), not per poll:
    // the effective configuration already holds the bounded value.
    EXPECT_EQ(verifier.config().poll_batch, 1u);
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    EXPECT_EQ(verifier.poll(), 1u);

    Verifier::Config huge;
    huge.poll_batch = 1 << 20; // clamped down to kMaxPollBatch
    Verifier clamped(fx.kernel, fx.policy, huge);
    EXPECT_EQ(clamped.config().poll_batch, Verifier::kMaxPollBatch);
    ShmChannel channel2(1 << 10);
    clamped.attachChannel(&channel2, 1);
    for (int i = 0; i < 600; ++i)
        channel2.send(Message(Opcode::PointerDefine, 0x1000 + 8 * i, i));
    EXPECT_EQ(clamped.poll(), 600u);
}

TEST(Verifier, RoundRobinDrainsBothChannelsFairly)
{
    // Two busy channels for two processes: a full poll must drain both
    // regardless of attach order (the per-round batch cap prevents the
    // first channel from starving the second).
    VerifierFixture fx;
    Verifier::Config config;
    config.poll_batch = 8;
    Verifier verifier(fx.kernel, fx.policy, config);
    ShmChannel first(1 << 10), second(1 << 10);
    verifier.attachChannel(&first, 1);
    verifier.attachChannel(&second, 2);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    ASSERT_TRUE(fx.kernel.enableProcess(2).isOk());

    for (int i = 0; i < 100; ++i) {
        first.send(Message(Opcode::PointerDefine, 0x1000 + 8 * i, i));
        second.send(Message(Opcode::PointerDefine, 0x9000 + 8 * i, i));
    }
    EXPECT_EQ(verifier.poll(), 200u);
    EXPECT_EQ(verifier.statsFor(1).messages, 100u);
    EXPECT_EQ(verifier.statsFor(2).messages, 100u);
}

TEST(Verifier, SequenceGapDetectedUnderBatchedDrain)
{
    // Same integrity property as SequenceGapIsIntegrityViolation, but
    // with drops and the gap-exposing message drained in single batched
    // polls: batching must not mask a sequence gap.
    VerifierFixture fx;
    Verifier::Config config;
    config.kill_on_violation = false;
    config.poll_batch = Verifier::kMaxPollBatch;
    Verifier verifier(fx.kernel, fx.policy, config);

    FpgaConfig fpga_config;
    fpga_config.host_buffer_messages = 4;
    fpga_config.mmio_write_ns = 0;
    FpgaChannel channel(fpga_config);
    channel.afu().setPidRegister(1);
    verifier.attachChannel(&channel, 1, /*device_stamped=*/true);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());

    for (int i = 0; i < 8; ++i)
        channel.send(Message(Opcode::Heartbeat, i)); // overrun: drops
    verifier.poll(); // whole surviving prefix drains as ONE batch
    EXPECT_FALSE(verifier.hasViolation(1));
    channel.send(Message(Opcode::Heartbeat, 99)); // exposes the gap
    verifier.poll();
    EXPECT_TRUE(verifier.hasViolation(1));
}

TEST(Verifier, BatchSpanningMultipleProcessesUsesRightContext)
{
    // The pid memo must not leak one process's context into another's
    // messages when a drain alternates between channels.
    VerifierFixture fx;
    Verifier::Config config;
    config.kill_on_violation = false;
    Verifier verifier(fx.kernel, fx.policy, config);
    ShmChannel one(64), two(64);
    verifier.attachChannel(&one, 1);
    verifier.attachChannel(&two, 2);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    ASSERT_TRUE(fx.kernel.enableProcess(2).isOk());

    one.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    two.send(Message(Opcode::PointerCheck, 0x100, 0xAA)); // undefined for 2
    verifier.poll();
    EXPECT_FALSE(verifier.hasViolation(1));
    EXPECT_TRUE(verifier.hasViolation(2)); // use-after-free for pid 2
}

TEST(Verifier, VerifierKilledMidEpochDeniesNextSyscall)
{
    // The monitored program sends its System-Call message and enters the
    // syscall — but the verifier dies in between. Fail closed demands
    // the pause ends in denial within the epoch, not a hang and never a
    // spurious resume.
    faultinject::disarmAll();
    VerifierFixture fx; // 50ms epoch
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    verifier.start();

    faultinject::FaultPlan::instance().arm(
        faultinject::Site::VerifierCrash, 1.0, /*after_n=*/0,
        /*max_fires=*/1);
    ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1)).isOk());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!verifier.crashed() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(verifier.crashed());

    const auto start = std::chrono::steady_clock::now();
    const Status status =
        fx.kernel.syscallEnter(1, 1, /*spin_fast_path=*/false);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(fx.kernel.statsFor(1).epoch_timeouts, 1u);
    EXPECT_LE(elapsed, 10 * shortEpoch().epoch)
        << "denial must arrive within a bounded number of epochs";

    verifier.stop(); // must join the crashed loop without draining
    faultinject::disarmAll();
}

TEST(Verifier, MaxEntriesTracksPolicyMetadata)
{
    VerifierFixture fx;
    Verifier verifier(fx.kernel, fx.policy);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    for (int i = 0; i < 50; ++i)
        channel.send(Message(Opcode::PointerDefine, 0x1000 + 8 * i, i));
    channel.send(Message(Opcode::PointerBlockInvalidate, 0x1000, 400));
    verifier.poll();
    EXPECT_EQ(verifier.statsFor(1).max_entries, 50u);
}

// ---------------------------------------------------------------------
// Verifier parity across transports: one drain loop, same verdicts
// ---------------------------------------------------------------------

struct ParityCase
{
    ChannelKind kind;
    WireFormat format;
    const char *name;
};

void
PrintTo(const ParityCase &param, std::ostream *os)
{
    *os << param.name;
}

struct ParityRun
{
    VerifierProcessStats stats;
    std::vector<std::string> reasons; //!< event-log reasons, in order
};

/** The "reason" field of every JSON line in an event log. */
std::vector<std::string>
eventReasons(const std::string &path)
{
    std::vector<std::string> reasons;
    std::ifstream in(path);
    const std::string key = "\"reason\":\"";
    for (std::string line; std::getline(in, line);) {
        const std::size_t at = line.find(key);
        if (at == std::string::npos)
            continue;
        const std::size_t begin = at + key.size();
        reasons.push_back(line.substr(begin, line.find('"', begin) - begin));
    }
    return reasons;
}

/**
 * Feed one fixed v1-style stream through a channel of the given kind,
 * driving the verifier single-threaded with poll(). The stream holds a
 * pointer-integrity violation, four System-Call messages, and one
 * message taken out of the channel before the verifier sees it (a
 * sequence gap).
 */
ParityRun
runParityStream(const ParityCase &param)
{
    constexpr Pid kPid = 7;
    constexpr std::size_t kDropped = 7;
    Message stream[] = {
        Message(Opcode::PointerDefine, 0x1000, 0xAAAA),
        Message(Opcode::PointerCheck, 0x1000, 0xAAAA),
        Message(Opcode::Syscall, 1),
        Message(Opcode::PointerDefine, 0x2000, 0xBBBB),
        Message(Opcode::PointerCheck, 0x2000, 0xBAD), // violation
        Message(Opcode::PointerCheck, 0x1000, 0xAAAA),
        Message(Opcode::Syscall, 1),
        Message(Opcode::PointerCheck, 0x2000, 0xBBBB), // dropped
        Message(Opcode::PointerCheck, 0x1000, 0xAAAA), // sequence gap
        Message(Opcode::Syscall, 1),
        Message(Opcode::PointerInvalidate, 0x2000),
        Message(Opcode::Syscall, 1),
    };
    // Software senders state the pid the device would stamp, so a
    // violation renders the same message on every transport.
    for (Message &message : stream)
        message.pid = kPid;

    const std::string log_path = ::testing::TempDir() + "hq_parity_" +
                                 param.name + "_" +
                                 std::to_string(::getpid()) + ".jsonl";
    EXPECT_TRUE(telemetry::EventLog::instance().open(log_path));

    KernelModule kernel;
    Verifier::Config config;
    config.num_shards = 1;
    config.kill_on_violation = false;
    Verifier verifier(kernel, std::make_shared<PointerIntegrityPolicy>(),
                      config);
    std::unique_ptr<Channel> channel = makeChannel(param.kind, 64);
    if (param.format == WireFormat::V2) {
        EXPECT_TRUE(channel->negotiateFormat(WireFormat::V2));
    }
    // The FPGA path stamps pid and sequence on the device.
    const bool device = param.kind == ChannelKind::Fpga;
    if (device)
        static_cast<FpgaChannel &>(*channel).afu().setPidRegister(kPid);
    verifier.attachChannel(channel.get(), kPid, device);
    EXPECT_TRUE(kernel.enableProcess(kPid).isOk());

    // A v2 send of one message is a frame of one record.
    const std::size_t slots_per_send =
        param.format == WireFormat::V2 ? frame::frameSlots(1) : 1;
    for (std::size_t i = 0; i < std::size(stream); ++i) {
        if (i == kDropped)
            verifier.poll(); // everything before the drop is checked
        EXPECT_TRUE(channel->send(stream[i]).isOk());
        if (i == kDropped) {
            Message lost[frame::kMaxFrameSlots];
            EXPECT_EQ(channel->tryRecvBatch(lost, slots_per_send),
                      slots_per_send);
        } else if (i % 3 == 2) {
            verifier.poll(); // stay within the POSIX queue depth
        }
    }
    verifier.poll();
    telemetry::EventLog::instance().close();

    ParityRun run;
    run.stats = verifier.statsFor(kPid);
    run.reasons = eventReasons(log_path);
    std::remove(log_path.c_str());
    return run;
}

class VerifierParity : public ::testing::TestWithParam<ParityCase>
{
};

TEST_P(VerifierParity, SameVerdictsOnEveryTransport)
{
    if (GetParam().kind == ChannelKind::PosixMq && !MqChannel::supported())
        GTEST_SKIP() << "POSIX message queues unavailable on this host";

    const ParityRun reference = runParityStream(
        {ChannelKind::SharedMemory, WireFormat::V1, "reference"});
    EXPECT_EQ(reference.stats.messages, 11u);
    EXPECT_EQ(reference.stats.violations, 2u);
    EXPECT_EQ(reference.stats.syscall_acks, 4u);
    ASSERT_EQ(reference.reasons.size(), 2u);
    EXPECT_EQ(reference.reasons[1],
              "message sequence gap: integrity violated");

    const ParityRun run = runParityStream(GetParam());
    EXPECT_EQ(run.stats.messages, reference.stats.messages);
    EXPECT_EQ(run.stats.violations, reference.stats.violations);
    EXPECT_EQ(run.stats.syscall_acks, reference.stats.syscall_acks);
    EXPECT_EQ(run.reasons, reference.reasons);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, VerifierParity,
    ::testing::Values(
        ParityCase{ChannelKind::PosixMq, WireFormat::V1, "PosixMq"},
        ParityCase{ChannelKind::Pipe, WireFormat::V1, "Pipe"},
        ParityCase{ChannelKind::Socket, WireFormat::V1, "Socket"},
        ParityCase{ChannelKind::SharedMemory, WireFormat::V1,
                   "SharedMemory"},
        ParityCase{ChannelKind::Fpga, WireFormat::V1, "Fpga"},
        ParityCase{ChannelKind::UarchModel, WireFormat::V1, "UarchModel"},
        ParityCase{ChannelKind::CrossProcess, WireFormat::V1,
                   "CrossProcess"},
        ParityCase{ChannelKind::SharedMemory, WireFormat::V2,
                   "SharedMemoryV2"},
        ParityCase{ChannelKind::CrossProcess, WireFormat::V2,
                   "CrossProcessV2"}),
    [](const ::testing::TestParamInfo<ParityCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace hq
