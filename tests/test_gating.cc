/**
 * @file
 * Conformance suite for the asynchronous ack path and bounded
 * speculation (DESIGN.md §13): batched epoch acknowledgements, the
 * speculation window with its barrier syscalls, ack-banking clamps,
 * the spec_kill audit record, and a sharded soak that pins
 * max_spec_depth <= K for each swept window.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ipc/shm_channel.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "telemetry/event_log.h"
#include "telemetry/telemetry.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

KernelModule::Config
shortEpoch(std::size_t window = 0)
{
    KernelModule::Config config;
    config.epoch = std::chrono::milliseconds(50);
    config.speculation_window = window;
    return config;
}

// ---------------------------------------------------------------------
// Syscall classification
// ---------------------------------------------------------------------

TEST(GatingClassify, SpeculationBarriers)
{
    // Process-control syscalls always enforce strict catch-up: their
    // effects (new processes, image replacement, signals, exit) cannot
    // be undone by a late kill.
    for (std::uint64_t sysno : {56u, 57u, 58u, 59u, 60u, 62u, 231u, 322u})
        EXPECT_TRUE(KernelModule::isSpeculationBarrier(sysno)) << sysno;
    for (std::uint64_t sysno : {0u, 1u, 2u, 39u, 228u})
        EXPECT_FALSE(KernelModule::isSpeculationBarrier(sysno)) << sysno;
}

TEST(GatingClassify, ReadOnlySyscalls)
{
    for (std::uint64_t sysno :
         {39u, 63u, 79u, 96u, 102u, 110u, 186u, 228u, 318u})
        EXPECT_TRUE(KernelModule::isReadOnlySyscall(sysno)) << sysno;
    // Write-like and process-control syscalls are never elidable.
    for (std::uint64_t sysno : {0u, 1u, 2u, 56u, 59u, 231u})
        EXPECT_FALSE(KernelModule::isReadOnlySyscall(sysno)) << sysno;
}

TEST(GatingClassify, ElisionSkipsBarrierMachinery)
{
    // With elision on, a read-only syscall passes without consuming any
    // gate state — no ack, no pre-arm, no speculation credit.
    KernelModule::Config config = shortEpoch();
    config.elide_readonly_syscalls = true;
    KernelModule kernel(config);
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    EXPECT_TRUE(kernel.syscallEnter(1, 228).isOk()); // clock_gettime
    EXPECT_EQ(kernel.statsFor(1).waits, 0u);
    EXPECT_EQ(kernel.statsFor(1).spec_syscalls, 0u);
    EXPECT_EQ(kernel.speculationDepth(1), 0u);
}

// ---------------------------------------------------------------------
// Batched acknowledgements
// ---------------------------------------------------------------------

TEST(GatingAck, BlockedEnterReleasedByBatchedAck)
{
    // Two processes block at their gates; one syscallResumeBatch call
    // carrying both acks must release both.
    KernelModule kernel(shortEpoch());
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    ASSERT_TRUE(kernel.enableProcess(2).isOk());

    Status first = Status::ok(), second = Status::ok();
    std::thread enter1([&] {
        first = kernel.syscallEnter(1, 1, /*spin_fast_path=*/false);
    });
    std::thread enter2([&] {
        second = kernel.syscallEnter(2, 1, /*spin_fast_path=*/false);
    });
    // Ack only once both threads are blocked: a fixed sleep let a slow
    // thread reach its gate after the ack, already credited, and pass
    // without waiting. A wait is counted under the gate lock that the
    // ack takes too, so a counted waiter cannot miss the ack. The
    // deadline only bounds a broken gate that never blocks.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((kernel.statsFor(1).waits == 0 ||
            kernel.statsFor(2).waits == 0) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    const KernelModule::SyscallAck acks[] = {{1, 1}, {2, 1}};
    kernel.syscallResumeBatch(acks, 2);
    enter1.join();
    enter2.join();
    EXPECT_TRUE(first.isOk());
    EXPECT_TRUE(second.isOk());
    EXPECT_EQ(kernel.statsFor(1).waits, 1u);
    EXPECT_EQ(kernel.statsFor(2).waits, 1u);
}

TEST(GatingAck, MergedAckCountCreditsMultipleSyscalls)
{
    // Window 4: retire three syscalls ahead of their acks, then credit
    // all three with one merged {pid, count=3} entry.
    KernelModule kernel(shortEpoch(4));
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(kernel.syscallEnter(1, 1).isOk());
    EXPECT_EQ(kernel.speculationDepth(1), 3u);

    const KernelModule::SyscallAck ack{1, 3};
    kernel.syscallResumeBatch(&ack, 1);
    EXPECT_EQ(kernel.speculationDepth(1), 0u);
    EXPECT_EQ(kernel.statsFor(1).waits, 0u);
}

TEST(GatingAck, AckBankingIsClampedToOnePipelinedCredit)
{
    // A flood of forged acks before any syscall must bank at most ONE
    // admission (the legitimate pipelined pre-ack) — the counter gate
    // keeps the old boolean's semantics under strict mode.
    KernelModule kernel(shortEpoch());
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    for (int i = 0; i < 10; ++i)
        kernel.syscallResume(1);

    EXPECT_TRUE(kernel.syscallEnter(1, 1).isOk()); // the banked credit
    // No acker: the second syscall must NOT ride the flood. Fail closed
    // via epoch timeout.
    Status s = kernel.syscallEnter(1, 1, /*spin_fast_path=*/false);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(kernel.statsFor(1).epoch_timeouts, 1u);
}

// ---------------------------------------------------------------------
// Bounded speculation
// ---------------------------------------------------------------------

TEST(GatingSpec, WindowConfigIsClamped)
{
    KernelModule::Config config;
    config.speculation_window = 1 << 20;
    KernelModule kernel(config);
    EXPECT_EQ(kernel.config().speculation_window,
              KernelModule::kMaxSpeculationWindow);

    KernelModule::Config zero;
    zero.speculation_window = 0;
    KernelModule strict(zero);
    EXPECT_EQ(strict.config().speculation_window, 0u);
}

/** Instance name for a swept speculation window: K0, K1, K4. */
std::string
windowName(const ::testing::TestParamInfo<std::size_t> &info)
{
    return "K" + std::to_string(info.param);
}

class GatingSpecWindow : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GatingSpecWindow, AdmitsAheadOfAcksThenFailsClosed)
{
    // Window K: exactly K syscalls retire with zero acks; syscall K+1
    // exceeds the bound and must be denied within the epoch. K = 1 is
    // the smallest run-ahead: one syscall ahead of its own ack.
    const std::size_t window = GetParam();
    KernelModule kernel(shortEpoch(window));
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    for (std::size_t i = 0; i < window; ++i)
        EXPECT_TRUE(kernel.syscallEnter(1, 1).isOk()) << i;
    EXPECT_EQ(kernel.statsFor(1).waits, 0u);
    EXPECT_EQ(kernel.statsFor(1).spec_syscalls, window);
    EXPECT_EQ(kernel.statsFor(1).max_spec_depth, window);
    EXPECT_EQ(kernel.speculationDepth(1), window);

    Status s = kernel.syscallEnter(1, 1, /*spin_fast_path=*/false);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(kernel.statsFor(1).epoch_timeouts, 1u);
    EXPECT_EQ(kernel.statsFor(1).max_spec_depth, window);
}

INSTANTIATE_TEST_SUITE_P(Windows, GatingSpecWindow,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         windowName);

TEST(GatingSpec, BarrierSyscallEnforcesStrictCatchUp)
{
    // Window 4 admits write-like syscalls speculatively, but an
    // execve-like barrier demands every outstanding ack first.
    KernelModule kernel(shortEpoch(4));
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    ASSERT_TRUE(kernel.syscallEnter(1, 1).isOk()); // depth 1, fine
    Status s = kernel.syscallEnter(1, 59, /*spin_fast_path=*/false);
    EXPECT_FALSE(s.isOk()); // barrier: unacked depth 1 blocks it
    EXPECT_EQ(kernel.statsFor(1).epoch_timeouts, 1u);
}

TEST(GatingSpec, ViolationInsideWindowKillsBeforeNextSyscall)
{
    // The attack the bound defends: d ≤ K syscalls retire ahead of
    // validation, the verifier then finds the violation — the kill must
    // land before syscall d+1 retires.
    KernelModule kernel(shortEpoch(4));
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy); // kill_on_violation default
    ShmChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(kernel.enableProcess(1).isOk());

    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(kernel.syscallEnter(1, 1).isOk()); // depth 3 ≤ 4
    channel.send(Message(Opcode::PointerCheck, 0x666, 0x1)); // violation
    verifier.poll();
    EXPECT_TRUE(kernel.isKilled(1));
    EXPECT_FALSE(kernel.syscallEnter(1, 1).isOk());
    EXPECT_EQ(kernel.statsFor(1).syscalls, 4u); // the 4th never retired
}

TEST(GatingSpec, SpecKillWritesAuditRecordWithDepth)
{
    const std::string path =
        "/tmp/hq_gating_spec_kill_" + std::to_string(::getpid()) +
        ".jsonl";
    ASSERT_TRUE(telemetry::EventLog::instance().open(path));

    KernelModule kernel(shortEpoch(4));
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    ASSERT_TRUE(kernel.syscallEnter(1, 1).isOk());
    ASSERT_TRUE(kernel.syscallEnter(1, 1).isOk()); // unacked depth 2
    kernel.killProcess(1, "policy violation");
    telemetry::EventLog::instance().close();

    std::ifstream in(path);
    std::stringstream contents;
    contents << in.rdbuf();
    std::remove(path.c_str());
    EXPECT_NE(contents.str().find("\"type\":\"spec_kill\""),
              std::string::npos)
        << contents.str();
    EXPECT_NE(contents.str().find("\"arg0\":2"), std::string::npos)
        << "record must carry the in-window depth: " << contents.str();
    EXPECT_NE(contents.str().find("\"arg1\":4"), std::string::npos)
        << "record must carry the configured window: " << contents.str();
}

TEST(GatingSpec, StrictKillWritesNoSpecKillRecord)
{
    const std::string path =
        "/tmp/hq_gating_strict_kill_" + std::to_string(::getpid()) +
        ".jsonl";
    ASSERT_TRUE(telemetry::EventLog::instance().open(path));

    KernelModule kernel(shortEpoch());
    ASSERT_TRUE(kernel.enableProcess(1).isOk());
    kernel.killProcess(1, "policy violation"); // depth 0: nothing retired
    telemetry::EventLog::instance().close();

    std::ifstream in(path);
    std::stringstream contents;
    contents << in.rdbuf();
    std::remove(path.c_str());
    EXPECT_EQ(contents.str().find("spec_kill"), std::string::npos)
        << contents.str();
}

// ---------------------------------------------------------------------
// End-to-end: batching + speculation under a sharded verifier
// ---------------------------------------------------------------------

class GatingSoak : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GatingSoak, ShardedSpeculativePipelineStaysSound)
{
    // 4 shards × 8 processes under window K: every benign process
    // completes all syscalls with zero violations, no process ever
    // retires more than K syscalls ahead of its acks, and the
    // telemetry confirms the async path actually engaged.
    const std::size_t window = GetParam();
    constexpr int kProcs = 8;
    constexpr int kSyscallsPerProc = 64;

    telemetry::setEnabled(true);
    telemetry::Registry::instance().reset();

    KernelModule::Config kconfig;
    kconfig.epoch = std::chrono::milliseconds(500);
    kconfig.speculation_window = window;
    KernelModule kernel(kconfig);
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config vconfig;
    vconfig.num_shards = 4;
    Verifier verifier(kernel, policy, vconfig);

    std::vector<std::unique_ptr<ShmChannel>> channels;
    for (int p = 0; p < kProcs; ++p) {
        channels.push_back(std::make_unique<ShmChannel>(1 << 12));
        verifier.attachChannel(channels.back().get(),
                               static_cast<Pid>(p + 1));
        ASSERT_TRUE(kernel.enableProcess(static_cast<Pid>(p + 1)).isOk());
    }
    verifier.start();

    std::vector<std::thread> procs;
    std::vector<int> failures(kProcs, 0);
    for (int p = 0; p < kProcs; ++p) {
        procs.emplace_back([&, p] {
            const Pid pid = static_cast<Pid>(p + 1);
            ShmChannel &channel = *channels[p];
            for (int i = 0; i < kSyscallsPerProc; ++i) {
                const std::uint64_t addr = 0x1000 + 16 * i;
                while (!channel
                            .send(Message(Opcode::PointerDefine, addr, i))
                            .isOk())
                    std::this_thread::yield();
                while (!channel
                            .send(Message(Opcode::PointerCheck, addr, i))
                            .isOk())
                    std::this_thread::yield();
                while (!channel.send(Message(Opcode::Syscall, 1)).isOk())
                    std::this_thread::yield();
                if (!kernel.syscallEnter(pid, 1).isOk())
                    ++failures[p];
            }
        });
    }
    for (std::thread &t : procs)
        t.join();
    verifier.stop();

    for (int p = 0; p < kProcs; ++p) {
        const Pid pid = static_cast<Pid>(p + 1);
        EXPECT_EQ(failures[p], 0) << "pid " << pid;
        EXPECT_FALSE(verifier.hasViolation(pid)) << "pid " << pid;
        EXPECT_FALSE(kernel.isKilled(pid)) << "pid " << pid;
        EXPECT_EQ(kernel.statsFor(pid).syscalls,
                  static_cast<std::uint64_t>(kSyscallsPerProc))
            << "pid " << pid;
        EXPECT_LE(kernel.statsFor(pid).max_spec_depth, window)
            << "pid " << pid;
    }
    // The coalesced-ack path carried the load (every ack goes through
    // the batch call, so the counter tracks total acks credited).
    EXPECT_GT(
        telemetry::Registry::instance().counter("verifier.acks_batched")
            .value(),
        0u);
    telemetry::setEnabled(false);
    telemetry::Registry::instance().reset();
}

INSTANTIATE_TEST_SUITE_P(Windows, GatingSoak,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{4}),
                         windowName);

} // namespace
} // namespace hq
