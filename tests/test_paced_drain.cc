/**
 * @file
 * Liveness of the paced shard worker (DESIGN.md §8): after a short
 * drain the worker waits for a gate kick, stop() or one drain quantum
 * before it peeks again. None of these tests calls poll(); only the
 * started workers drain. Every deadline is seconds long, so a stalled
 * worker fails the test instead of a fast one passing by luck.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "uarch/uarch_model_channel.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

constexpr auto kDeadline = std::chrono::seconds(20);

/** Poll `done` every millisecond until it holds or kDeadline passes. */
bool
eventually(const std::function<bool()> &done)
{
    const auto deadline = std::chrono::steady_clock::now() + kDeadline;
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

struct PacedFixture
{
    KernelModule kernel;
    std::shared_ptr<PointerIntegrityPolicy> policy =
        std::make_shared<PointerIntegrityPolicy>();
};

TEST(PacedDrain, FlagsAViolationThatNoSyscallFollows)
{
    PacedFixture fx;
    Verifier verifier(fx.kernel, fx.policy); // kill_on_violation
    UarchModelChannel channel(64);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    verifier.start();

    // Let the shard go idle first, so the planted check lands on a
    // parked worker that only the quantum (no kick) can wake.
    ASSERT_TRUE(channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA))
                    .isOk());
    ASSERT_TRUE(eventually([&] { return verifier.totalMessages() == 1; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(fx.kernel.isKilled(1));

    ASSERT_TRUE(channel.send(Message(Opcode::PointerCheck, 0x100, 0xBB))
                    .isOk());
    EXPECT_TRUE(eventually([&] { return fx.kernel.isKilled(1); }));
    verifier.stop();
    EXPECT_TRUE(verifier.hasViolation(1));
    EXPECT_EQ(verifier.statsFor(1).violations, 1u);
    EXPECT_EQ(fx.kernel.statsFor(1).syscalls, 0u);
}

TEST(PacedDrain, BackPressureOnATinyRingVerifiesEveryMessage)
{
    PacedFixture fx;
    Verifier::Config config;
    config.num_shards = 1;
    Verifier verifier(fx.kernel, fx.policy, config);
    UarchModelChannel channel(8); // the producer fills it in 8 sends
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    verifier.start();

    constexpr std::uint64_t kMessages = 100'000;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x100 + (i & 63) * 8,
                                 i))
                .isOk());
    }
    EXPECT_TRUE(
        eventually([&] { return verifier.totalMessages() == kMessages; }));
    verifier.stop();
    EXPECT_EQ(verifier.statsFor(1).messages, kMessages);
    EXPECT_EQ(verifier.statsFor(1).violations, 0u);
    EXPECT_FALSE(fx.kernel.isKilled(1));
}

TEST(PacedDrain, StrictGateRetiresEverySyscallAfterAShortDrain)
{
    PacedFixture fx; // strict gate (window 0), 2 s epoch
    Verifier verifier(fx.kernel, fx.policy);
    UarchModelChannel channel(4096);
    verifier.attachChannel(&channel, 1);
    ASSERT_TRUE(fx.kernel.enableProcess(1).isOk());
    verifier.start();

    // Each syscall follows fewer than kMaxPollBatch messages, so every
    // drain ends short and the worker waits: only the gate kick may
    // end that wait in time.
    constexpr std::uint64_t kSyscalls = 2'000;
    constexpr std::uint64_t kMessagesPerSyscall = 100;
    static_assert(kMessagesPerSyscall < Verifier::kMaxPollBatch);
    for (std::uint64_t s = 0; s < kSyscalls; ++s) {
        for (std::uint64_t i = 0; i + 1 < kMessagesPerSyscall; i += 2) {
            const std::uint64_t slot = 0x1000 + i * 8;
            ASSERT_TRUE(channel.send(Message(Opcode::PointerDefine, slot, s))
                            .isOk());
            ASSERT_TRUE(channel.send(Message(Opcode::PointerCheck, slot, s))
                            .isOk());
        }
        ASSERT_TRUE(channel.send(Message(Opcode::Syscall, 1)).isOk());
        ASSERT_TRUE(fx.kernel.syscallEnter(1, 1).isOk()) << "syscall " << s;
    }
    verifier.stop();

    const KernelProcessStats kernel_stats = fx.kernel.statsFor(1);
    EXPECT_EQ(kernel_stats.syscalls, kSyscalls);
    EXPECT_EQ(kernel_stats.epoch_timeouts, 0u);
    EXPECT_EQ(kernel_stats.spec_syscalls, 0u);
    EXPECT_EQ(verifier.statsFor(1).syscall_acks, kSyscalls);
    EXPECT_EQ(verifier.statsFor(1).messages,
              kSyscalls * (kMessagesPerSyscall + 1));
    EXPECT_EQ(verifier.statsFor(1).violations, 0u);
}

} // namespace
} // namespace hq
