/**
 * @file
 * Sharded-verifier suite: pid->shard assignment properties, shard
 * isolation (no cross-shard message leakage, violation containment),
 * and a seeded 4-shard x 8-process fault-injection soak asserting
 * per-shard recovery with zero silent accepts.
 *
 * Tests whose name contains "Soak" are registered under the `soak`
 * ctest label (tests/CMakeLists.txt) and excluded from tier1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "faultinject/fault.h"
#include "ipc/shm_channel.h"
#include "kernel/kernel.h"
#include "policy/ifc.h"
#include "policy/pointer_integrity.h"
#include "policy/policy_module.h"
#include "telemetry/event_log.h"
#include "telemetry/telemetry.h"
#include "verifier/shard.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

namespace fi = faultinject;

KernelModule::Config
fastEpochConfig()
{
    KernelModule::Config config;
    config.epoch = std::chrono::milliseconds(100);
    config.spin = std::chrono::microseconds(10);
    return config;
}

// ---------------------------------------------------------------------
// Assignment properties (pure hash + registry)
// ---------------------------------------------------------------------

TEST(ShardAssignment, IsStableUnderStartExitChurn)
{
    // The mapping is a pure hash of the pid: no amount of start/exit
    // churn — or a registry rebuild (verifier restart) — may move a
    // pid to a different shard.
    constexpr std::size_t kShards = 4;
    Rng rng(0xC0FFEE);
    ShardRegistry registry(kShards);

    std::map<Pid, std::size_t> first_seen;
    std::vector<Pid> live;
    for (int round = 0; round < 2000; ++round) {
        if (live.empty() || rng.chance(0.6)) {
            const Pid pid = static_cast<Pid>(rng.nextInRange(1, 500));
            const std::size_t shard = registry.assign(pid);
            ASSERT_LT(shard, kShards);
            auto [it, inserted] = first_seen.emplace(pid, shard);
            ASSERT_EQ(it->second, shard)
                << "pid " << pid << " moved shards under churn";
            if (inserted ||
                std::find(live.begin(), live.end(), pid) == live.end())
                live.push_back(pid);
        } else {
            const std::size_t victim = rng.nextBelow(live.size());
            const Pid pid = live[victim];
            registry.release(pid);
            live.erase(live.begin() + victim);
            // Re-assignment after an exit lands on the same shard.
            EXPECT_EQ(registry.shardOf(pid), first_seen[pid]);
        }
        EXPECT_EQ(registry.liveCount(), live.size());
    }

    // A fresh registry (restart) reproduces every assignment.
    ShardRegistry rebuilt(kShards);
    for (const auto &[pid, shard] : first_seen)
        EXPECT_EQ(rebuilt.assign(pid), shard);

    // Per-shard live counts always sum to the total.
    std::size_t sum = 0;
    for (std::size_t s = 0; s < kShards; ++s)
        sum += registry.liveOn(s);
    EXPECT_EQ(sum, registry.liveCount());
}

TEST(ShardAssignment, AssignIsIdempotentAndReleaseExact)
{
    ShardRegistry registry(4);
    const std::size_t shard = registry.assign(42);
    EXPECT_EQ(registry.assign(42), shard); // idempotent
    EXPECT_EQ(registry.liveCount(), 1u);
    EXPECT_TRUE(registry.isLive(42));
    EXPECT_TRUE(registry.release(42));
    EXPECT_FALSE(registry.release(42)); // second release is a no-op
    EXPECT_EQ(registry.liveCount(), 0u);
    EXPECT_FALSE(registry.isLive(42));
}

TEST(ShardAssignment, SpreadsDensePidsAcrossShards)
{
    // Fork storms allocate pids densely; the splitmix64 finalizer must
    // spread consecutive pids instead of striding or clumping.
    constexpr std::size_t kShards = 8;
    constexpr std::size_t kPids = 1000;
    std::size_t per_shard[kShards] = {};
    for (Pid pid = 1; pid <= kPids; ++pid)
        ++per_shard[shardIndexFor(pid, kShards)];
    for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_GT(per_shard[s], kPids / kShards / 2)
            << "shard " << s << " starved";
        EXPECT_LT(per_shard[s], kPids / kShards * 2)
            << "shard " << s << " overloaded";
    }
}

TEST(ShardAssignment, SingleShardMapsEveryPidToZero)
{
    for (Pid pid = 0; pid < 100; ++pid) {
        EXPECT_EQ(shardIndexFor(pid, 1), 0u);
        EXPECT_EQ(shardIndexFor(pid, 0), 0u); // guard, not a divide
    }
}

// ---------------------------------------------------------------------
// Verifier shard isolation
// ---------------------------------------------------------------------

/** Pick `count` pids that all live on distinct shards of `verifier`. */
std::vector<Pid>
pidsOnDistinctShards(const Verifier &verifier, std::size_t count)
{
    std::vector<Pid> pids;
    std::set<std::size_t> used;
    for (Pid candidate = 1; pids.size() < count && candidate < 10000;
         ++candidate) {
        const std::size_t shard = verifier.shardOf(candidate);
        if (used.insert(shard).second)
            pids.push_back(candidate);
    }
    return pids;
}

TEST(ShardVerifier, ConfigResolvesShardCount)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();

    Verifier::Config four;
    four.num_shards = 4;
    Verifier sharded(kernel, policy, four);
    EXPECT_EQ(sharded.numShards(), 4u);
    EXPECT_EQ(sharded.config().num_shards, 4u);

    Verifier::Config over;
    over.num_shards = 1000; // clamped to the supported maximum
    Verifier clamped(kernel, policy, over);
    EXPECT_EQ(clamped.numShards(), Verifier::kMaxShards);

    Verifier::Config automatic; // num_shards = 0 -> hardware-bounded
    Verifier auto_sharded(kernel, policy, automatic);
    EXPECT_GE(auto_sharded.numShards(), 1u);
    EXPECT_LE(auto_sharded.numShards(), Verifier::kMaxShards);
}

TEST(ShardVerifier, MessagesStayOnTheOwningShard)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.num_shards = 4;
    Verifier verifier(kernel, policy, config);

    // One pid per shard, each with its own channel and message count.
    const std::vector<Pid> pids = pidsOnDistinctShards(verifier, 4);
    ASSERT_EQ(pids.size(), 4u);
    std::vector<std::unique_ptr<ShmChannel>> channels;
    for (std::size_t i = 0; i < pids.size(); ++i) {
        ASSERT_TRUE(kernel.enableProcess(pids[i]).isOk());
        channels.push_back(std::make_unique<ShmChannel>(1 << 10));
        verifier.attachChannel(channels.back().get(), pids[i]);
    }

    // Distinct per-pid volumes so a cross-shard mixup cannot cancel out.
    for (std::size_t i = 0; i < pids.size(); ++i) {
        for (std::size_t k = 0; k < 10 * (i + 1); ++k)
            ASSERT_TRUE(channels[i]
                            ->send(Message(Opcode::PointerDefine,
                                           0x1000 * (i + 1) + 8 * k, k))
                            .isOk());
    }
    EXPECT_EQ(verifier.poll(), 10u + 20u + 30u + 40u);

    for (std::size_t i = 0; i < pids.size(); ++i) {
        const std::size_t home = verifier.shardOf(pids[i]);
        EXPECT_EQ(verifier.shardMessages(home), 10 * (i + 1))
            << "shard " << home << " processed foreign messages";
        EXPECT_EQ(verifier.statsFor(pids[i]).messages, 10 * (i + 1));
    }
}

TEST(ShardVerifier, ViolationOnOneShardKillsOnlyThatShardsPid)
{
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.num_shards = 4;
    config.kill_on_violation = true;
    Verifier verifier(kernel, policy, config);

    const std::vector<Pid> pids = pidsOnDistinctShards(verifier, 4);
    ASSERT_EQ(pids.size(), 4u);
    std::vector<std::unique_ptr<ShmChannel>> channels;
    for (Pid pid : pids) {
        ASSERT_TRUE(kernel.enableProcess(pid).isOk());
        channels.push_back(std::make_unique<ShmChannel>(1 << 10));
        verifier.attachChannel(channels.back().get(), pid);
    }

    // Everyone defines a pointer; only pids[1] corrupts its check.
    for (std::size_t i = 0; i < pids.size(); ++i) {
        ASSERT_TRUE(channels[i]
                        ->send(Message(Opcode::PointerDefine, 0x40, 0xAA))
                        .isOk());
        ASSERT_TRUE(channels[i]
                        ->send(Message(Opcode::PointerCheck, 0x40,
                                       i == 1 ? 0xBAD : 0xAA))
                        .isOk());
    }
    verifier.poll();

    for (std::size_t i = 0; i < pids.size(); ++i) {
        if (i == 1) {
            EXPECT_TRUE(verifier.hasViolation(pids[i]));
            EXPECT_TRUE(kernel.isKilled(pids[i]))
                << "violating pid must be killed";
            continue;
        }
        EXPECT_FALSE(verifier.hasViolation(pids[i]))
            << "violation leaked to shard " << verifier.shardOf(pids[i]);
        EXPECT_FALSE(kernel.isKilled(pids[i]))
            << "kill leaked to an innocent shard's pid";
    }

    // The innocent pids still get syscall acks end to end.
    for (std::size_t i = 0; i < pids.size(); ++i) {
        if (i == 1)
            continue;
        ASSERT_TRUE(
            channels[i]->send(Message(Opcode::Syscall, 1, 0)).isOk());
        verifier.poll();
        EXPECT_TRUE(kernel
                        .syscallEnter(pids[i], 1,
                                      /*spin_fast_path=*/false)
                        .isOk());
    }
}

TEST(ShardVerifier, WorkerThreadsDrainAllShards)
{
    // start()/stop() path: one worker per shard, all of them draining.
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.num_shards = 4;
    Verifier verifier(kernel, policy, config);

    const std::vector<Pid> pids = pidsOnDistinctShards(verifier, 4);
    ASSERT_EQ(pids.size(), 4u);
    std::vector<std::unique_ptr<ShmChannel>> channels;
    for (Pid pid : pids) {
        ASSERT_TRUE(kernel.enableProcess(pid).isOk());
        channels.push_back(std::make_unique<ShmChannel>(1 << 10));
        verifier.attachChannel(channels.back().get(), pid);
    }

    verifier.start();
    for (int k = 0; k < 50; ++k)
        for (auto &channel : channels)
            ASSERT_TRUE(
                channel
                    ->send(Message(Opcode::PointerDefine, 0x100 + 8 * k,
                                   k))
                    .isOk());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (verifier.totalMessages() < 200 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    verifier.stop();

    EXPECT_EQ(verifier.totalMessages(), 200u);
    for (Pid pid : pids)
        EXPECT_EQ(verifier.statsFor(pid).messages, 50u);
}

// ---------------------------------------------------------------------
// Attach/detach churn: policy-table slice reclamation
// ---------------------------------------------------------------------

TEST(ShardChurn, DetachOfLastChannelReclaimsPolicySlice)
{
    // Regression: a pid whose last channel detached after exit used to
    // leave a stale policy-table slice in its home shard's process map
    // — one leaked entry (CFI shadow slice + IFC label slice) per
    // churned pid. 100 attach/exit/detach rounds, both orderings, must
    // return the slice count to the pre-churn baseline.
    KernelModule kernel(fastEpochConfig());
    auto multi = std::make_shared<MultiPolicy>();
    multi->addPolicy(std::make_unique<PointerIntegrityPolicy>());
    multi->addPolicy(std::make_unique<IfcPolicy>());
    Verifier::Config config;
    config.num_shards = 4;
    Verifier verifier(kernel, multi, config);

    const std::size_t baseline = verifier.policySliceCount();
    ASSERT_EQ(baseline, 0u);

    for (Pid pid = 1; pid <= 100; ++pid) {
        ASSERT_TRUE(kernel.enableProcess(pid).isOk());
        ShmChannel channel(1 << 10);
        verifier.attachChannel(&channel, pid);
        // Populate both families' table slices so reclamation is
        // observable as more than an empty map entry.
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x100, 0xAA))
                .isOk());
        ASSERT_TRUE(channel
                        .send(Message(Opcode::LabelDef, 0x200,
                                      label::kSecret))
                        .isOk());
        verifier.poll();
        EXPECT_EQ(verifier.statsFor(pid).messages, 2u);
        EXPECT_GE(verifier.policySliceCount(), 1u);

        // Alternate the orderings of the churn edge: exit-then-detach
        // (slice held post-mortem until the last channel goes) and
        // detach-then-exit (slice held until the exit notification).
        if (pid % 2 == 0) {
            kernel.exitProcess(pid);
            verifier.detachChannel(&channel);
        } else {
            verifier.detachChannel(&channel);
            kernel.exitProcess(pid);
        }
    }

    EXPECT_EQ(verifier.policySliceCount(), baseline)
        << "churned pids leaked policy-table slices";
    EXPECT_EQ(verifier.channelCount(), 0u);
}

TEST(ShardChurn, DetachMidDrainDoesNotLeakSlicesOrCrash)
{
    // Same churn with live worker threads so detachChannel races an
    // in-flight drain (the drain_list snapshot invalidation path).
    KernelModule kernel(fastEpochConfig());
    auto multi = std::make_shared<MultiPolicy>();
    multi->addPolicy(std::make_unique<PointerIntegrityPolicy>());
    multi->addPolicy(std::make_unique<IfcPolicy>());
    Verifier::Config config;
    config.num_shards = 4;
    Verifier verifier(kernel, multi, config);
    verifier.start();

    for (Pid pid = 1; pid <= 100; ++pid) {
        ASSERT_TRUE(kernel.enableProcess(pid).isOk());
        ShmChannel channel(1 << 10);
        verifier.attachChannel(&channel, pid);
        for (int k = 0; k < 8; ++k) {
            ASSERT_TRUE(channel
                            .send(Message(Opcode::LabelDef, 0x100 + 8 * k,
                                          label::kTainted))
                            .isOk());
        }
        // Detach while the workers may still be mid-drain on this
        // channel; the entry must be unhooked safely either way.
        verifier.detachChannel(&channel);
        kernel.exitProcess(pid);
    }

    verifier.stop();
    EXPECT_EQ(verifier.policySliceCount(), 0u)
        << "mid-drain detach leaked policy-table slices";
    EXPECT_EQ(verifier.channelCount(), 0u);
}

// ---------------------------------------------------------------------
// Seeded fault-injection soak: 4 shards x 8 processes
// ---------------------------------------------------------------------

TEST(ShardChurn, SoakWithRingDropsAndVerifierCrashRecoversPerShard)
{
    // 4-shard x 8-process soak reusing the PR-4 fault sites: seeded
    // ring drops plus one injected verifier crash mid-stream. Every
    // injected fault class must be detected (sequence gaps) or safely
    // denied — the audit must find zero silent accepts — and the
    // restarted verifier must rebuild every shard's pids via replay.
    fi::disarmAll();
    telemetry::Registry::instance().reset();
    telemetry::setEnabled(true);
    const std::string log_path =
        ::testing::TempDir() + "shard_soak_events.jsonl";
    ASSERT_TRUE(telemetry::EventLog::instance().open(log_path));

    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.num_shards = 4;
    config.kill_on_violation = false; // keep processes under test alive
    auto verifier =
        std::make_unique<Verifier>(kernel, policy, config);

    constexpr std::size_t kProcs = 8;
    std::vector<Pid> pids;
    std::vector<std::unique_ptr<ShmChannel>> channels;
    for (std::size_t i = 0; i < kProcs; ++i) {
        const Pid pid = static_cast<Pid>(101 + 17 * i);
        pids.push_back(pid);
        ASSERT_TRUE(kernel.enableProcess(pid).isOk());
        channels.push_back(std::make_unique<ShmChannel>(1 << 12));
        verifier->attachChannel(channels.back().get(), pid);
    }
    // All four shards must actually be populated by this pid set.
    std::set<std::size_t> populated;
    for (Pid pid : pids)
        populated.insert(verifier->shardOf(pid));
    ASSERT_EQ(populated.size(), 4u)
        << "soak pid set no longer covers every shard";

    fi::FaultPlan::instance().setSeed(0x5EED);
    fi::FaultPlan::instance().arm(fi::Site::RingDrop, 0.01);
    fi::FaultPlan::instance().arm(fi::Site::VerifierCrash, 1.0,
                                  /*after_n=*/900, /*max_fires=*/1);
    fi::captureDetectorBaselines();

    Rng rng(0xDECAF);
    bool restarted = false;
    for (int round = 0; round < 400; ++round) {
        for (std::size_t i = 0; i < kProcs; ++i) {
            const std::uint64_t addr =
                0x1000 * (i + 1) + 8 * rng.nextBelow(64);
            ASSERT_TRUE(channels[i]
                            ->send(Message(Opcode::PointerDefine, addr,
                                           rng.next()))
                            .isOk());
        }
        verifier->poll();
        if (verifier->crashed() && !restarted) {
            // Crash recovery: a new verifier re-attaches every
            // channel and rebuilds all shards' processes via replay.
            auto fresh =
                std::make_unique<Verifier>(kernel, policy, config);
            EXPECT_EQ(kernel.replayProcessesTo(fresh.get()), kProcs);
            for (std::size_t i = 0; i < kProcs; ++i)
                fresh->attachChannel(channels[i].get(), pids[i]);
            verifier = std::move(fresh);
            restarted = true;
            // Per-shard recovery: every shard regained its pids.
            for (std::size_t s = 0; s < 4; ++s) {
                std::size_t expected = 0;
                for (Pid pid : pids)
                    if (verifier->shardOf(pid) == s)
                        ++expected;
                EXPECT_EQ(verifier->registry().liveOn(s), expected)
                    << "shard " << s << " not rebuilt by replay";
            }
        }
    }
    ASSERT_TRUE(restarted) << "the armed crash never fired";
    // Flush a final burst so a drop on the last message of a channel
    // still has a successor to expose the gap.
    for (std::size_t i = 0; i < kProcs; ++i)
        for (int k = 0; k < 4; ++k)
            ASSERT_TRUE(channels[i]
                            ->send(Message(Opcode::PointerDefine,
                                           0x9000 + 8 * k, k))
                            .isOk());
    verifier->poll();

    // Drops happened (the soak is vacuous otherwise) and were detected.
    EXPECT_GT(fi::FaultPlan::instance().injected(fi::Site::RingDrop), 0u);
    EXPECT_EQ(fi::emitAuditRecords(), 0)
        << "silent accept: an injected fault class went undetected";

    // Every process kept flowing on both sides of the restart, on its
    // own shard.
    for (Pid pid : pids)
        EXPECT_GT(verifier->statsFor(pid).messages, 0u);
    std::uint64_t shard_sum = 0;
    for (std::size_t s = 0; s < verifier->numShards(); ++s)
        shard_sum += verifier->shardMessages(s);
    EXPECT_EQ(shard_sum, verifier->totalMessages());

    telemetry::EventLog::instance().close();
    std::ifstream in(log_path);
    std::size_t silent_accepts = 0;
    for (std::string line; std::getline(in, line);)
        if (line.find("\"type\":\"silent_accept\"") != std::string::npos)
            ++silent_accepts;
    EXPECT_EQ(silent_accepts, 0u);
    std::remove(log_path.c_str());
    telemetry::setEnabled(false);
    fi::disarmAll();
}

TEST(ShardChurn, SoakChurnStormKeepsRegistryAndStateConsistent)
{
    // Start/exit storm against a live 4-shard verifier: enable and
    // retire processes continuously, with traffic in between, and check
    // the registry's live accounting and per-pid stats stay exact.
    fi::disarmAll();
    KernelModule kernel(fastEpochConfig());
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.num_shards = 4;
    Verifier verifier(kernel, policy, config);

    Rng rng(0xB10B);
    std::map<Pid, std::unique_ptr<ShmChannel>> live;
    // Channels stay attached to the verifier after their process exits
    // (stale messages are drained and ignored), so retired channels
    // must outlive the polling loop.
    std::vector<std::unique_ptr<ShmChannel>> retired;
    std::uint64_t sent = 0;
    Pid next_pid = 1000;
    for (int round = 0; round < 600; ++round) {
        if (live.size() < 3 || (live.size() < 12 && rng.chance(0.5))) {
            const Pid pid = next_pid++;
            ASSERT_TRUE(kernel.enableProcess(pid).isOk());
            auto channel = std::make_unique<ShmChannel>(1 << 8);
            verifier.attachChannel(channel.get(), pid);
            live.emplace(pid, std::move(channel));
        } else if (rng.chance(0.25)) {
            auto victim = live.begin();
            std::advance(victim, rng.nextBelow(live.size()));
            kernel.exitProcess(victim->first); // drains via listener
            retired.push_back(std::move(victim->second));
            live.erase(victim);
        }
        for (auto &[pid, channel] : live) {
            if (!rng.chance(0.7))
                continue;
            ASSERT_TRUE(channel
                            ->send(Message(Opcode::PointerDefine,
                                           0x100 + 8 * rng.nextBelow(32),
                                           pid))
                            .isOk());
            ++sent;
        }
        verifier.poll();
        ASSERT_EQ(verifier.registry().liveCount(), live.size());
    }
    verifier.poll();
    EXPECT_EQ(verifier.totalMessages(), sent);
    std::size_t per_shard_sum = 0;
    for (std::size_t s = 0; s < verifier.numShards(); ++s)
        per_shard_sum += verifier.registry().liveOn(s);
    EXPECT_EQ(per_shard_sum, live.size());
}

} // namespace
} // namespace hq
