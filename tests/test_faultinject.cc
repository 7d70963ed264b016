/**
 * @file
 * Deterministic fault injection: spec parsing, seeded replay, the
 * zero-cost-disabled contract, and — for every non-latency fault site —
 * a check that the injected fault is either recovered from or safely
 * denied, never silently accepted (the tentpole claim of the fault
 * subsystem; see docs/fault_injection.md for the fail-closed matrix).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "faultinject/fault.h"
#include "fpga/fpga_channel.h"
#include "ipc/shm_channel.h"
#include "ipc/posix_channels.h"
#include "ipc/spsc_ring.h"
#include "ipc/xproc_ring.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "telemetry/event_log.h"
#include "telemetry/telemetry.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

namespace fi = faultinject;

constexpr Pid kPid = 77;

/** Every test leaves the process-global plan disarmed. */
class FaultInjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { fi::disarmAll(); }
    void TearDown() override
    {
        fi::disarmAll();
        telemetry::setEnabled(false);
    }
};

/** kernel + verifier + shm channel wired for one monitored pid. */
struct Harness
{
    KernelModule kernel;
    std::shared_ptr<PointerIntegrityPolicy> policy;
    std::unique_ptr<Verifier> verifier;
    ShmChannel channel{1 << 10};

    explicit Harness(Verifier::Config config = makeConfig())
        : policy(std::make_shared<PointerIntegrityPolicy>())
    {
        verifier = std::make_unique<Verifier>(kernel, policy, config);
        kernel.enableProcess(kPid);
        verifier->attachChannel(&channel, kPid);
    }

    static Verifier::Config
    makeConfig()
    {
        Verifier::Config config;
        config.kill_on_violation = false;
        return config;
    }
};

// --------------------------------------------------------------------
// Plan mechanics: grammar, determinism, zero cost when disabled.
// --------------------------------------------------------------------

TEST_F(FaultInjectTest, SpecGrammarParsesSitesRatesAndTriggers)
{
    ASSERT_TRUE(fi::configureFromSpec(
                    "seed=42,ring_drop:0.5,verifier_crash:1:100:1")
                    .isOk());
    EXPECT_TRUE(fi::armed());
    EXPECT_EQ(fi::FaultPlan::instance().seed(), 42u);
    const std::string description = fi::FaultPlan::instance().describe();
    EXPECT_NE(description.find("ring_drop"), std::string::npos);
    EXPECT_NE(description.find("verifier_crash"), std::string::npos);
}

TEST_F(FaultInjectTest, MalformedSpecsAreRejectedAndDisarm)
{
    EXPECT_FALSE(fi::configureFromSpec("no_such_site:0.5").isOk());
    EXPECT_FALSE(fi::armed());
    EXPECT_FALSE(fi::configureFromSpec("ring_drop:1.5").isOk());
    EXPECT_FALSE(fi::configureFromSpec("ring_drop").isOk());
    EXPECT_FALSE(fi::configureFromSpec("ring_drop:0.5:x").isOk());
    EXPECT_FALSE(fi::configureFromSpec("seed=abc,ring_drop:0.5").isOk());
    EXPECT_FALSE(fi::armed());
}

TEST_F(FaultInjectTest, SiteNamesRoundTrip)
{
    for (int i = 0; i < fi::kNumSites; ++i) {
        const auto site = static_cast<fi::Site>(i);
        fi::Site parsed;
        ASSERT_TRUE(fi::siteFromName(fi::siteName(site), parsed))
            << fi::siteName(site);
        EXPECT_EQ(parsed, site);
    }
}

TEST_F(FaultInjectTest, SameSeedReplaysTheExactFirePattern)
{
    auto pattern = [](std::uint64_t seed) {
        fi::FaultPlan &plan = fi::FaultPlan::instance();
        plan.reset();
        plan.setSeed(seed);
        plan.arm(fi::Site::RingDrop, 0.3);
        std::vector<bool> fired;
        for (int i = 0; i < 200; ++i)
            fired.push_back(plan.fire(fi::Site::RingDrop));
        plan.reset();
        return fired;
    };
    const auto first = pattern(1234);
    const auto second = pattern(1234);
    const auto different = pattern(99887766);
    EXPECT_EQ(first, second);
    EXPECT_NE(first, different);
    // ~30% rate: sanity-check the distribution is neither 0 nor 1.
    const auto fires = std::count(first.begin(), first.end(), true);
    EXPECT_GT(fires, 20);
    EXPECT_LT(fires, 120);
}

TEST_F(FaultInjectTest, AfterNAndMaxFiresGateInjections)
{
    fi::FaultPlan &plan = fi::FaultPlan::instance();
    plan.arm(fi::Site::RingStall, 1.0, /*after_n=*/10, /*max_fires=*/3);
    int fired = 0;
    for (int i = 0; i < 50; ++i) {
        const bool hit = plan.fire(fi::Site::RingStall);
        if (hit) {
            ++fired;
            EXPECT_GE(i, 10) << "fired inside the after_n window";
        }
    }
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(plan.injected(fi::Site::RingStall), 3u);
    EXPECT_EQ(plan.eligible(fi::Site::RingStall), 50u);
}

TEST_F(FaultInjectTest, DisarmedFirePathIsOneRelaxedLoad)
{
    EXPECT_FALSE(fi::armed());
    // The free-function gate must not even count eligibility while
    // disarmed — that is the zero-cost contract for hot paths.
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(fi::fire(fi::Site::RingDrop));
    EXPECT_EQ(fi::FaultPlan::instance().eligible(fi::Site::RingDrop), 0u);
}

TEST_F(FaultInjectTest, HandleArgsStripsFlagAndArms)
{
    char prog[] = "prog";
    char keep[] = "--other=1";
    char spec[] = "--fault-spec=ring_drop:0.25";
    char *argv[] = {prog, keep, spec, nullptr};
    int argc = 3;
    fi::handleArgs(argc, argv);
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--other=1");
    EXPECT_TRUE(fi::armed());
}

// --------------------------------------------------------------------
// Message integrity primitives.
// --------------------------------------------------------------------

TEST_F(FaultInjectTest, MessageCrcDetectsEverySingleBitFlip)
{
    Message message(Opcode::PointerCheck, 0xDEADBEEF, 0x1234);
    message.pid = 7;
    message.seq = 42;
    message.pad = messageCrc(message);
    ASSERT_EQ(message.pad, messageCrc(message));

    auto *bytes = reinterpret_cast<unsigned char *>(&message);
    for (std::size_t bit = 0; bit < sizeof(Message) * 8; ++bit) {
        bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        EXPECT_NE(message.pad, messageCrc(message))
            << "undetected flip at bit " << bit;
        bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
}

TEST_F(FaultInjectTest, CorruptFlipsExactlyOneBit)
{
    Message message(Opcode::PointerDefine, 0xAAAA, 0xBBBB);
    message.pad = messageCrc(message);
    Message original = message;
    fi::corrupt(message);
    const auto *a = reinterpret_cast<const unsigned char *>(&original);
    const auto *b = reinterpret_cast<const unsigned char *>(&message);
    int flipped = 0;
    for (std::size_t i = 0; i < sizeof(Message); ++i) {
        unsigned char diff = a[i] ^ b[i];
        while (diff != 0) {
            flipped += diff & 1;
            diff >>= 1;
        }
    }
    EXPECT_EQ(flipped, 1);
    EXPECT_NE(message.pad, messageCrc(message));
}

// --------------------------------------------------------------------
// Ring fault classes: drop / dup / corrupt / stall.
// --------------------------------------------------------------------

TEST_F(FaultInjectTest, RingDropIsDetectedAsSequenceGap)
{
    Harness harness;
    // Drop exactly one push, after the first 5 messages established the
    // sequence baseline.
    fi::FaultPlan::instance().arm(fi::Site::RingDrop, 1.0, /*after_n=*/5,
                                  /*max_fires=*/1);
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(
            harness.channel.send(Message(Opcode::PointerDefine, 0x100 + i,
                                         i))
                .isOk());
    harness.verifier->poll();
    const auto stats = harness.verifier->statsFor(kPid);
    EXPECT_EQ(stats.violations, 1u) << "dropped message not detected";
    EXPECT_EQ(stats.messages, 19u) << "19 of 20 messages should arrive";
    EXPECT_EQ(fi::FaultPlan::instance().injected(fi::Site::RingDrop), 1u);
}

TEST_F(FaultInjectTest, RingDuplicateIsDetectedAsSequenceRepeat)
{
    Harness harness;
    fi::FaultPlan::instance().arm(fi::Site::RingDup, 1.0, /*after_n=*/5,
                                  /*max_fires=*/1);
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(
            harness.channel.send(Message(Opcode::PointerDefine, 0x100 + i,
                                         i))
                .isOk());
    harness.verifier->poll();
    const auto stats = harness.verifier->statsFor(kPid);
    EXPECT_GE(stats.violations, 1u) << "duplicated message not detected";
    EXPECT_EQ(stats.messages, 21u) << "the duplicate also arrives";
}

TEST_F(FaultInjectTest, RingCorruptionIsDetectedByCrcAndNotInterpreted)
{
    // Telemetry on so the lag sidecar stamps one envelope per send.
    telemetry::setEnabled(true);
    Harness harness;
    fi::FaultPlan::instance().arm(fi::Site::RingCorrupt, 1.0,
                                  /*after_n=*/5, /*max_fires=*/1);
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(
            harness.channel.send(Message(Opcode::PointerDefine, 0x100 + i,
                                         i))
                .isOk());
    harness.verifier->poll();
    const auto stats = harness.verifier->statsFor(kPid);
    EXPECT_GE(stats.violations, 1u) << "corrupted message not detected";
    // The corrupted message must never reach the policy: 19 clean
    // messages processed, the 20th rejected before interpretation.
    EXPECT_EQ(stats.messages, 19u);
    // The decode step stepped the record cursor past the corrupt slot,
    // so every later message matched its own envelope and none is
    // left behind.
    const telemetry::LagSidecar *sidecar = harness.channel.lagSidecar();
    ASSERT_NE(sidecar, nullptr);
    EXPECT_EQ(sidecar->pending(), 0u);
}

TEST_F(FaultInjectTest, RingStallSurfacesBackpressureAndRecovers)
{
    SpscRing ring(8);
    fi::FaultPlan::instance().arm(fi::Site::RingStall, 1.0, /*after_n=*/0,
                                  /*max_fires=*/2);
    Message message(Opcode::EventCount, 1, 1);
    // Two stalled attempts fail even though the ring is empty...
    EXPECT_FALSE(ring.tryPush(message));
    EXPECT_FALSE(ring.tryPush(message));
    // ...then the producer's retry goes through: recovery, no loss.
    EXPECT_TRUE(ring.tryPush(message));
    EXPECT_EQ(ring.size(), 1u);
}

TEST_F(FaultInjectTest, PermanentStallFailsClosedWithBoundedSpin)
{
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy, Harness::makeConfig());
    kernel.enableProcess(kPid);
    ShmChannel channel(16);
    verifier.attachChannel(&channel, kPid);
    channel.setSendTimeout(std::chrono::milliseconds(10));
    fi::FaultPlan::instance().arm(fi::Site::RingStall, 1.0);
    const Status status =
        channel.send(Message(Opcode::PointerDefine, 0x1, 0x2));
    ASSERT_FALSE(status.isOk()) << "permanently stalled send must fail";
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
}

// --------------------------------------------------------------------
// Transport faults: injected EAGAIN with bounded retry-with-backoff.
// --------------------------------------------------------------------

TEST_F(FaultInjectTest, TransientTransportErrorsAreRetriedAndRecovered)
{
    SocketChannel channel;
    // 5 injected EAGAINs, then the send goes through.
    fi::FaultPlan::instance().arm(fi::Site::TransportError, 1.0,
                                  /*after_n=*/0, /*max_fires=*/5);
    ASSERT_TRUE(channel.send(Message(Opcode::EventCount, 1, 1)).isOk());
    Message out;
    ASSERT_TRUE(channel.tryRecv(out));
    EXPECT_EQ(out.arg0, 1u);
    EXPECT_EQ(fi::FaultPlan::instance().injected(fi::Site::TransportError),
              5u);
}

TEST_F(FaultInjectTest, PersistentTransportErrorFailsClosed)
{
    SocketChannel channel;
    fi::FaultPlan::instance().arm(fi::Site::TransportError, 1.0);
    const Status status = channel.send(Message(Opcode::EventCount, 1, 1));
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
}

TEST_F(FaultInjectTest, PipeAndMqTransportsShareTheRetryContract)
{
    fi::FaultPlan::instance().arm(fi::Site::TransportError, 1.0,
                                  /*after_n=*/0, /*max_fires=*/3);
    PipeChannel pipe;
    ASSERT_TRUE(pipe.send(Message(Opcode::EventCount, 2, 1)).isOk());
    if (MqChannel::supported()) {
        // reset() clears the injected count; a bare re-arm would leave
        // the previous 3 fires counted against the new cap.
        fi::disarmAll();
        fi::FaultPlan::instance().arm(fi::Site::TransportError, 1.0,
                                      /*after_n=*/0, /*max_fires=*/3);
        MqChannel mq(8);
        ASSERT_TRUE(mq.send(Message(Opcode::EventCount, 3, 1)).isOk());
    }
}

// --------------------------------------------------------------------
// FPGA AFU faults.
// --------------------------------------------------------------------

TEST_F(FaultInjectTest, AfuOverflowDropsAreCountedAndFlaggedAsSeqGap)
{
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.kill_on_violation = false;
    Verifier verifier(kernel, policy, config);
    kernel.enableProcess(kPid);

    FpgaChannel channel;
    channel.afu().setPidRegister(kPid);
    verifier.attachChannel(&channel, kPid, /*device_stamped=*/true);

    fi::FaultPlan::instance().arm(fi::Site::AfuOverflow, 1.0,
                                  /*after_n=*/5, /*max_fires=*/1);
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x200 + i, i))
                .isOk());
    verifier.poll();
    EXPECT_EQ(channel.afu().droppedMessages(), 1u);
    const auto stats = verifier.statsFor(kPid);
    EXPECT_EQ(stats.violations, 1u)
        << "AFU overflow drop must surface as a sequence gap";
}

TEST_F(FaultInjectTest, AfuDoorbellDelayOnlyDelaysNeverLoses)
{
    FpgaChannel channel;
    channel.afu().setPidRegister(kPid);
    fi::FaultPlan::instance().arm(fi::Site::AfuDoorbellDelay, 1.0,
                                  /*after_n=*/0, /*max_fires=*/3);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, 0x300 + i, i))
                .isOk());
    Message out;
    int received = 0;
    while (channel.tryRecv(out))
        ++received;
    EXPECT_EQ(received, 6) << "a delayed doorbell must not lose messages";
}

// --------------------------------------------------------------------
// Kernel faults: every one must end in denial, never a spurious resume.
// --------------------------------------------------------------------

KernelModule::Config
fastEpochConfig(std::chrono::milliseconds epoch)
{
    KernelModule::Config config;
    config.epoch = epoch;
    config.spin = std::chrono::microseconds(10);
    return config;
}

TEST_F(FaultInjectTest, LostNotificationIsDeniedByEpochTimeout)
{
    KernelModule kernel(fastEpochConfig(std::chrono::milliseconds(50)));
    kernel.enableProcess(kPid);
    fi::FaultPlan::instance().arm(fi::Site::KernelLostNotify, 1.0);
    kernel.syscallResume(kPid); // lost: sync_ok is never set
    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    ASSERT_FALSE(status.isOk())
        << "a lost resume must never allow the syscall";
    EXPECT_EQ(status.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(kernel.statsFor(kPid).epoch_timeouts, 1u);
}

TEST_F(FaultInjectTest, SpuriousWakeDoesNotBecomeSpuriousResume)
{
    KernelModule kernel(fastEpochConfig(std::chrono::milliseconds(50)));
    kernel.enableProcess(kPid);
    fi::FaultPlan::instance().arm(fi::Site::KernelSpuriousWake, 1.0,
                                  /*after_n=*/0, /*max_fires=*/1);
    // No resume ever arrives: the injected early wake must re-block and
    // the syscall must still be denied at the epoch.
    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::PolicyViolation);
}

TEST_F(FaultInjectTest, SpuriousWakeStillResumesOnRealNotification)
{
    KernelModule kernel(fastEpochConfig(std::chrono::milliseconds(500)));
    kernel.enableProcess(kPid);
    fi::FaultPlan::instance().arm(fi::Site::KernelSpuriousWake, 1.0,
                                  /*after_n=*/0, /*max_fires=*/1);
    std::thread resumer([&kernel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        kernel.syscallResume(kPid);
    });
    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    resumer.join();
    EXPECT_TRUE(status.isOk()) << status.toString();
}

TEST_F(FaultInjectTest, EpochDelayDelaysButStillDeniesWithinTwoEpochs)
{
    const auto epoch = std::chrono::milliseconds(50);
    KernelModule kernel(fastEpochConfig(epoch));
    kernel.enableProcess(kPid);
    fi::FaultPlan::instance().arm(fi::Site::KernelEpochDelay, 1.0);
    const auto start = std::chrono::steady_clock::now();
    const Status status =
        kernel.syscallEnter(kPid, 1, /*spin_fast_path=*/false);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(status.isOk()) << "delayed epoch must still deny";
    EXPECT_EQ(status.code(), StatusCode::PolicyViolation);
    EXPECT_GE(elapsed, epoch);
    EXPECT_LE(elapsed, 10 * epoch) << "denial must not be unbounded";
}

// --------------------------------------------------------------------
// Verifier faults.
// --------------------------------------------------------------------

TEST_F(FaultInjectTest, SlowPollDelaysButVerifiesEverything)
{
    Harness harness;
    fi::FaultPlan::instance().arm(fi::Site::VerifierSlowPoll, 1.0,
                                  /*after_n=*/0, /*max_fires=*/2);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(
            harness.channel.send(Message(Opcode::PointerDefine, 0x400 + i,
                                         i))
                .isOk());
    harness.verifier->poll();
    const auto stats = harness.verifier->statsFor(kPid);
    EXPECT_EQ(stats.messages, 10u);
    EXPECT_EQ(stats.violations, 0u);
}

// --------------------------------------------------------------------
// Silent-accept audit.
// --------------------------------------------------------------------

TEST_F(FaultInjectTest, AuditPassesWhenDropsAreDetected)
{
    telemetry::setEnabled(true);
    Harness harness;
    fi::FaultPlan::instance().arm(fi::Site::RingDrop, 1.0, /*after_n=*/5,
                                  /*max_fires=*/1);
    fi::captureDetectorBaselines();
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(
            harness.channel.send(Message(Opcode::PointerDefine, 0x500 + i,
                                         i))
                .isOk());
    harness.verifier->poll();
    ASSERT_GE(harness.verifier->statsFor(kPid).violations, 1u);
    EXPECT_EQ(fi::emitAuditRecords(), 0)
        << "detected drops must not be reported as silent accepts";
}

TEST_F(FaultInjectTest, EveryLossySiteIsAudited)
{
    // One injected fault and no detector movement: a site that can
    // lose or corrupt data must be reported as a silent accept, and a
    // latency-only site must not be.
    for (int i = 0; i < fi::kNumSites; ++i) {
        const auto site = static_cast<fi::Site>(i);
        fi::disarmAll();
        fi::FaultPlan::instance().addCounts(site, 1, 1);
        EXPECT_EQ(fi::emitAuditRecords(), fi::siteIsLatencyOnly(site) ? 0 : 1)
            << fi::siteName(site);
    }
    fi::disarmAll();
}

TEST_F(FaultInjectTest, AuditWritesSilentAcceptRecordsToTheEventLog)
{
    telemetry::setEnabled(true);
    const std::string path =
        ::testing::TempDir() + "faultinject_audit.jsonl";
    ASSERT_TRUE(telemetry::EventLog::instance().open(path));

    fi::FaultPlan::instance().arm(fi::Site::RingDrop, 1.0);
    fi::captureDetectorBaselines();
    SpscRing ring(16);
    ring.tryPush(Message(Opcode::EventCount, 1, 1)); // dropped, unchecked
    EXPECT_EQ(fi::emitAuditRecords(), 1);
    telemetry::EventLog::instance().close();

    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("\"type\":\"silent_accept\""),
              std::string::npos)
        << contents;
    EXPECT_NE(contents.find("ring_drop"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(FaultInjectTest, CrossProcessReportRoundTripFoldsChildCounts)
{
    // Simulate the fork()-based deployment: the "child" injects ring
    // drops that only the "parent" verifier could detect, exports its
    // report, and the parent absorbs it before auditing.
    telemetry::setEnabled(true);
    fi::FaultPlan::instance().arm(fi::Site::RingDrop, 1.0, /*after_n=*/0,
                                  /*max_fires=*/2);
    fi::captureDetectorBaselines();
    SpscRing ring(16);
    ring.tryPush(Message(Opcode::EventCount, 1, 1)); // dropped
    ring.tryPush(Message(Opcode::EventCount, 2, 2)); // dropped
    const std::string report = fi::exportCrossProcessReport();
    EXPECT_NE(report.find("inj ring_drop 2"), std::string::npos)
        << report;

    // "Parent": fresh plan (same armed spec), no local injections.
    fi::disarmAll();
    fi::FaultPlan::instance().arm(fi::Site::RingDrop, 1.0, /*after_n=*/0,
                                  /*max_fires=*/2);
    fi::captureDetectorBaselines();
    ASSERT_TRUE(fi::absorbCrossProcessReport(report));
    EXPECT_EQ(fi::FaultPlan::instance().injected(fi::Site::RingDrop), 2u);
    // Parent-side detector fired (the verifier flagged the gap):
    telemetry::Registry::instance().counter("verifier.violations").inc();
    EXPECT_EQ(fi::emitAuditRecords(), 0)
        << "absorbed child injections judged against parent detectors";
}

TEST_F(FaultInjectTest, CrossProcessReportCarriesChildDetectorDeltas)
{
    // A child that failed *closed* (its own ipc counters moved) must
    // not read as a silent accept in the parent.
    telemetry::setEnabled(true);
    fi::FaultPlan::instance().arm(fi::Site::RingStall, 1.0, /*after_n=*/0,
                                  /*max_fires=*/1);
    fi::captureDetectorBaselines();
    SpscRing ring(16);
    // The stalled push itself bumps ipc.ring_push_fail (telemetry on).
    EXPECT_FALSE(ring.tryPush(Message(Opcode::EventCount, 1, 1)));
    const std::string report = fi::exportCrossProcessReport();
    EXPECT_NE(report.find("det ipc.ring_push_fail 1"), std::string::npos)
        << report;

    fi::disarmAll();
    fi::FaultPlan::instance().arm(fi::Site::RingStall, 1.0, /*after_n=*/0,
                                  /*max_fires=*/1);
    fi::captureDetectorBaselines();
    ASSERT_TRUE(fi::absorbCrossProcessReport(report));
    EXPECT_EQ(fi::emitAuditRecords(), 0)
        << "child-side detector delta must satisfy the audit";
}

TEST_F(FaultInjectTest, MalformedCrossProcessReportsAreRejected)
{
    EXPECT_FALSE(fi::absorbCrossProcessReport(""));
    EXPECT_FALSE(fi::absorbCrossProcessReport("garbage\n"));
    EXPECT_FALSE(
        fi::absorbCrossProcessReport("hq-fault-report 1\n")); // no end
    EXPECT_FALSE(fi::absorbCrossProcessReport(
        "hq-fault-report 1\ninj not_a_site 1 1\nend\n"));
    EXPECT_FALSE(fi::absorbCrossProcessReport(
        "hq-fault-report 1\nbogus line here\nend\n"));
    EXPECT_TRUE(
        fi::absorbCrossProcessReport("hq-fault-report 1\nend\n"));
}

} // namespace
} // namespace hq
