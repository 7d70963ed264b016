/**
 * @file
 * Tests of the observability control plane added for shard health:
 *  - HealthMonitor state machine against a scripted sampler (OK →
 *    DEGRADED → STALLED → OK, idle-shard exemption, threshold clamps).
 *  - Flight recorder: ring wrap, multi-thread capture, dump format,
 *    request rate-limiting, disabled-mode inertness, records dropped
 *    past the last ring, one dump behaviour for both SLO-breach paths.
 *  - End-to-end: a fault-injected drain-loop wedge drives one shard to
 *    STALLED, emitting a `health_change` event record and a flight dump
 *    holding pre-stall records, with zero silent accepts.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/fault.h"
#include "ipc/shm_channel.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "telemetry/event_log.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/health.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

using telemetry::Event;
using telemetry::HealthConfig;
using telemetry::HealthMonitor;
using telemetry::HealthState;
using telemetry::ShardHealthSample;
namespace flight = telemetry::flight;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::size_t
countLines(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find(needle) != std::string::npos)
            ++count;
    }
    return count;
}

/** Restores global recorder/telemetry state around each test. */
struct FlightSandbox
{
    FlightSandbox() { flight::resetForTest(); }
    ~FlightSandbox()
    {
        flight::setEnabled(false);
        flight::configure("");
        flight::resetForTest();
    }
};

// ---------------------------------------------------------------------
// HealthMonitor state machine (scripted sampler, deterministic).
// ---------------------------------------------------------------------

struct ScriptedShard
{
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> queue_depth{0};
    std::atomic<std::uint64_t> ack_age_ns{0};
};

TEST(HealthMonitor, WalksOkDegradedStalledAndBack)
{
    ScriptedShard script;
    HealthConfig config;
    config.degraded_after = 2;
    config.stalled_after = 4;
    HealthMonitor monitor(1, config, [&script](std::size_t) {
        ShardHealthSample sample;
        sample.heartbeat = script.heartbeat.load();
        sample.queue_depth = script.queue_depth.load();
        sample.ack_age_ns = script.ack_age_ns.load();
        return sample;
    });

    // Advancing heartbeat: healthy regardless of backlog.
    script.queue_depth = 100;
    for (int i = 0; i < 6; ++i) {
        ++script.heartbeat;
        monitor.sampleOnce();
        EXPECT_EQ(monitor.state(0), HealthState::Ok);
    }
    EXPECT_EQ(monitor.transitions(), 0u);

    // Heartbeat freezes with backlog pending: 2 bad samples degrade,
    // 4 stall. (Sample 1 after the freeze is bad_samples=1: still Ok.)
    monitor.sampleOnce();
    EXPECT_EQ(monitor.state(0), HealthState::Ok);
    monitor.sampleOnce();
    EXPECT_EQ(monitor.state(0), HealthState::Degraded);
    monitor.sampleOnce();
    EXPECT_EQ(monitor.state(0), HealthState::Degraded);
    monitor.sampleOnce();
    EXPECT_EQ(monitor.state(0), HealthState::Stalled);
    EXPECT_EQ(monitor.transitions(), 2u); // Ok->Degraded, Degraded->Stalled

    // Drain progress resumes: immediately back to Ok.
    ++script.heartbeat;
    monitor.sampleOnce();
    EXPECT_EQ(monitor.state(0), HealthState::Ok);
    EXPECT_EQ(monitor.transitions(), 3u);
}

TEST(HealthMonitor, IdleShardNeverDegrades)
{
    ScriptedShard script;
    HealthConfig config;
    config.degraded_after = 1;
    config.stalled_after = 2;
    HealthMonitor monitor(1, config, [&script](std::size_t) {
        ShardHealthSample sample;
        sample.heartbeat = script.heartbeat.load();
        sample.queue_depth = script.queue_depth.load();
        return sample;
    });

    // Heartbeat frozen but no undrained work: stalling requires backlog.
    for (int i = 0; i < 10; ++i) {
        monitor.sampleOnce();
        EXPECT_EQ(monitor.state(0), HealthState::Ok);
    }
    EXPECT_EQ(monitor.transitions(), 0u);
}

TEST(HealthMonitor, FirstSampleOnlyEstablishesBaseline)
{
    ScriptedShard script;
    script.heartbeat = 42; // nonzero before the monitor ever looks
    script.queue_depth = 9;
    HealthConfig config;
    config.degraded_after = 1;
    config.stalled_after = 2;
    HealthMonitor monitor(1, config, [&script](std::size_t) {
        ShardHealthSample sample;
        sample.heartbeat = script.heartbeat.load();
        sample.queue_depth = script.queue_depth.load();
        return sample;
    });
    monitor.sampleOnce();
    EXPECT_EQ(monitor.state(0), HealthState::Ok);
    // The second frozen sample is the first that may count against it.
    monitor.sampleOnce();
    EXPECT_EQ(monitor.state(0), HealthState::Degraded);
}

TEST(HealthMonitor, ClampsNonsenseThresholds)
{
    HealthConfig config;
    config.degraded_after = 0;  // clamped to 1
    config.stalled_after = -5;  // clamped to degraded_after
    HealthMonitor monitor(1, config, [](std::size_t) {
        return ShardHealthSample{};
    });
    EXPECT_EQ(monitor.config().degraded_after, 1);
    EXPECT_EQ(monitor.config().stalled_after, 1);
}

TEST(HealthMonitor, PublishesPerShardGauges)
{
    // Zero the process-global gauges: earlier tests in this binary
    // sample their own monitors into the same registry names.
    telemetry::Registry::instance().reset();
    ScriptedShard script;
    script.heartbeat = 7;
    script.queue_depth = 33;
    script.ack_age_ns = 1234;
    HealthMonitor monitor(2, HealthConfig{}, [&script](std::size_t i) {
        ShardHealthSample sample;
        if (i == 0) {
            sample.heartbeat = script.heartbeat.load();
            sample.queue_depth = script.queue_depth.load();
            sample.ack_age_ns = script.ack_age_ns.load();
        }
        return sample;
    });
    monitor.sampleOnce();
    script.queue_depth = 5; // drops; the gauge keeps the high water
    monitor.sampleOnce();

    auto &registry = telemetry::Registry::instance();
    EXPECT_EQ(registry.gauge("verifier.shard0.heartbeat").value(), 7u);
    EXPECT_EQ(registry.gauge("verifier.shard0.queue_depth").value(), 5u);
    EXPECT_EQ(registry.gauge("verifier.shard0.queue_depth").max(), 33u);
    EXPECT_EQ(registry.gauge("verifier.shard0.ack_age_ns").value(),
              1234u);
    EXPECT_EQ(registry.gauge("verifier.shard0.health").value(),
              static_cast<std::uint64_t>(HealthState::Ok));
    EXPECT_EQ(registry.gauge("verifier.shard1.heartbeat").value(), 0u);
}

TEST(HealthMonitor, WatchdogThreadSamplesOnItsOwn)
{
    std::atomic<std::uint64_t> samples{0};
    HealthConfig config;
    config.interval = std::chrono::milliseconds(1);
    HealthMonitor monitor(1, config, [&samples](std::size_t) {
        samples.fetch_add(1);
        return ShardHealthSample{};
    });
    monitor.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (samples.load() < 3 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    monitor.stop();
    EXPECT_GE(samples.load(), 3u);
    const std::uint64_t after = samples.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(samples.load(), after); // stop() really stopped it
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

TEST(FlightRecorder, DisabledRecordsNothing)
{
    FlightSandbox sandbox;
    flight::setEnabled(false);
    telemetry::setEnabled(false);
    const std::size_t claimed = flight::ringsClaimed();
    telemetry::emit(Event::DrainBatch, {.pid = 1});
    telemetry::emit(Event::Violation, {.pid = 1});
    {
        telemetry::TraceScope scope("invisible");
        telemetry::traceInstant("invisible");
    }
    EXPECT_TRUE(flight::snapshot().empty());
    // No ring is claimed or written while both switches are off.
    EXPECT_EQ(flight::recordsWritten(), 0u);
    EXPECT_EQ(flight::ringsClaimed(), claimed);
}

TEST(FlightRecorder, RecordsCarryFieldsInOrder)
{
    FlightSandbox sandbox;
    flight::setEnabled(true);
    telemetry::emit(Event::DrainBatch,
                    {.pid = 42, .shard = 3, .arg0 = 64, .arg1 = 7});
    telemetry::emit(Event::SyscallResume, {.pid = 42});
    const std::vector<flight::Record> records = flight::snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].pid, 42u);
    EXPECT_EQ(records[0].shard, 3);
    EXPECT_EQ(records[0].arg0, 64u);
    EXPECT_EQ(records[0].arg1, 7u);
    EXPECT_EQ(static_cast<Event>(records[0].kind), Event::DrainBatch);
    EXPECT_EQ(static_cast<Event>(records[1].kind), Event::SyscallResume);
    EXPECT_EQ(records[1].shard, -1);
    EXPECT_LE(records[0].ts_ns, records[1].ts_ns);
    EXPECT_LT(records[0].seq, records[1].seq);
}

TEST(FlightRecorder, RingKeepsOnlyTheLastN)
{
    FlightSandbox sandbox;
    flight::setEnabled(true);
    const std::size_t total = flight::kRecordsPerThread + 100;
    for (std::size_t i = 0; i < total; ++i)
        telemetry::emit(Event::DrainBatch, {.arg0 = i});
    // The ring keeps the newest kRecordsPerThread records...
    const std::vector<flight::Record> all = flight::snapshotAll();
    ASSERT_EQ(all.size(), flight::kRecordsPerThread);
    EXPECT_EQ(all.front().arg0, 100u);
    EXPECT_EQ(all.back().arg0, total - 1);
    // ...and a dump takes the newest kDumpRecordsPerThread of them.
    const std::vector<flight::Record> mine = flight::snapshot();
    ASSERT_EQ(mine.size(), flight::kDumpRecordsPerThread);
    EXPECT_EQ(mine.front().arg0, total - flight::kDumpRecordsPerThread);
    EXPECT_EQ(mine.back().arg0, total - 1);
}

TEST(FlightRecorder, ThreadsGetDistinctSlots)
{
    FlightSandbox sandbox;
    flight::setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                telemetry::emit(Event::DrainBatch,
                                {.pid = static_cast<Pid>(t),
                                 .arg0 = static_cast<std::uint64_t>(i)});
        });
    }
    for (auto &thread : threads)
        thread.join();
    std::size_t custom = 0;
    for (const flight::Record &r : flight::snapshot()) {
        if (static_cast<Event>(r.kind) == Event::DrainBatch)
            ++custom;
    }
    // No record may be lost to a slot collision (4 threads << 64 slots;
    // slots recycle only after a thread exits).
    EXPECT_EQ(custom,
              static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(FlightRecorder, DumpWritesHeaderAndRecords)
{
    FlightSandbox sandbox;
    const std::string path = "flight_dump_test.jsonl";
    ASSERT_TRUE(flight::configure(path));
    flight::setEnabled(true);
    telemetry::emit(Event::HealthChange, {.shard = 2, .arg1 = 2});
    const std::size_t written = flight::dump("unit test");
    EXPECT_GE(written, 1u);

    const std::string text = readFile(path);
    EXPECT_EQ(countLines(text, "\"type\":\"flight_header\""), 1u);
    EXPECT_GE(countLines(text, "\"type\":\"flight_record\""), written);
    EXPECT_NE(text.find("\"trigger\":\"unit test\""), std::string::npos);
    EXPECT_NE(text.find("\"subsystem\":\"health\""), std::string::npos);
    EXPECT_NE(text.find("\"code\":\"health_transition\""),
              std::string::npos);
    flight::configure("");
    std::remove(path.c_str());
}

TEST(FlightRecorder, RequestDumpIsRateLimited)
{
    FlightSandbox sandbox;
    const std::string path = "flight_ratelimit_test.jsonl";
    ASSERT_TRUE(flight::configure(path));
    flight::setEnabled(true);
    telemetry::emit(Event::DrainBatch);
    for (int i = 0; i < 10; ++i)
        flight::requestDump(Event::Violation);
    const std::string text = readFile(path);
    // Ten triggers inside one second collapse into one dump.
    EXPECT_EQ(countLines(text, "\"type\":\"flight_header\""), 1u);
    flight::configure("");
    std::remove(path.c_str());
}

TEST(FlightRecorder, RateLimitIsPerEventKind)
{
    // A short SLO breach dumps first; a violation inside the same
    // second must still get its own dump, not hide behind the breach's.
    FlightSandbox sandbox;
    const std::string path = "flight_perkind_test.jsonl";
    ASSERT_TRUE(flight::configure(path));
    flight::setEnabled(true);
    telemetry::emit(Event::SloBreach, {.arg0 = 300'000, .arg1 = 1});
    telemetry::emit(Event::Violation, {.pid = 5});
    telemetry::emit(Event::SloBreach, {.arg0 = 300'000, .arg1 = 1});
    const std::string text = readFile(path);
    EXPECT_EQ(countLines(text, "\"type\":\"flight_header\""), 2u);
    EXPECT_NE(text.find("\"trigger\":\"slo_breach\""), std::string::npos);
    EXPECT_NE(text.find("\"trigger\":\"violation\""), std::string::npos);
    flight::configure("");
    std::remove(path.c_str());
}

TEST(FlightRecorder, SignalSafeDumpMatchesSchema)
{
    FlightSandbox sandbox;
    flight::setEnabled(true);
    telemetry::emit(Event::DrainBatch, {.pid = 9, .arg0 = 1, .arg1 = 2});
    const std::string path = "flight_sigsafe_test.jsonl";
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC,
                          0644);
    ASSERT_GE(fd, 0);
    flight::dumpSignalSafe(fd, "fatal signal");
    ::close(fd);
    const std::string text = readFile(path);
    EXPECT_EQ(countLines(text, "\"type\":\"flight_header\""), 1u);
    EXPECT_GE(countLines(text, "\"type\":\"flight_record\""), 1u);
    EXPECT_NE(text.find("\"trigger\":\"fatal signal\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FlightRecorder, RecordsPastTheLastRingAreCounted)
{
    FlightSandbox sandbox;
    flight::setEnabled(true);
    telemetry::Counter &dropped = telemetry::Registry::instance().counter(
        "flight.dropped_records");
    const std::uint64_t before = dropped.value();

    // One thread more than there are rings, every one holding its ring
    // until all have recorded: at least one finds none left.
    constexpr std::size_t kThreads = flight::kMaxThreads + 1;
    std::atomic<std::size_t> recorded{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorded] {
            telemetry::emit(Event::DrainBatch);
            recorded.fetch_add(1);
            while (recorded.load() < kThreads)
                std::this_thread::yield();
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_GE(dropped.value(), before + 1);
    EXPECT_LE(flight::ringsClaimed(), flight::kMaxThreads);
    // The counter reaches both exporters.
    EXPECT_NE(telemetry::Registry::instance().toJson().find(
                  "\"flight.dropped_records\""),
              std::string::npos);
    EXPECT_NE(telemetry::Registry::instance().toPrometheus().find(
                  "hq_flight_dropped_records_total"),
              std::string::npos);
}

TEST(FlightRecorder, BothSloBreachPathsRecordAndDumpAlike)
{
    // Verification lag and ack latency feed one SLO: one table row, so
    // the same record and the same rate-limited dump from either path.
    for (const bool ack_path : {false, true}) {
        SCOPED_TRACE(ack_path ? "ack latency" : "verification lag");
        FlightSandbox sandbox;
        const std::string path = "flight_slo_test.jsonl";
        ASSERT_TRUE(flight::configure(path));
        telemetry::Counter &breaches_metric =
            telemetry::Registry::instance().counter(
                "verifier.lag_slo_breaches");
        const std::uint64_t breaches_before = breaches_metric.value();

        KernelModule kernel;
        Verifier::Config config;
        config.kill_on_violation = false;
        config.num_shards = 1;
        config.lag_slo_ns = 1; // every measured latency breaches
        Verifier verifier(kernel, std::make_shared<PointerIntegrityPolicy>(),
                          config);
        const Pid pid = 77;
        ShmChannel channel(1 << 8);
        kernel.enableProcess(pid);
        verifier.attachChannel(&channel, pid);

        // Sends stamp lag envelopes only while telemetry is on, so the
        // System-Call message sent with it off breaches on its ack only.
        telemetry::setEnabled(!ack_path);
        if (ack_path)
            channel.send(Message(Opcode::Syscall, 1));
        else
            channel.send(Message(Opcode::PointerDefine, 0x10, 0x20));
        telemetry::setEnabled(true);
        flight::setEnabled(true);
        ASSERT_EQ(verifier.poll(), 1u);
        flight::setEnabled(false);
        telemetry::setEnabled(false);
        flight::configure("");

        std::size_t breaches = 0;
        for (const flight::Record &r : flight::snapshot()) {
            if (static_cast<Event>(r.kind) != Event::SloBreach)
                continue;
            ++breaches;
            EXPECT_EQ(r.shard, 0);
            EXPECT_GE(r.arg0, 1u);
            EXPECT_EQ(r.arg1, 1u);
        }
        EXPECT_EQ(breaches, 1u);
        EXPECT_EQ(breaches_metric.value(), breaches_before + 1);
        const std::string text = readFile(path);
        EXPECT_EQ(countLines(text, "\"type\":\"flight_header\""), 1u);
        EXPECT_NE(text.find("\"trigger\":\"slo_breach\""),
                  std::string::npos);
        EXPECT_EQ(countLines(text, "\"code\":\"slo_breach\""), 1u);
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------------
// End-to-end: injected drain-loop wedge -> STALLED -> flight dump.
// ---------------------------------------------------------------------

TEST(HealthEndToEnd, WedgedShardStallsAndDumpsFlightRecords)
{
    FlightSandbox sandbox;
    const std::string flight_path = "health_wedge_flight.jsonl";
    const std::string event_path = "health_wedge_events.jsonl";
    ASSERT_TRUE(flight::configure(flight_path));
    flight::setEnabled(true);
    telemetry::setEnabled(true);
    ASSERT_TRUE(telemetry::EventLog::instance().open(event_path));

    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.kill_on_violation = false;
    config.num_shards = 1;
    config.health_enabled = true;
    // Huge interval: the test drives sampling deterministically via
    // sampleHealthOnce(); the watchdog thread contributes nothing.
    config.health.interval = std::chrono::seconds(3600);
    config.health.degraded_after = 1;
    config.health.stalled_after = 2;
    Verifier verifier(kernel, policy, config);
    ASSERT_NE(verifier.healthMonitor(), nullptr);

    const Pid pid = 1234;
    ShmChannel channel(1 << 12);
    kernel.enableProcess(pid);
    verifier.attachChannel(&channel, pid);

    // First burst, drained on the test thread before the wedge is armed:
    // this is the pre-stall activity the eventual dump must contain
    // (DrainBatch flight records, heartbeat advanced).
    channel.send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA));
    for (int i = 0; i < 32; ++i)
        channel.send(Message(Opcode::PointerCheck, 0x1000, 0xAAAA));
    ASSERT_EQ(verifier.poll(), 33u);

    // Arm the wedge (fires on the worker's first loop iteration) and
    // start the worker; it must park itself before draining anything.
    faultinject::FaultPlan::instance().reset();
    faultinject::FaultPlan::instance().arm(
        faultinject::Site::VerifierShardStall, 1.0, /*after_n=*/0,
        /*max_fires=*/1);
    faultinject::captureDetectorBaselines();
    verifier.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (faultinject::FaultPlan::instance().injected(
               faultinject::Site::VerifierShardStall) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    ASSERT_EQ(faultinject::FaultPlan::instance().injected(
                  faultinject::Site::VerifierShardStall),
              1u);

    // Park undrained work behind the wedged worker.
    for (int i = 0; i < 16; ++i)
        channel.send(Message(Opcode::PointerCheck, 0x1000, 0xAAAA));

    // Deterministic watchdog sampling: baseline (wedged heartbeat may
    // have advanced since the last sample), then two frozen samples
    // with backlog -> DEGRADED -> STALLED.
    verifier.sampleHealthOnce();
    int guard = 0;
    while (verifier.healthState(0) != telemetry::HealthState::Stalled &&
           ++guard < 10)
        verifier.sampleHealthOnce();
    EXPECT_EQ(verifier.healthState(0), telemetry::HealthState::Stalled);
    EXPECT_GE(verifier.healthMonitor()->transitions(), 1u);

    // stop() must still join the wedged worker.
    verifier.stop();
    telemetry::EventLog::instance().close();

    // The stall dumped the flight recorder; pre-stall drain records
    // must be inside, plus the health transition itself.
    const std::string dump_text = readFile(flight_path);
    EXPECT_GE(countLines(dump_text, "\"type\":\"flight_header\""), 1u);
    EXPECT_GE(countLines(dump_text, "\"code\":\"drain_batch\""), 1u);
    EXPECT_GE(countLines(dump_text, "\"code\":\"fault_injected\""), 1u);
    EXPECT_GE(countLines(dump_text, "\"code\":\"health_transition\""),
              1u);

    // The event log carries the health_change audit trail and the
    // flight_dump cross-reference.
    const std::string events = readFile(event_path);
    EXPECT_GE(countLines(events, "\"type\":\"health_change\""), 2u);
    EXPECT_NE(events.find("\"op\":\"stalled\""), std::string::npos);
    EXPECT_GE(countLines(events, "\"type\":\"flight_dump\""), 1u);

    // A wedge is latency-only: delayed validation, nothing lost — the
    // silent-accept audit must hold at zero.
    EXPECT_EQ(faultinject::emitAuditRecords(), 0);

    faultinject::disarmAll();
    telemetry::setEnabled(false);
    std::remove(flight_path.c_str());
    std::remove(event_path.c_str());
}

} // namespace
} // namespace hq
