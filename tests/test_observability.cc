/**
 * @file
 * Tests for the message-lifecycle observability layer: the lag sidecar,
 * verifier lag histograms and SLO accounting, Perfetto flow-event
 * pairing across trace-ring wrap, the seqlock statsboard, and the JSONL
 * structured event log.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ipc/shm_channel.h"
#include "ipc/xproc_ring.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "telemetry/event_log.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/lag.h"
#include "telemetry/statsboard.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

using telemetry::kStatsBoardMaxCounters;
using telemetry::kStatsBoardMaxGauges;
using telemetry::kStatsBoardMaxHistograms;
using telemetry::LagSidecar;
using telemetry::Registry;
using telemetry::StatsBoardReader;
using telemetry::StatsBoardSnapshot;
using telemetry::StatsBoardWriter;
namespace flight = telemetry::flight;
using telemetry::Event;

/** Scoped enable: telemetry on for the test, restored after. */
struct TelemetryOn
{
    TelemetryOn()
    {
        Registry::instance().reset();
        flight::resetForTest();
        telemetry::setEnabled(true);
    }
    ~TelemetryOn() { telemetry::setEnabled(false); }
};

// ---------------------------------------------------------------------
// LagSidecar unit semantics
// ---------------------------------------------------------------------

TEST(LagSidecar, StampThenConsumeMatchesExactSequence)
{
    LagSidecar sidecar(16);
    EXPECT_TRUE(sidecar.stamp(0, 100));
    EXPECT_TRUE(sidecar.stamp(1, 200));

    std::uint64_t enqueue_ns = 0;
    EXPECT_TRUE(sidecar.consumeUpTo(0, enqueue_ns));
    EXPECT_EQ(enqueue_ns, 100u);
    EXPECT_TRUE(sidecar.consumeUpTo(1, enqueue_ns));
    EXPECT_EQ(enqueue_ns, 200u);
    EXPECT_EQ(sidecar.pending(), 0u);
}

TEST(LagSidecar, StaleEnvelopesAreDiscardedNotMismatched)
{
    LagSidecar sidecar(16);
    sidecar.stamp(0, 100);
    sidecar.stamp(1, 200);
    sidecar.stamp(5, 500);

    // Consumer skipped ahead to seq 5 (e.g. telemetry was toggled):
    // envelopes 0 and 1 must be dropped, 5 must still match.
    std::uint64_t enqueue_ns = 0;
    EXPECT_TRUE(sidecar.consumeUpTo(5, enqueue_ns));
    EXPECT_EQ(enqueue_ns, 500u);
    EXPECT_EQ(sidecar.pending(), 0u);
}

TEST(LagSidecar, FutureEnvelopeStopsConsumptionWithoutLoss)
{
    LagSidecar sidecar(16);
    sidecar.stamp(7, 700);

    // Asking for an earlier sequence must not consume the future stamp.
    std::uint64_t enqueue_ns = 0;
    EXPECT_FALSE(sidecar.consumeUpTo(3, enqueue_ns));
    EXPECT_EQ(sidecar.pending(), 1u);
    EXPECT_TRUE(sidecar.consumeUpTo(7, enqueue_ns));
    EXPECT_EQ(enqueue_ns, 700u);
}

TEST(LagSidecar, FullSidecarDropsNewStampsAndCounts)
{
    LagSidecar sidecar(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(sidecar.stamp(i, i));
    EXPECT_FALSE(sidecar.stamp(4, 4));
    EXPECT_EQ(sidecar.pending(), 4u);
}

TEST(LagSidecar, WrappedRegionSharedBetweenTwoAttachments)
{
    // Same pattern as the cross-process channel: one region, a
    // producer-side wrapper that initializes and a consumer-side
    // wrapper that attaches.
    std::vector<unsigned char> region(LagSidecar::regionBytes(8));
    LagSidecar producer(region.data(), 8, /*initialize=*/true);
    LagSidecar consumer(region.data(), 8, /*initialize=*/false);

    EXPECT_TRUE(producer.stamp(0, 42));
    std::uint64_t enqueue_ns = 0;
    EXPECT_TRUE(consumer.consumeUpTo(0, enqueue_ns));
    EXPECT_EQ(enqueue_ns, 42u);
}

// ---------------------------------------------------------------------
// Channel::send stamping + verifier lag accounting
// ---------------------------------------------------------------------

TEST(LagTracing, XprocChannelSidecarLivesInSharedMapping)
{
    TelemetryOn on;
    XprocChannel channel(1 << 6);

    // Installed at construction (not lazily): it must exist before
    // fork() so both processes share it.
    ASSERT_NE(channel.lagSidecar(), nullptr);
    ASSERT_TRUE(channel.send(Message(Opcode::PointerDefine, 1, 2)).isOk());
    EXPECT_EQ(channel.lagSidecar()->pending(), 1u);

    std::uint64_t enqueue_ns = 0;
    EXPECT_TRUE(channel.lagSidecar()->consumeUpTo(0, enqueue_ns));
    EXPECT_LE(enqueue_ns, telemetry::monotonicRawNs());
}

TEST(LagTracing, VerifierRecordsLagForEveryMessageUnderBatchedDrain)
{
    TelemetryOn on;
    constexpr Pid kPid = 7;
    constexpr std::size_t kMessages = 100;

    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.kill_on_violation = false;
    config.poll_batch = 16; // force multiple tryRecvBatch rounds
    Verifier verifier(kernel, policy, config);
    kernel.enableProcess(kPid);

    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, kPid);

    ASSERT_TRUE(channel.send(Message(Opcode::PointerDefine, 0x10, 0xAA))
                    .isOk());
    for (std::size_t i = 1; i < kMessages; ++i)
        ASSERT_TRUE(channel.send(Message(Opcode::PointerCheck, 0x10, 0xAA))
                        .isOk());

    EXPECT_EQ(verifier.poll(), kMessages);

    // Every drained message matched its envelope: one lag sample each,
    // in both the global and the per-pid histogram.
    auto &lag = Registry::instance().histogram("verifier.lag_ns");
    EXPECT_EQ(lag.count(), kMessages);
    EXPECT_GT(lag.mean(), 0.0);
    auto &pid_lag =
        Registry::instance().histogram("verifier.lag_ns.pid_7");
    EXPECT_EQ(pid_lag.count(), kMessages);
    EXPECT_EQ(
        Registry::instance().counter("ipc.lag_stamp_dropped").value(),
        0u);
}

TEST(LagTracing, MidRunEnableRealignsBySequence)
{
    constexpr Pid kPid = 9;
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.kill_on_violation = false;
    Verifier verifier(kernel, policy, config);
    kernel.enableProcess(kPid);

    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, kPid);

    // Phase 1: telemetry off — no envelopes, but send/recv indices
    // still advance in lockstep.
    telemetry::setEnabled(false);
    channel.send(Message(Opcode::PointerDefine, 0x20, 0xBB));
    for (int i = 0; i < 4; ++i)
        channel.send(Message(Opcode::PointerCheck, 0x20, 0xBB));
    EXPECT_EQ(verifier.poll(), 5u);

    // Phase 2: telemetry on — the next 5 messages must all match.
    Registry::instance().reset();
    telemetry::setEnabled(true);
    for (int i = 0; i < 5; ++i)
        channel.send(Message(Opcode::PointerCheck, 0x20, 0xBB));
    EXPECT_EQ(verifier.poll(), 5u);
    telemetry::setEnabled(false);

    EXPECT_EQ(Registry::instance().histogram("verifier.lag_ns").count(),
              5u);
}

TEST(LagTracing, SloBreachesAndHighWaterTrackSlowVerification)
{
    TelemetryOn on;
    constexpr Pid kPid = 11;
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.kill_on_violation = false;
    config.lag_slo_ns = 1; // everything breaches a 1ns SLO
    Verifier verifier(kernel, policy, config);
    kernel.enableProcess(kPid);

    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, kPid);

    channel.send(Message(Opcode::PointerDefine, 0x30, 0xCC));
    channel.send(Message(Opcode::PointerCheck, 0x30, 0xCC));
    EXPECT_EQ(verifier.poll(), 2u);

    EXPECT_EQ(
        Registry::instance().counter("verifier.lag_slo_breaches").value(),
        2u);
    EXPECT_GT(
        Registry::instance().gauge("verifier.lag_high_water_ns").max(),
        0u);
}

// ---------------------------------------------------------------------
// Perfetto flow events across trace-ring wrap
// ---------------------------------------------------------------------

/** Collect (phase, flow-id) pairs from a Chrome trace JSON array. */
std::vector<std::pair<char, std::uint64_t>>
flowEvents(const std::string &json)
{
    std::vector<std::pair<char, std::uint64_t>> events;
    std::size_t pos = 0;
    while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
        const char phase = json[pos + 6];
        pos += 6;
        if (phase != 's' && phase != 'f')
            continue;
        const std::size_t id_pos = json.find("\"id\":\"0x", pos);
        if (id_pos == std::string::npos)
            break;
        events.emplace_back(
            phase,
            std::stoull(json.substr(id_pos + 8, 16), nullptr, 16));
        pos = id_pos;
    }
    return events;
}

TEST(TraceFlows, BeginEndIdsPairUpAfterRingWrap)
{
    TelemetryOn on;
    constexpr std::size_t kCapacity = flight::kRecordsPerThread;
    constexpr std::uint64_t kFlows = kCapacity + 2000; // forces wrap

    // Producer/consumer handoff mirroring send -> verifier: the
    // consumer only closes flows the producer has opened. Each thread
    // writes only flow records into its own ring, and the producer
    // keeps its ring until the consumer is done (an exited thread's
    // ring goes to the next thread that records).
    std::atomic<std::uint64_t> produced{0};
    std::atomic<bool> consumed{false};
    std::thread producer([&] {
        for (std::uint64_t id = 0; id < kFlows; ++id) {
            telemetry::traceFlowBegin("lag", id);
            produced.store(id + 1, std::memory_order_release);
        }
        while (!consumed.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    std::thread consumer([&] {
        std::uint64_t next = 0;
        while (next < kFlows) {
            if (next < produced.load(std::memory_order_acquire)) {
                telemetry::traceFlowEnd("lag", next);
                ++next;
            } else {
                std::this_thread::yield();
            }
        }
        consumed.store(true, std::memory_order_release);
    });
    producer.join();
    consumer.join();

    const std::string json = telemetry::chromeTraceJson();

    std::set<std::uint64_t> begins;
    std::set<std::uint64_t> ends;
    for (const auto &[phase, id] : flowEvents(json))
        (phase == 's' ? begins : ends).insert(id);

    // Both rings wrapped identically (same event count, same capacity),
    // so the retained windows hold the same newest flow ids: every
    // surviving begin has its end and vice versa.
    ASSERT_EQ(begins.size(), kCapacity);
    EXPECT_EQ(begins, ends);
    EXPECT_TRUE(begins.count(kFlows - 1));
    EXPECT_FALSE(begins.count(0)); // the oldest flows were overwritten
}

TEST(TraceFlows, ShortLivedThreadsRecycleRingsAndFlowsStillPair)
{
    TelemetryOn on;
    constexpr std::uint64_t kThreads = 200;
    // Short-lived senders, one after another, each opening one lag flow
    // inside its span; this thread closes it, as the verifier would.
    for (std::uint64_t id = 0; id < kThreads; ++id) {
        std::thread sender([id] {
            telemetry::TraceScope scope("churn.send");
            telemetry::traceFlowBegin("lag", id);
        });
        sender.join();
        ASSERT_LE(flight::ringsClaimed(), flight::kMaxThreads);
        telemetry::TraceScope scope("churn.check");
        telemetry::traceFlowEnd("lag", id);
    }
    // A finished thread hands its ring to the next one: this thread's
    // ring plus the one every sender reused.
    EXPECT_LE(flight::ringsClaimed(), 2u);

    const std::string json = telemetry::chromeTraceJson();
    std::set<std::uint64_t> begins;
    std::set<std::uint64_t> ends;
    for (const auto &[phase, id] : flowEvents(json))
        (phase == 's' ? begins : ends).insert(id);
    EXPECT_EQ(begins.size(), kThreads);
    EXPECT_EQ(begins, ends);
    std::size_t spans = 0;
    for (std::size_t pos = json.find("\"name\":\"churn.send\"");
         pos != std::string::npos;
         pos = json.find("\"name\":\"churn.send\"", pos + 1))
        ++spans;
    EXPECT_EQ(spans, kThreads); // no sender lost its records
}

// ---------------------------------------------------------------------
// Statsboard: seqlock consistency + shm roundtrip
// ---------------------------------------------------------------------

TEST(StatsBoard, SnapshotRoundTripsThroughSharedMemory)
{
    TelemetryOn on;
    Registry::instance().counter("verifier.messages").add(1234);

    const std::string name =
        "/hq_test_board." + std::to_string(::getpid());
    StatsBoardWriter writer(name);
    ASSERT_TRUE(writer.valid());
    writer.publishRegistry();

    StatsBoardReader reader(name);
    ASSERT_TRUE(reader.valid());
    EXPECT_EQ(reader.pid(), ::getpid());

    StatsBoardSnapshot snapshot;
    ASSERT_TRUE(reader.read(snapshot));
    bool found = false;
    for (std::uint32_t i = 0; i < snapshot.n_counters; ++i) {
        if (std::string(snapshot.counters[i].name) ==
            "verifier.messages") {
            EXPECT_EQ(snapshot.counters[i].value, 1234u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(StatsBoard, SeqlockNeverYieldsTornSnapshots)
{
    const std::string name =
        "/hq_test_seqlock." + std::to_string(::getpid());
    StatsBoardWriter writer(name);
    ASSERT_TRUE(writer.valid());

    // Writer publishes snapshots holding the invariant
    // counters[1] == 2 * counters[0]; any torn read breaks it.
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        StatsBoardSnapshot snapshot;
        snapshot.n_counters = 2;
        std::snprintf(snapshot.counters[0].name,
                      sizeof snapshot.counters[0].name, "a");
        std::snprintf(snapshot.counters[1].name,
                      sizeof snapshot.counters[1].name, "b");
        std::uint64_t k = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            ++k;
            snapshot.counters[0].value = k;
            snapshot.counters[1].value = 2 * k;
            writer.publish(snapshot);
            // Brief pause between publishes (as the real 250ms-interval
            // publisher has) so readers can win the seqlock race even
            // on a loaded machine.
            std::this_thread::yield();
        }
    });

    StatsBoardReader reader(name);
    ASSERT_TRUE(reader.valid());
    StatsBoardSnapshot snapshot;
    std::size_t consistent_reads = 0;
    for (int i = 0; i < 2000; ++i) {
        if (!reader.read(snapshot))
            continue; // contended beyond the retry budget: allowed
        ++consistent_reads;
        ASSERT_EQ(snapshot.counters[1].value,
                  2 * snapshot.counters[0].value)
            << "torn snapshot after " << consistent_reads << " reads";
    }
    stop.store(true);
    publisher.join();

    // With the writer idle a read cannot starve: it must succeed and
    // hold the invariant (the concurrent loop above may legitimately
    // have been contended throughout on a loaded machine).
    ASSERT_TRUE(reader.read(snapshot));
    EXPECT_EQ(snapshot.counters[1].value,
              2 * snapshot.counters[0].value);
}

TEST(StatsBoard, SeqlockTortureFullBoardManyReaders)
{
    // Torture leg (runs under tsan via the tier1 label): a writer
    // churning FULL-capacity snapshots as fast as it can against four
    // concurrent readers. Every field of every section is derived from
    // one generation number, so a torn read anywhere in the ~20KB
    // payload — not just the first two counters — breaks an invariant.
    const std::string name =
        "/hq_test_torture." + std::to_string(::getpid());
    StatsBoardWriter writer(name);
    ASSERT_TRUE(writer.valid());

    auto fill = [](StatsBoardSnapshot &snapshot, std::uint64_t k) {
        snapshot.publish_ns = k;
        snapshot.wall_ms = k;
        snapshot.n_counters = kStatsBoardMaxCounters;
        snapshot.n_gauges = kStatsBoardMaxGauges;
        snapshot.n_histograms = kStatsBoardMaxHistograms;
        for (std::size_t i = 0; i < kStatsBoardMaxCounters; ++i)
            snapshot.counters[i].value = k + i;
        for (std::size_t i = 0; i < kStatsBoardMaxGauges; ++i) {
            snapshot.gauges[i].value = k + i;
            snapshot.gauges[i].max = 2 * (k + i);
        }
        for (std::size_t i = 0; i < kStatsBoardMaxHistograms; ++i) {
            snapshot.histograms[i].count = k + i;
            snapshot.histograms[i].mean =
                static_cast<double>(k + i);
        }
    };
    // Seed an initial consistent generation so early readers never see
    // the zero-initialized segment as generation 0 with empty sections.
    {
        StatsBoardSnapshot seed;
        fill(seed, 1);
        writer.publish(seed);
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> torn{0};
    std::thread publisher([&] {
        StatsBoardSnapshot snapshot;
        std::uint64_t k = 1;
        while (!stop.load(std::memory_order_relaxed)) {
            fill(snapshot, ++k);
            writer.publish(snapshot);
        }
    });

    constexpr int kReaders = 4;
    constexpr int kAttempts = 4000;
    std::vector<std::thread> readers;
    std::vector<std::uint64_t> reads(kReaders, 0);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            StatsBoardReader reader(name);
            if (!reader.valid())
                return;
            StatsBoardSnapshot snapshot;
            std::uint64_t last_k = 0;
            for (int i = 0; i < kAttempts; ++i) {
                if (!reader.read(snapshot))
                    continue; // retry budget exhausted: allowed
                ++reads[static_cast<std::size_t>(r)];
                const std::uint64_t k = snapshot.publish_ns;
                bool ok = snapshot.wall_ms == k && k >= last_k;
                last_k = k;
                // Spot-check the far corners of each section — a torn
                // copy shears between sections, not within a word.
                ok = ok && snapshot.counters[0].value == k &&
                     snapshot.counters[kStatsBoardMaxCounters - 1]
                             .value == k + kStatsBoardMaxCounters - 1;
                ok = ok && snapshot.gauges[0].max == 2 * k &&
                     snapshot.gauges[kStatsBoardMaxGauges - 1].value ==
                         k + kStatsBoardMaxGauges - 1;
                ok = ok &&
                     snapshot.histograms[kStatsBoardMaxHistograms - 1]
                             .count ==
                         k + kStatsBoardMaxHistograms - 1;
                if (!ok)
                    torn.fetch_add(1);
            }
        });
    }
    for (auto &reader : readers)
        reader.join();
    stop.store(true);
    publisher.join();

    EXPECT_EQ(torn.load(), 0u) << "seqlock leaked a torn snapshot";
    // With the writer stopped, a final read must succeed and carry the
    // last published generation's invariants intact.
    StatsBoardReader reader(name);
    ASSERT_TRUE(reader.valid());
    StatsBoardSnapshot snapshot;
    ASSERT_TRUE(reader.read(snapshot));
    const std::uint64_t k = snapshot.publish_ns;
    EXPECT_EQ(snapshot.counters[kStatsBoardMaxCounters - 1].value,
              k + kStatsBoardMaxCounters - 1);
}

// ---------------------------------------------------------------------
// Structured JSONL event log
// ---------------------------------------------------------------------

/** Keys must appear in this exact order in every record. */
void
expectSchema(const std::string &line)
{
    static const char *kKeys[] = {"type", "ts_wall_ms", "ts_ns",
                                  "pid",  "shard",      "policy",
                                  "op",   "arg0",       "arg1",
                                  "seq",  "lag_ns",     "reason"};
    std::size_t pos = 0;
    for (const char *key : kKeys) {
        const std::string needle = std::string("\"") + key + "\":";
        const std::size_t at = line.find(needle, pos);
        ASSERT_NE(at, std::string::npos)
            << "missing key " << key << " in: " << line;
        pos = at + needle.size();
    }
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
}

/**
 * Split one JSONL record into its (key, raw value) fields in emission
 * order. Values keep their raw spelling ("7", "\"Syscall\""), string
 * escapes are honored so an escaped quote never ends a value early.
 */
std::vector<std::pair<std::string, std::string>>
parseFields(const std::string &line)
{
    std::vector<std::pair<std::string, std::string>> fields;
    std::size_t i = 0;
    const std::size_t n = line.size();
    while (i < n) {
        const std::size_t key_open = line.find('"', i);
        if (key_open == std::string::npos)
            break;
        const std::size_t key_close = line.find('"', key_open + 1);
        if (key_close == std::string::npos ||
            key_close + 1 >= n || line[key_close + 1] != ':')
            break;
        const std::string key =
            line.substr(key_open + 1, key_close - key_open - 1);
        std::size_t v = key_close + 2;
        std::string value;
        if (v < n && line[v] == '"') {
            value.push_back('"');
            ++v;
            while (v < n) {
                if (line[v] == '\\' && v + 1 < n) {
                    value.append(line, v, 2);
                    v += 2;
                    continue;
                }
                value.push_back(line[v]);
                if (line[v] == '"') {
                    ++v;
                    break;
                }
                ++v;
            }
        } else {
            while (v < n && line[v] != ',' && line[v] != '}')
                value.push_back(line[v++]);
        }
        fields.emplace_back(key, value);
        i = v + 1;
    }
    return fields;
}

TEST(EventLog, JsonlRecordsMatchGoldenSchema)
{
    auto &log = telemetry::EventLog::instance();
    const std::string path =
        "/tmp/hq_event_log_test_" + std::to_string(::getpid()) + ".jsonl";
    ASSERT_TRUE(log.open(path));

    telemetry::emit(Event::Violation, {.pid = 7,
                                       .policy = "cfi",
                                       .op = "POINTER-CHECK",
                                       .arg0 = 4096,
                                       .arg1 = 0xBEEF,
                                       .seq = 3,
                                       .lag_ns = 123,
                                       .reason = "bad pointer"});
    telemetry::emit(Event::EpochTimeout,
                    {.pid = 8,
                     .op = "Syscall",
                     .arg0 = 59,
                     .reason = "epoch \"expired\"\n"}); // escaping exercise

    log.close();
    EXPECT_EQ(log.recorded(), 2u);

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);

    expectSchema(lines[0]);
    expectSchema(lines[1]);
    EXPECT_NE(lines[0].find("\"type\":\"violation\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"pid\":7,\"shard\":-1,\"policy\":\"cfi\","
                            "\"op\":\"POINTER-CHECK\",\"arg0\""
                            ":4096,\"arg1\":48879,\"seq\":3,\"lag_ns\""
                            ":123,\"reason\":\"bad pointer\"}"),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"epoch_timeout\""),
              std::string::npos);
    // The reason's quote and newline must be escaped, keeping one
    // record per line.
    EXPECT_NE(lines[1].find("epoch \\\"expired\\\"\\n"),
              std::string::npos);
    std::remove(path.c_str());
}

/**
 * Golden-file schema test: the checked-in fixture in tests/data/ is the
 * schema contract. Each produced record is diffed against its fixture
 * line field-by-field (names, order, and values; `<any>` in the fixture
 * wildcards the timestamps), so any drift — a renamed key, a reordered
 * field, a changed value encoding — fails with the exact field named,
 * instead of silently passing a substring/regex check.
 */
TEST(EventLog, JsonlRecordsMatchCheckedInGoldenFile)
{
    auto &log = telemetry::EventLog::instance();
    const std::string path =
        "/tmp/hq_event_log_golden_" + std::to_string(::getpid()) +
        ".jsonl";
    ASSERT_TRUE(log.open(path));

    // The same inputs the fixture was generated from.
    telemetry::emit(Event::Violation, {.pid = 7,
                                       .shard = 2,
                                       .policy = "cfi",
                                       .op = "POINTER-CHECK",
                                       .arg0 = 4096,
                                       .arg1 = 0xBEEF,
                                       .seq = 3,
                                       .lag_ns = 123,
                                       .reason = "bad pointer"});
    telemetry::emit(Event::EpochTimeout, {.pid = 8,
                                          .op = "Syscall",
                                          .arg0 = 59,
                                          .reason = "epoch \"expired\"\n"});
    telemetry::emit(Event::SilentAccept,
                    {.pid = 41,
                     .shard = 0,
                     .arg0 = 5,
                     .reason = "injected fault saw no detector fire"});

    log.close();

    std::ifstream produced_in(path);
    std::vector<std::string> produced;
    for (std::string line; std::getline(produced_in, line);)
        produced.push_back(line);
    std::remove(path.c_str());

    std::ifstream golden_in(std::string(HQ_TEST_DATA_DIR) +
                            "/event_log_golden.jsonl");
    ASSERT_TRUE(golden_in.is_open())
        << "fixture tests/data/event_log_golden.jsonl missing";
    std::vector<std::string> golden;
    for (std::string line; std::getline(golden_in, line);)
        golden.push_back(line);

    ASSERT_EQ(produced.size(), golden.size());
    for (std::size_t i = 0; i < produced.size(); ++i) {
        const auto got = parseFields(produced[i]);
        const auto want = parseFields(golden[i]);
        ASSERT_EQ(got.size(), want.size())
            << "record " << i << " field count drifted: " << produced[i];
        for (std::size_t f = 0; f < got.size(); ++f) {
            EXPECT_EQ(got[f].first, want[f].first)
                << "record " << i << " field " << f
                << ": key drifted (order or name)";
            if (want[f].second == "<any>")
                continue; // timestamp: value is volatile by design
            EXPECT_EQ(got[f].second, want[f].second)
                << "record " << i << " field \"" << got[f].first
                << "\": value drifted";
        }
    }
}

/** Every kind the table sends to the log must be one the analyzer's
 *  schema mode knows (scripts/analyze_telemetry.py EVENT_KINDS). */
TEST(EventLog, EveryLoggedKindPassesTheAnalyzerSchema)
{
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 unavailable";
    auto &log = telemetry::EventLog::instance();
    const std::string path =
        "/tmp/hq_event_kinds_" + std::to_string(::getpid()) + ".jsonl";
    ASSERT_TRUE(log.open(path));
    std::uint64_t logged = 0;
    for (std::size_t i = 0; i < telemetry::kEventKinds; ++i) {
        if (!telemetry::kEventSpecs[i].log)
            continue;
        telemetry::emit(static_cast<Event>(i), {.reason = "schema"});
        ++logged;
    }
    log.close();
    EXPECT_EQ(log.recorded(), logged);

    const std::string command = std::string("python3 ") + HQ_SCRIPTS_DIR +
                                "/analyze_telemetry.py schema " + path;
    EXPECT_EQ(std::system(command.c_str()), 0) << command;
    std::remove(path.c_str());
}

TEST(EventLog, VerifierViolationProducesOneRecord)
{
    TelemetryOn on;
    auto &log = telemetry::EventLog::instance();
    const std::string path =
        "/tmp/hq_event_log_verifier_" + std::to_string(::getpid()) +
        ".jsonl";
    ASSERT_TRUE(log.open(path));

    constexpr Pid kPid = 13;
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.kill_on_violation = false;
    Verifier verifier(kernel, policy, config);
    kernel.enableProcess(kPid);

    ShmChannel channel(1 << 8);
    verifier.attachChannel(&channel, kPid);

    channel.send(Message(Opcode::PointerDefine, 0x40, 0xAA));
    channel.send(Message(Opcode::PointerCheck, 0x40, 0xAA));
    channel.send(Message(Opcode::PointerCheck, 0x40, 0xBAD));
    EXPECT_EQ(verifier.poll(), 3u);
    log.close();

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1u);
    expectSchema(lines[0]);
    EXPECT_NE(lines[0].find("\"type\":\"violation\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"pid\":13"), std::string::npos);
    EXPECT_NE(lines[0].find("\"op\":\"POINTER-CHECK\""),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace hq
