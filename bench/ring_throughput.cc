/**
 * @file
 * Microbenchmark — SPSC ring throughput, single-message vs batched.
 *
 * Measures the AppendWrite fast path in isolation: one producer thread
 * and one consumer thread moving messages through an SpscRing (the one
 * slot ring, behind the FPGA host buffer, the MODEL's appendable memory
 * region and the shared-memory channels). The consumer drains the way
 * the verifier does: peekSpan lends up to `batch` queued slots in place
 * and consume releases them, one acquire-load and one release-store per
 * batch. Batch size 1 pushes with tryPush; larger batches publish with
 * tryPushAll, one release-store per batch. The consumer verifies that
 * every message arrives exactly once and in order, so the numbers
 * cannot come at the cost of the AppendWrite ordering guarantees.
 *
 * A second sweep measures the *verified pipeline*: a producer doing
 * batched sends through a ShmChannel into a real Verifier (CRC and
 * sequence checks, pointer-integrity policy), once per negotiated
 * wire format. v1 stamps and checks a CRC per 32-byte message; v2
 * ships 64-record frames with two frame-level CRCs and drains them
 * zero-copy, which is where the format's messages/sec advantage comes
 * from.
 *
 * Flags:
 *   --smoke            quick correctness pass (small message count)
 *   --messages=N       total messages per batch-size run
 *   --capacity=N       ring capacity in messages (default 4096)
 *   --format=v1|v2|both  verified-pipeline formats to run (default both)
 *   --json=FILE        write machine-readable results (hq-ring-bench/1)
 *   --telemetry[...]   standard telemetry flags (handleBenchArgs)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/log.h"
#include "common/timer.h"
#include "ipc/shm_channel.h"
#include "ipc/spsc_ring.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "telemetry/telemetry.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

constexpr std::size_t kMaxBatch = 64;

struct RunResult
{
    double seconds = 0.0;
    bool ok = false;
};

/**
 * Consumer side of a run: check up to `batch` slots per peek in place
 * and release them. @return false on a lost, repeated or reordered
 * message.
 */
bool
drainInOrder(SpscRing &ring, std::uint64_t total, std::size_t batch)
{
    std::uint64_t expected = 0;
    while (expected < total) {
        RecvSpan span;
        if (!ring.peekSpan(span)) {
            std::this_thread::yield();
            continue;
        }
        const std::size_t n = std::min(batch, span.total());
        for (std::size_t i = 0; i < n; ++i) {
            if (span.slot(i).arg0 != expected)
                return false;
            ++expected;
        }
        ring.consume(n);
    }
    return true;
}

/** Push total messages with the given batch size; verify on the
 *  consumer. */
RunResult
runOnce(std::size_t capacity, std::size_t total, std::size_t batch)
{
    SpscRing ring(capacity);
    bool order_ok = true;

    Timer timer;
    std::thread consumer(
        [&] { order_ok = drainInOrder(ring, total, batch); });

    Message scratch[kMaxBatch];
    for (auto &message : scratch) {
        message = Message{};
        message.op = Opcode::PointerDefine;
    }
    std::uint64_t sent = 0;
    while (sent < total) {
        const std::size_t want =
            batch < total - sent ? batch : static_cast<std::size_t>(
                                               total - sent);
        for (std::size_t i = 0; i < want; ++i)
            scratch[i].arg0 = sent + i;
        if (batch == 1) {
            while (!ring.tryPush(scratch[0]))
                std::this_thread::yield();
        } else {
            while (!ring.tryPushAll(scratch, want))
                std::this_thread::yield();
        }
        sent += want;
    }
    consumer.join();
    RunResult result;
    result.seconds = timer.elapsedSeconds();
    result.ok = order_ok;
    return result;
}

/**
 * Aggregate throughput across `rings` independent producer/consumer
 * pairs (batch 32) — the transport-level analogue of the sharded
 * verifier, where each shard drains its own set of SPSC rings with no
 * shared cursors. Scaling beyond 1x requires real cores.
 */
RunResult
runMultiRing(std::size_t capacity, std::size_t per_ring,
             std::size_t rings)
{
    constexpr std::size_t kBatch = 32;
    std::vector<std::thread> threads;
    std::vector<char> ok(rings, 1);
    std::vector<std::unique_ptr<SpscRing>> ring_ptrs;
    for (std::size_t r = 0; r < rings; ++r)
        ring_ptrs.push_back(std::make_unique<SpscRing>(capacity));

    Timer timer;
    for (std::size_t r = 0; r < rings; ++r) {
        SpscRing &ring = *ring_ptrs[r];
        threads.emplace_back([&ring, &ok, r, per_ring] {
            ok[r] = drainInOrder(ring, per_ring, kBatch);
        });
        threads.emplace_back([&ring, per_ring] {
            Message scratch[kMaxBatch];
            for (auto &message : scratch) {
                message = Message{};
                message.op = Opcode::PointerDefine;
            }
            std::uint64_t sent = 0;
            while (sent < per_ring) {
                const std::size_t want =
                    kBatch < per_ring - sent
                        ? kBatch
                        : static_cast<std::size_t>(per_ring - sent);
                for (std::size_t i = 0; i < want; ++i)
                    scratch[i].arg0 = sent + i;
                while (!ring.tryPushAll(scratch, want))
                    std::this_thread::yield();
                sent += want;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    RunResult result;
    result.seconds = timer.elapsedSeconds();
    result.ok = true;
    for (std::size_t r = 0; r < rings; ++r)
        result.ok = result.ok && ok[r];
    return result;
}

/**
 * End-to-end verified throughput for one wire format: producer thread
 * batch-sending pointer-integrity checks, consumer thread running the
 * real verifier drain (CRC + sequence verification, policy lookups).
 */
RunResult
runVerifiedPipeline(std::size_t capacity, std::size_t total,
                    WireFormat format)
{
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.kill_on_violation = false;
    config.num_shards = 1;
    Verifier verifier(kernel, policy, config);

    ShmChannel channel(capacity);
    RunResult result;
    if (format != WireFormat::V1 &&
        !channel.negotiateFormat(format)) {
        return result; // ok=false
    }
    kernel.enableProcess(1);
    verifier.attachChannel(&channel, 1);

    Message burst[kMaxBatch];
    for (auto &message : burst)
        message = Message(Opcode::PointerCheck, 0x1000, 0xAAAA);

    Timer timer;
    std::thread consumer([&] {
        while (verifier.totalMessages() < total + 1) {
            if (verifier.poll() == 0)
                std::this_thread::yield();
        }
    });

    // Define the pointer first so every check hits the shadow store.
    bool send_ok =
        channel.send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA))
            .isOk();
    std::uint64_t sent = 0;
    while (send_ok && sent < total) {
        const std::size_t want =
            kMaxBatch < total - sent
                ? kMaxBatch
                : static_cast<std::size_t>(total - sent);
        send_ok = channel.sendBatch(burst, want).isOk();
        sent += want;
    }
    consumer.join();
    result.seconds = timer.elapsedSeconds();
    result.ok = send_ok && !verifier.hasViolation(1) &&
                verifier.statsFor(1).messages == total + 1;
    kernel.exitProcess(1);
    return result;
}

} // namespace
} // namespace hq

int
main(int argc, char **argv)
{
    using namespace hq;
    telemetry::handleBenchArgs(argc, argv);
    setLogLevel(LogLevel::Error);

    bool smoke = false;
    std::size_t total = 8u << 20; // 8 Mi messages
    std::size_t capacity = 4096;
    bool run_v1 = true;
    bool run_v2 = true;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
            total = 1u << 17;
        } else if (arg.rfind("--messages=", 0) == 0) {
            total = std::strtoull(arg.c_str() + 11, nullptr, 10);
        } else if (arg.rfind("--capacity=", 0) == 0) {
            capacity = std::strtoull(arg.c_str() + 11, nullptr, 10);
        } else if (arg == "--format=v1") {
            run_v2 = false;
        } else if (arg == "--format=v2") {
            run_v1 = false;
        } else if (arg == "--format=both") {
            run_v1 = run_v2 = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        }
    }

    std::printf("=== SPSC ring throughput (capacity %zu, %zu messages, "
                "2 threads) ===\n",
                capacity, total);
    std::printf("%-12s %14s %14s %10s\n", "batch", "time (s)", "Mmsg/s",
                "speedup");

    double single_rate = 0.0;
    bool all_ok = true;
    for (std::size_t batch : {std::size_t{1}, std::size_t{8},
                              std::size_t{32}, std::size_t{64}}) {
        const RunResult result = runOnce(capacity, total, batch);
        all_ok = all_ok && result.ok;
        const double rate = total / result.seconds / 1e6;
        if (batch == 1)
            single_rate = rate;
        std::printf("%-12zu %14.4f %14.2f %9.2fx%s\n", batch,
                    result.seconds, rate, rate / single_rate,
                    result.ok ? "" : "  ORDER VIOLATION");
    }

    // Multi-ring sweep: per-shard drains in the sharded verifier give
    // each worker its own rings, so aggregate transport throughput at
    // 1/2/4/8 independent rings bounds what shard scaling can deliver.
    std::printf("\n=== Multi-ring aggregate throughput (batch 32, "
                "%zu messages/ring) ===\n",
                total / 8);
    std::printf("%-12s %14s %14s %10s\n", "rings", "time (s)", "Mmsg/s",
                "speedup");
    double single_ring_rate = 0.0;
    for (std::size_t rings : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
        const RunResult result = runMultiRing(capacity, total / 8, rings);
        all_ok = all_ok && result.ok;
        const double rate =
            (total / 8) * rings / result.seconds / 1e6;
        if (rings == 1)
            single_ring_rate = rate;
        std::printf("%-12zu %14.4f %14.2f %9.2fx%s\n", rings,
                    result.seconds, rate, rate / single_ring_rate,
                    result.ok ? "" : "  ORDER VIOLATION");
    }

    // Verified-pipeline sweep: sender -> ShmChannel -> Verifier, per
    // negotiated wire format.
    const std::size_t pipeline_total = smoke ? total : total / 4;
    std::printf("\n=== Verified pipeline throughput (capacity %zu, %zu "
                "messages, CRC backend %s) ===\n",
                capacity, pipeline_total, crc32::implName());
    std::printf("%-12s %14s %14s %10s\n", "format", "time (s)", "Mmsg/s",
                "speedup");
    double v1_rate = 0.0;
    double v2_rate = 0.0;
    if (run_v1) {
        const RunResult result =
            runVerifiedPipeline(capacity, pipeline_total, WireFormat::V1);
        all_ok = all_ok && result.ok;
        v1_rate = pipeline_total / result.seconds / 1e6;
        std::printf("%-12s %14.4f %14.2f %10s%s\n", "v1", result.seconds,
                    v1_rate, "1.00x", result.ok ? "" : "  FAILED");
    }
    if (run_v2) {
        const RunResult result =
            runVerifiedPipeline(capacity, pipeline_total, WireFormat::V2);
        all_ok = all_ok && result.ok;
        v2_rate = pipeline_total / result.seconds / 1e6;
        std::printf("%-12s %14.4f %14.2f %9.2fx%s\n", "v2",
                    result.seconds, v2_rate,
                    v1_rate > 0.0 ? v2_rate / v1_rate : 1.0,
                    result.ok ? "" : "  FAILED");
    }

    if (!json_path.empty()) {
        std::FILE *out = std::fopen(json_path.c_str(), "w");
        if (out == nullptr) {
            std::printf("FAIL: cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(out,
                     "{\n"
                     "  \"schema\": \"hq-ring-bench/1\",\n"
                     "  \"capacity\": %zu,\n"
                     "  \"pipeline_messages\": %zu,\n"
                     "  \"crc_backend\": \"%s\",\n"
                     "  \"verified_pipeline\": {\n",
                     capacity, pipeline_total, crc32::implName());
        bool first = true;
        if (run_v1) {
            std::fprintf(out, "    \"v1\": {\"mmsg_per_sec\": %.4f}",
                         v1_rate);
            first = false;
        }
        if (run_v2) {
            std::fprintf(out, "%s    \"v2\": {\"mmsg_per_sec\": %.4f}",
                         first ? "" : ",\n", v2_rate);
        }
        std::fprintf(out, "\n  },\n  \"ok\": %s\n}\n",
                     all_ok ? "true" : "false");
        std::fclose(out);
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (!all_ok) {
        std::printf("\nFAIL: messages lost, reordered, or pipeline "
                    "verification failed\n");
        return 1;
    }
    if (smoke)
        std::printf("\nsmoke OK: all batch sizes, ring counts, and wire "
                    "formats delivered every message in order\n");
    return 0;
}
