/**
 * @file
 * Stage micro-legs for the traced run. Each leg times one pipeline
 * stage single-threaded over a workload's captured streams and reports
 * it in ns per message:
 *
 *   ipc.send (v1 Channel::send, stamping + publish)
 *   ipc.send_batch (v2 Channel::sendBatch, framing + publish)
 *   ipc.drain (v1 tryRecvBatch; v2 tryPeekSpan + decode + consumeSlots)
 *   verifier.poll (Verifier::poll on a pre-filled channel, not started)
 *   policy.handle (PolicyContext::handleMessage)
 *   kernel.resume_batch / kernel.enter (syscallResumeBatch, admitted
 *   syscallEnter)
 *
 * poll minus drain minus handle leaves the verifier's own share: pid
 * lookup, bookkeeping and the ack flush.
 */

#include "bench.h"

#include <algorithm>

#include "ipc/frame.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "uarch/uarch_model_channel.h"
#include "verifier/verifier.h"

namespace hqbench {

using namespace hq;

namespace {

/** Messages per fill of a leg's channel. */
constexpr std::size_t kLegChunk = 8192;
/** Leg ring slots: a whole chunk fits in either wire format. */
constexpr std::size_t kLegRing = 2 * kLegChunk;
/** Upper bound on messages one pass of a leg walks. */
constexpr std::size_t kLegMessages = 1 << 20;
constexpr std::size_t kSendBatch = 256;
constexpr std::size_t kKernelPids = 64;
constexpr std::size_t kKernelRounds = 256;

/** A RecvSpan starting `skip` slots into `span`. */
RecvSpan
advanceSpan(const RecvSpan &span, std::size_t skip)
{
    RecvSpan out;
    if (skip < span.seg[0].count) {
        out.seg[0] = {span.seg[0].data + skip, span.seg[0].count - skip};
        out.seg[1] = span.seg[1];
    } else {
        const std::size_t rest = skip - span.seg[0].count;
        out.seg[0] = {span.seg[1].data + rest, span.seg[1].count - rest};
    }
    return out;
}

/** The chunks one pass walks: (stream, offset, length), capped. */
struct Chunk
{
    const Message *data;
    std::size_t count;
    std::size_t stream;
};

std::vector<Chunk>
chunksOf(const std::vector<const std::vector<Message> *> &streams)
{
    std::vector<Chunk> chunks;
    std::size_t total = 0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const std::vector<Message> &stream = *streams[s];
        for (std::size_t off = 0; off < stream.size() &&
                                  total < kLegMessages;
             off += kLegChunk) {
            const std::size_t n = std::min(kLegChunk, stream.size() - off);
            chunks.push_back({stream.data() + off, n, s});
            total += n;
        }
    }
    return chunks;
}

std::size_t
messagesIn(const std::vector<Chunk> &chunks)
{
    std::size_t n = 0;
    for (const Chunk &chunk : chunks)
        n += chunk.count;
    return n;
}

/** Nanoseconds one pass spent in the (up to two) stages it times. */
struct PassNs
{
    std::uint64_t first = 0;
    std::uint64_t second = 0;
};

/** Median ns per unit of each timed stage over a leg's passes. */
struct LegNs
{
    double first = 0.0;
    double second = 0.0;
};

/**
 * Repeat `pass` until the leg's budget is used (at least three times);
 * report the median ns per unit of work for each stage it timed.
 * Passes rotate over the CPUs, like the trials, so legs that are
 * subtracted from one another saw the same mix of CPUs.
 */
template <typename Pass>
LegNs
timeLeg(double budget_s, std::size_t units, Pass &&pass)
{
    std::vector<double> first, second;
    const double n = static_cast<double>(units);
    const std::uint64_t start = monoNs();
    while (first.size() < 3 || secondsSince(start) < budget_s) {
        Tracer::get().nextTrial();
        const PassNs ns = [&] {
            CpuSlot cpu(first.size());
            return pass();
        }();
        first.push_back(static_cast<double>(ns.first) / n);
        second.push_back(static_cast<double>(ns.second) / n);
    }
    return {median(first), median(second)};
}

Status
fill(Channel &channel, const Chunk &chunk)
{
    for (std::size_t off = 0; off < chunk.count; off += kSendBatch) {
        const Status status = channel.sendBatch(
            chunk.data + off, std::min(kSendBatch, chunk.count - off));
        if (!status.isOk())
            return status;
    }
    return Status::ok();
}

} // namespace

std::size_t
drainFrames(Channel &channel, Message *scratch, bool &bad)
{
    RecvSpan span;
    if (!channel.tryPeekSpan(span) || span.total() == 0)
        return 0;
    const frame::DecodeLimits limits{channel.recvCapacity(),
                                     Verifier::kMaxPollBatch};
    std::size_t used = 0, records = 0;
    frame::FrameView view;
    while (used < span.total()) {
        const RecvSpan rest = advanceSpan(span, used);
        const frame::DecodeStatus status = frame::decode(rest, limits, view);
        if (status == frame::DecodeStatus::NeedMore)
            break;
        if (status != frame::DecodeStatus::Ok) {
            bad = true;
            break;
        }
        frame::unpackAll(rest, view, scratch);
        records += view.count;
        used += view.slots;
    }
    channel.consumeSlots(used);
    return records;
}

void
runStageLegs(const std::vector<const std::vector<Message> *> &streams,
             Transport transport, double seconds, Report &report)
{
    const std::vector<Chunk> chunks = chunksOf(streams);
    const std::size_t messages = std::max<std::size_t>(1, messagesIn(chunks));
    const double budget = seconds / 5.0;
    std::vector<Message> scratch(std::max(kLegChunk, frame::kMaxRecords));
    bool bad = false;

    // v1: Channel::send into the MODEL channel, then tryRecvBatch.
    const LegNs v1 = timeLeg(budget, messages, [&] {
        UarchModelChannel channel(kLegRing);
        std::uint64_t send_ns = 0, drain_ns = 0;
        for (const Chunk &chunk : chunks) {
            std::uint64_t t0 = monoNs();
            {
                SpanScope span("ipc.send");
                for (std::size_t i = 0; i < chunk.count; ++i)
                    bad |= !channel.send(chunk.data[i]).isOk();
            }
            std::uint64_t t1 = monoNs();
            std::size_t got = 0;
            {
                SpanScope span("ipc.drain");
                while (got < chunk.count) {
                    const std::size_t n = channel.tryRecvBatch(
                        scratch.data(), Verifier::kMaxPollBatch);
                    if (n == 0)
                        break;
                    got += n;
                }
            }
            bad |= got != chunk.count;
            send_ns += t1 - t0;
            drain_ns += monoNs() - t1;
        }
        return PassNs{send_ns, drain_ns};
    });

    // v2: Channel::sendBatch framing into a shared-memory ring, then
    // peek-span + frame decode + consume.
    const LegNs v2 = timeLeg(budget, messages, [&] {
        ShmChannel channel(kLegRing);
        channel.negotiateFormat(WireFormat::V2);
        std::uint64_t send_ns = 0, drain_ns = 0;
        for (const Chunk &chunk : chunks) {
            std::uint64_t t0 = monoNs();
            {
                SpanScope span("ipc.send_batch");
                bad |= !fill(channel, chunk).isOk();
            }
            std::uint64_t t1 = monoNs();
            std::size_t got = 0;
            {
                SpanScope span("ipc.drain");
                while (got < chunk.count) {
                    const std::size_t n =
                        drainFrames(channel, scratch.data(), bad);
                    if (n == 0)
                        break;
                    got += n;
                }
            }
            bad |= got != chunk.count;
            send_ns += t1 - t0;
            drain_ns += monoNs() - t1;
        }
        return PassNs{send_ns, drain_ns};
    });

    // Verifier::poll on a pre-filled channel of the workload's kind.
    std::uint64_t polls = 0, polled = 0;
    const LegNs poll = timeLeg(budget, messages, [&] {
        std::uint64_t ns = 0;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            KernelModule kernel;
            Verifier::Config config;
            config.num_shards = 1;
            config.kill_on_violation = false;
            Verifier verifier(kernel,
                              std::make_shared<PointerIntegrityPolicy>(),
                              config);
            std::unique_ptr<Channel> channel;
            if (transport == Transport::ModelV1) {
                channel = std::make_unique<UarchModelChannel>(kLegRing);
            } else {
                channel = std::make_unique<ShmChannel>(kLegRing);
                channel->negotiateFormat(WireFormat::V2);
            }
            kernel.enableProcess(1);
            verifier.attachChannel(channel.get(), 1);
            for (const Chunk &chunk : chunks) {
                if (chunk.stream != s)
                    continue;
                bad |= !fill(*channel, chunk).isOk();
                const std::uint64_t t0 = monoNs();
                std::size_t done = 0;
                while (done < chunk.count) {
                    SpanScope span("verifier.poll");
                    const std::size_t n = verifier.poll();
                    if (n == 0)
                        break;
                    done += n;
                    ++polls;
                }
                ns += monoNs() - t0;
                polled += done;
                bad |= done != chunk.count;
            }
        }
        return PassNs{ns, 0};
    });

    // PolicyContext::handleMessage over the same streams.
    const LegNs handle = timeLeg(budget, messages, [&] {
        std::uint64_t ns = 0;
        PointerIntegrityPolicy policy;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            std::unique_ptr<PolicyContext> context = policy.makeContext(1);
            for (const Chunk &chunk : chunks) {
                if (chunk.stream != s)
                    continue;
                const std::uint64_t t0 = monoNs();
                {
                    SpanScope span("policy.handle");
                    for (std::size_t i = 0; i < chunk.count; ++i)
                        context->handleMessage(chunk.data[i]);
                }
                ns += monoNs() - t0;
            }
        }
        return PassNs{ns, 0};
    });

    // Kernel: one coalesced ack flush over kKernelPids, then one
    // admitted syscallEnter per pid.
    const LegNs kernel_ns = timeLeg(budget, kKernelPids * kKernelRounds, [&] {
        KernelModule kernel;
        KernelModule::SyscallAck acks[kKernelPids];
        for (std::size_t p = 0; p < kKernelPids; ++p) {
            kernel.enableProcess(static_cast<Pid>(p + 1));
            acks[p] = {static_cast<Pid>(p + 1), 1};
        }
        std::uint64_t resume = 0, enter = 0;
        for (std::size_t round = 0; round < kKernelRounds; ++round) {
            const std::uint64_t t0 = monoNs();
            {
                SpanScope span("kernel.resume_batch");
                kernel.syscallResumeBatch(acks, kKernelPids);
            }
            const std::uint64_t t1 = monoNs();
            {
                SpanScope span("kernel.enter");
                for (std::size_t p = 0; p < kKernelPids; ++p)
                    bad |= !kernel
                                .syscallEnter(static_cast<Pid>(p + 1), 1)
                                .isOk();
            }
            enter += monoNs() - t1;
            resume += t1 - t0;
        }
        for (std::size_t p = 0; p < kKernelPids; ++p)
            bad |= kernel.statsFor(static_cast<Pid>(p + 1)).waits != 0;
        return PassNs{resume, enter};
    });

    const double drain_ns =
        transport == Transport::ModelV1 ? v1.second : v2.second;
    report.metric("ipc.send_ns_per_msg", v1.first, "ns/msg");
    report.metric("ipc.send_batch_ns_per_msg", v2.first, "ns/msg");
    report.metric("ipc.drain_v1_ns_per_msg", v1.second, "ns/msg");
    report.metric("ipc.drain_v2_ns_per_msg", v2.second, "ns/msg");
    report.metric("verifier.poll_ns_per_msg", poll.first, "ns/msg");
    report.metric("verifier.msgs_per_poll",
                  polls ? static_cast<double>(polled) /
                              static_cast<double>(polls)
                        : 0.0,
                  "msg");
    report.metric("verifier.lookup_ack_ns_per_msg",
                  poll.first - drain_ns - handle.first, "ns/msg");
    report.metric("policy.handle_ns_per_msg", handle.first, "ns/msg");
    report.metric("kernel.resume_ns_per_ack", kernel_ns.first, "ns/ack");
    report.metric("kernel.enter_admitted_ns", kernel_ns.second, "ns");
    report.check(!bad, "stage legs: a leg lost messages or was refused");
}

} // namespace hqbench
