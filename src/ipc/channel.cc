/**
 * @file
 * Template-method send() wrapper: sequence + CRC stamping, lag stamping
 * and flow-event emission shared by every channel transport; the
 * copying receive built once on the peek/consume pair.
 */

#include "ipc/channel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "faultinject/fault.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace hq {

namespace {

/**
 * Default private sidecar capacity. Sized to cover several verifier
 * poll batches (kMaxPollBatch = 256) of in-flight messages; envelopes
 * beyond this are dropped (counted), never blocked on.
 */
constexpr std::size_t kDefaultLagCapacity = 4096;

HQ_TELEMETRY_HANDLE(stampDropped, Counter, "ipc.lag_stamp_dropped")
HQ_TELEMETRY_HANDLE(sendErrors, Counter, "ipc.send_errors")

std::uint32_t
nextChannelId()
{
    static std::atomic<std::uint32_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

Channel::Channel() : _channel_id(nextChannelId()) {}

std::size_t
Channel::tryRecvBatch(Message *out, std::size_t max_count)
{
    RecvSpan span;
    if (max_count == 0 || !tryPeekSpan(span))
        return 0;
    const std::size_t n = std::min(max_count, span.total());
    const std::size_t first = std::min(n, span.seg[0].count);
    std::memcpy(out, span.seg[0].data, first * sizeof(Message));
    if (n > first)
        std::memcpy(out + first, span.seg[1].data,
                    (n - first) * sizeof(Message));
    consumeSlots(n);
    return n;
}

Status
Channel::send(const Message &message)
{
    // On a v2-negotiated channel every transmit is framed — a single
    // message travels as a frame of one, so the receiver never has to
    // guess which slots are headers.
    if (_format == WireFormat::V2)
        return sendFramed(&message, 1);

    // Stamp the wire integrity fields once, for every transport: the
    // sender-side sequence makes drops/duplicates detectable on
    // software channels (the FPGA AFU restamps with its own counter),
    // and the CRC guard makes bit-flips detectable instead of
    // mis-verifiable. Both sides of the overhead A/B gate pay the same
    // stamping cost, so the <2% disabled-overhead claim is unaffected.
    Message stamped = message;
    stamped.seq = static_cast<std::uint32_t>(_send_count);
    stamped.pad = messageCrc(stamped);

    if (faultinject::fire(faultinject::Site::TransportDelay))
        std::this_thread::sleep_for(std::chrono::microseconds(100));

    if (!telemetry::enabled()) {
        Status status = sendImpl(stamped);
        // Keep the sidecar sequence aligned with delivered-message
        // count even while disabled, so a mid-run enable produces
        // matchable envelopes instead of permanently stale ones.
        if (status.isOk())
            ++_send_count;
        return status;
    }

    const std::uint64_t enqueue_ns = telemetry::monotonicRawNs();
    telemetry::TraceScope scope("ipc.send");
    Status status = sendImpl(stamped);
    if (status.isOk()) {
        const std::uint64_t seq = _send_count++;
        if (!_lag) {
            _lag = std::make_unique<telemetry::LagSidecar>(
                kDefaultLagCapacity);
            _lag_ptr.store(_lag.get(), std::memory_order_release);
        }
        if (!_lag->stamp(seq, enqueue_ns))
            stampDropped().inc();
        telemetry::traceFlowBegin("lag", lagFlowId(_channel_id, seq));
    } else {
        sendErrors().inc();
    }
    return status;
}

Status
Channel::sendBatch(const Message *messages, std::size_t count)
{
    if (_format == WireFormat::V1) {
        for (std::size_t i = 0; i < count; ++i) {
            const Status status = send(messages[i]);
            if (!status.isOk())
                return status;
        }
        return Status::ok();
    }
    // v2: cut the batch into frames of at most kMaxRecords, breaking
    // early when the sender pid changes (a frame states pid once for
    // all of its records).
    std::size_t offset = 0;
    while (offset < count) {
        std::size_t n = count - offset;
        if (n > frame::kMaxRecords)
            n = frame::kMaxRecords;
        for (std::size_t i = 1; i < n; ++i) {
            if (messages[offset + i].pid != messages[offset].pid) {
                n = i;
                break;
            }
        }
        const Status status = sendFramed(messages + offset, n);
        if (!status.isOk())
            return status;
        offset += n;
    }
    return Status::ok();
}

Status
Channel::sendFramed(const Message *messages, std::size_t count)
{
    namespace fi = faultinject;
    if (count == 0)
        return Status::ok();

    const auto base_seq = static_cast<std::uint32_t>(_send_count);
    Message slots[frame::kMaxFrameSlots];
    frame::encode(messages, count, messages[0].pid, base_seq, slots);
    const std::size_t slot_count = frame::frameSlots(count);

    if (fi::armed()) {
        if (fi::fire(fi::Site::RingDrop)) {
            // The frame is "accepted" but never written: the whole run
            // of sequence numbers goes missing, which the verifier
            // reports as a SeqGap on the next frame.
            _send_count += count;
            return Status::ok();
        }
        if (fi::fire(fi::Site::FrameCorrupt))
            fi::corruptBytes(slots, slot_count * sizeof(Message));
        if (fi::fire(fi::Site::TransportDelay))
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

    if (!telemetry::enabled()) {
        const Status status = sendSlotsImpl(slots, slot_count);
        if (status.isOk())
            _send_count += count;
        return status;
    }

    const std::uint64_t enqueue_ns = telemetry::monotonicRawNs();
    telemetry::TraceScope scope("ipc.send_frame");
    const Status status = sendSlotsImpl(slots, slot_count);
    if (status.isOk()) {
        if (!_lag) {
            _lag = std::make_unique<telemetry::LagSidecar>(
                kDefaultLagCapacity);
            _lag_ptr.store(_lag.get(), std::memory_order_release);
        }
        // One envelope per record (not per frame): the verifier matches
        // lag samples by per-record receive index, exactly as in v1.
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t seq = _send_count++;
            if (!_lag->stamp(seq, enqueue_ns))
                stampDropped().inc();
        }
        telemetry::traceFlowBegin("lag",
                                  lagFlowId(_channel_id, base_seq));
    } else {
        sendErrors().inc();
    }
    return status;
}

} // namespace hq
