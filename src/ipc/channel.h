/**
 * @file
 * Abstract IPC channel between a monitored program and the verifier.
 *
 * Concrete channels correspond to the rows of the paper's Table 2:
 * POSIX message queues, named pipes, sockets, raw shared memory,
 * AppendWrite-FPGA, and AppendWrite-µarch (software model). Each channel
 * declares its traits (append-only? asynchronous validation? primary
 * cost) so the Table 2 harness can print the comparison.
 */

#ifndef HQ_IPC_CHANNEL_H
#define HQ_IPC_CHANNEL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "ipc/frame.h"
#include "ipc/message.h"
#include "telemetry/lag.h"

namespace hq {

/** Static properties of a channel kind (columns of Table 2). */
struct ChannelTraits
{
    std::string name;
    bool appendOnly = false;       //!< writers cannot alter sent messages
    bool asyncValidation = false;  //!< send does not block on the reader
    std::string primaryCost;       //!< e.g. "System Call", "Mem. Write"
};

/**
 * Bidirectional endpoint pair abstraction: the monitored program calls
 * send(); the verifier borrows queued slots with tryPeekSpan() and
 * releases them with consumeSlots(). Implementations are safe for one
 * concurrent sender thread and one concurrent receiver thread.
 *
 * send() is a template method: the public entry point stamps each
 * message's enqueue time into a per-channel lag sidecar (and emits a
 * Perfetto flow-begin event) when telemetry is enabled, then forwards
 * to the transport-specific sendImpl(). The wire Message format is
 * untouched (§3.1); the envelope travels beside the queue, and the
 * verifier turns it into per-message verification-lag histograms.
 * Disabled runs pay one relaxed atomic load + branch.
 */
class Channel
{
  public:
    Channel();
    virtual ~Channel() = default;

    /** Transmit one message; may block when the transport is full. */
    Status send(const Message &message);

    /**
     * Transmit count messages, preserving order. On a v1 channel this
     * is a convenience loop over send(); on a v2-negotiated channel the
     * batch travels as framed runs (header + packed records, at most
     * frame::kMaxRecords per frame) so sequence/CRC stamping amortizes
     * across the batch. May block when the transport is full.
     */
    Status sendBatch(const Message *messages, std::size_t count);

    /**
     * Wire format in effect. Channels start in v1 (one self-checking
     * Message per slot); negotiateFormat(V2) upgrades ring-backed
     * transports that support framing.
     */
    WireFormat format() const { return _format; }

    /**
     * Request a wire format. Returns true and switches when the
     * transport supports it; otherwise the current format is kept
     * (callers fall back to v1 silently — old peers stay valid). Call
     * before the first send(); renegotiating mid-stream would tear the
     * receiver's frame alignment.
     */
    bool
    negotiateFormat(WireFormat want)
    {
        if (!supportsFormat(want))
            return false;
        _format = want;
        return true;
    }

    /** Formats this transport can carry (base: v1 only). */
    virtual bool
    supportsFormat(WireFormat want) const
    {
        return want == WireFormat::V1;
    }

    /**
     * Receive, step 1 — with consumeSlots() the whole receive interface
     * of a transport: lend the queued slots in place, without dequeuing
     * (at most two contiguous runs around a wrap point). A repeated
     * peek with no consume in between starts with the same slots. The
     * verifier checks records where they sit — v1 CRC checks, v2 frame
     * decode — and releases them only afterwards, so corrupt data is
     * never copied into trusted state first. A ring-backed transport
     * reports BadCursor, and lends nothing from then on, when the
     * producer's cursor is out of range. The base (a send-only
     * transport) has nothing queued.
     */
    virtual PeekResult
    tryPeekSpan(RecvSpan &out)
    {
        out = RecvSpan{};
        return PeekResult::Empty;
    }

    /**
     * Receive, step 2: release the oldest `count` slots of
     * the last tryPeekSpan() view (count <= the slots still unreleased
     * in it). References into the released range are invalidated; the
     * rest of the view stays valid.
     */
    virtual void
    consumeSlots(std::size_t count)
    {
        (void)count;
    }

    /**
     * Copying receive of the next slot, built on the peek/consume
     * pair: true and fills out when a slot was dequeued.
     */
    bool tryRecv(Message &out) { return tryRecvBatch(&out, 1) == 1; }

    /**
     * Copying receive of up to max_count slots into out[0..), in send
     * order: one peek, one copy, one consume.
     * @return number of slots dequeued (0 when none available).
     */
    std::size_t tryRecvBatch(Message *out, std::size_t max_count);

    /**
     * Receive-side ring capacity in slots, or 0 when the transport has
     * no fixed slot ring (posix transports). The verifier feeds this to
     * the v2 frame decoder: a header whose slot footprint exceeds the
     * ring can never complete, so it must be rejected rather than
     * waited for. A peek that finds the ring full tells the shard
     * worker the producer is blocked, so it re-polls without waiting.
     */
    virtual std::size_t recvCapacity() const { return 0; }

    /**
     * Approximate number of in-flight slots: sent and not yet consumed
     * (slots lent by tryPeekSpan() count until consumeSlots()).
     */
    virtual std::size_t pending() const = 0;

    /** Static channel properties. */
    virtual const ChannelTraits &traits() const = 0;

    /**
     * Process-unique channel id (monotonic, from 1). The upper half of
     * the 64-bit Perfetto flow-event id, so flows from distinct
     * channels never collide even when sequences do.
     */
    std::uint32_t channelId() const { return _channel_id; }

    /**
     * The lag sidecar paired with this channel, or nullptr when no
     * message has been stamped yet (telemetry disabled). The verifier
     * matches envelopes by sequence number, so a null or partially
     * populated sidecar degrades to "no lag sample", never a wrong one.
     * Read with acquire: the producer creates the sidecar lazily on
     * its first stamped send and publishes it with a release store, so
     * a consumer thread that sees the pointer sees a constructed ring.
     */
    telemetry::LagSidecar *
    lagSidecar() const
    {
        return _lag_ptr.load(std::memory_order_acquire);
    }

    /** Messages stamped through send() so far (the sidecar sequence). */
    std::uint64_t sendCount() const { return _send_count; }

  protected:
    /** Transport-specific transmit; called by the send() wrapper. */
    virtual Status sendImpl(const Message &message) = 0;

    /**
     * Transport-specific all-or-nothing append of pre-encoded frame
     * slots (v2 path). A frame must become visible to the consumer
     * atomically — one release-store — or not at all; partial frames
     * would tear the receiver's decode alignment. Only transports that
     * report supportsFormat(V2) need to override.
     */
    virtual Status
    sendSlotsImpl(const Message *slots, std::size_t count)
    {
        (void)slots;
        (void)count;
        return Status::error(StatusCode::FailedPrecondition,
                             "transport has no framed (v2) send path");
    }

    /**
     * Replace the default private sidecar with an externally backed
     * one (XprocChannel: a region inside its shared mapping, so the
     * parent's verifier can read envelopes the child stamped).
     * Call before the first send().
     */
    void installLagSidecar(std::unique_ptr<telemetry::LagSidecar> sidecar)
    {
        _lag = std::move(sidecar);
        _lag_ptr.store(_lag.get(), std::memory_order_release);
    }

  private:
    /** One framed (v2) transmit of count <= frame::kMaxRecords
     *  same-pid messages, including lag stamping per record. */
    Status sendFramed(const Message *messages, std::size_t count);

    std::uint32_t _channel_id;
    std::uint64_t _send_count = 0;
    WireFormat _format = WireFormat::V1;
    /// _lag owns; _lag_ptr publishes (release on create, acquire in
    /// lagSidecar()) so the verifier thread can race the lazy creation.
    std::unique_ptr<telemetry::LagSidecar> _lag;
    std::atomic<telemetry::LagSidecar *> _lag_ptr{nullptr};
};

/** Perfetto flow-event id for (channel, sequence). */
inline std::uint64_t
lagFlowId(std::uint32_t channel_id, std::uint64_t seq)
{
    return (static_cast<std::uint64_t>(channel_id) << 32) |
           (seq & 0xffffffffu);
}

/** The channel kinds evaluated in Table 2 and Figures 3-4. */
enum class ChannelKind {
    PosixMq,      //!< POSIX message queue (-MQ)
    Pipe,         //!< named pipe
    Socket,       //!< Unix datagram socket pair
    SharedMemory, //!< raw shared memory (no append-only guarantee)
    Fpga,         //!< AppendWrite-FPGA device model (-FPGA)
    UarchModel,   //!< AppendWrite-µarch software model (-MODEL)
    CrossProcess, //!< shared-memory ring usable across fork()
};

/** Name used for a channel kind in harness output. */
const char *channelKindName(ChannelKind kind);

/**
 * Construct a channel of the given kind with the requested capacity
 * (messages). Falls back with an error Status-bearing nullptr-free
 * contract: construction failures abort via panic() since they indicate
 * a misconfigured host (e.g. mq_open refused).
 */
std::unique_ptr<Channel> makeChannel(ChannelKind kind,
                                     std::size_t capacity = 1 << 16);

} // namespace hq

#endif // HQ_IPC_CHANNEL_H
