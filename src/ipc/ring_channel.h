/**
 * @file
 * The slot-ring transport: a Channel over one SpscRing.
 *
 * The in-process shared-memory channel (ShmChannel) and the
 * cross-process channel (XprocChannel) differ only in where the ring's
 * memory lives, so they share this class: one send loop with one
 * fail-closed bound, the ring's peek/consume as the receive side, and
 * the ring's private capacity as the v2 decode bound.
 */

#ifndef HQ_IPC_RING_CHANNEL_H
#define HQ_IPC_RING_CHANNEL_H

#include <chrono>

#include "ipc/channel.h"
#include "ipc/spsc_ring.h"

namespace hq {

class RingChannel : public Channel
{
  public:
    Status sendImpl(const Message &message) override;
    Status sendSlotsImpl(const Message *slots, std::size_t count) override;
    PeekResult tryPeekSpan(RecvSpan &out) override
    {
        return _ring.peekSpan(out);
    }
    void consumeSlots(std::size_t count) override { _ring.consume(count); }
    std::size_t recvCapacity() const override { return _ring.capacity(); }
    std::size_t pending() const override { return _ring.size(); }
    const ChannelTraits &traits() const override { return _traits; }

    /** Ring-backed: carries v1 and the batched v2 frame format. */
    bool
    supportsFormat(WireFormat want) const override
    {
        return want == WireFormat::V1 || want == WireFormat::V2;
    }

    /**
     * Bound the full-ring wait of a send. By default the sender waits
     * as long as the consumer takes to drain (the paper's
     * back-pressure); with a timeout, a send that cannot complete in
     * time returns Unavailable instead: fail closed rather than hang
     * when the consumer is dead or stalled by fault injection.
     */
    void setSendTimeout(std::chrono::nanoseconds timeout)
    {
        _send_timeout = timeout;
    }

  protected:
    /** A ring over owned heap storage. */
    RingChannel(std::size_t capacity, ChannelTraits traits);

    /** A ring placed in caller memory (see SpscRing). */
    RingChannel(void *region, std::size_t capacity, ChannelTraits traits);

    SpscRing _ring;

  private:
    /** Retry try_push until it succeeds or the send timeout passes. */
    template <typename TryPush> Status pushOrWait(TryPush try_push);

    ChannelTraits _traits;
    std::chrono::nanoseconds _send_timeout{0}; //!< 0 = wait forever
};

} // namespace hq

#endif // HQ_IPC_RING_CHANNEL_H
