/**
 * @file
 * AppendWrite-µarch software model — the "-MODEL" channel (paper §5.3.1).
 *
 * The paper's HQ-CFI-*-MODEL variant models the proposed ISA extension in
 * software: on each AppendWrite it "fetches, checks, and increments an
 * AppendAddr variable in shared memory, and waits for the verifier if the
 * message buffer is full". It lacks hardware enforcement of append-only
 * pages (and therefore should not be deployed), but gives a lower-bound
 * estimate of real AppendWrite-µarch performance.
 */

#ifndef HQ_UARCH_UARCH_MODEL_CHANNEL_H
#define HQ_UARCH_UARCH_MODEL_CHANNEL_H

#include "ipc/channel.h"
#include "uarch/amr.h"

namespace hq {

class UarchModelChannel : public Channel
{
  public:
    explicit UarchModelChannel(std::size_t capacity);

    /**
     * Software AppendWrite: bounds-check AppendAddr, copy the message,
     * auto-increment; spin-wait for the verifier when the AMR is full
     * (the modeled kernel fault handler).
     */
    Status sendImpl(const Message &message) override;

    /// The verifier validates messages where they sit in the AMR.
    PeekResult tryPeekSpan(RecvSpan &out) override { return _amr.peek(out); }
    void consumeSlots(std::size_t count) override { _amr.consume(count); }
    std::size_t pending() const override { return _amr.pending(); }
    std::size_t recvCapacity() const override
    {
        return _amr.capacityMessages();
    }
    const ChannelTraits &traits() const override { return _traits; }

    /** The underlying appendable memory region (for register inspection). */
    const Amr &amr() const { return _amr; }

  private:
    Amr _amr;
    ChannelTraits _traits;
};

} // namespace hq

#endif // HQ_UARCH_UARCH_MODEL_CHANNEL_H
