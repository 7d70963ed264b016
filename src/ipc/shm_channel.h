/**
 * @file
 * Raw shared-memory channel — Table 2's "Shared Memory" row.
 *
 * Fast (a memory write) and asynchronous, but NOT append-only: any writer
 * with the mapping can corrupt or erase previously-written messages before
 * the verifier reads them. The corruptSlot() test hook demonstrates
 * exactly that weakness; the AppendWrite channels reject the equivalent
 * operation.
 */

#ifndef HQ_IPC_SHM_CHANNEL_H
#define HQ_IPC_SHM_CHANNEL_H

#include "ipc/channel.h"
#include "ipc/spsc_ring.h"

namespace hq {

class ShmChannel : public Channel
{
  public:
    explicit ShmChannel(std::size_t capacity);

    Status sendImpl(const Message &message) override;
    Status sendSlotsImpl(const Message *slots, std::size_t count) override;
    bool tryPeekSpan(RecvSpan &out) override;
    void consumeSlots(std::size_t count) override;
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
     * Model a compromised writer overwriting an already-sent message in
     * place (the integrity failure that motivates AppendWrite).
     * @return true when an unread message was corrupted.
     */
    bool corruptOldestPending(const Message &forged);

    /**
     * Bound the full-ring spin in sendImpl: after `limit` failed push
     * attempts the send returns Unavailable (fail closed) instead of
     * spinning forever on a dead consumer. 0 (default) = unbounded.
     */
    void setSendSpinLimit(std::uint64_t limit) { _max_send_spins = limit; }

  private:
    SpscRing _ring;
    ChannelTraits _traits;
    std::uint64_t _max_send_spins = 0;
};

} // namespace hq

#endif // HQ_IPC_SHM_CHANNEL_H
