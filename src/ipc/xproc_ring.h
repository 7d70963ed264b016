/**
 * @file
 * Cross-process AppendWrite transport over real shared memory.
 *
 * Everything else in this repository runs monitored program and
 * verifier as threads for determinism; this channel demonstrates the
 * deployment the paper actually describes: two *processes* whose only
 * connection is a shared mapping, so the monitored program genuinely
 * cannot touch verifier state.
 *
 * The ring lives in a fixed-layout region created with
 * mmap(MAP_SHARED | MAP_ANONYMOUS) *before* fork(): producer cursor,
 * consumer cursor, and message slots, manipulated with C++ atomics
 * (lock-free, SPSC). The writer side exposes only an append operation;
 * in real HerQules the MMU would additionally reject ordinary stores
 * to the region (AppendWrite-µarch) or the region would live on the
 * device (FPGA).
 */

#ifndef HQ_IPC_XPROC_RING_H
#define HQ_IPC_XPROC_RING_H

#include <atomic>
#include <chrono>
#include <cstddef>

#include "ipc/channel.h"

namespace hq {

/** Fixed-layout shared-memory ring header + slots. */
struct XprocRingRegion
{
    alignas(64) std::atomic<std::uint64_t> tail; //!< producer cursor
    alignas(64) std::atomic<std::uint64_t> head; //!< consumer cursor
    std::uint64_t capacity;                      //!< slot count (pow2)
    Message slots[]; // NOLINT: flexible array, sized at map time
};

/**
 * Channel over a shared mapping usable across fork(). Create in the
 * parent, fork, then send() in the child and receive in the parent
 * (or vice versa — one producer, one consumer).
 */
class XprocChannel : public Channel
{
  public:
    /** Maps the shared region; capacity is rounded up to a power of 2. */
    explicit XprocChannel(std::size_t min_capacity);
    ~XprocChannel() override;

    XprocChannel(const XprocChannel &) = delete;
    XprocChannel &operator=(const XprocChannel &) = delete;

    /** True when the mapping was created successfully. */
    bool valid() const { return _region != nullptr; }

    /**
     * Bound the full-ring wait in sendImpl. By default the sender waits
     * forever for the verifier to drain (the paper's back-pressure
     * semantics); with a timeout, a send that cannot complete returns
     * Unavailable instead — fail closed rather than hang when the
     * consumer is dead or stalled by fault injection.
     */
    void setSendTimeout(std::chrono::nanoseconds timeout)
    {
        _send_timeout = timeout;
    }

    Status sendImpl(const Message &message) override;
    Status sendSlotsImpl(const Message *slots, std::size_t count) override;
    bool tryPeekSpan(RecvSpan &out) override;
    void consumeSlots(std::size_t count) override;
    std::size_t recvCapacity() const override
    {
        return _region != nullptr
                   ? static_cast<std::size_t>(_region->capacity)
                   : 0;
    }
    std::size_t pending() const override;
    const ChannelTraits &traits() const override { return _traits; }

    /** Ring-backed: carries v1 and the batched v2 frame format. */
    bool
    supportsFormat(WireFormat want) const override
    {
        return want == WireFormat::V1 || want == WireFormat::V2;
    }

  private:
    XprocRingRegion *_region = nullptr;
    std::size_t _map_bytes = 0;
    ChannelTraits _traits;
    std::chrono::nanoseconds _send_timeout{0}; //!< 0 = wait forever
    /// The producer's cursor cache lives in the channel object, NOT
    /// the shared region: after fork() each process owns a private
    /// copy, refreshed from the shared head on apparent-full only.
    alignas(64) std::uint64_t _cached_head = 0;
};

} // namespace hq

#endif // HQ_IPC_XPROC_RING_H
