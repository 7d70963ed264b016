/**
 * @file
 * Single-producer single-consumer lock-free ring of AppendWrite messages.
 *
 * This is the one slot ring in the repository. It backs the verifier
 * host buffer behind the FPGA device model, the appendable memory
 * region (AMR) of the microarchitectural model, and both slot-ring
 * channels: the in-process shared-memory channel and the cross-process
 * channel, which places the ring in its MAP_SHARED mapping. The paper
 * assigns one AMR per writer core with a single reader core iterating
 * over all mapped AMRs, which is exactly the SPSC discipline.
 *
 * Two shared words, the producer cursor `tail` and the consumer cursor
 * `head`, sit on separate 64-byte lines ahead of the slots. Each side
 * writes only its own word and keeps the authoritative copy of its
 * cursor privately, in this object; it reads the other side's word
 * only to refresh a cached copy. So a producer that holds the mapping
 * (a forked child) can steer nothing the consumer keeps: capacity,
 * mask and the consumer cursor never leave consumer-private memory,
 * and the one word the consumer reads, `tail`, is checked on every
 * peek (see peekSpan).
 *
 * Fast path (see DESIGN.md "Fast path"): the producer refreshes its
 * cached consumer cursor only when the ring looks full, so steady-state
 * pushes touch no remote cache line beyond the slot itself; tryPushAll
 * publishes a whole frame with one release-store.
 */

#ifndef HQ_IPC_SPSC_RING_H
#define HQ_IPC_SPSC_RING_H

#include <atomic>
#include <cstddef>
#include <memory>

#include "ipc/frame.h"
#include "ipc/message.h"

namespace hq {

/** Lock-free SPSC ring; capacity is rounded up to a power of two. */
class SpscRing
{
  public:
    /** The ring's shared words, each on its own cache line; the slots
     *  follow them in the ring's region. */
    struct SharedCursors
    {
        alignas(64) std::atomic<std::uint64_t> tail; //!< producer writes
        alignas(64) std::atomic<std::uint64_t> head; //!< consumer writes
    };

    /** Bytes of a region for `capacity` slots (pow2-rounded): the
     *  shared cursors, then the slots. */
    static std::size_t regionBytes(std::size_t capacity);

    /** A ring over owned heap storage. */
    explicit SpscRing(std::size_t min_capacity);

    /**
     * A ring placed in caller memory of regionBytes(min_capacity)
     * bytes, 64-byte aligned (e.g. a MAP_SHARED mapping). Zeroes both
     * cursors; the caller keeps the memory alive.
     */
    SpscRing(void *region, std::size_t min_capacity);

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /**
     * Append one message; fails (returns false) when the ring is full.
     * Producer-side only.
     */
    bool tryPush(const Message &message);

    /**
     * Append exactly count slots or none at all, with a single
     * release-store of the producer cursor. The v2 frame path depends
     * on this atomicity: a consumer that observes a frame header must
     * observe the complete frame (partial publication would tear the
     * receiver's decode alignment). Producer-side only.
     * @return true when all count slots were appended.
     */
    bool tryPushAll(const Message *slots, std::size_t count);

    /**
     * Zero-copy drain: view every queued slot in place (at most two
     * contiguous runs around the wrap point) without advancing the
     * consumer cursor. The view stays valid until consume() releases
     * the slots. Reads the producer cursor once and fails closed when
     * it moved backwards or claims more than a full ring: BadCursor,
     * on this and every later peek, and nothing is lent. Consumer-side
     * only.
     */
    PeekResult peekSpan(RecvSpan &out);

    /** Release the first count slots of the last peekSpan() view.
     *  Consumer-side only. */
    void consume(std::size_t count);

    /** Number of messages currently queued (approximate across threads;
     *  at most capacity()). */
    std::size_t size() const;

    /**
     * Overwrite the index-th unread message in place. This models what a
     * compromised writer can do to a raw shared-memory transport (anyone
     * with the mapping can scribble over sent-but-unread messages); the
     * AppendWrite channels never expose this operation. Producer-side
     * test/demo hook.
     * @return false when fewer than index+1 messages are pending.
     */
    bool overwritePending(std::size_t index, const Message &forged);

    /** True when no messages are queued. */
    bool empty() const { return size() == 0; }

    std::size_t capacity() const { return _mask + 1; }

  private:
    /** The real push (fault-free fast path body). */
    bool pushSlot(const Message &message);

    /** Cold path taken while fault injection is armed: may drop,
     *  duplicate, bit-flip or stall the push (ring_* fault sites). */
    bool pushWithFaults(const Message &message);

    std::unique_ptr<unsigned char[]> _owned; //!< empty when placed
    SharedCursors *_shared;
    Message *_slots;
    std::size_t _mask;
    /// Consumer-owned line: the consumer cursor (atomic only so size()
    /// may read it from the producer's thread), the last producer
    /// cursor a peek accepted, and whether a peek caught it lying.
    alignas(64) std::atomic<std::uint64_t> _head{0};
    std::uint64_t _cached_tail = 0;
    bool _bad_cursor = false;
    /// Producer-owned line: the producer cursor and its cache of the
    /// consumer cursor (refreshed only when the ring looks full).
    alignas(64) std::uint64_t _tail = 0;
    std::uint64_t _cached_head = 0;
};

} // namespace hq

#endif // HQ_IPC_SPSC_RING_H
