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
 * The mapping is created with mmap(MAP_SHARED | MAP_ANONYMOUS) *before*
 * fork() and holds the one SpscRing (its two cursors, then its slots)
 * followed by the lag sidecar. The producer process can write every
 * byte of it, so the consumer keeps everything that steers its reads
 * privately: capacity, mask and its own cursor live in the channel
 * object, which fork() copies, and the only shared word it reads, the
 * producer cursor, is checked on every peek (SpscRing::peekSpan). In
 * real HerQules the MMU would additionally reject ordinary stores to
 * the region (AppendWrite-µarch) or the region would live on the
 * device (FPGA).
 */

#ifndef HQ_IPC_XPROC_RING_H
#define HQ_IPC_XPROC_RING_H

#include <cstddef>

#include "ipc/ring_channel.h"

namespace hq {

/**
 * Channel over a shared mapping usable across fork(). Create in the
 * parent, fork, then send() in the child and receive in the parent
 * (or vice versa — one producer, one consumer).
 */
class XprocChannel : public RingChannel
{
  public:
    /** Maps the shared region (panics when the host refuses);
     *  capacity is rounded up to a power of 2. */
    explicit XprocChannel(std::size_t min_capacity);
    ~XprocChannel() override;

    XprocChannel(const XprocChannel &) = delete;
    XprocChannel &operator=(const XprocChannel &) = delete;

    /**
     * The raw shared pages, as a process holding the mapping sees
     * them: the ring's SpscRing::SharedCursors at offset 0 and its
     * slots right after, then the lag sidecar's region at the next
     * 64-byte boundary. Test hook for hostile-producer checks; nothing
     * on the receive side reads through it.
     */
    void *sharedMapping() const { return _mapping; }

  private:
    XprocChannel(void *mapping, std::size_t min_capacity);

    void *_mapping;
    std::size_t _map_bytes;
};

} // namespace hq

#endif // HQ_IPC_XPROC_RING_H
