#include "telemetry/lag.h"

#include <new>

#include "common/bits.h"

namespace hq {
namespace telemetry {

std::size_t
LagSidecar::regionBytes(std::size_t capacity)
{
    const std::size_t slots = roundUpPow2(capacity ? capacity : 1);
    return sizeof(LagSidecarRegion) + slots * sizeof(LagStamp);
}

LagSidecar::LagSidecar(std::size_t capacity)
    : LagSidecar(new unsigned char[regionBytes(capacity)], capacity,
                 /*initialize=*/true)
{
    _owned.reset(reinterpret_cast<unsigned char *>(_region));
}

LagSidecar::LagSidecar(void *region, std::size_t capacity, bool initialize)
    : _mask(roundUpPow2(capacity ? capacity : 1) - 1)
{
    if (!initialize) {
        _region = static_cast<LagSidecarRegion *>(region);
        _head = _region->head.load(std::memory_order_acquire);
        return;
    }
    _region = new (region) LagSidecarRegion;
    _region->tail.store(0, std::memory_order_relaxed);
    _region->head.store(0, std::memory_order_relaxed);
}

bool
LagSidecar::stamp(std::uint64_t seq, std::uint64_t enqueue_ns)
{
    const std::uint64_t tail = _region->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = _region->head.load(std::memory_order_acquire);
    if (tail - head > _mask)
        return false;
    _region->slots[tail & _mask] = {seq, enqueue_ns};
    _region->tail.store(tail + 1, std::memory_order_release);
    return true;
}

bool
LagSidecar::consumeUpTo(std::uint64_t seq, std::uint64_t &enqueue_ns)
{
    const std::uint64_t tail =
        _region->tail.load(std::memory_order_acquire);
    if (tail - _head > _mask + 1)
        return false; // regressed or past a full sidecar: no sample
    while (_head != tail) {
        const LagStamp stamp = _region->slots[_head & _mask];
        if (stamp.seq > seq) {
            // Envelope for a message the consumer has not reached yet:
            // leave it queued.
            break;
        }
        ++_head;
        if (stamp.seq == seq) {
            _region->head.store(_head, std::memory_order_release);
            enqueue_ns = stamp.enqueue_ns;
            return true;
        }
        // stamp.seq < seq: stale envelope (the matching message was
        // consumed without lag accounting, e.g. telemetry was off or a
        // direct tryRecv bypassed the verifier) — discard and continue.
    }
    _region->head.store(_head, std::memory_order_release);
    return false;
}

std::size_t
LagSidecar::pending() const
{
    return static_cast<std::size_t>(
        _region->tail.load(std::memory_order_acquire) -
        _region->head.load(std::memory_order_acquire));
}

} // namespace telemetry
} // namespace hq
