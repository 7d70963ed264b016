#include "ipc/spsc_ring.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "common/bits.h"
#include "faultinject/fault.h"
#include "telemetry/telemetry.h"

namespace hq {

namespace {

static_assert(std::is_trivially_copyable_v<Message>,
              "frame publication memcpys Message runs");
static_assert(sizeof(SpscRing::SharedCursors) % alignof(Message) == 0,
              "slots follow the shared cursors");

HQ_TELEMETRY_HANDLE(occupancyGauge, Gauge, "ipc.ring_occupancy")
HQ_TELEMETRY_HANDLE(pushFailCounter, Counter, "ipc.ring_push_fail")

std::size_t
slotCount(std::size_t min_capacity)
{
    return roundUpPow2(min_capacity ? min_capacity : 1);
}

/** The first cache line boundary at or after p. */
void *
lineAligned(unsigned char *p)
{
    return reinterpret_cast<void *>(
        (reinterpret_cast<std::uintptr_t>(p) + 63) & ~std::uintptr_t{63});
}

SpscRing::SharedCursors *
placeCursors(void *region)
{
    auto *shared = new (region) SpscRing::SharedCursors;
    shared->tail.store(0, std::memory_order_relaxed);
    shared->head.store(0, std::memory_order_relaxed);
    return shared;
}

} // namespace

std::size_t
SpscRing::regionBytes(std::size_t capacity)
{
    return sizeof(SharedCursors) + slotCount(capacity) * sizeof(Message);
}

// A plain zeroed allocation with 63 spare bytes, aligned by hand: with
// over-aligned operator new, peak RSS grew as rings were built and freed.
SpscRing::SpscRing(std::size_t min_capacity)
    : _owned(new unsigned char[regionBytes(min_capacity) + 63]()),
      _shared(placeCursors(lineAligned(_owned.get()))),
      _slots(reinterpret_cast<Message *>(_shared + 1)),
      _mask(slotCount(min_capacity) - 1)
{
}

SpscRing::SpscRing(void *region, std::size_t min_capacity)
    : _shared(placeCursors(region)),
      _slots(reinterpret_cast<Message *>(_shared + 1)),
      _mask(slotCount(min_capacity) - 1)
{
}

bool
SpscRing::tryPush(const Message &message)
{
    if (faultinject::armed())
        return pushWithFaults(message);
    return pushSlot(message);
}

bool
SpscRing::pushSlot(const Message &message)
{
    const std::uint64_t tail = _tail;
    if (tail - _cached_head > _mask) {
        // Apparently full: refresh the cached consumer cursor. This is
        // the only cross-core load on the push path, and it happens at
        // most once per drain instead of once per message.
        _cached_head = _shared->head.load(std::memory_order_acquire);
        if (tail - _cached_head > _mask) {
            if (telemetry::enabled())
                pushFailCounter().inc();
            return false; // genuinely full
        }
    }
    _slots[tail & _mask] = message;
    _tail = tail + 1;
    _shared->tail.store(tail + 1, std::memory_order_release);
    if (telemetry::enabled())
        occupancyGauge().set(tail + 1 - _cached_head);
    return true;
}

bool
SpscRing::pushWithFaults(const Message &message)
{
    namespace fi = faultinject;
    if (fi::fire(fi::Site::RingStall)) {
        // Ring pretends to be full: the producer sees back-pressure and
        // must retry or surface the failure (never silent loss).
        if (telemetry::enabled())
            pushFailCounter().inc();
        return false;
    }
    if (fi::fire(fi::Site::RingDrop))
        return true; // "accepted", but the slot is never written
    Message payload = message;
    if (fi::fire(fi::Site::RingCorrupt))
        fi::corrupt(payload);
    const bool duplicate = fi::fire(fi::Site::RingDup);
    if (!pushSlot(payload))
        return false;
    if (duplicate)
        pushSlot(payload); // best effort: dup is lost if the ring fills
    return true;
}

bool
SpscRing::tryPushAll(const Message *slots, std::size_t count)
{
    if (count == 0)
        return true;
    if (count > capacity())
        return false;
    // An injected stall makes this attempt see a full ring: the
    // producer experiences back-pressure (and retries), never a torn
    // frame — per-slot fault degradation would violate the
    // all-or-nothing contract.
    if (faultinject::armed() &&
        faultinject::fire(faultinject::Site::RingStall)) {
        if (telemetry::enabled())
            pushFailCounter().inc();
        return false;
    }
    const std::uint64_t tail = _tail;
    if (capacity() - (tail - _cached_head) < count) {
        _cached_head = _shared->head.load(std::memory_order_acquire);
        if (capacity() - (tail - _cached_head) < count) {
            if (telemetry::enabled())
                pushFailCounter().inc();
            return false;
        }
    }

    const std::size_t start = static_cast<std::size_t>(tail & _mask);
    const std::size_t first = std::min(count, capacity() - start);
    std::memcpy(_slots + start, slots, first * sizeof(Message));
    if (count > first)
        std::memcpy(_slots, slots + first, (count - first) * sizeof(Message));

    _tail = tail + count;
    _shared->tail.store(tail + count, std::memory_order_release);
    if (telemetry::enabled())
        occupancyGauge().set(tail + count - _cached_head);
    return true;
}

PeekResult
SpscRing::peekSpan(RecvSpan &out)
{
    out = RecvSpan{};
    if (_bad_cursor)
        return PeekResult::BadCursor;
    const std::uint64_t head = _head.load(std::memory_order_relaxed);
    // The producer cursor is the one word this side reads from the
    // other, and a producer holding the mapping can write anything
    // there: read it once and fail closed, never clamp, when it moved
    // backwards or claims more than a full ring. (Since head <=
    // _cached_tail, passing the first test keeps tail - head exact.)
    const std::uint64_t tail =
        _shared->tail.load(std::memory_order_acquire);
    if (tail < _cached_tail || tail - head > capacity()) {
        _bad_cursor = true;
        return PeekResult::BadCursor;
    }
    _cached_tail = tail;
    if (tail == head)
        return PeekResult::Empty;

    const std::size_t n = static_cast<std::size_t>(tail - head);
    const std::size_t start = static_cast<std::size_t>(head & _mask);
    const std::size_t first = std::min(n, capacity() - start);
    out.seg[0] = {_slots + start, first};
    if (n > first)
        out.seg[1] = {_slots, n - first};
    return PeekResult::Ready;
}

void
SpscRing::consume(std::size_t count)
{
    const std::uint64_t head =
        _head.load(std::memory_order_relaxed) + count;
    _head.store(head, std::memory_order_relaxed);
    _shared->head.store(head, std::memory_order_release);
}

bool
SpscRing::overwritePending(std::size_t index, const Message &forged)
{
    const std::uint64_t head = _head.load(std::memory_order_acquire);
    if (head + index >= _tail)
        return false;
    _slots[(head + index) & _mask] = forged;
    return true;
}

std::size_t
SpscRing::size() const
{
    // Head first: it never passes the tail read after it.
    const std::uint64_t head = _head.load(std::memory_order_acquire);
    const std::uint64_t tail =
        _shared->tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        tail - head, capacity()));
}

} // namespace hq
