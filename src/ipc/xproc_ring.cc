#include "ipc/xproc_ring.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "common/bits.h"
#include "common/log.h"
#include "faultinject/fault.h"
#include "telemetry/telemetry.h"

namespace hq {

namespace {

HQ_TELEMETRY_HANDLE(xprocOccupancyGauge, Gauge, "ipc.xproc_occupancy")
HQ_TELEMETRY_HANDLE(xprocFullWaitsCounter, Counter, "ipc.xproc_full_waits")

} // namespace

XprocChannel::XprocChannel(std::size_t min_capacity)
    : _traits{"Cross-process shared ring", /*appendOnly=*/true,
              /*asyncValidation=*/true, "Mem. Write"}
{
    const std::size_t capacity = roundUpPow2(min_capacity ? min_capacity
                                                          : 1);
    // The lag sidecar shares the mapping: the child process stamps
    // enqueue times into it and the parent's verifier reads them, so it
    // must live behind the same fork-shared pages as the message ring.
    // Its region starts 64-byte aligned after the message slots.
    const std::size_t ring_bytes =
        sizeof(XprocRingRegion) + capacity * sizeof(Message);
    const std::size_t sidecar_offset = (ring_bytes + 63) & ~std::size_t{63};
    _map_bytes =
        sidecar_offset + telemetry::LagSidecar::regionBytes(capacity);
    void *mapping = ::mmap(nullptr, _map_bytes, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mapping == MAP_FAILED) {
        logWarn("xproc mmap failed: ", std::strerror(errno));
        return;
    }
    _region = new (mapping) XprocRingRegion;
    _region->tail.store(0, std::memory_order_relaxed);
    _region->head.store(0, std::memory_order_relaxed);
    _region->capacity = capacity;
    installLagSidecar(std::make_unique<telemetry::LagSidecar>(
        static_cast<unsigned char *>(mapping) + sidecar_offset, capacity,
        /*initialize=*/true));
}

XprocChannel::~XprocChannel()
{
    if (_region)
        ::munmap(_region, _map_bytes);
}

Status
XprocChannel::sendImpl(const Message &message)
{
    namespace fi = faultinject;
    if (!_region)
        return Status::error(StatusCode::Unavailable, "no mapping");

    Message payload = message;
    if (fi::armed()) {
        if (fi::fire(fi::Site::RingDrop))
            return Status::ok(); // "sent", but the slot is never written
        if (fi::fire(fi::Site::RingCorrupt))
            fi::corrupt(payload);
    }

    const std::uint64_t mask = _region->capacity - 1;
    bool counted_full = false;
    bool deadline_set = false;
    std::chrono::steady_clock::time_point deadline;
    for (;;) {
        // An injected stall makes this iteration see a full ring even
        // when there is room, exercising the back-pressure path.
        const bool stalled = fi::fire(fi::Site::RingStall);
        const std::uint64_t tail =
            _region->tail.load(std::memory_order_relaxed);
        if (!stalled) {
            if (tail - _cached_head > mask) {
                // Apparently full: refresh the cached consumer cursor
                // from the shared region (one cross-process load).
                _cached_head =
                    _region->head.load(std::memory_order_acquire);
            }
            if (tail - _cached_head <= mask) {
                _region->slots[tail & mask] = payload;
                std::uint64_t advance = 1;
                if (fi::armed() && tail + 1 - _cached_head <= mask &&
                    fi::fire(fi::Site::RingDup)) {
                    _region->slots[(tail + 1) & mask] = payload;
                    advance = 2;
                }
                _region->tail.store(tail + advance,
                                    std::memory_order_release);
                if (telemetry::enabled())
                    xprocOccupancyGauge().set(tail + advance -
                                              _cached_head);
                return Status::ok();
            }
        }
        // Full: wait for the verifier process to drain. (Count each
        // send that stalled once, not every polling iteration.)
        if (!counted_full && telemetry::enabled()) {
            xprocFullWaitsCounter().inc();
            counted_full = true;
        }
        if (_send_timeout.count() > 0) {
            const auto now = std::chrono::steady_clock::now();
            if (!deadline_set) {
                deadline = now + _send_timeout;
                deadline_set = true;
            } else if (now >= deadline) {
                return Status::error(
                    StatusCode::Unavailable,
                    "shared ring full: send timed out (fail closed)");
            }
        }
        std::this_thread::yield();
    }
}

Status
XprocChannel::sendSlotsImpl(const Message *slots, std::size_t count)
{
    namespace fi = faultinject;
    if (!_region)
        return Status::error(StatusCode::Unavailable, "no mapping");
    if (count == 0)
        return Status::ok();
    if (count > _region->capacity)
        return Status::error(StatusCode::InvalidArgument,
                             "frame larger than the shared ring");

    const std::uint64_t capacity = _region->capacity;
    const std::uint64_t mask = capacity - 1;
    bool counted_full = false;
    bool deadline_set = false;
    std::chrono::steady_clock::time_point deadline;
    for (;;) {
        // All-or-nothing: the frame is copied in full, then published
        // with one release-store of the producer cursor, so the
        // verifier process never observes a torn frame. An injected
        // stall turns into back-pressure, exactly as on the v1 path.
        const bool stalled = fi::fire(fi::Site::RingStall);
        const std::uint64_t tail =
            _region->tail.load(std::memory_order_relaxed);
        if (!stalled) {
            if (tail + count - _cached_head > capacity) {
                _cached_head =
                    _region->head.load(std::memory_order_acquire);
            }
            if (tail + count - _cached_head <= capacity) {
                const std::size_t start =
                    static_cast<std::size_t>(tail & mask);
                const std::size_t first = std::min(
                    count, static_cast<std::size_t>(capacity) - start);
                std::memcpy(_region->slots + start, slots,
                            first * sizeof(Message));
                if (count > first)
                    std::memcpy(_region->slots, slots + first,
                                (count - first) * sizeof(Message));
                _region->tail.store(tail + count,
                                    std::memory_order_release);
                if (telemetry::enabled())
                    xprocOccupancyGauge().set(tail + count - _cached_head);
                return Status::ok();
            }
        }
        if (!counted_full && telemetry::enabled()) {
            xprocFullWaitsCounter().inc();
            counted_full = true;
        }
        if (_send_timeout.count() > 0) {
            const auto now = std::chrono::steady_clock::now();
            if (!deadline_set) {
                deadline = now + _send_timeout;
                deadline_set = true;
            } else if (now >= deadline) {
                return Status::error(
                    StatusCode::Unavailable,
                    "shared ring full: send timed out (fail closed)");
            }
        }
        std::this_thread::yield();
    }
}

bool
XprocChannel::tryPeekSpan(RecvSpan &out)
{
    out.seg[0] = {};
    out.seg[1] = {};
    if (!_region)
        return false;
    const std::uint64_t capacity = _region->capacity;
    const std::uint64_t mask = capacity - 1;
    const std::uint64_t head =
        _region->head.load(std::memory_order_relaxed);
    const std::uint64_t available =
        _region->tail.load(std::memory_order_acquire) - head;
    if (available == 0)
        return false;

    const std::size_t n = static_cast<std::size_t>(available);
    const std::size_t start = static_cast<std::size_t>(head & mask);
    const std::size_t first =
        std::min(n, static_cast<std::size_t>(capacity) - start);
    out.seg[0] = {_region->slots + start, first};
    if (n > first)
        out.seg[1] = {_region->slots, n - first};
    return true;
}

void
XprocChannel::consumeSlots(std::size_t count)
{
    if (!_region)
        return;
    const std::uint64_t head =
        _region->head.load(std::memory_order_relaxed);
    _region->head.store(head + count, std::memory_order_release);
}

std::size_t
XprocChannel::pending() const
{
    if (!_region)
        return 0;
    return static_cast<std::size_t>(
        _region->tail.load(std::memory_order_acquire) -
        _region->head.load(std::memory_order_acquire));
}

} // namespace hq
