/**
 * @file
 * Per-channel enqueue-timestamp sidecar for verification-lag tracing.
 *
 * HerQules' central performance claim is *bounded asynchronous
 * validation* (§2.2, §3.3): a message may be checked long after the
 * program emits it, with only syscalls bounding the drift. The sidecar
 * measures that drift per message without touching the fixed 32-byte
 * wire `Message` format (§3.1): a parallel SPSC ring of
 * (sequence, enqueue-timestamp) envelopes, written by the producer on
 * send and drained by the verifier as it checks each message.
 *
 * Matching is by per-channel sequence number, not blind alignment, so
 * the sidecar degrades safely instead of lying: if telemetry was off
 * for some sends, or a producer bypassed the stamping wrapper, the
 * consumer discards envelopes whose sequence has already passed and
 * simply reports no lag sample for unmatched messages. A full sidecar
 * drops the newest stamp (the sending channel counts it in
 * `ipc.lag_stamp_dropped`) — lag tracing is a window, never a
 * source of back-pressure.
 *
 * The slot storage can live in caller-provided memory so the
 * cross-process channel can place it in its shared mapping; timestamps
 * therefore use the process-independent monotonic clock
 * (telemetry::monotonicRawNs), not the per-process telemetry epoch.
 */

#ifndef HQ_TELEMETRY_LAG_H
#define HQ_TELEMETRY_LAG_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace hq {
namespace telemetry {

/** One stamped envelope: channel-local send index + enqueue time. */
struct LagStamp
{
    std::uint64_t seq = 0;
    std::uint64_t enqueue_ns = 0;
};

/** Fixed-layout sidecar header + slots (shared-memory friendly POD). */
struct LagSidecarRegion
{
    alignas(64) std::atomic<std::uint64_t> tail;    //!< producer cursor
    alignas(64) std::atomic<std::uint64_t> head;    //!< consumer cursor
    LagStamp slots[]; // NOLINT: flexible array, sized at creation
};

/**
 * SPSC ring of LagStamp envelopes over owned or caller-provided
 * storage. One producer (the channel's sender) and one consumer (the
 * verifier), mirroring the discipline of the message ring it shadows.
 */
class LagSidecar
{
  public:
    /** Bytes needed for a region with `capacity` slots (pow2-rounded). */
    static std::size_t regionBytes(std::size_t capacity);

    /** Owned private-memory sidecar (thread-to-thread channels). */
    explicit LagSidecar(std::size_t capacity);

    /**
     * Wrap caller-provided storage of regionBytes(capacity) bytes
     * (e.g. inside a shared mapping). @param initialize write the
     * header; pass false to attach to an already-initialized region
     * (the consumer cursor starts where the region's head is then).
     */
    LagSidecar(void *region, std::size_t capacity, bool initialize);

    LagSidecar(const LagSidecar &) = delete;
    LagSidecar &operator=(const LagSidecar &) = delete;

    /**
     * Producer: record that message `seq` was enqueued at `enqueue_ns`.
     * @return false when the sidecar was full and the stamp was dropped.
     */
    bool stamp(std::uint64_t seq, std::uint64_t enqueue_ns);

    /**
     * Consumer: drain envelopes up to and including message index
     * `seq`, discarding stale ones (stamped sends the consumer already
     * passed — see file comment). The consumer cursor is private and
     * the producer's tail is trusted only within one full sidecar of
     * it, so the walk covers at most capacity() envelopes; a tail out
     * of that range (a producer holding the mapping can write any)
     * yields no sample. Lag is telemetry, not a verdict.
     * @return true and set enqueue_ns when an envelope for exactly
     *         `seq` was found.
     */
    bool consumeUpTo(std::uint64_t seq, std::uint64_t &enqueue_ns);

    /** Envelopes stamped but not yet consumed. */
    std::size_t pending() const;

    std::size_t capacity() const { return _mask + 1; }

  private:
    std::unique_ptr<unsigned char[]> _owned; //!< empty when wrapping
    LagSidecarRegion *_region = nullptr;
    std::uint64_t _mask = 0;
    std::uint64_t _head = 0; //!< consumer cursor: published, not read back
};

} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_LAG_H
