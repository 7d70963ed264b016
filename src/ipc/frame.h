/**
 * @file
 * Wire format v2: batched frames.
 *
 * The v1 wire format is one self-contained 32-byte Message per ring
 * slot, each carrying its own seq and CRC. v2 amortizes that per-record
 * integrity cost across a batch: a frame is one header slot followed by
 * a contiguous run of 24-byte packed records (4 records per 3 slots),
 * all travelling through the existing 32-byte-slot rings:
 *
 *     slot 0   FrameHeader {magic, pid, base_seq, count, flags,
 *                           body_crc, header_crc, reserved}
 *     slot 1.. PackedRecord{op, reserved, arg0, arg1} × count (packed)
 *
 * pid and seq are stated once (records inherit pid and base_seq + i, so
 * the lag sidecar's per-sequence matching keeps working), and two CRCs
 * cover the whole frame: `header_crc` over the first 20 header bytes,
 * `body_crc` over the packed-record bytes. The decoder is fail closed:
 * a header that does not validate — bad magic, bad CRC, nonzero flags
 * or reserved, count of zero, count above kMaxRecords / the verifier
 * poll batch, or a slot footprint that cannot fit the ring — is
 * rejected outright (never clamped), and a frame whose body CRC
 * mismatches is skipped whole (never partially applied).
 *
 * Frames are published atomically (one release-store per frame, see
 * SpscRing::tryPushAll), so a consumer that sees the header slot sees
 * the complete frame. Decoding works in place over a RecvSpan — at most
 * two contiguous slot runs around the ring's wrap point — so the
 * verifier checks records inside the shared mapping and only then
 * advances the consumer cursor (zero-copy drain).
 */

#ifndef HQ_IPC_FRAME_H
#define HQ_IPC_FRAME_H

#include <cstddef>
#include <cstdint>

#include "ipc/message.h"

namespace hq {

/** Negotiable per-channel wire format. */
enum class WireFormat : std::uint8_t {
    V1 = 1, //!< one self-checking 32-byte Message per slot
    V2 = 2, //!< batched frames: header slot + packed records
};

const char *wireFormatName(WireFormat format);

/**
 * A borrowed, in-place view of queued slots: at most two contiguous
 * runs (around a ring's wrap point). Produced by Channel::tryPeekSpan;
 * each slot stays valid until the channel releases it.
 */
struct RecvSpan
{
    struct Segment
    {
        const Message *data = nullptr;
        std::size_t count = 0; //!< slots in this run
    };

    Segment seg[2];

    std::size_t total() const { return seg[0].count + seg[1].count; }

    /** The i-th viewed slot (i < total()). */
    const Message &
    slot(std::size_t i) const
    {
        return i < seg[0].count ? seg[0].data[i]
                                : seg[1].data[i - seg[0].count];
    }

    /** Drop the first n (<= total()) slots from the view. */
    void
    advance(std::size_t n)
    {
        if (n < seg[0].count) {
            seg[0].data += n;
            seg[0].count -= n;
            return;
        }
        n -= seg[0].count;
        seg[0] = {seg[1].data + n, seg[1].count - n};
        seg[1] = {};
    }
};

/**
 * What a receive-side peek found (Channel::tryPeekSpan,
 * SpscRing::peekSpan). Tests true only when slots were lent, so
 * `if (!channel.tryPeekSpan(span))` reads "nothing to check".
 */
struct PeekResult
{
    enum Kind : std::uint8_t {
        Empty,     //!< nothing queued
        Ready,     //!< queued slots are lent in the span
        BadCursor, //!< the producer's cursor is out of range: nothing
                   //!< is lent, now or on any later peek
    };
    Kind kind;

    constexpr PeekResult(Kind k) : kind(k) {} // NOLINT: implicit

    explicit constexpr operator bool() const { return kind == Ready; }
};

namespace frame {

/** First header word; doubles as the v1/v2 discriminator in debugging. */
constexpr std::uint32_t kMagic = 0x32465148u; // "HQF2" little-endian

/** Upper bound on records per frame (fits well under kMaxPollBatch). */
constexpr std::size_t kMaxRecords = 64;

/**
 * v2 frame header; occupies exactly one ring slot. header_crc covers
 * the first 20 bytes (magic..body_crc); flags and reserved must be
 * zero (any other value is rejected).
 */
struct FrameHeader
{
    std::uint32_t magic = 0;
    std::uint32_t pid = 0;
    std::uint32_t base_seq = 0;
    std::uint16_t count = 0;
    std::uint16_t flags = 0; //!< must be zero
    std::uint32_t body_crc = 0;
    std::uint32_t header_crc = 0;
    std::uint64_t reserved = 0; //!< must be zero
};

static_assert(sizeof(FrameHeader) == sizeof(Message),
              "frame header must occupy exactly one ring slot");

/** Bytes of FrameHeader covered by header_crc (magic..body_crc). */
constexpr std::size_t kHeaderCrcBytes = 20;

/** One packed record: op + args; pid/seq live in the frame header. */
struct PackedRecord
{
    std::uint32_t op = 0;
    std::uint32_t reserved = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
};

static_assert(sizeof(PackedRecord) == 24, "packed record is 24 bytes");

/** Slots occupied by count packed records (ceil(count*24/32)). */
constexpr std::size_t
recordSlots(std::size_t count)
{
    return (count * sizeof(PackedRecord) + sizeof(Message) - 1) /
           sizeof(Message);
}

/** Total ring slots occupied by a frame of count records. */
constexpr std::size_t
frameSlots(std::size_t count)
{
    return 1 + recordSlots(count);
}

/** Worst-case slots for a full frame (header + 64 records). */
constexpr std::size_t kMaxFrameSlots = frameSlots(kMaxRecords);

/** Validated header fields, ready for body check / unpack. */
struct FrameView
{
    std::uint32_t pid = 0;
    std::uint32_t base_seq = 0;
    std::uint16_t count = 0;
    std::size_t slots = 0; //!< frameSlots(count)
};

enum class DecodeStatus {
    Ok,        //!< header valid; body present and CRC-clean
    NeedMore,  //!< header valid but the span holds fewer than view.slots
    BadHeader, //!< header rejected — consume 1 slot and resync
    BadBody,   //!< body CRC mismatch — skip the whole frame, fail closed
};

const char *decodeStatusName(DecodeStatus status);

/** Decode-time limits a frame header is validated against. */
struct DecodeLimits
{
    std::size_t ring_capacity;  //!< slots in the transporting ring
    std::size_t max_batch;      //!< verifier poll-batch ceiling (records)
};

/**
 * Encode count messages (count <= kMaxRecords) as one frame into
 * slots_out[frameSlots(count)]. pid and base_seq are stated once in the
 * header; messages[i].op/arg0/arg1 become record i. Tail padding of the
 * last record slot is zeroed so frames are byte-deterministic.
 */
void encode(const Message *messages, std::size_t count, std::uint32_t pid,
            std::uint32_t base_seq, Message *slots_out);

/**
 * Validate the header in span.slot(0) against limits. On success fills
 * view and returns Ok when the full frame is present and its body CRC
 * matches, NeedMore when the span is too short to check the body.
 * Rejection is absolute: out-of-range counts are BadHeader (reject,
 * never clamp), a present-but-corrupt body is BadBody.
 */
DecodeStatus decode(const RecvSpan &span, const DecodeLimits &limits,
                    FrameView &view);

/**
 * Reconstruct record i (i < view.count) of a decoded frame as a full
 * Message: pid from the header, seq = base_seq + i, pad left zero (the
 * frame CRCs already vouched for integrity; per-record CRC is a v1
 * concept). Call only after decode() returned Ok.
 */
void unpackRecord(const RecvSpan &span, const FrameView &view,
                  std::size_t i, Message &out);

/**
 * Unpack all view.count records into out[0..count). Equivalent to
 * calling unpackRecord per index, amortizing the span arithmetic.
 */
void unpackAll(const RecvSpan &span, const FrameView &view, Message *out);

} // namespace frame
} // namespace hq

#endif // HQ_IPC_FRAME_H
