#include "ipc/frame.h"

#include <cstring>

#include "common/crc32.h"

namespace hq {

const char *
wireFormatName(WireFormat format)
{
    switch (format) {
      case WireFormat::V1: return "v1";
      case WireFormat::V2: return "v2";
    }
    return "unknown";
}

namespace frame {

const char *
decodeStatusName(DecodeStatus status)
{
    switch (status) {
      case DecodeStatus::Ok: return "ok";
      case DecodeStatus::NeedMore: return "need-more";
      case DecodeStatus::BadHeader: return "bad-header";
      case DecodeStatus::BadBody: return "bad-body";
    }
    return "unknown";
}

namespace {

/**
 * The longest contiguous byte run starting at byte offset `off` of the
 * span's slot space (segments are slot-aligned, but packed records are
 * not, so a record can straddle the wrap point).
 */
struct ByteRun
{
    const unsigned char *p;
    std::size_t len;
};

inline ByteRun
runAt(const RecvSpan &span, std::size_t off)
{
    const std::size_t seg0_bytes = span.seg[0].count * sizeof(Message);
    if (off < seg0_bytes) {
        return {reinterpret_cast<const unsigned char *>(span.seg[0].data) +
                    off,
                seg0_bytes - off};
    }
    off -= seg0_bytes;
    return {reinterpret_cast<const unsigned char *>(span.seg[1].data) + off,
            span.seg[1].count * sizeof(Message) - off};
}

inline void
copySpanBytes(const RecvSpan &span, std::size_t off, void *dst,
              std::size_t len)
{
    auto *out = static_cast<unsigned char *>(dst);
    while (len != 0) {
        const ByteRun run = runAt(span, off);
        const std::size_t n = len < run.len ? len : run.len;
        std::memcpy(out, run.p, n);
        out += n;
        off += n;
        len -= n;
    }
}

inline std::uint32_t
crcSpanBytes(const RecvSpan &span, std::size_t off, std::size_t len)
{
    // Streaming update (initial crc 0) chains across the wrap point, so
    // the whole body is checksummed without copying it out of the ring.
    std::uint32_t crc = 0;
    while (len != 0) {
        const ByteRun run = runAt(span, off);
        const std::size_t n = len < run.len ? len : run.len;
        crc = crc32::update(crc, run.p, n);
        off += n;
        len -= n;
    }
    return crc;
}

} // namespace

void
encode(const Message *messages, std::size_t count, std::uint32_t pid,
       std::uint32_t base_seq, Message *slots_out)
{
    auto *body = reinterpret_cast<unsigned char *>(slots_out + 1);
    for (std::size_t i = 0; i < count; ++i) {
        PackedRecord record;
        record.op = static_cast<std::uint32_t>(messages[i].op);
        record.reserved = 0;
        record.arg0 = messages[i].arg0;
        record.arg1 = messages[i].arg1;
        std::memcpy(body + i * sizeof(PackedRecord), &record,
                    sizeof(PackedRecord));
    }
    // Zero the final slot's tail padding so identical batches produce
    // identical frame bytes (and the body CRC is deterministic).
    const std::size_t body_bytes = count * sizeof(PackedRecord);
    const std::size_t slot_bytes = recordSlots(count) * sizeof(Message);
    if (slot_bytes > body_bytes)
        std::memset(body + body_bytes, 0, slot_bytes - body_bytes);

    FrameHeader header;
    header.magic = kMagic;
    header.pid = pid;
    header.base_seq = base_seq;
    header.count = static_cast<std::uint16_t>(count);
    header.flags = 0;
    header.body_crc = crc32::compute(body, body_bytes);
    header.reserved = 0;
    header.header_crc = crc32::compute(&header, kHeaderCrcBytes);
    std::memcpy(slots_out, &header, sizeof(header));
}

DecodeStatus
decode(const RecvSpan &span, const DecodeLimits &limits, FrameView &view)
{
    if (span.total() == 0)
        return DecodeStatus::NeedMore;

    FrameHeader header;
    std::memcpy(&header, &span.slot(0), sizeof(header));
    if (header.magic != kMagic || header.flags != 0 || header.reserved != 0)
        return DecodeStatus::BadHeader;
    if (crc32::compute(&header, kHeaderCrcBytes) != header.header_crc)
        return DecodeStatus::BadHeader;
    // Count bounds are rejected outright, never clamped: a header whose
    // footprint cannot fit the transporting ring (or exceeds what the
    // verifier would ever poll) can never correspond to a completable
    // frame, so treating it as "wait for more" would hang the drain.
    const std::size_t count = header.count;
    if (count == 0 || count > kMaxRecords || count > limits.max_batch)
        return DecodeStatus::BadHeader;
    const std::size_t slots = frameSlots(count);
    if (slots > limits.ring_capacity)
        return DecodeStatus::BadHeader;

    view.pid = header.pid;
    view.base_seq = header.base_seq;
    view.count = header.count;
    view.slots = slots;
    if (span.total() < slots)
        return DecodeStatus::NeedMore;

    if (crcSpanBytes(span, sizeof(Message), count * sizeof(PackedRecord)) !=
        header.body_crc) {
        return DecodeStatus::BadBody;
    }
    return DecodeStatus::Ok;
}

void
unpackRecord(const RecvSpan &span, const FrameView &view, std::size_t i,
             Message &out)
{
    PackedRecord record;
    copySpanBytes(span, sizeof(Message) + i * sizeof(PackedRecord), &record,
                  sizeof(record));
    out.op = static_cast<Opcode>(record.op);
    out.arg0 = record.arg0;
    out.arg1 = record.arg1;
    out.pid = view.pid;
    out.seq = view.base_seq + static_cast<std::uint32_t>(i);
    out.pad = 0; // integrity already vouched for by the frame CRCs
}

void
unpackAll(const RecvSpan &span, const FrameView &view, Message *out)
{
    for (std::size_t i = 0; i < view.count; ++i)
        unpackRecord(span, view, i, out[i]);
}

} // namespace frame
} // namespace hq
