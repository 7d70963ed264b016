/**
 * @file
 * Wire format v2: CRC kernel parity, frame codec round-trip and
 * fail-closed properties, atomic frame publication, zero-copy drain,
 * and the end-to-end verifier path — v1-vs-v2 behavioral parity plus
 * chaos assertions that corrupt frames are never silently accepted.
 *
 * The CRC parity suite is the contract that lets the dispatcher pick
 * any backend: scalar is the oracle, and slice8/pclmul must agree with
 * it bit-for-bit on random, adversarial, unaligned, and chunk-split
 * inputs before they are allowed near the wire.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "faultinject/fault.h"
#include "ipc/frame.h"
#include "ipc/message.h"
#include "ipc/shm_channel.h"
#include "ipc/spsc_ring.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

namespace fi = faultinject;

constexpr Pid kPid = 42;

// --------------------------------------------------------------------
// CRC32 kernel: known answers and implementation parity.
// --------------------------------------------------------------------

TEST(FrameCrc, KnownAnswerVectors)
{
    // The standard CRC-32 check value ("123456789" -> 0xCBF43926) pins
    // the polynomial, reflection, and inversion conventions; zlib's
    // crc32() produces exactly these.
    EXPECT_EQ(crc32::scalar(0, "123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32::scalar(0, "", 0), 0u);
    EXPECT_EQ(crc32::scalar(0, "a", 1), 0xE8B7BE43u);
    const unsigned char ff[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    EXPECT_EQ(crc32::scalar(0, ff, 4), 0xFFFFFFFFu);
}

/** Buffers that historically break CRC implementations. */
std::vector<std::vector<unsigned char>>
adversarialBuffers()
{
    std::vector<std::vector<unsigned char>> buffers;
    buffers.push_back({});                                  // empty
    buffers.emplace_back(1, 0x00);                          // single zero
    buffers.emplace_back(7, 0xFF);                          // < one word
    buffers.emplace_back(8, 0xAA);                          // exactly 8
    buffers.emplace_back(63, 0x55);                         // pclmul-1
    buffers.emplace_back(64, 0x00);                         // pclmul min
    buffers.emplace_back(65, 0xFF);                         // pclmul+1
    buffers.emplace_back(127, 0x01);
    buffers.emplace_back(128, 0x80);
    buffers.emplace_back(4096, 0x00);                       // all zeros
    buffers.emplace_back(4096, 0xFF);                       // all ones
    std::vector<unsigned char> ramp(1021);                  // prime len
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<unsigned char>(i);
    buffers.push_back(std::move(ramp));
    return buffers;
}

void
checkParity(crc32::Fn candidate, const char *name)
{
    for (const auto &buffer : adversarialBuffers()) {
        EXPECT_EQ(candidate(0, buffer.data(), buffer.size()),
                  crc32::scalar(0, buffer.data(), buffer.size()))
            << name << " len=" << buffer.size();
    }

    std::mt19937_64 rng(0xC0FFEE);
    std::vector<unsigned char> buffer(2048);
    for (auto &byte : buffer)
        byte = static_cast<unsigned char>(rng());
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t off = rng() % 32;        // misalign the start
        const std::size_t len = rng() % (buffer.size() - off);
        const std::uint32_t init =
            static_cast<std::uint32_t>(rng());     // streaming resume
        EXPECT_EQ(candidate(init, buffer.data() + off, len),
                  crc32::scalar(init, buffer.data() + off, len))
            << name << " off=" << off << " len=" << len;
    }

    // Chunked streaming must equal one-shot for arbitrary splits.
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t len = 1 + rng() % 1024;
        const std::size_t cut = rng() % (len + 1);
        const std::uint32_t whole = candidate(0, buffer.data(), len);
        std::uint32_t chained = candidate(0, buffer.data(), cut);
        chained = candidate(chained, buffer.data() + cut, len - cut);
        EXPECT_EQ(chained, whole) << name << " cut=" << cut;
    }
}

TEST(FrameCrc, Slice8MatchesScalarOracle)
{
    checkParity(crc32::slice8, "slice8");
}

TEST(FrameCrc, PclmulMatchesScalarOracle)
{
#if defined(__x86_64__) || defined(__i386__)
    if (!crc32::pclmulAvailable())
        GTEST_SKIP() << "CPU lacks PCLMULQDQ";
    checkParity(crc32::pclmul, "pclmul");
#else
    GTEST_SKIP() << "non-x86 build has no pclmul path";
#endif
}

TEST(FrameCrc, ForceScalarEnvPinsDispatch)
{
    ASSERT_EQ(setenv("HQ_FORCE_SCALAR_CRC", "1", 1), 0);
    crc32::redetect();
    EXPECT_STREQ(crc32::implName(), "scalar");
    EXPECT_EQ(crc32::compute("123456789", 9), 0xCBF43926u);

    ASSERT_EQ(unsetenv("HQ_FORCE_SCALAR_CRC"), 0);
    crc32::redetect();
    // Whatever got picked must still compute the same function.
    EXPECT_EQ(crc32::compute("123456789", 9), 0xCBF43926u);
}

TEST(FrameCrc, MessageCrcUnchangedByDispatch)
{
    // messageCrc feeds the golden fixtures and the AFU model; it must
    // stay bit-identical to the reference scalar CRC over the first 28
    // message bytes no matter which backend the dispatcher picked.
    Message message(Opcode::PointerCheck, 0xDEADBEEF, 0x1234);
    message.pid = 7;
    message.seq = 99;
    EXPECT_EQ(messageCrc(message),
              crc32::scalar(0, &message,
                            sizeof(Message) - sizeof(std::uint32_t)));
}

// --------------------------------------------------------------------
// Frame codec: round-trip properties (including the ring wrap point).
// --------------------------------------------------------------------

std::vector<Message>
makeMessages(std::size_t count, std::uint64_t salt = 0)
{
    std::mt19937_64 rng(0xF00D + salt);
    std::vector<Message> messages(count);
    for (std::size_t i = 0; i < count; ++i) {
        messages[i].op = static_cast<Opcode>(
            static_cast<std::uint32_t>(rng() % 8));
        messages[i].pid = kPid;
        messages[i].arg0 = rng();
        messages[i].arg1 = rng();
    }
    return messages;
}

/** Span over one contiguous slot run. */
RecvSpan
spanOf(const Message *slots, std::size_t count)
{
    RecvSpan span;
    span.seg[0] = {slots, count};
    return span;
}

/** Span split into two runs after `first` slots (simulated wrap). */
RecvSpan
splitSpan(const Message *slots, std::size_t count, std::size_t first)
{
    RecvSpan span;
    span.seg[0] = {slots, first};
    span.seg[1] = {slots + first, count - first};
    return span;
}

constexpr frame::DecodeLimits kWideLimits{1024, 256};

TEST(FrameCodec, RoundTripEveryCount)
{
    for (std::size_t count = 1; count <= frame::kMaxRecords; ++count) {
        const std::vector<Message> messages = makeMessages(count, count);
        Message slots[frame::kMaxFrameSlots];
        frame::encode(messages.data(), count, kPid, /*base_seq=*/1000,
                      slots);

        frame::FrameView view;
        const RecvSpan span = spanOf(slots, frame::frameSlots(count));
        ASSERT_EQ(frame::decode(span, kWideLimits, view),
                  frame::DecodeStatus::Ok)
            << "count=" << count;
        EXPECT_EQ(view.pid, static_cast<std::uint32_t>(kPid));
        EXPECT_EQ(view.base_seq, 1000u);
        EXPECT_EQ(view.count, count);
        EXPECT_EQ(view.slots, frame::frameSlots(count));

        Message out[frame::kMaxRecords];
        frame::unpackAll(span, view, out);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(out[i].op, messages[i].op);
            EXPECT_EQ(out[i].pid, messages[i].pid);
            EXPECT_EQ(out[i].arg0, messages[i].arg0);
            EXPECT_EQ(out[i].arg1, messages[i].arg1);
            EXPECT_EQ(out[i].seq, 1000u + i);
            EXPECT_EQ(out[i].pad, 0u);
        }
    }
}

TEST(FrameCodec, RoundTripAcrossEveryWrapSplit)
{
    // Records straddle slot boundaries (24B records in 32B slots), so
    // every possible wrap position must decode identically.
    for (std::size_t count : {std::size_t{1}, std::size_t{3},
                              std::size_t{17}, frame::kMaxRecords}) {
        const std::vector<Message> messages = makeMessages(count);
        const std::size_t slot_count = frame::frameSlots(count);
        Message slots[frame::kMaxFrameSlots];
        frame::encode(messages.data(), count, kPid, 0, slots);
        for (std::size_t split = 1; split < slot_count; ++split) {
            const RecvSpan span = splitSpan(slots, slot_count, split);
            frame::FrameView view;
            ASSERT_EQ(frame::decode(span, kWideLimits, view),
                      frame::DecodeStatus::Ok)
                << "count=" << count << " split=" << split;
            Message out[frame::kMaxRecords];
            frame::unpackAll(span, view, out);
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(out[i].arg0, messages[i].arg0);
                EXPECT_EQ(out[i].arg1, messages[i].arg1);
            }
        }
    }
}

TEST(FrameCodec, TruncatedFrameIsNeedMoreNeverPartial)
{
    constexpr std::size_t kCount = 8;
    const std::vector<Message> messages = makeMessages(kCount);
    Message slots[frame::kMaxFrameSlots];
    frame::encode(messages.data(), kCount, kPid, 0, slots);
    const std::size_t slot_count = frame::frameSlots(kCount);
    for (std::size_t present = 1; present < slot_count; ++present) {
        frame::FrameView view;
        EXPECT_EQ(frame::decode(spanOf(slots, present), kWideLimits,
                                view),
                  frame::DecodeStatus::NeedMore)
            << "present=" << present;
    }
    RecvSpan empty;
    frame::FrameView view;
    EXPECT_EQ(frame::decode(empty, kWideLimits, view),
              frame::DecodeStatus::NeedMore);
}

TEST(FrameCodec, GoldenFixtureBytesAreStable)
{
    // The fixture was produced by an independent encoder (Python +
    // zlib); byte-identical output here means the wire format is pinned:
    // any layout, endianness, padding, or CRC-convention change breaks
    // this test rather than silently breaking old peers.
    const Message messages[3] = {
        Message(Opcode::PointerDefine, 0x1000, 0xAAAA),
        Message(Opcode::PointerCheck, 0x1000, 0xAAAA),
        Message(Opcode::Syscall, 59),
    };
    Message slots[frame::kMaxFrameSlots];
    frame::encode(messages, 3, /*pid=*/77, /*base_seq=*/256, slots);
    const std::size_t byte_count = frame::frameSlots(3) * sizeof(Message);

    std::string expected_hex;
    std::ifstream fixture(std::string(HQ_TEST_DATA_DIR) +
                          "/frame_v2_golden.hex");
    ASSERT_TRUE(fixture.is_open()) << "missing frame_v2_golden.hex";
    std::string line;
    while (std::getline(fixture, line)) {
        if (!line.empty() && line[0] != '#')
            expected_hex += line;
    }

    std::string actual_hex;
    const auto *bytes = reinterpret_cast<const unsigned char *>(slots);
    for (std::size_t i = 0; i < byte_count; ++i) {
        char buf[3];
        std::snprintf(buf, sizeof(buf), "%02x", bytes[i]);
        actual_hex += buf;
    }
    EXPECT_EQ(actual_hex, expected_hex);

    // And the golden bytes decode back to the original records.
    frame::FrameView view;
    ASSERT_EQ(frame::decode(spanOf(slots, frame::frameSlots(3)),
                            kWideLimits, view),
              frame::DecodeStatus::Ok);
    EXPECT_EQ(view.pid, 77u);
    EXPECT_EQ(view.base_seq, 256u);
    EXPECT_EQ(view.count, 3u);
}

// --------------------------------------------------------------------
// Fail closed: every invalid header or body is rejected, never clamped,
// never silently accepted.
// --------------------------------------------------------------------

/** A header with a *valid* CRC but attacker-chosen fields. */
Message
forgeHeaderSlot(std::uint16_t count, std::uint16_t flags = 0,
                std::uint64_t reserved = 0)
{
    frame::FrameHeader header;
    header.magic = frame::kMagic;
    header.pid = kPid;
    header.base_seq = 0;
    header.count = count;
    header.flags = flags;
    header.body_crc = 0;
    header.header_crc = crc32::compute(&header, frame::kHeaderCrcBytes);
    header.reserved = reserved;
    Message slot;
    std::memcpy(static_cast<void *>(&slot), &header, sizeof(header));
    return slot;
}

TEST(FrameCodec, OutOfRangeCountsRejectedNotClamped)
{
    Message slots[frame::kMaxFrameSlots] = {};
    frame::FrameView view;

    // count == 0: a frame with no records can never complete.
    slots[0] = forgeHeaderSlot(0);
    EXPECT_EQ(frame::decode(spanOf(slots, 4), kWideLimits, view),
              frame::DecodeStatus::BadHeader);

    // count above the format maximum.
    slots[0] = forgeHeaderSlot(frame::kMaxRecords + 1);
    EXPECT_EQ(frame::decode(spanOf(slots, 4), kWideLimits, view),
              frame::DecodeStatus::BadHeader);

    // count above the verifier's poll-batch ceiling.
    slots[0] = forgeHeaderSlot(32);
    const frame::DecodeLimits tight_batch{1024, 16};
    EXPECT_EQ(frame::decode(spanOf(slots, 4), tight_batch, view),
              frame::DecodeStatus::BadHeader);

    // Footprint that cannot fit the transporting ring: waiting for the
    // remaining slots would hang the drain forever, so reject.
    slots[0] = forgeHeaderSlot(frame::kMaxRecords);
    const frame::DecodeLimits tiny_ring{8, 256};
    EXPECT_EQ(frame::decode(spanOf(slots, 4), tiny_ring, view),
              frame::DecodeStatus::BadHeader);

    // The same header decodes fine when the limits allow it — the
    // rejections above were the limits, not the header.
    slots[0] = forgeHeaderSlot(frame::kMaxRecords);
    EXPECT_EQ(frame::decode(spanOf(slots, 1), kWideLimits, view),
              frame::DecodeStatus::NeedMore);
}

TEST(FrameCodec, NonzeroFlagsOrReservedRejected)
{
    Message slots[4] = {};
    frame::FrameView view;
    slots[0] = forgeHeaderSlot(2, /*flags=*/1);
    EXPECT_EQ(frame::decode(spanOf(slots, 4), kWideLimits, view),
              frame::DecodeStatus::BadHeader);
    slots[0] = forgeHeaderSlot(2, 0, /*reserved=*/1);
    EXPECT_EQ(frame::decode(spanOf(slots, 4), kWideLimits, view),
              frame::DecodeStatus::BadHeader);
}

TEST(FrameCodec, WrongMagicUnderAValidCrcRejected)
{
    // Only the magic check can catch this header: its CRC is
    // recomputed over the changed magic, and the body is untouched.
    const std::vector<Message> messages = makeMessages(3);
    Message slots[frame::kMaxFrameSlots];
    frame::encode(messages.data(), 3, kPid, 0, slots);
    frame::FrameView view;
    ASSERT_EQ(frame::decode(spanOf(slots, frame::frameSlots(3)),
                            kWideLimits, view),
              frame::DecodeStatus::Ok);

    frame::FrameHeader header;
    std::memcpy(static_cast<void *>(&header), &slots[0], sizeof(header));
    header.magic ^= 1;
    header.header_crc = crc32::compute(&header, frame::kHeaderCrcBytes);
    std::memcpy(static_cast<void *>(&slots[0]), &header, sizeof(header));
    EXPECT_EQ(frame::decode(spanOf(slots, frame::frameSlots(3)),
                            kWideLimits, view),
              frame::DecodeStatus::BadHeader);
}

TEST(FrameCodec, EveryBitFlipIsDetected)
{
    // The zero-silent-accept property at codec granularity: flip every
    // single bit of an encoded frame and the decoder must come back
    // with BadHeader or BadBody — never Ok.
    constexpr std::size_t kCount = 4;
    const std::vector<Message> messages = makeMessages(kCount);
    Message pristine[frame::kMaxFrameSlots];
    frame::encode(messages.data(), kCount, kPid, 7, pristine);
    const std::size_t slot_count = frame::frameSlots(kCount);
    const std::size_t byte_count = slot_count * sizeof(Message);

    Message mutated[frame::kMaxFrameSlots];
    for (std::size_t bit = 0; bit < byte_count * 8; ++bit) {
        std::memcpy(mutated, pristine, sizeof(pristine));
        reinterpret_cast<unsigned char *>(mutated)[bit / 8] ^=
            static_cast<unsigned char>(1u << (bit % 8));
        frame::FrameView view;
        const frame::DecodeStatus status =
            frame::decode(spanOf(mutated, slot_count), kWideLimits, view);
        EXPECT_NE(status, frame::DecodeStatus::Ok) << "bit=" << bit;
        // A header flip may legitimately turn `count` into a larger
        // value whose frame looks incomplete (NeedMore) — that still
        // fails closed (the drain would wait, then the forged length
        // fails the ring/batch bound or the body CRC). What can never
        // happen is acceptance.
    }
}

// --------------------------------------------------------------------
// Atomic publication + zero-copy drain at the ring level.
// --------------------------------------------------------------------

TEST(FrameRing, TryPushAllIsAllOrNothing)
{
    SpscRing ring(8);
    Message filler[8] = {};
    ASSERT_TRUE(ring.tryPushAll(filler, 6));

    Message slots[4] = {};
    EXPECT_FALSE(ring.tryPushAll(slots, 4)); // only 2 slots free
    EXPECT_EQ(ring.size(), 6u);              // nothing partially written

    RecvSpan span;
    ASSERT_TRUE(ring.peekSpan(span));
    ring.consume(2);
    EXPECT_TRUE(ring.tryPushAll(slots, 4)); // now exactly fits
    EXPECT_EQ(ring.size(), 8u);
}

TEST(FrameRing, PeekSpanSeesWrapAndConsumeAdvances)
{
    SpscRing ring(8);
    Message message;
    // Offset the cursors so the next push run wraps.
    RecvSpan span;
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(ring.tryPush(message));
    ASSERT_TRUE(ring.peekSpan(span));
    ring.consume(6);

    Message slots[5];
    for (int i = 0; i < 5; ++i)
        slots[i].arg0 = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(ring.tryPushAll(slots, 5));

    ASSERT_TRUE(ring.peekSpan(span));
    ASSERT_EQ(span.total(), 5u);
    EXPECT_EQ(span.seg[0].count, 2u); // slots 6,7 then wrap
    EXPECT_EQ(span.seg[1].count, 3u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(span.slot(i).arg0, i);

    ring.consume(2);
    ASSERT_TRUE(ring.peekSpan(span));
    ASSERT_EQ(span.total(), 3u);
    EXPECT_EQ(span.slot(0).arg0, 2u);
    ring.consume(3);
    EXPECT_TRUE(ring.empty());
}

TEST(FrameRing, EncodedFrameSurvivesWrapThroughDecode)
{
    SpscRing ring(16);
    Message message;
    RecvSpan span;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(ring.tryPush(message));
        ASSERT_TRUE(ring.peekSpan(span));
        ring.consume(1);
    }
    const std::vector<Message> messages = makeMessages(12);
    Message slots[frame::kMaxFrameSlots];
    frame::encode(messages.data(), 12, kPid, 5, slots);
    ASSERT_TRUE(ring.tryPushAll(slots, frame::frameSlots(12)));

    ASSERT_TRUE(ring.peekSpan(span));
    ASSERT_EQ(span.total(), frame::frameSlots(12));
    ASSERT_NE(span.seg[1].count, 0u) << "expected a wrapped span";
    frame::FrameView view;
    const frame::DecodeLimits limits{ring.capacity(), 256};
    ASSERT_EQ(frame::decode(span, limits, view),
              frame::DecodeStatus::Ok);
    Message out[frame::kMaxRecords];
    frame::unpackAll(span, view, out);
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(out[i].arg0, messages[i].arg0);
}

// --------------------------------------------------------------------
// Channel negotiation and the end-to-end verifier drain.
// --------------------------------------------------------------------

/** kernel + verifier + shm channel wired for one monitored pid. */
struct Harness
{
    KernelModule kernel;
    std::shared_ptr<PointerIntegrityPolicy> policy;
    std::unique_ptr<Verifier> verifier;
    ShmChannel channel{1 << 10};

    explicit Harness(WireFormat format)
        : policy(std::make_shared<PointerIntegrityPolicy>())
    {
        Verifier::Config config;
        config.kill_on_violation = false;
        verifier = std::make_unique<Verifier>(kernel, policy, config);
        if (format != WireFormat::V1) {
            EXPECT_TRUE(channel.negotiateFormat(format));
        }
        kernel.enableProcess(kPid);
        verifier->attachChannel(&channel, kPid);
    }
};

class FrameE2eTest : public ::testing::Test
{
  protected:
    void SetUp() override { fi::disarmAll(); }
    void TearDown() override { fi::disarmAll(); }
};

TEST_F(FrameE2eTest, NegotiationRefusedByV1OnlyTransports)
{
    /** Minimal transport with no framed path. */
    struct V1OnlyChannel : Channel
    {
        Status sendImpl(const Message &) override { return Status::ok(); }
        std::size_t pending() const override { return 0; }
        const ChannelTraits &traits() const override { return _traits; }
        ChannelTraits _traits{"test", false, false, "none"};
    } v1only;

    EXPECT_FALSE(v1only.negotiateFormat(WireFormat::V2));
    EXPECT_EQ(v1only.format(), WireFormat::V1);

    ShmChannel shm(64);
    EXPECT_TRUE(shm.negotiateFormat(WireFormat::V2));
    EXPECT_EQ(shm.format(), WireFormat::V2);
}

/** Drive `total` checks (plus define + syscall) and return stats. */
VerifierProcessStats
pumpTraffic(Harness &harness, std::size_t total)
{
    EXPECT_TRUE(harness.channel
                    .send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA))
                    .isOk());
    std::vector<Message> burst(total,
                               Message(Opcode::PointerCheck, 0x1000,
                                       0xAAAA));
    std::size_t sent = 0;
    while (sent < total) {
        // Odd chunk size: exercises frames both full and partial.
        const std::size_t want = std::min<std::size_t>(100, total - sent);
        EXPECT_TRUE(
            harness.channel.sendBatch(burst.data(), want).isOk());
        sent += want;
        harness.verifier->poll(); // interleave drain with production
    }
    EXPECT_TRUE(
        harness.channel.send(Message(Opcode::Syscall, 59)).isOk());
    harness.verifier->poll();
    return harness.verifier->statsFor(kPid);
}

TEST_F(FrameE2eTest, V1AndV2ProduceIdenticalVerdicts)
{
    constexpr std::size_t kTotal = 1000;
    Harness v1(WireFormat::V1);
    const VerifierProcessStats s1 = pumpTraffic(v1, kTotal);
    Harness v2(WireFormat::V2);
    const VerifierProcessStats s2 = pumpTraffic(v2, kTotal);

    EXPECT_EQ(s1.messages, kTotal + 2);
    EXPECT_EQ(s2.messages, s1.messages);
    EXPECT_EQ(s2.violations, s1.violations);
    EXPECT_EQ(s1.violations, 0u);
    EXPECT_EQ(s2.syscall_acks, s1.syscall_acks);
    EXPECT_EQ(s2.max_entries, s1.max_entries);
}

TEST_F(FrameE2eTest, V2DetectsCorruptionExactlyLikeV1)
{
    for (const WireFormat format : {WireFormat::V1, WireFormat::V2}) {
        Harness harness(format);
        harness.channel.send(
            Message(Opcode::PointerDefine, 0x1000, 0xAAAA));
        harness.channel.send(
            Message(Opcode::PointerCheck, 0x1000, 0xBADBADull));
        harness.verifier->poll();
        const auto stats = harness.verifier->statsFor(kPid);
        EXPECT_EQ(stats.violations, 1u)
            << wireFormatName(format);
        EXPECT_TRUE(harness.verifier->hasViolation(kPid));
    }
}

TEST_F(FrameE2eTest, CorruptFrameIsSkippedWholeNeverPartiallyApplied)
{
    Harness harness(WireFormat::V2);
    harness.channel.send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA));
    harness.verifier->poll();

    // Corrupt exactly the next frame (a batch of 10 defines that would
    // enlarge the shadow store if any record leaked through).
    ASSERT_TRUE(
        fi::configureFromSpec("seed=3,frame_corrupt:1:0:1").isOk());
    std::vector<Message> defines;
    for (int i = 0; i < 10; ++i)
        defines.push_back(
            Message(Opcode::PointerDefine, 0x2000 + 16 * i, 1));
    ASSERT_TRUE(
        harness.channel.sendBatch(defines.data(), defines.size()).isOk());
    fi::disarmAll();
    harness.verifier->poll();

    const auto stats = harness.verifier->statsFor(kPid);
    EXPECT_GE(stats.violations, 1u) << "corruption must be detected";
    // No record of the corrupt frame may have been applied: the shadow
    // store still holds only the pre-corruption define.
    EXPECT_EQ(harness.policy != nullptr, true);
    auto *context = static_cast<PointerIntegrityContext *>(
        harness.verifier->contextFor(kPid));
    ASSERT_NE(context, nullptr);
    EXPECT_EQ(context->entryCount(), 1u);
    EXPECT_EQ(stats.messages, 1u) << "corrupt records must not count";
}

TEST_F(FrameE2eTest, DroppedFrameRaisesSequenceGap)
{
    Harness harness(WireFormat::V2);
    harness.channel.send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA));
    harness.verifier->poll();

    ASSERT_TRUE(fi::configureFromSpec("seed=3,ring_drop:1:0:1").isOk());
    std::vector<Message> checks(
        8, Message(Opcode::PointerCheck, 0x1000, 0xAAAA));
    ASSERT_TRUE(
        harness.channel.sendBatch(checks.data(), checks.size()).isOk());
    fi::disarmAll();
    // The next (undropped) frame exposes the gap.
    ASSERT_TRUE(
        harness.channel.sendBatch(checks.data(), checks.size()).isOk());
    harness.verifier->poll();

    EXPECT_GE(harness.verifier->statsFor(kPid).violations, 1u)
        << "a dropped frame must surface as a sequence gap";
}

TEST_F(FrameE2eTest, ChaosSweepHasZeroSilentAccepts)
{
    // Randomized corruption sweep over many frames: every injected
    // frame corruption must be matched by at least one violation.
    Harness harness(WireFormat::V2);
    harness.channel.send(Message(Opcode::PointerDefine, 0x1000, 0xAAAA));
    harness.verifier->poll();

    ASSERT_TRUE(
        fi::configureFromSpec("seed=11,frame_corrupt:0.2").isOk());
    std::vector<Message> burst(
        32, Message(Opcode::PointerCheck, 0x1000, 0xAAAA));
    for (int round = 0; round < 64; ++round) {
        ASSERT_TRUE(
            harness.channel.sendBatch(burst.data(), burst.size()).isOk());
        harness.verifier->poll();
    }
    const std::uint64_t injected =
        fi::FaultPlan::instance().injected(fi::Site::FrameCorrupt);
    fi::disarmAll();
    harness.verifier->poll();

    ASSERT_GT(injected, 0u) << "sweep must have injected corruption";
    const auto stats = harness.verifier->statsFor(kPid);
    EXPECT_GE(stats.violations, injected)
        << "every corrupt frame must be detected (zero silent accepts)";
}

/** A shared-memory channel that counts the verifier's peeks at it. */
class PeekCountingChannel : public ShmChannel
{
  public:
    using ShmChannel::ShmChannel;

    PeekResult
    tryPeekSpan(RecvSpan &out) override
    {
        ++peeks;
        if (on_peek)
            on_peek();
        return ShmChannel::tryPeekSpan(out);
    }

    int peeks = 0;
    std::function<void()> on_peek;
};

TEST_F(FrameE2eTest, FrameOverTheBudgetWaitsForTheNextRound)
{
    // Two 40-record v2 frames against the default 64-record poll
    // budget: round 1 checks frame 1 and stops, because frame 2 would
    // overrun the budget; round 2 checks frame 2 (which carries the
    // violation). Each frame is checked whole, in its own round.
    KernelModule kernel;
    Verifier::Config config;
    config.num_shards = 1;
    config.kill_on_violation = false;
    Verifier verifier(kernel, std::make_shared<PointerIntegrityPolicy>(),
                      config);
    ASSERT_EQ(verifier.config().poll_batch, 64u);
    PeekCountingChannel channel(256);
    ASSERT_TRUE(channel.negotiateFormat(WireFormat::V2));
    // The verifier peeks each attached channel once per round, in
    // attach order: once this empty marker has been peeked, round 1 is
    // over and the next peek at `channel` starts round 2.
    PeekCountingChannel round_marker(16);
    verifier.attachChannel(&channel, kPid);
    verifier.attachChannel(&round_marker, kPid + 1);
    ASSERT_TRUE(kernel.enableProcess(kPid).isOk());

    std::vector<Message> frame1(40, Message(Opcode::PointerCheck, 0x1000,
                                            0xAAAA));
    frame1[0] = Message(Opcode::PointerDefine, 0x1000, 0xAAAA);
    std::vector<Message> frame2 = frame1;
    frame2[0] = Message(Opcode::PointerCheck, 0x1000, 0xAAAA);
    frame2[39] = Message(Opcode::PointerCheck, 0x1000, 0xBAD);
    ASSERT_TRUE(channel.sendBatch(frame1.data(), frame1.size()).isOk());
    ASSERT_TRUE(channel.sendBatch(frame2.data(), frame2.size()).isOk());

    bool round2 = false;
    VerifierProcessStats after_round1;
    channel.on_peek = [&] {
        if (round2 || round_marker.peeks != 1)
            return;
        round2 = true; // frame 2 is still queued unchecked
        after_round1 = verifier.statsFor(kPid);
    };
    verifier.poll();

    ASSERT_TRUE(round2);
    EXPECT_EQ(after_round1.messages, 40u);
    EXPECT_EQ(after_round1.violations, 0u);
    EXPECT_EQ(verifier.statsFor(kPid).messages, 80u);
    EXPECT_EQ(verifier.statsFor(kPid).violations, 1u);
}

TEST_F(FrameE2eTest, OverLimitPollBatchConfigNeverReachesDecoder)
{
    // Satellite guard: Config::poll_batch is clamped at construction,
    // and the decoder rejects counts above its max_batch anyway — the
    // combination means an over-limit config cannot make a frame
    // overrun the verifier's scratch buffer.
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config config;
    config.poll_batch = 100000; // absurd; must clamp to kMaxPollBatch
    Verifier verifier(kernel, policy, config);
    EXPECT_EQ(verifier.config().poll_batch, Verifier::kMaxPollBatch);
}

} // namespace
} // namespace hq
