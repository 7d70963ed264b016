/**
 * @file
 * Unit tests for the execution policies: pointer integrity (HQ-CFI
 * semantics from §4.1.3/§4.1.5), memory safety (§4.2), and the §4.3
 * policies (event counting, watchdog).
 */

#include <gtest/gtest.h>

#include "policy/data_flow.h"
#include "policy/ifc.h"
#include "policy/memory_safety.h"
#include "policy/memory_tagging.h"
#include "policy/misc_policies.h"
#include "policy/pointer_integrity.h"
#include "policy/policy_module.h"

namespace hq {
namespace {

Message
msg(Opcode op, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
{
    return Message(op, a0, a1);
}

// ---------------------------------------------------------------------
// Pointer integrity
// ---------------------------------------------------------------------

class PointerIntegrityTest : public ::testing::Test
{
  protected:
    PointerIntegrityContext ctx{1};
};

TEST_F(PointerIntegrityTest, DefineThenCheckSucceeds)
{
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
    EXPECT_EQ(ctx.violationCount(), 0u);
}

TEST_F(PointerIntegrityTest, CorruptedValueIsViolation)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    Status s = ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xBB));
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::Corrupted);
}

TEST_F(PointerIntegrityTest, CheckAfterInvalidateIsUseAfterFree)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx.handleMessage(msg(Opcode::PointerInvalidate, 0x100));
    Status s = ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA));
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::UseAfterFree);
}

TEST_F(PointerIntegrityTest, CheckOfNeverDefinedPointerIsViolation)
{
    Status s = ctx.handleMessage(msg(Opcode::PointerCheck, 0x500, 0x1));
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::UseAfterFree);
}

TEST_F(PointerIntegrityTest, RedefineUpdatesShadowValue)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xBB));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xBB)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
}

TEST_F(PointerIntegrityTest, CheckInvalidateRemovesEntry)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    EXPECT_TRUE(
        ctx.handleMessage(msg(Opcode::PointerCheckInvalidate, 0x100, 0xAA)));
    // Second check: the entry is gone (return pointer was consumed).
    EXPECT_FALSE(
        ctx.handleMessage(msg(Opcode::PointerCheckInvalidate, 0x100, 0xAA)));
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::UseAfterFree);
}

TEST_F(PointerIntegrityTest, FailedCheckInvalidateKeepsEntry)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    EXPECT_FALSE(
        ctx.handleMessage(msg(Opcode::PointerCheckInvalidate, 0x100, 0xBB)));
    // Check-invalidate only invalidates on success.
    std::uint64_t value = 0;
    EXPECT_TRUE(ctx.lookup(0x100, value));
    EXPECT_EQ(value, 0xAAu);
}

TEST_F(PointerIntegrityTest, BlockCopyMovesPointersWithBytes)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x108, 0xBB));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x200, 0xCC)); // outside
    // memcpy(dst=0x300, src=0x100, sz=0x10)
    ctx.handleMessage(msg(Opcode::BlockSize, 0x10));
    ctx.handleMessage(msg(Opcode::PointerBlockCopy, 0x100, 0x300));

    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x300, 0xAA)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x308, 0xBB)));
    // Source copies remain valid for COPY.
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x200, 0xCC)));
}

TEST_F(PointerIntegrityTest, BlockCopyInvalidatesPreexistingDestination)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x300, 0xDD));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx.handleMessage(msg(Opcode::BlockSize, 0x10));
    ctx.handleMessage(msg(Opcode::PointerBlockCopy, 0x100, 0x2F8));
    // 0x300 lies inside [0x2F8, 0x308): its old pointer must be gone,
    // replaced only if a source pointer landed exactly there.
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x300, 0xDD)));
}

TEST_F(PointerIntegrityTest, BlockMoveInvalidatesSource)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    // realloc-style move to 0x400.
    ctx.handleMessage(msg(Opcode::BlockSize, 0x10));
    ctx.handleMessage(msg(Opcode::PointerBlockMove, 0x100, 0x400));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x400, 0xAA)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::UseAfterFree);
}

TEST_F(PointerIntegrityTest, BlockInvalidateClearsRange)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x110, 0xBB));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x120, 0xCC));
    // free() of [0x100, 0x118)
    ctx.handleMessage(msg(Opcode::PointerBlockInvalidate, 0x100, 0x18));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x110, 0xBB)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x120, 0xCC)));
}

TEST_F(PointerIntegrityTest, BlockInvalidateAtTopClampsInsteadOfWrapping)
{
    // [2^64-16, 2^64+16) would wrap to end at 16: the invalidate must
    // clamp at the top of the address space, not erase nothing.
    const Addr top = kMaxAddr;
    ctx.handleMessage(msg(Opcode::PointerDefine, top - 7, 0xAA));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x8, 0xBB));
    EXPECT_TRUE(
        ctx.handleMessage(msg(Opcode::PointerBlockInvalidate, top - 15, 32)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::PointerCheck, top - 7, 0xAA)));
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::UseAfterFree);
    // The clamped range does not wrap round to the bottom.
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x8, 0xBB)));
}

TEST_F(PointerIntegrityTest, BlockCopyOrMoveThatWrapsIsViolation)
{
    const Addr top = kMaxAddr;
    ctx.handleMessage(msg(Opcode::PointerDefine, top - 7, 0xAA));
    ctx.handleMessage(msg(Opcode::BlockSize, 32));
    EXPECT_FALSE(
        ctx.handleMessage(msg(Opcode::PointerBlockMove, top - 15, 0x1000)));
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::AddressWrap);
    ctx.handleMessage(msg(Opcode::BlockSize, 32));
    EXPECT_FALSE(
        ctx.handleMessage(msg(Opcode::PointerBlockCopy, 0x1000, top - 15)));
    EXPECT_EQ(ctx.lastViolation(), PointerViolation::AddressWrap);
    // A range ending exactly at the top does not wrap.
    ctx.handleMessage(msg(Opcode::BlockSize, 8));
    EXPECT_TRUE(
        ctx.handleMessage(msg(Opcode::PointerBlockMove, top - 7, 0x2000)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x2000, 0xAA)));
    EXPECT_EQ(ctx.entryCount(), 1u);
}

TEST_F(PointerIntegrityTest, ZeroSizeBlockCopyIsNoop)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx.handleMessage(msg(Opcode::BlockSize, 0));
    ctx.handleMessage(msg(Opcode::PointerBlockCopy, 0x100, 0x300));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x300, 0xAA)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
}

TEST_F(PointerIntegrityTest, OverlappingBlockCopyForward)
{
    // memmove semantics: [0x100,0x110) -> [0x108,0x118), ranges intersect.
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x108, 0xBB));
    ctx.handleMessage(msg(Opcode::BlockSize, 0x10));
    ctx.handleMessage(msg(Opcode::PointerBlockCopy, 0x100, 0x108));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x108, 0xAA)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x110, 0xBB)));
}

TEST_F(PointerIntegrityTest, EntryCountTracksDefinitions)
{
    EXPECT_EQ(ctx.entryCount(), 0u);
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 1));
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x108, 2));
    EXPECT_EQ(ctx.entryCount(), 2u);
    ctx.handleMessage(msg(Opcode::PointerInvalidate, 0x100));
    EXPECT_EQ(ctx.entryCount(), 1u);
    EXPECT_EQ(ctx.maxEntryCount(), 2u);
}

TEST_F(PointerIntegrityTest, CloneForChildCopiesShadowStore)
{
    ctx.handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    auto child = ctx.cloneForChild(2);
    EXPECT_TRUE(child->handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
    // Child mutations do not affect the parent.
    child->handleMessage(msg(Opcode::PointerInvalidate, 0x100));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerCheck, 0x100, 0xAA)));
}

TEST_F(PointerIntegrityTest, SyscallAndInitMessagesAreIgnored)
{
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::Syscall, 42)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::Init, 1)));
    EXPECT_EQ(ctx.entryCount(), 0u);
}

// ---------------------------------------------------------------------
// Memory safety
// ---------------------------------------------------------------------

class MemorySafetyTest : public ::testing::Test
{
  protected:
    MemorySafetyContext ctx{1};
};

TEST_F(MemorySafetyTest, CreateThenCheckInBounds)
{
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x1000)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x10FF)));
}

TEST_F(MemorySafetyTest, OutOfBoundsAccessIsViolation)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x1100)));
    EXPECT_EQ(ctx.lastViolation(), MemoryViolation::OutOfBounds);
}

TEST_F(MemorySafetyTest, UseAfterFreeIsViolation)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    ctx.handleMessage(msg(Opcode::AllocDestroy, 0x1000));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x1000)));
}

TEST_F(MemorySafetyTest, OverlappingCreateIsViolation)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCreate, 0x1080, 0x100)));
    EXPECT_EQ(ctx.lastViolation(), MemoryViolation::OverlapCreate);
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCreate, 0xF80, 0x100)));
}

TEST_F(MemorySafetyTest, AdjacentAllocationsDoNotOverlap)
{
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCreate, 0x1100, 0x100)));
}

TEST_F(MemorySafetyTest, CheckBaseDetectsCrossAllocation)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x2000, 0x100));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCheckBase, 0x1000, 0x10FF)));
    EXPECT_FALSE(
        ctx.handleMessage(msg(Opcode::AllocCheckBase, 0x1000, 0x2000)));
    EXPECT_EQ(ctx.lastViolation(), MemoryViolation::CrossAllocation);
}

TEST_F(MemorySafetyTest, DoubleFreeIsViolation)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocDestroy, 0x1000)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocDestroy, 0x1000)));
    EXPECT_EQ(ctx.lastViolation(), MemoryViolation::InvalidFree);
}

TEST_F(MemorySafetyTest, ExtendMovesAllocation)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    // realloc to 0x3000, size 0x200.
    ctx.handleMessage(msg(Opcode::BlockSize, 0x200));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocExtend, 0x1000, 0x3000)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x31FF)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x1000)));
}

TEST_F(MemorySafetyTest, ExtendOfUnknownBaseIsViolation)
{
    ctx.handleMessage(msg(Opcode::BlockSize, 0x100));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocExtend, 0x9999, 0x3000)));
}

TEST_F(MemorySafetyTest, DestroyAllClearsStackFrame)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x10));
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1020, 0x10));
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x2000, 0x10));
    EXPECT_TRUE(
        ctx.handleMessage(msg(Opcode::AllocDestroyAll, 0x1000, 0x100)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x1000)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x2000)));
}

TEST_F(MemorySafetyTest, DestroyAllOfEmptyRangeIsViolation)
{
    EXPECT_FALSE(
        ctx.handleMessage(msg(Opcode::AllocDestroyAll, 0x1000, 0x100)));
}

TEST_F(MemorySafetyTest, CreateWhoseEndWrapsIsViolation)
{
    // [2^64-16, 2^64+16) would wrap to end at 16 and so miss the live
    // allocation at 2^64-8; it must be refused instead.
    const Addr top = kMaxAddr;
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCreate, top - 7, 8)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCreate, top - 15, 32)));
    EXPECT_EQ(ctx.lastViolation(), MemoryViolation::AddressWrap);
    EXPECT_EQ(ctx.entryCount(), 1u);
    // The allocation ending exactly at the top is live to its last byte.
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCheck, top)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCheck, top - 8)));
}

TEST_F(MemorySafetyTest, ExtendWhoseEndWrapsIsViolation)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x10));
    ctx.handleMessage(msg(Opcode::BlockSize, 0x20));
    EXPECT_FALSE(
        ctx.handleMessage(msg(Opcode::AllocExtend, 0x1000, kMaxAddr - 0xF)));
    EXPECT_EQ(ctx.lastViolation(), MemoryViolation::AddressWrap);
    EXPECT_EQ(ctx.entryCount(), 0u);
}

TEST_F(MemorySafetyTest, RunOfZeroSizeAllocationsDoesNotHideContainer)
{
    // malloc(0) results contain nothing: an access check steps past a
    // run of them (here spanning several leaves) to the live allocation
    // below, and finds none once that allocation is gone.
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    for (Addr base = 0x1080; base < 0x1100; ++base)
        ASSERT_TRUE(ctx.handleMessage(msg(Opcode::AllocCreate, base, 0)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x10FF)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x1100)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::AllocDestroy, 0x1000)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::AllocCheck, 0x10FF)));
    EXPECT_EQ(ctx.lastViolation(), MemoryViolation::OutOfBounds);
    EXPECT_EQ(ctx.entryCount(), 0x80u);
}

TEST_F(MemorySafetyTest, CloneForChildCopiesAllocations)
{
    ctx.handleMessage(msg(Opcode::AllocCreate, 0x1000, 0x100));
    auto child = ctx.cloneForChild(2);
    EXPECT_TRUE(child->handleMessage(msg(Opcode::AllocCheck, 0x1000)));
}

// ---------------------------------------------------------------------
// Event counting and watchdog (§4.3)
// ---------------------------------------------------------------------

TEST(EventCount, AccumulatesPerCounter)
{
    EventCountContext ctx(1);
    ctx.handleMessage(msg(Opcode::EventCount, 7, 1));
    ctx.handleMessage(msg(Opcode::EventCount, 7, 2));
    ctx.handleMessage(msg(Opcode::EventCount, 9, 5));
    EXPECT_EQ(ctx.counter(7), 3u);
    EXPECT_EQ(ctx.counter(9), 5u);
    EXPECT_EQ(ctx.counter(999), 0u);
}

TEST(EventCount, CloneCopiesCounters)
{
    EventCountContext ctx(1);
    ctx.handleMessage(msg(Opcode::EventCount, 7, 10));
    auto child = ctx.cloneForChild(2);
    auto *child_ctx = static_cast<EventCountContext *>(child.get());
    EXPECT_EQ(child_ctx->counter(7), 10u);
}

TEST(Watchdog, AcceptsMonotonicHeartbeats)
{
    WatchdogContext ctx(1, /*max_gap=*/10);
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::Heartbeat, 100)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::Heartbeat, 105)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::Heartbeat, 115)));
}

TEST(Watchdog, RejectsGapBeyondBudget)
{
    WatchdogContext ctx(1, 10);
    ctx.handleMessage(msg(Opcode::Heartbeat, 100));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::Heartbeat, 200)));
}

TEST(Watchdog, RejectsRegression)
{
    WatchdogContext ctx(1, 10);
    ctx.handleMessage(msg(Opcode::Heartbeat, 100));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::Heartbeat, 99)));
}

// ---------------------------------------------------------------------
// Data-flow integrity (§4.3)
// ---------------------------------------------------------------------

TEST(DataFlow, AllowedWriterPasses)
{
    DataFlowContext ctx(1);
    // Writer 3 stores; the load allows writers {3, 5}.
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::DfiWrite, 0x100, 3)));
    const std::uint64_t mask = (1u << 3) | (1u << 5);
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::DfiRead, 0x100, mask)));
    EXPECT_EQ(ctx.violationCount(), 0u);
}

TEST(DataFlow, DisallowedWriterIsViolation)
{
    DataFlowContext ctx(1);
    // Writer 7 (e.g. an attacker-reached memcpy) stored last, but the
    // load only expects writers {3, 5}.
    ctx.handleMessage(msg(Opcode::DfiWrite, 0x100, 7));
    const std::uint64_t mask = (1u << 3) | (1u << 5);
    Status s = ctx.handleMessage(msg(Opcode::DfiRead, 0x100, mask));
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(ctx.violationCount(), 1u);
}

TEST(DataFlow, UnwrittenMemoryIsInitialWriter)
{
    DataFlowContext ctx(1);
    EXPECT_EQ(ctx.lastWriter(0x500), DataFlowContext::kInitialWriter);
    // Loads of uninitialized data pass only when the initial writer
    // (bit 0) is in the allowed set.
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::DfiRead, 0x500, 0x1)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::DfiRead, 0x500, 0x8)));
}

TEST(DataFlow, LatestWriterWins)
{
    DataFlowContext ctx(1);
    ctx.handleMessage(msg(Opcode::DfiWrite, 0x100, 2));
    ctx.handleMessage(msg(Opcode::DfiWrite, 0x100, 9));
    EXPECT_EQ(ctx.lastWriter(0x100), 9u);
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::DfiRead, 0x100, 1u << 2)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::DfiRead, 0x100, 1u << 9)));
}

TEST(DataFlow, EntryCountAndClone)
{
    DataFlowContext ctx(1);
    ctx.handleMessage(msg(Opcode::DfiWrite, 0x100, 1));
    ctx.handleMessage(msg(Opcode::DfiWrite, 0x108, 2));
    EXPECT_EQ(ctx.entryCount(), 2u);
    auto child = ctx.cloneForChild(2);
    auto *child_ctx = static_cast<DataFlowContext *>(child.get());
    EXPECT_EQ(child_ctx->lastWriter(0x108), 2u);
}

TEST(MemoryTagging, MatchingTagPasses)
{
    MemoryTaggingContext ctx(1);
    // Tag [0x1000, 0x1040) with tag 5.
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, (0x40 << 8) | 5));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::TagCheck, 0x1000, 5)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::TagCheck, 0x103F, 5)));
    EXPECT_EQ(ctx.violationCount(), 0u);
}

TEST(MemoryTagging, MismatchedTagIsViolation)
{
    MemoryTaggingContext ctx(1);
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, (0x40 << 8) | 5));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::TagCheck, 0x1000, 6)));
    EXPECT_EQ(ctx.violationCount(), 1u);
}

TEST(MemoryTagging, UntaggedMemoryIsViolation)
{
    MemoryTaggingContext ctx(1);
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::TagCheck, 0x9000, 0)));
}

TEST(MemoryTagging, RetagDetectsUseAfterFree)
{
    // MTE-style temporal safety: free retags the region; a stale
    // pointer still carries the old tag.
    MemoryTaggingContext ctx(1);
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, (0x40 << 8) | 5));
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, (0x40 << 8) | 9));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::TagCheck, 0x1010, 5)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::TagCheck, 0x1010, 9)));
}

TEST(MemoryTagging, ZeroSizeRetagRemovesRegion)
{
    MemoryTaggingContext ctx(1);
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, (0x40 << 8) | 5));
    EXPECT_EQ(ctx.entryCount(), 1u);
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, 0));
    EXPECT_EQ(ctx.entryCount(), 0u);
    EXPECT_EQ(ctx.tagOf(0x1000), -1);
}

TEST(MemoryTagging, AdjacentRegionsKeepDistinctTags)
{
    MemoryTaggingContext ctx(1);
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, (0x40 << 8) | 1));
    ctx.handleMessage(msg(Opcode::TagSet, 0x1040, (0x40 << 8) | 2));
    // A linear overflow crossing the boundary changes the required tag.
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::TagCheck, 0x103F, 1)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::TagCheck, 0x1040, 1)));
    EXPECT_EQ(ctx.tagOf(0x1040), 2);
}

TEST(MemoryTagging, CloneCopiesRegions)
{
    MemoryTaggingContext ctx(1);
    ctx.handleMessage(msg(Opcode::TagSet, 0x1000, (0x10 << 8) | 3));
    auto child = ctx.cloneForChild(2);
    auto *child_ctx = static_cast<MemoryTaggingContext *>(child.get());
    EXPECT_EQ(child_ctx->tagOf(0x1008), 3);
}

TEST(DataFlow, IgnoresOtherPolicyTraffic)
{
    DataFlowContext ctx(1);
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerDefine, 1, 2)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::Syscall, 60)));
    EXPECT_EQ(ctx.entryCount(), 0u);
}

// ---------------------------------------------------------------------
// Information-flow control (label lattice)
// ---------------------------------------------------------------------

TEST(Ifc, UnlabeledAddressesArePublic)
{
    IfcContext ctx(1);
    EXPECT_EQ(ctx.labelOf(0x100), label::kPublic);
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::LabelCheck, 0x100,
                                      label::kSecret)));
    EXPECT_EQ(ctx.violationCount(), 0u);
}

TEST(Ifc, LabeledSourceReachingSinkIsViolation)
{
    IfcContext ctx(1);
    ctx.handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    Status s = ctx.handleMessage(msg(Opcode::LabelCheck, 0x100,
                                     label::kSecret));
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::PolicyViolation);
    EXPECT_EQ(ctx.violationCount(), 1u);
}

TEST(Ifc, JoinPropagatesLabelAlongDataFlow)
{
    IfcContext ctx(1);
    ctx.handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    ctx.handleMessage(msg(Opcode::LabelJoin, 0x100, 0x200));
    ctx.handleMessage(msg(Opcode::LabelJoin, 0x200, 0x300));
    EXPECT_EQ(ctx.labelOf(0x300), label::kSecret);
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::LabelCheck, 0x300,
                                       label::kSecret)));
}

TEST(Ifc, JoinIsLatticeOrOfFacets)
{
    IfcContext ctx(1);
    ctx.handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    ctx.handleMessage(msg(Opcode::LabelDef, 0x200, label::kTainted));
    ctx.handleMessage(msg(Opcode::LabelJoin, 0x100, 0x300));
    ctx.handleMessage(msg(Opcode::LabelJoin, 0x200, 0x300));
    EXPECT_EQ(ctx.labelOf(0x300), label::kSecret | label::kTainted);
    // A sink forbidding only one facet still fires on the joined label.
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::LabelCheck, 0x300,
                                       label::kTainted)));
}

TEST(Ifc, CheckMatchesOnlyForbiddenFacets)
{
    IfcContext ctx(1);
    ctx.handleMessage(msg(Opcode::LabelDef, 0x100, label::kTainted));
    // Secret-forbidding sink accepts merely tainted data.
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::LabelCheck, 0x100,
                                      label::kSecret)));
    EXPECT_FALSE(ctx.handleMessage(msg(Opcode::LabelCheck, 0x100,
                                       label::kTainted)));
}

TEST(Ifc, DeclassifyClearsLabelAndTableEntry)
{
    IfcContext ctx(1);
    ctx.handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    EXPECT_EQ(ctx.entryCount(), 1u);
    ctx.handleMessage(msg(Opcode::LabelDef, 0x100, label::kPublic));
    EXPECT_EQ(ctx.entryCount(), 0u);
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::LabelCheck, 0x100,
                                      label::kSecret)));
}

TEST(Ifc, PublicJoinIsNoOpAndAddsNoEntry)
{
    IfcContext ctx(1);
    // Loop-counter style joins from unlabeled sources must not bloat
    // the table.
    ctx.handleMessage(msg(Opcode::LabelJoin, 0x900, 0x200));
    EXPECT_EQ(ctx.entryCount(), 0u);
    EXPECT_EQ(ctx.labelOf(0x200), label::kPublic);
}

TEST(Ifc, FingerprintIsOrderIndependent)
{
    IfcContext a(1);
    a.handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    a.handleMessage(msg(Opcode::LabelDef, 0x200, label::kTainted));
    IfcContext b(1);
    b.handleMessage(msg(Opcode::LabelDef, 0x200, label::kTainted));
    b.handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    EXPECT_EQ(a.tableFingerprint(), b.tableFingerprint());

    b.handleMessage(msg(Opcode::LabelDef, 0x300, label::kSecret));
    EXPECT_NE(a.tableFingerprint(), b.tableFingerprint());
}

TEST(Ifc, CloneCopiesLabelTable)
{
    IfcContext ctx(1);
    ctx.handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    auto child = ctx.cloneForChild(2);
    auto *child_ctx = static_cast<IfcContext *>(child.get());
    EXPECT_EQ(child_ctx->labelOf(0x100), label::kSecret);
    child_ctx->handleMessage(msg(Opcode::LabelDef, 0x100, label::kPublic));
    EXPECT_EQ(ctx.labelOf(0x100), label::kSecret);
}

TEST(Ifc, IgnoresOtherPolicyTraffic)
{
    IfcContext ctx(1);
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::PointerDefine, 1, 2)));
    EXPECT_TRUE(ctx.handleMessage(msg(Opcode::DfiWrite, 0x100, 3)));
    EXPECT_EQ(ctx.entryCount(), 0u);
}

// ---------------------------------------------------------------------
// Policy-module composition
// ---------------------------------------------------------------------

std::unique_ptr<MultiPolicyContext>
makeCfiPlusIfcContext()
{
    MultiPolicy multi;
    multi.addPolicy(std::make_unique<PointerIntegrityPolicy>());
    multi.addPolicy(std::make_unique<IfcPolicy>());
    auto ctx = multi.makeContext(1);
    return std::unique_ptr<MultiPolicyContext>(
        static_cast<MultiPolicyContext *>(ctx.release()));
}

TEST(MultiPolicyComposition, FansMessagesToEveryFamily)
{
    auto ctx = makeCfiPlusIfcContext();
    ctx->handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx->handleMessage(msg(Opcode::LabelDef, 0x200, label::kSecret));
    EXPECT_EQ(ctx->entryCount(), 2u); // one CFI entry + one label entry
    EXPECT_NE(ctx->contextFor("cfi"), nullptr);
    EXPECT_NE(ctx->contextFor("ifc"), nullptr);
    EXPECT_EQ(ctx->contextFor("nonesuch"), nullptr);
}

TEST(MultiPolicyComposition, PropagatesSubPolicyViolations)
{
    // Regression guard: a sub-policy's failing Status must surface from
    // the composite (an always-OK fan-out silently disables every
    // registered family).
    auto ctx = makeCfiPlusIfcContext();
    ctx->handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    Status s = ctx->handleMessage(msg(Opcode::LabelCheck, 0x100,
                                      label::kSecret));
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::PolicyViolation);
    EXPECT_STREQ(ctx->violationFamily(), "ifc");

    ctx->handleMessage(msg(Opcode::PointerDefine, 0x300, 0xAA));
    EXPECT_FALSE(ctx->handleMessage(msg(Opcode::PointerCheck, 0x300, 0xBB)));
    EXPECT_STREQ(ctx->violationFamily(), "cfi");

    // A clean message resets the attribution tag.
    EXPECT_TRUE(ctx->handleMessage(msg(Opcode::Syscall, 60)));
    EXPECT_STREQ(ctx->violationFamily(), "");
}

TEST(MultiPolicyComposition, CfiAloneIgnoresLabelTraffic)
{
    // The leakbench contrast in miniature: the CFI family alone accepts
    // the whole label stream, so only the IFC module turns it into a
    // verdict.
    PointerIntegrityContext cfi(1);
    EXPECT_TRUE(cfi.handleMessage(msg(Opcode::LabelDef, 0x100,
                                      label::kSecret)));
    EXPECT_TRUE(cfi.handleMessage(msg(Opcode::LabelJoin, 0x100, 0x200)));
    EXPECT_TRUE(cfi.handleMessage(msg(Opcode::LabelCheck, 0x200,
                                      label::kSecret)));
    EXPECT_EQ(cfi.entryCount(), 0u);
}

TEST(MultiPolicyComposition, AppliesToScopesModulesPerPid)
{
    // Application-specific module scoped to pid 7 only.
    class ScopedIfcModule : public PolicyModule
    {
      public:
        const char *family() const override { return "ifc"; }
        std::unique_ptr<PolicyContext>
        makeContext(Pid pid) override
        {
            return std::make_unique<IfcContext>(pid);
        }
        bool appliesTo(Pid pid) override { return pid == 7; }
    };

    MultiPolicy multi;
    multi.addPolicy(std::make_unique<PointerIntegrityPolicy>());
    multi.add(std::make_unique<ScopedIfcModule>());

    auto covered = multi.makeContext(7);
    auto *covered_ctx = static_cast<MultiPolicyContext *>(covered.get());
    EXPECT_NE(covered_ctx->contextFor("ifc"), nullptr);
    covered_ctx->handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    EXPECT_FALSE(covered_ctx->handleMessage(msg(Opcode::LabelCheck, 0x100,
                                                label::kSecret)));

    auto other = multi.makeContext(8);
    auto *other_ctx = static_cast<MultiPolicyContext *>(other.get());
    EXPECT_EQ(other_ctx->contextFor("ifc"), nullptr);
    // The uncovered pid's label traffic sails through.
    other_ctx->handleMessage(msg(Opcode::LabelDef, 0x100, label::kSecret));
    EXPECT_TRUE(other_ctx->handleMessage(msg(Opcode::LabelCheck, 0x100,
                                             label::kSecret)));
}

TEST(MultiPolicyComposition, CloneForChildClonesEveryFamily)
{
    auto ctx = makeCfiPlusIfcContext();
    ctx->handleMessage(msg(Opcode::PointerDefine, 0x100, 0xAA));
    ctx->handleMessage(msg(Opcode::LabelDef, 0x200, label::kSecret));
    auto child = ctx->cloneForChild(2);
    auto *child_ctx = static_cast<MultiPolicyContext *>(child.get());
    EXPECT_TRUE(child_ctx->handleMessage(msg(Opcode::PointerCheck, 0x100,
                                             0xAA)));
    auto *child_ifc =
        static_cast<IfcContext *>(child_ctx->contextFor("ifc"));
    ASSERT_NE(child_ifc, nullptr);
    EXPECT_EQ(child_ifc->labelOf(0x200), label::kSecret);
}

} // namespace
} // namespace hq
