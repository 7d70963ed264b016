/**
 * @file
 * Memory-safety execution policy (paper §4.2).
 *
 * Enforces spatial safety (accesses stay inside their allocation) and
 * temporal safety (the allocation is still live) by tracking allocation
 * creation, access checks, extension, and destruction in an interval map.
 * An allocation never wraps: one whose end would pass the top of the
 * address space is a violation.
 */

#ifndef HQ_POLICY_MEMORY_SAFETY_H
#define HQ_POLICY_MEMORY_SAFETY_H

#include <cstdint>

#include "common/ordered_map.h"
#include "policy/policy.h"

namespace hq {

/** Classifies a detected memory-safety violation. */
enum class MemoryViolation {
    None,
    OutOfBounds,     //!< access outside any live allocation
    CrossAllocation, //!< two addresses in different allocations
    OverlapCreate,   //!< new allocation overlaps a live one
    InvalidFree,     //!< destroy of a non-allocation (or double free)
    AddressWrap,     //!< create/extend runs past the top address
};

class MemorySafetyContext : public PolicyContext
{
  public:
    explicit MemorySafetyContext(Pid pid) : _pid(pid) {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;
    std::size_t entryCount() const override { return _allocations.size(); }

    MemoryViolation lastViolation() const { return _last_violation; }
    std::uint64_t violationCount() const { return _violations; }

    /** True when address lies inside a live allocation (test hook). */
    bool isLive(Addr address) const;

  private:
    Status violation(MemoryViolation kind, const Message &message);

    /**
     * Base of the live allocation containing address. O(log n), plus
     * one predecessor lookup per zero-size allocation between address
     * and the nearest non-empty base below it.
     * @return true and sets base_out when found.
     */
    bool findContaining(Addr address, Addr &base_out) const;

    /** True when [base, last] overlaps a live allocation. */
    bool overlapsExisting(Addr base, Addr last) const;

    Pid _pid;
    /// base address -> size of each live allocation, ordered by base:
    /// CREATE/DESTROY/EXTEND are exact-base point operations, containment
    /// is a predecessor lookup, overlap a predecessor plus a successor,
    /// and DESTROY-ALL a range erase.
    OrderedMap<Addr, std::uint64_t> _allocations;
    std::uint64_t _pending_block_size = 0;
    MemoryViolation _last_violation = MemoryViolation::None;
    std::uint64_t _violations = 0;
};

class MemorySafetyPolicy : public Policy
{
  public:
    const std::string &name() const override { return _name; }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return std::make_unique<MemorySafetyContext>(pid);
    }

  private:
    std::string _name = "memory-safety";
};

} // namespace hq

#endif // HQ_POLICY_MEMORY_SAFETY_H
