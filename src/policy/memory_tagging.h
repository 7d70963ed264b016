/**
 * @file
 * Memory-tagging policy (§4.3 lists memory tagging among the policies
 * HerQules can host; the semantics follow ARM MTE: allocations carry a
 * small tag, pointers carry a matching tag, and an access whose pointer
 * tag differs from the memory tag is a spatial or temporal violation).
 *
 * Unlike hardware MTE's 4-bit tags and 16-byte granules, the verifier
 * keeps exact region extents, so tag reuse does not create the usual
 * 1-in-16 false-negative probability within a region. A region whose
 * extent would wrap past the top of the address space tags nothing.
 */

#ifndef HQ_POLICY_MEMORY_TAGGING_H
#define HQ_POLICY_MEMORY_TAGGING_H

#include <cstdint>

#include "common/ordered_map.h"
#include "policy/policy.h"

namespace hq {

class MemoryTaggingContext : public PolicyContext
{
  public:
    explicit MemoryTaggingContext(Pid pid) : _pid(pid) {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;
    std::size_t entryCount() const override { return _regions.size(); }

    std::uint64_t violationCount() const { return _violations; }

    /** Tag of the region containing address; -1 when untagged. */
    int tagOf(Addr address) const;

  private:
    struct Region
    {
        std::uint64_t size = 0;
        std::uint8_t tag = 0;
    };

    Pid _pid;
    /// region base -> extent and tag; an access resolves to the region
    /// with the nearest base at or below it.
    OrderedMap<Addr, Region> _regions;
    std::uint64_t _violations = 0;
};

class MemoryTaggingPolicy : public Policy
{
  public:
    const std::string &name() const override { return _name; }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return std::make_unique<MemoryTaggingContext>(pid);
    }

  private:
    std::string _name = "memory-tagging";
};

} // namespace hq

#endif // HQ_POLICY_MEMORY_TAGGING_H
