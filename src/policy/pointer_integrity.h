/**
 * @file
 * Fine-grained pointer-integrity policy — the HQ-CFI verifier side
 * (paper §4.1.2-§4.1.5).
 *
 * The verifier keeps a shadow copy of every protected control-flow
 * pointer (function pointers, vtable pointers, vtable-table pointers,
 * and — under HQ-CFI-RetPtr — return pointers) as 16-byte address/value
 * pairs. POINTER-CHECK compares the program's runtime value against the
 * shadow copy: a mismatch means corruption; a missing entry means the
 * pointer was invalidated earlier, i.e. a use-after-free on a
 * control-flow pointer, which prior CFI designs cannot detect.
 *
 * Block operations mirror the memcpy/memmove/realloc/free semantics of
 * §4.1.3: pointers move with the bytes that contain them and pre-existing
 * destination pointers are invalidated. Ranges never wrap: an invalidate
 * clamps at the top of the address space, and a copy or move whose
 * source or destination would wrap is a violation.
 */

#ifndef HQ_POLICY_POINTER_INTEGRITY_H
#define HQ_POLICY_POINTER_INTEGRITY_H

#include <cstdint>

#include "common/ordered_map.h"
#include "common/stats.h"
#include "policy/policy.h"

namespace hq {

/** Classifies a detected pointer-integrity violation. */
enum class PointerViolation {
    None,
    Corrupted,    //!< value differs from the shadow copy
    UseAfterFree, //!< checked pointer was previously invalidated
    Integrity,    //!< transport-integrity failure (dropped message)
    AddressWrap,  //!< block copy/move range runs past the top address
};

class PointerIntegrityContext : public PolicyContext
{
  public:
    explicit PointerIntegrityContext(Pid pid) : _pid(pid) {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;
    std::size_t entryCount() const override { return _pointers.size(); }
    const char *violationFamily() const override { return "cfi"; }

    /** Kind of the most recent violation (for tests and RIPE harness). */
    PointerViolation lastViolation() const { return _last_violation; }

    /** Total violations recorded over the context lifetime. */
    std::uint64_t violationCount() const { return _violations; }

    /** Shadow value of pointer at address, if defined (test hook). */
    bool lookup(Addr address, std::uint64_t &value_out) const;

    /** High-water mark of shadow entries (§5.4 memory metric). */
    std::size_t maxEntryCount() const { return _max_entries; }

  private:
    Status violation(PointerViolation kind, const Message &message);
    void notePeak();

    Pid _pid;
    /// Shadow pointer store: address -> expected value. DEFINE/CHECK/
    /// INVALIDATE (the per-message hot path) are point lookups; block
    /// operations (memcpy/realloc/free boundaries) walk and erase only
    /// the entries inside their address range, so their cost follows
    /// the pointers they move, not the table size (§5.4 tables reach
    /// thousands of entries).
    OrderedMap<Addr, std::uint64_t> _pointers;
    std::uint64_t _pending_block_size = 0;
    PointerViolation _last_violation = PointerViolation::None;
    std::uint64_t _violations = 0;
    std::size_t _max_entries = 0;
};

class PointerIntegrityPolicy : public Policy
{
  public:
    const std::string &name() const override { return _name; }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return std::make_unique<PointerIntegrityContext>(pid);
    }

  private:
    std::string _name = "pointer-integrity";
};

} // namespace hq

#endif // HQ_POLICY_POINTER_INTEGRITY_H
