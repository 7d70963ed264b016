/**
 * @file
 * Fundamental type aliases shared across the HerQules reproduction.
 */

#ifndef HQ_COMMON_TYPES_H
#define HQ_COMMON_TYPES_H

#include <cstdint>

namespace hq {

/** Process identifier inside the simulated system. */
using Pid = std::uint32_t;

/** Virtual address inside a simulated process address space. */
using Addr = std::uint64_t;

/** A null address constant; the VM never maps page zero. */
inline constexpr Addr kNullAddr = 0;

/** Highest address: address ranges clamp to it, they never wrap. */
inline constexpr Addr kMaxAddr = ~Addr{0};

/**
 * Last address of the range [base, base + size); size must be non-zero.
 * @return false when the range runs past kMaxAddr (base + size wraps);
 * last is then set to kMaxAddr, the clamped end.
 */
constexpr bool
rangeLast(Addr base, std::uint64_t size, Addr &last)
{
    if (size - 1 > kMaxAddr - base) {
        last = kMaxAddr;
        return false;
    }
    last = base + (size - 1);
    return true;
}

/** Cycle count used by the microarchitectural simulator. */
using Cycles = std::uint64_t;

/** Monotonic tick used by the simulated kernel for epochs. */
using Tick = std::uint64_t;

} // namespace hq

#endif // HQ_COMMON_TYPES_H
