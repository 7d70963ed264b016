/**
 * @file
 * Small bit-manipulation helpers shared by the ring buffers and the
 * lag sidecar (power-of-two capacity sizing).
 */

#ifndef HQ_COMMON_BITS_H
#define HQ_COMMON_BITS_H

#include <cstddef>
#include <limits>

namespace hq {

/**
 * Smallest power of two >= value (1 for value <= 1). Values above the
 * largest representable power of two clamp to that power instead of
 * looping forever / overflowing: callers size allocations from the
 * result, and an allocation that large fails loudly downstream anyway.
 */
constexpr std::size_t
roundUpPow2(std::size_t value)
{
    constexpr std::size_t max_pow2 =
        std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
    if (value <= 1)
        return 1;
    if (value > max_pow2)
        return max_pow2;
    std::size_t pow2 = 1;
    while (pow2 < value)
        pow2 <<= 1;
    return pow2;
}

} // namespace hq

#endif // HQ_COMMON_BITS_H
