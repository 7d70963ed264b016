/**
 * @file
 * Open-addressed flat hash map for the verifier's policy hot tables.
 *
 * Much of the per-message policy work is point lookups into per-address
 * tables (address -> label, address -> last writer, pid -> shard).
 * Node-based std::map/std::unordered_map pay a pointer chase plus an
 * allocation per entry on that path; this map keeps key/value pairs in
 * one contiguous power-of-two array with linear probing, so a lookup is
 * a hash, a masked index, and a short forward scan over adjacent cache
 * lines.
 *
 * Design points:
 *  - power-of-two capacity (bucket = mixed hash & mask), grown at ~7/8
 *    load factor by rehashing into a doubled array;
 *  - linear probing with *backward-shift* deletion (Knuth 6.4 Algorithm
 *    R): erase re-packs the probe chain instead of leaving tombstones,
 *    so heavy insert/erase churn (declassify, re-labelling) never
 *    degrades probe lengths;
 *  - integral keys are mixed with the murmur3 finalizer before masking:
 *    address keys are 8/16-byte-aligned, so their low bits carry no
 *    entropy, and an identity hash would stride the table.
 *
 * Iteration order is unspecified, so this map answers no range query;
 * tables that need address ranges use OrderedMap (common/ordered_map.h).
 * References/pointers into the map are invalidated by insert (rehash)
 * and erase (backward shift), like a std::vector.
 */

#ifndef HQ_COMMON_FLAT_MAP_H
#define HQ_COMMON_FLAT_MAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.h"

namespace hq {

/** murmur3 64-bit finalizer: full-avalanche mix for integral keys. */
constexpr std::uint64_t
mixHash64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Default FlatMap hash: murmur3-mixed for integers, std::hash else. */
template <typename Key, typename = void>
struct FlatMapHash
{
    std::size_t
    operator()(const Key &key) const
    {
        return std::hash<Key>{}(key);
    }
};

template <typename Key>
struct FlatMapHash<Key, std::enable_if_t<std::is_integral_v<Key>>>
{
    std::size_t
    operator()(Key key) const
    {
        return static_cast<std::size_t>(
            mixHash64(static_cast<std::uint64_t>(key)));
    }
};

template <typename Key, typename Value, typename Hash = FlatMapHash<Key>>
class FlatMap
{
  public:
    explicit FlatMap(std::size_t min_capacity = kMinCapacity)
    {
        rehash(roundUpPow2(
            min_capacity < kMinCapacity ? kMinCapacity : min_capacity));
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    std::size_t capacity() const { return _mask + 1; }

    /** Pointer to the mapped value, or nullptr when absent. */
    Value *
    find(const Key &key)
    {
        const std::size_t idx = indexOf(key);
        return idx == kNotFound ? nullptr : &_slots[idx].value;
    }

    const Value *
    find(const Key &key) const
    {
        const std::size_t idx = indexOf(key);
        return idx == kNotFound ? nullptr : &_slots[idx].value;
    }

    bool contains(const Key &key) const { return indexOf(key) != kNotFound; }

    /**
     * Hint the cache that key's home bucket is about to be probed.
     * Issues a prefetch for the bucket's slot and used-flag lines; a
     * batched caller (the verifier draining a frame) prefetches every
     * key's bucket first, then probes, so the loads overlap instead of
     * serializing one miss per message.
     */
    void
    prefetch(const Key &key) const
    {
#if defined(__GNUC__) || defined(__clang__)
        const std::size_t idx = bucketOf(key);
        __builtin_prefetch(&_slots[idx], 0 /*read*/, 1 /*low locality*/);
        __builtin_prefetch(&_used[idx], 0, 1);
#else
        (void)key;
#endif
    }

    /** Mapped value for key, default-constructed and inserted if absent. */
    Value &
    operator[](const Key &key)
    {
        std::size_t idx = indexOf(key);
        if (idx != kNotFound)
            return _slots[idx].value;
        maybeGrow();
        idx = insertSlot(key);
        _slots[idx].value = Value{};
        return _slots[idx].value;
    }

    /** Insert or overwrite; @return true when the key was newly added. */
    bool
    insertOrAssign(const Key &key, Value value)
    {
        std::size_t idx = indexOf(key);
        if (idx != kNotFound) {
            _slots[idx].value = std::move(value);
            return false;
        }
        maybeGrow();
        idx = insertSlot(key);
        _slots[idx].value = std::move(value);
        return true;
    }

    /**
     * Remove key with backward-shift re-packing (no tombstones).
     * @return true when an entry was erased.
     */
    bool
    erase(const Key &key)
    {
        std::size_t hole = indexOf(key);
        if (hole == kNotFound)
            return false;
        // Walk the chain after the hole; any element whose home bucket
        // does not lie strictly inside (hole, probe] may legally occupy
        // the hole, keeping every remaining element reachable.
        std::size_t probe = hole;
        for (;;) {
            probe = (probe + 1) & _mask;
            if (!_used[probe])
                break;
            const std::size_t home = bucketOf(_slots[probe].key);
            if (((probe - home) & _mask) >= ((probe - hole) & _mask)) {
                _slots[hole] = std::move(_slots[probe]);
                hole = probe;
            }
        }
        _used[hole] = 0;
        _slots[hole] = Slot{};
        --_size;
        return true;
    }

    void
    clear()
    {
        std::fill(_used.begin(), _used.end(), std::uint8_t{0});
        std::fill(_slots.begin(), _slots.end(), Slot{});
        _size = 0;
    }

    /** Grow (never shrink) so count entries fit without rehashing. */
    void
    reserve(std::size_t count)
    {
        const std::size_t needed = roundUpPow2(count + count / 4);
        if (needed > capacity())
            rehash(needed);
    }

    /** Invoke fn(key, value) for every entry, unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i <= _mask; ++i) {
            if (_used[i])
                fn(_slots[i].key, _slots[i].value);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i <= _mask; ++i) {
            if (_used[i])
                fn(_slots[i].key, _slots[i].value);
        }
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    struct Slot
    {
        Key key{};
        Value value{};
    };

    std::size_t bucketOf(const Key &key) const { return _hash(key) & _mask; }

    /** Slot index holding key, or kNotFound. */
    std::size_t
    indexOf(const Key &key) const
    {
        std::size_t idx = bucketOf(key);
        while (_used[idx]) {
            if (_slots[idx].key == key)
                return idx;
            idx = (idx + 1) & _mask;
        }
        return kNotFound;
    }

    /** First free slot of key's probe chain; marks it used. */
    std::size_t
    insertSlot(const Key &key)
    {
        std::size_t idx = bucketOf(key);
        while (_used[idx])
            idx = (idx + 1) & _mask;
        _used[idx] = 1;
        _slots[idx].key = key;
        ++_size;
        return idx;
    }

    void
    maybeGrow()
    {
        // Grow at 7/8 load: linear probing degrades sharply past that.
        if ((_size + 1) * 8 > capacity() * 7)
            rehash(capacity() * 2);
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old_slots = std::move(_slots);
        std::vector<std::uint8_t> old_used = std::move(_used);
        _slots.assign(new_capacity, Slot{});
        _used.assign(new_capacity, 0);
        _mask = new_capacity - 1;
        _size = 0;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (!old_used[i])
                continue;
            const std::size_t idx = insertSlot(old_slots[i].key);
            _slots[idx].value = std::move(old_slots[i].value);
        }
    }

    std::vector<Slot> _slots;
    std::vector<std::uint8_t> _used;
    std::size_t _mask = 0;
    std::size_t _size = 0;
    Hash _hash;
};

} // namespace hq

#endif // HQ_COMMON_FLAT_MAP_H
