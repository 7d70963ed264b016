/**
 * @file
 * Ordered map over contiguous sorted leaves: the one table structure
 * behind every policy's per-address (or per-id) state.
 *
 * The pointer-integrity and memory-safety verifiers need point lookups
 * on every message (POINTER-DEFINE/CHECK, ALLOCATION-CHECK) and range
 * queries on the rarer block operations (memcpy/realloc/free move or
 * invalidate every pointer inside [base, base + size); an access check
 * looks for the allocation whose interval contains an address). A hash
 * table answers the first in O(1) but the second only by scanning the
 * whole table; a node-based std::map answers both in O(log n) but pays
 * a heap allocation and a pointer chase per entry. The tables that take
 * only point lookups today (IFC labels, DFI last writers, event
 * counters) use this map too, so every policy keeps its state in one
 * structure and any of them can grow a range operation.
 *
 * This map keeps entries sorted in fixed-size leaves of LeafCapacity
 * keys and values (keys in one array, so an in-leaf search walks
 * adjacent cache lines). A dense index holds each leaf's lowest key and
 * its address, in key order; a lookup is a binary search over the index,
 * then a linear scan of one leaf. Memory is allocated per leaf, never
 * per entry, and copying the map deep-copies its leaves.
 *
 * Design points:
 *  - a full leaf splits in half; a leaf that empties is freed, and a
 *    leaf that an erase leaves small merges with a neighbour when both
 *    fit in half a leaf, so occupancy cannot decay under churn;
 *  - range bounds are inclusive ([first, last]), so a range ending at
 *    the top of the key space needs no one-past-the-end key;
 *  - values are returned by copy from lowerBound()/floor(); find()
 *    returns a pointer that is invalidated by the next insert or erase;
 *  - const operations write nothing, so any number of threads may read
 *    one map while no thread modifies it.
 */

#ifndef HQ_COMMON_ORDERED_MAP_H
#define HQ_COMMON_ORDERED_MAP_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace hq {

template <typename Key, typename Value, std::size_t LeafCapacity = 32>
class OrderedMap
{
    static_assert(LeafCapacity >= 4 && LeafCapacity % 2 == 0,
                  "leaves split in half and merge below half");

  public:
    /** One key/value pair, returned by copy. */
    struct Entry
    {
        Key key;
        Value value;
    };

    OrderedMap() = default;
    OrderedMap(OrderedMap &&) noexcept = default;
    OrderedMap &operator=(OrderedMap &&) noexcept = default;

    OrderedMap(const OrderedMap &other) : _size(other._size)
    {
        _index.reserve(other._index.size());
        for (const IndexEntry &entry : other._index)
            _index.push_back(
                {entry.low, std::make_unique<Leaf>(*entry.leaf)});
    }

    OrderedMap &
    operator=(const OrderedMap &other)
    {
        if (this != &other)
            *this = OrderedMap(other);
        return *this;
    }

    std::size_t size() const { return _size; }

    /** Pointer to the mapped value, or nullptr when absent. */
    const Value *
    find(const Key &key) const
    {
        if (_size == 0)
            return nullptr;
        const Leaf &leaf = *_index[leafFor(key)].leaf;
        const std::size_t pos = lowerPos(leaf, key);
        return pos < leaf.count && !(key < leaf.keys[pos])
                   ? &leaf.values[pos]
                   : nullptr;
    }

    /** Insert or overwrite; @return true when the key was newly added. */
    bool
    insertOrAssign(const Key &key, Value value)
    {
        if (_size == 0) {
            _index.push_back({key, std::make_unique<Leaf>()});
            Leaf &leaf = *_index.back().leaf;
            leaf.keys[0] = key;
            leaf.values[0] = std::move(value);
            leaf.count = 1;
            _size = 1;
            return true;
        }
        std::size_t index = leafFor(key);
        Leaf *leaf = _index[index].leaf.get();
        std::size_t pos = lowerPos(*leaf, key);
        if (pos < leaf->count && !(key < leaf->keys[pos])) {
            leaf->values[pos] = std::move(value);
            return false;
        }
        if (leaf->count == LeafCapacity) {
            split(index);
            if (pos > kHalf) {
                ++index;
                pos -= kHalf;
                leaf = _index[index].leaf.get();
            }
        }
        for (std::size_t i = leaf->count; i > pos; --i) {
            leaf->keys[i] = std::move(leaf->keys[i - 1]);
            leaf->values[i] = std::move(leaf->values[i - 1]);
        }
        leaf->keys[pos] = key;
        leaf->values[pos] = std::move(value);
        ++leaf->count;
        if (pos == 0)
            _index[index].low = key;
        ++_size;
        return true;
    }

    /** Remove key. @return true when an entry was erased. */
    bool
    erase(const Key &key)
    {
        if (_size == 0)
            return false;
        const std::size_t index = leafFor(key);
        Leaf &leaf = *_index[index].leaf;
        const std::size_t pos = lowerPos(leaf, key);
        if (pos == leaf.count || key < leaf.keys[pos])
            return false;
        removeRun(leaf, pos, pos + 1);
        --_size;
        if (leaf.count == 0) {
            _index.erase(_index.begin() + index); // frees the leaf
            return true;
        }
        if (pos == 0)
            _index[index].low = leaf.keys[0];
        mergeAround(index);
        return true;
    }

    /**
     * Remove every key in [first, last] (inclusive; nothing when
     * last < first). Touches only the leaves that overlap the range.
     * @return the number of entries erased.
     */
    std::size_t
    eraseRange(const Key &first, const Key &last)
    {
        if (_size == 0 || last < first)
            return 0;
        const std::size_t start = leafFor(first);
        std::size_t end = start;
        std::size_t erased = 0;
        while (end < _index.size() && !(last < _index[end].low)) {
            Leaf &leaf = *_index[end++].leaf;
            const std::size_t lo = lowerPos(leaf, first);
            std::size_t hi = lo;
            while (hi < leaf.count && !(last < leaf.keys[hi]))
                ++hi;
            const bool range_ends_here = hi < leaf.count;
            removeRun(leaf, lo, hi);
            erased += hi - lo;
            if (range_ends_here)
                break;
        }
        _size -= erased;
        // Every leaf strictly inside the range emptied; at most the two
        // boundary leaves keep entries. Move those to the front of the
        // touched span, then free the emptied rest in one erase.
        std::size_t kept = start;
        for (std::size_t i = start; i < end; ++i) {
            if (_index[i].leaf->count == 0)
                continue;
            std::swap(_index[kept], _index[i]);
            _index[kept].low = _index[kept].leaf->keys[0];
            ++kept;
        }
        _index.erase(_index.begin() + kept, _index.begin() + end);
        if (start < _index.size())
            mergeAround(start);
        return erased;
    }

    /** First entry whose key is >= key, if any. */
    std::optional<Entry>
    lowerBound(const Key &key) const
    {
        if (_size == 0)
            return std::nullopt;
        std::size_t index = leafFor(key);
        std::size_t pos = lowerPos(*_index[index].leaf, key);
        if (pos == _index[index].leaf->count) {
            if (++index == _index.size())
                return std::nullopt;
            pos = 0;
        }
        const Leaf &leaf = *_index[index].leaf;
        return Entry{leaf.keys[pos], leaf.values[pos]};
    }

    /** Last entry whose key is <= key, if any. */
    std::optional<Entry>
    floor(const Key &key) const
    {
        if (_size == 0)
            return std::nullopt;
        const Leaf &leaf = *_index[leafFor(key)].leaf;
        const std::size_t pos = lowerPos(leaf, key);
        if (pos < leaf.count && !(key < leaf.keys[pos]))
            return Entry{leaf.keys[pos], leaf.values[pos]};
        // leafFor() picks the last leaf whose lowest key is <= key, so
        // pos is 0 here only when key precedes every entry.
        if (pos == 0)
            return std::nullopt;
        return Entry{leaf.keys[pos - 1], leaf.values[pos - 1]};
    }

    /**
     * Invoke fn(key, value) for every key in [first, last] (inclusive),
     * in ascending key order. fn must not modify the map.
     */
    template <typename Fn>
    void
    forRange(const Key &first, const Key &last, Fn &&fn) const
    {
        if (_size == 0 || last < first)
            return;
        for (std::size_t i = leafFor(first); i < _index.size(); ++i) {
            const Leaf &leaf = *_index[i].leaf;
            for (std::size_t pos = lowerPos(leaf, first); pos < leaf.count;
                 ++pos) {
                if (last < leaf.keys[pos])
                    return;
                fn(leaf.keys[pos], leaf.values[pos]);
            }
        }
    }

  private:
    static constexpr std::size_t kHalf = LeafCapacity / 2;

    struct Leaf
    {
        std::size_t count = 0;
        Key keys[LeafCapacity]{};
        Value values[LeafCapacity]{};
    };

    /** One leaf in key order; low caches the leaf's first key so the
     *  binary search never leaves the index. */
    struct IndexEntry
    {
        Key low;
        std::unique_ptr<Leaf> leaf;
    };

    /** Position in _index of the last leaf whose lowest key is <= key,
     *  or 0 when key precedes every leaf. Requires a non-empty map. A
     *  binary search that halves the candidate span without branching
     *  on the comparison; a one-leaf map skips the loop. */
    std::size_t
    leafFor(const Key &key) const
    {
        const IndexEntry *base = _index.data();
        std::size_t n = _index.size();
        while (n > 1) {
            const std::size_t half = n / 2;
            if (!(key < base[half].low))
                base += half;
            n -= half;
        }
        return static_cast<std::size_t>(base - _index.data());
    }

    /** Position of the first key in leaf that is >= key: a forward
     *  scan that strides four keys at a time, then steps one. */
    static std::size_t
    lowerPos(const Leaf &leaf, const Key &key)
    {
        const std::size_t count = leaf.count;
        std::size_t pos = 0;
        while (pos + 4 <= count && leaf.keys[pos + 3] < key)
            pos += 4;
        while (pos < count && leaf.keys[pos] < key)
            ++pos;
        return pos;
    }

    /** Drop the entries at positions [lo, hi) of leaf. */
    static void
    removeRun(Leaf &leaf, std::size_t lo, std::size_t hi)
    {
        for (std::size_t from = hi; from < leaf.count; ++from, ++lo) {
            leaf.keys[lo] = std::move(leaf.keys[from]);
            leaf.values[lo] = std::move(leaf.values[from]);
        }
        leaf.count = lo;
    }

    /** Move the upper half of the full leaf at index into a new leaf
     *  placed right after it. */
    void
    split(std::size_t index)
    {
        auto right = std::make_unique<Leaf>();
        Leaf &left = *_index[index].leaf;
        std::move(left.keys + kHalf, left.keys + LeafCapacity, right->keys);
        std::move(left.values + kHalf, left.values + LeafCapacity,
                  right->values);
        left.count = kHalf;
        right->count = LeafCapacity - kHalf;
        const Key low = right->keys[0];
        _index.insert(_index.begin() + index + 1, {low, std::move(right)});
    }

    /** Fold the leaf at index into a neighbour when the two together
     *  fill at most half a leaf. */
    void
    mergeAround(std::size_t index)
    {
        const std::size_t count = _index[index].leaf->count;
        if (index + 1 < _index.size() &&
            count + _index[index + 1].leaf->count <= kHalf) {
            mergeInto(index);
        } else if (index > 0 &&
                   _index[index - 1].leaf->count + count <= kHalf) {
            mergeInto(index - 1);
        }
    }

    /** Append the leaf at index + 1 to the leaf at index, freeing it. */
    void
    mergeInto(std::size_t index)
    {
        Leaf &left = *_index[index].leaf;
        const Leaf &right = *_index[index + 1].leaf;
        std::move(right.keys, right.keys + right.count,
                  left.keys + left.count);
        std::move(right.values, right.values + right.count,
                  left.values + left.count);
        left.count += right.count;
        _index.erase(_index.begin() + index + 1);
    }

    std::vector<IndexEntry> _index; //!< leaves in key order
    std::size_t _size = 0;
};

} // namespace hq

#endif // HQ_COMMON_ORDERED_MAP_H
