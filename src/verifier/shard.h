/**
 * @file
 * Pid -> shard assignment for the sharded verifier (and the kernel
 * module's bucketed process table).
 *
 * The paper's verifier is a single polling loop; its key structural
 * property — per-process policy state is independent, and verification
 * is asynchronous anyway — is exactly what makes sharding by pid safe.
 * Every monitored pid is assigned to one of N shards by a deterministic
 * hash at process start, and everything that pid touches (its
 * AppendWrite channels, its policy context and its tables, its lag
 * envelopes, its per-shard metrics) lives on that shard. The hot path
 * therefore never crosses shards: cross-shard coordination happens only
 * at process start/exit and during crash-recovery replay, through the
 * small registry below.
 *
 * The assignment is a pure hash (splitmix64 finalizer of the pid), so
 * it is *consistent*: the same pid always lands on the same shard for a
 * given shard count, across start/exit churn and across a verifier
 * restart — a replayed process rebuilds on the shard that its still-
 * attached channels already live on.
 */

#ifndef HQ_VERIFIER_SHARD_H
#define HQ_VERIFIER_SHARD_H

#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace hq {

/**
 * Deterministic pid -> shard index in [0, num_shards). splitmix64's
 * finalizer mixes the pid so consecutive pids (fork storms allocate
 * them densely) spread across shards instead of striding.
 */
inline std::size_t
shardIndexFor(Pid pid, std::size_t num_shards)
{
    if (num_shards <= 1)
        return 0;
    std::uint64_t z = static_cast<std::uint64_t>(pid) +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<std::size_t>(z % num_shards);
}

/**
 * Registry of live pid -> shard assignments. The mapping itself is the
 * pure hash above — the registry records which pids are currently live
 * (and how many per shard) so lifecycle paths (kill-on-exit sweeps,
 * crash-recovery replay, load introspection) can reason about shard
 * population without touching any shard's hot-path state.
 *
 * All methods are thread-safe; none are on the per-message path.
 */
class ShardRegistry
{
  public:
    explicit ShardRegistry(std::size_t num_shards);

    std::size_t numShards() const { return _num_shards; }

    /**
     * Record pid as live and return its shard (process start).
     * Idempotent: re-assigning a live pid returns the same shard.
     */
    std::size_t assign(Pid pid);

    /** Shard owning pid. Pure hash: valid whether or not pid is live. */
    std::size_t
    shardOf(Pid pid) const
    {
        return shardIndexFor(pid, _num_shards);
    }

    /** Forget pid (process exit). @return true when pid was live. */
    bool release(Pid pid);

    bool isLive(Pid pid) const;

    /** Number of live pids assigned to `shard`. */
    std::size_t liveOn(std::size_t shard) const;

    /** Total live pids across all shards. */
    std::size_t liveCount() const;

  private:
    const std::size_t _num_shards;
    mutable std::mutex _mutex;
    std::unordered_set<Pid> _live; //!< live pids (shard: shardOf())
    std::vector<std::size_t> _per_shard;
};

} // namespace hq

#endif // HQ_VERIFIER_SHARD_H
