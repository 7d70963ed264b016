#include "verifier/shard.h"

namespace hq {

ShardRegistry::ShardRegistry(std::size_t num_shards)
    : _num_shards(num_shards == 0 ? 1 : num_shards),
      _per_shard(_num_shards, 0)
{
}

std::size_t
ShardRegistry::assign(Pid pid)
{
    const std::size_t shard = shardOf(pid);
    std::lock_guard<std::mutex> guard(_mutex);
    if (_live.insert(pid).second)
        ++_per_shard[shard];
    return shard;
}

bool
ShardRegistry::release(Pid pid)
{
    std::lock_guard<std::mutex> guard(_mutex);
    if (!_live.erase(pid))
        return false;
    --_per_shard[shardOf(pid)];
    return true;
}

bool
ShardRegistry::isLive(Pid pid) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _live.count(pid) != 0;
}

std::size_t
ShardRegistry::liveOn(std::size_t shard) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return shard < _num_shards ? _per_shard[shard] : 0;
}

std::size_t
ShardRegistry::liveCount() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _live.size();
}

} // namespace hq
