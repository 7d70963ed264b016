#include "telemetry/health.h"

#include <algorithm>
#include <string>

#include "common/log.h"
#include "telemetry/events.h"

namespace hq {
namespace telemetry {

const char *
healthStateName(HealthState state)
{
    switch (state) {
      case HealthState::Ok:
        return "ok";
      case HealthState::Degraded:
        return "degraded";
      case HealthState::Stalled:
        return "stalled";
    }
    return "unknown";
}

HealthMonitor::HealthMonitor(std::size_t num_shards, HealthConfig config,
                             Sampler sampler)
    : _config(config), _sampler(std::move(sampler))
{
    _config.degraded_after = std::max(1, _config.degraded_after);
    _config.stalled_after =
        std::max(_config.degraded_after, _config.stalled_after);
    Registry &registry = Registry::instance();
    _shards.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
        auto shard = std::make_unique<ShardHealth>();
        const std::string prefix =
            "verifier.shard" + std::to_string(i) + ".";
        shard->health = &registry.gauge(prefix + "health");
        shard->heartbeat = &registry.gauge(prefix + "heartbeat");
        shard->queue_depth = &registry.gauge(prefix + "queue_depth");
        shard->ack_age = &registry.gauge(prefix + "ack_age_ns");
        _shards.push_back(std::move(shard));
    }
}

HealthMonitor::~HealthMonitor()
{
    stop();
}

void
HealthMonitor::start()
{
    bool expected = false;
    if (!_running.compare_exchange_strong(expected, true))
        return;
    _thread = std::thread([this] {
        while (_running.load(std::memory_order_relaxed)) {
            sampleOnce();
            // Sleep in small slices so stop() is prompt even with a
            // long sampling interval (same pattern as StatsPublisher).
            auto remaining = _config.interval;
            while (remaining.count() > 0 &&
                   _running.load(std::memory_order_relaxed)) {
                const auto slice =
                    std::min(remaining, std::chrono::milliseconds(25));
                std::this_thread::sleep_for(slice);
                remaining -= slice;
            }
        }
    });
}

void
HealthMonitor::stop()
{
    if (!_running.exchange(false)) {
        if (_thread.joinable())
            _thread.join();
        return;
    }
    if (_thread.joinable())
        _thread.join();
}

void
HealthMonitor::sampleOnce()
{
    std::lock_guard<std::mutex> guard(_sample_mutex);
    for (std::size_t i = 0; i < _shards.size(); ++i)
        sampleShard(i);
}

HealthState
HealthMonitor::state(std::size_t shard) const
{
    if (shard >= _shards.size())
        return HealthState::Ok;
    return static_cast<HealthState>(
        _shards[shard]->state.load(std::memory_order_relaxed));
}

void
HealthMonitor::sampleShard(std::size_t index)
{
    ShardHealth &shard = *_shards[index];
    const ShardHealthSample sample = _sampler(index);

    // Progress = the drain loop ran since the last sample. The first
    // sample only establishes the baseline; it can never count against
    // the shard.
    const bool progress =
        !shard.seen || sample.heartbeat != shard.last_heartbeat;
    shard.seen = true;
    shard.last_heartbeat = sample.heartbeat;

    // An idle shard (no backlog) is healthy no matter how long its
    // heartbeat sits still — stalling requires undrained work.
    if (progress || sample.queue_depth == 0)
        shard.bad_samples = 0;
    else
        ++shard.bad_samples;

    HealthState next = HealthState::Ok;
    if (shard.bad_samples >= _config.stalled_after)
        next = HealthState::Stalled;
    else if (shard.bad_samples >= _config.degraded_after)
        next = HealthState::Degraded;

    shard.health->set(static_cast<std::uint64_t>(next));
    shard.heartbeat->set(sample.heartbeat);
    shard.queue_depth->set(sample.queue_depth); // Gauge::max = high water
    shard.ack_age->set(sample.ack_age_ns);

    const auto current = static_cast<HealthState>(
        shard.state.load(std::memory_order_relaxed));
    if (next != current) {
        shard.state.store(static_cast<int>(next),
                          std::memory_order_relaxed);
        publishTransition(index, current, next, sample);
    }
}

void
HealthMonitor::publishTransition(std::size_t index, HealthState from,
                                 HealthState to,
                                 const ShardHealthSample &sample)
{
    _transitions.fetch_add(1, std::memory_order_relaxed);

    const std::string reason =
        std::string(healthStateName(from)) + " -> " +
        healthStateName(to) +
        (to == HealthState::Ok
             ? " (drain progress resumed)"
             : " (no drain progress, backlog " +
                   std::to_string(sample.queue_depth) + ")");

    emit(to == HealthState::Stalled ? Event::ShardStalled
                                     : Event::HealthChange,
         {.shard = static_cast<std::int32_t>(index),
          .op = healthStateName(to),
          .arg0 = static_cast<std::uint64_t>(from),
          .arg1 = static_cast<std::uint64_t>(to),
          .reason = reason});
    if (to == HealthState::Stalled) {
        // A stalled shard is the flight recorder's marquee trigger: its
        // table row forces the dump (not rate-limited) so the pre-stall
        // records are preserved even if a fault storm already dumped.
        logWarn("health: shard ", index, " STALLED (", reason, ")");
    } else {
        logInfo("health: shard ", index, " ", reason);
    }
}

} // namespace telemetry
} // namespace hq
