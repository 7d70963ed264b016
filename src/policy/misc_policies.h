/**
 * @file
 * Additional execution policies from §2 and §4.3: the reliable event
 * counter (the paper's motivating toy example) and a software watchdog.
 */

#ifndef HQ_POLICY_MISC_POLICIES_H
#define HQ_POLICY_MISC_POLICIES_H

#include <cstdint>

#include "common/ordered_map.h"
#include "policy/policy.h"

namespace hq {

/**
 * Reliable event counting (§2's toy example): the program sends
 * EVENT-COUNT(id, delta) before each counted event. Because messages are
 * append-only, a later compromise cannot retract earlier increments.
 */
class EventCountContext : public PolicyContext
{
  public:
    explicit EventCountContext(Pid pid) : _pid(pid) {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;
    std::size_t entryCount() const override { return _counters.size(); }

    /** Verified value of counter id (0 if never incremented). */
    std::uint64_t counter(std::uint64_t id) const;

  private:
    Pid _pid;
    OrderedMap<std::uint64_t, std::uint64_t> _counters;
};

class EventCountPolicy : public Policy
{
  public:
    const std::string &name() const override { return _name; }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return std::make_unique<EventCountContext>(pid);
    }

  private:
    std::string _name = "event-count";
};

/**
 * Software watchdog (§4.3): the program sends HEARTBEAT(tick) messages
 * carrying a monotonic tick; a regression or a gap larger than the
 * configured budget is reported as a violation on the next heartbeat.
 */
class WatchdogContext : public PolicyContext
{
  public:
    WatchdogContext(Pid pid, std::uint64_t max_gap)
        : _pid(pid), _max_gap(max_gap)
    {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;

    std::uint64_t lastTick() const { return _last_tick; }

  private:
    Pid _pid;
    std::uint64_t _max_gap;
    std::uint64_t _last_tick = 0;
    bool _seen_any = false;
};

class WatchdogPolicy : public Policy
{
  public:
    explicit WatchdogPolicy(std::uint64_t max_gap = 1000)
        : _max_gap(max_gap)
    {}

    const std::string &name() const override { return _name; }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return std::make_unique<WatchdogContext>(pid, _max_gap);
    }

  private:
    std::uint64_t _max_gap;
    std::string _name = "watchdog";
};

} // namespace hq

#endif // HQ_POLICY_MISC_POLICIES_H
