#include "faultinject/fault.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/log.h"
#include "ipc/message.h"
#include "telemetry/events.h"

namespace hq {
namespace faultinject {

namespace detail {
std::atomic<bool> g_armed{false};
} // namespace detail

namespace {

struct SiteInfo
{
    const char *name;
    bool latency_only;
};

constexpr SiteInfo kSiteInfo[] = {
    {"ring_drop", false},
    {"ring_dup", false},
    {"ring_corrupt", false},
    {"ring_stall", false},
    {"transport_error", false},
    {"transport_delay", true},
    {"afu_overflow", false},
    {"afu_doorbell_delay", true},
    {"kernel_lost_notify", false},
    {"kernel_spurious_wake", true},
    {"kernel_epoch_delay", true},
    {"verifier_crash", false},
    {"verifier_slow_poll", true},
    {"frame_corrupt", false},
    // Latency-only: a wedged shard delays validation but loses nothing;
    // the kernel's epoch timeout (and the health watchdog) catch it.
    {"verifier_shard_stall", true},
};
static_assert(std::size(kSiteInfo) == static_cast<std::size_t>(kNumSites),
              "every fault Site needs a kSiteInfo row");

// splitmix64: seeds the per-site xorshift64 streams (src/common/rng.h
// uses the same finalizer for xoshiro seeding).
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
xorshift64(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

// rate in [0,1] -> 64-bit fixed-point threshold; UINT64_MAX == always.
std::uint64_t
rateToThreshold(double rate)
{
    if (rate <= 0.0)
        return 0;
    if (rate >= 1.0)
        return UINT64_MAX;
    const double scaled = rate * 18446744073709551616.0; // 2^64
    const auto threshold = static_cast<std::uint64_t>(scaled);
    return threshold == 0 ? 1 : threshold;
}

int
siteIndex(Site site)
{
    return static_cast<int>(site);
}

} // namespace

const char *
siteName(Site site)
{
    const int index = siteIndex(site);
    if (index < 0 || index >= kNumSites)
        return "unknown";
    return kSiteInfo[index].name;
}

bool
siteFromName(const std::string &name, Site &out)
{
    for (int i = 0; i < kNumSites; ++i) {
        if (name == kSiteInfo[i].name) {
            out = static_cast<Site>(i);
            return true;
        }
    }
    return false;
}

bool
siteIsLatencyOnly(Site site)
{
    const int index = siteIndex(site);
    return index >= 0 && index < kNumSites && kSiteInfo[index].latency_only;
}

FaultPlan &
FaultPlan::instance()
{
    static FaultPlan plan;
    return plan;
}

FaultPlan::FaultPlan()
{
    reseedSites();
}

void
FaultPlan::reseedSites()
{
    const std::uint64_t base = _seed.load(std::memory_order_relaxed);
    for (int i = 0; i < kNumSites; ++i) {
        std::uint64_t stream = base ^ (0x5157ull * (i + 1));
        std::uint64_t derived = splitmix64(stream);
        if (derived == 0)
            derived = 1; // xorshift64 must never hit the zero fixpoint
        _sites[i].rng.store(derived, std::memory_order_relaxed);
    }
    std::uint64_t shared = base ^ 0xC0FFEEull;
    std::uint64_t derived = splitmix64(shared);
    _shared_rng.store(derived == 0 ? 1 : derived, std::memory_order_relaxed);
}

void
FaultPlan::refreshArmed()
{
    bool any = false;
    for (int i = 0; i < kNumSites; ++i) {
        if (_sites[i].threshold.load(std::memory_order_relaxed) != 0) {
            any = true;
            break;
        }
    }
    detail::g_armed.store(any, std::memory_order_relaxed);
}

void
FaultPlan::reset()
{
    captureDetectorBaselines();
    detail::g_armed.store(false, std::memory_order_relaxed);
    for (int i = 0; i < kNumSites; ++i) {
        _sites[i].threshold.store(0, std::memory_order_relaxed);
        _sites[i].after_n.store(0, std::memory_order_relaxed);
        _sites[i].max_fires.store(0, std::memory_order_relaxed);
        _sites[i].eligible.store(0, std::memory_order_relaxed);
        _sites[i].injected.store(0, std::memory_order_relaxed);
    }
    _seed.store(kDefaultSeed, std::memory_order_relaxed);
    reseedSites();
}

void
FaultPlan::setSeed(std::uint64_t seed)
{
    _seed.store(seed, std::memory_order_relaxed);
    for (int i = 0; i < kNumSites; ++i) {
        _sites[i].eligible.store(0, std::memory_order_relaxed);
        _sites[i].injected.store(0, std::memory_order_relaxed);
    }
    reseedSites();
}

void
FaultPlan::arm(Site site, double rate, std::uint64_t after_n,
               std::uint64_t max_fires)
{
    const int index = siteIndex(site);
    if (index < 0 || index >= kNumSites)
        return;
    SiteState &state = _sites[index];
    // Resolve the per-site injection counter once, off the hot path.
    state.counter = &telemetry::Registry::instance().counter(
        std::string("fault.injected.") + kSiteInfo[index].name);
    state.after_n.store(after_n, std::memory_order_relaxed);
    state.max_fires.store(max_fires, std::memory_order_relaxed);
    state.threshold.store(rateToThreshold(rate), std::memory_order_relaxed);
    refreshArmed();
}

bool
FaultPlan::fire(Site site)
{
    const int index = siteIndex(site);
    if (index < 0 || index >= kNumSites)
        return false;
    SiteState &state = _sites[index];
    const std::uint64_t n =
        state.eligible.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t threshold =
        state.threshold.load(std::memory_order_relaxed);
    if (threshold == 0)
        return false;
    if (n <= state.after_n.load(std::memory_order_relaxed))
        return false;
    const std::uint64_t cap = state.max_fires.load(std::memory_order_relaxed);
    if (cap != 0 && state.injected.load(std::memory_order_relaxed) >= cap)
        return false;
    if (threshold != UINT64_MAX) {
        // Per-site xorshift64 stream; a relaxed RMW keeps concurrent
        // callers race-free (each draw is consumed exactly once, though
        // cross-thread interleaving order is scheduler-dependent).
        std::uint64_t draw;
        std::uint64_t expected = state.rng.load(std::memory_order_relaxed);
        do {
            draw = xorshift64(expected);
        } while (!state.rng.compare_exchange_weak(expected, draw,
                                                  std::memory_order_relaxed));
        if (draw >= threshold)
            return false;
    }
    const std::uint64_t fired =
        state.injected.fetch_add(1, std::memory_order_relaxed) + 1;
    auto *counter = static_cast<telemetry::Counter *>(state.counter);
    if (counter != nullptr && telemetry::enabled())
        counter->inc();
    // Every injection is recorded (and triggers a rate-limited dump): a
    // chaos run's dumps show what the pipeline did around each fault,
    // which the audit counters alone cannot reconstruct.
    telemetry::emit(telemetry::Event::FaultInjected,
                    {.arg0 = static_cast<std::uint64_t>(index),
                     .arg1 = fired});
    return true;
}

std::uint64_t
FaultPlan::injected(Site site) const
{
    const int index = siteIndex(site);
    if (index < 0 || index >= kNumSites)
        return 0;
    return _sites[index].injected.load(std::memory_order_relaxed);
}

std::uint64_t
FaultPlan::eligible(Site site) const
{
    const int index = siteIndex(site);
    if (index < 0 || index >= kNumSites)
        return 0;
    return _sites[index].eligible.load(std::memory_order_relaxed);
}

void
FaultPlan::addCounts(Site site, std::uint64_t injected,
                     std::uint64_t eligible)
{
    const int index = siteIndex(site);
    if (index < 0 || index >= kNumSites)
        return;
    _sites[index].injected.fetch_add(injected, std::memory_order_relaxed);
    _sites[index].eligible.fetch_add(eligible, std::memory_order_relaxed);
}

std::uint64_t
FaultPlan::randomBits()
{
    std::uint64_t draw;
    std::uint64_t expected = _shared_rng.load(std::memory_order_relaxed);
    do {
        draw = xorshift64(expected);
    } while (!_shared_rng.compare_exchange_weak(expected, draw,
                                                std::memory_order_relaxed));
    return draw;
}

Status
FaultPlan::configure(const std::string &spec)
{
    reset();
    if (spec.empty())
        return Status::ok();

    std::vector<std::string> entries;
    std::string token;
    std::istringstream stream(spec);
    while (std::getline(stream, token, ','))
        entries.push_back(token);

    for (const std::string &entry : entries) {
        if (entry.empty())
            continue;
        if (entry.rfind("seed=", 0) == 0) {
            char *end = nullptr;
            const std::uint64_t seed =
                std::strtoull(entry.c_str() + 5, &end, 0);
            if (end == nullptr || *end != '\0') {
                reset();
                return Status::error(StatusCode::InvalidArgument,
                                     "fault-spec: bad seed in '" + entry +
                                         "'");
            }
            setSeed(seed);
            continue;
        }
        // site:rate[:after_n[:max_fires]]
        std::vector<std::string> fields;
        std::string field;
        std::istringstream parts(entry);
        while (std::getline(parts, field, ':'))
            fields.push_back(field);
        if (fields.size() < 2 || fields.size() > 4) {
            reset();
            return Status::error(StatusCode::InvalidArgument,
                                 "fault-spec: expected site:rate[:after_n"
                                 "[:max_fires]] in '" +
                                     entry + "'");
        }
        Site site;
        if (!siteFromName(fields[0], site)) {
            reset();
            return Status::error(StatusCode::InvalidArgument,
                                 "fault-spec: unknown site '" + fields[0] +
                                     "'");
        }
        char *end = nullptr;
        const double rate = std::strtod(fields[1].c_str(), &end);
        if (end == nullptr || *end != '\0' || rate < 0.0 || rate > 1.0) {
            reset();
            return Status::error(StatusCode::InvalidArgument,
                                 "fault-spec: rate must be in [0,1] in '" +
                                     entry + "'");
        }
        std::uint64_t after_n = 0;
        std::uint64_t max_fires = 0;
        if (fields.size() >= 3) {
            after_n = std::strtoull(fields[2].c_str(), &end, 0);
            if (end == nullptr || *end != '\0') {
                reset();
                return Status::error(StatusCode::InvalidArgument,
                                     "fault-spec: bad after_n in '" + entry +
                                         "'");
            }
        }
        if (fields.size() == 4) {
            max_fires = std::strtoull(fields[3].c_str(), &end, 0);
            if (end == nullptr || *end != '\0') {
                reset();
                return Status::error(StatusCode::InvalidArgument,
                                     "fault-spec: bad max_fires in '" +
                                         entry + "'");
            }
        }
        arm(site, rate, after_n, max_fires);
    }
    return Status::ok();
}

std::string
FaultPlan::describe() const
{
    std::ostringstream out;
    out << "seed=" << _seed.load(std::memory_order_relaxed);
    for (int i = 0; i < kNumSites; ++i) {
        const std::uint64_t threshold =
            _sites[i].threshold.load(std::memory_order_relaxed);
        if (threshold == 0)
            continue;
        const double rate =
            threshold == UINT64_MAX
                ? 1.0
                : static_cast<double>(threshold) / 18446744073709551616.0;
        out << ' ' << kSiteInfo[i].name << ":" << rate;
        const std::uint64_t after =
            _sites[i].after_n.load(std::memory_order_relaxed);
        const std::uint64_t cap =
            _sites[i].max_fires.load(std::memory_order_relaxed);
        if (after != 0 || cap != 0)
            out << ":" << after;
        if (cap != 0)
            out << ":" << cap;
    }
    return out.str();
}

void
corrupt(Message &message)
{
    corruptBytes(&message, sizeof(Message));
}

void
corruptBytes(void *data, std::size_t len)
{
    if (len == 0)
        return;
    const std::uint64_t r = FaultPlan::instance().randomBits();
    auto *bytes = static_cast<unsigned char *>(data);
    const std::size_t byte = (r >> 8) % len;
    bytes[byte] ^= static_cast<unsigned char>(1u << (r & 7));
}

Status
configureFromSpec(const std::string &spec)
{
    return FaultPlan::instance().configure(spec);
}

void
disarmAll()
{
    FaultPlan::instance().reset();
}

void
handleArgs(int &argc, char **argv)
{
    static const std::string kFlag = "--fault-spec=";
    std::string spec;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(kFlag, 0) == 0) {
            spec = arg.substr(kFlag.size());
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    if (spec.empty()) {
        const char *env = std::getenv("HQ_FAULT_SPEC");
        if (env != nullptr)
            spec = env;
    }
    if (spec.empty())
        return;
    const Status status = configureFromSpec(spec);
    if (!status.isOk()) {
        // A chaos run must never silently degrade into a fault-free run.
        std::fprintf(stderr, "faultinject: %s\n",
                     status.toString().c_str());
        std::exit(2);
    }
    std::fprintf(stderr, "faultinject: armed [%s]\n",
                 FaultPlan::instance().describe().c_str());
}

namespace {

std::uint64_t
counterValue(const char *name)
{
    return telemetry::Registry::instance().counter(name).value();
}

// Registry counters are cumulative for the process lifetime, but the
// audit must judge only the current fault run: reset()/configure()
// snapshot every detector counter and emitAuditRecords() compares
// deltas against that baseline.
constexpr const char *kDetectorCounters[] = {
    "verifier.violations", "kernel.epoch_timeouts", "fpga.dropped",
    "ipc.ring_push_fail",  "ipc.send_errors",       "ipc.send_retries",
};
constexpr std::size_t kNumDetectorCounters =
    sizeof(kDetectorCounters) / sizeof(kDetectorCounters[0]);

std::mutex g_baseline_mutex;
std::uint64_t g_detector_baseline[kNumDetectorCounters] = {};

std::uint64_t
detectorBaseline(const char *name)
{
    std::lock_guard<std::mutex> guard(g_baseline_mutex);
    for (std::size_t i = 0; i < kNumDetectorCounters; ++i) {
        if (std::strcmp(kDetectorCounters[i], name) == 0)
            return g_detector_baseline[i];
    }
    return 0;
}

} // namespace

void
captureDetectorBaselines()
{
    std::lock_guard<std::mutex> guard(g_baseline_mutex);
    for (std::size_t i = 0; i < kNumDetectorCounters; ++i)
        g_detector_baseline[i] = counterValue(kDetectorCounters[i]);
}

int
emitAuditRecords()
{
    // Fault class -> counters that prove the loss was detected or
    // safely denied (the fail-closed matrix in docs/fault_injection.md).
    struct Detector
    {
        Site site;
        const char *counters[4];
    };
    static const Detector kDetectors[] = {
        {Site::RingDrop,
         {"verifier.violations", "kernel.epoch_timeouts", nullptr}},
        {Site::RingDup,
         {"verifier.violations", "kernel.epoch_timeouts", nullptr}},
        {Site::RingCorrupt,
         {"verifier.violations", "kernel.epoch_timeouts", nullptr}},
        {Site::RingStall,
         {"ipc.ring_push_fail", "ipc.send_errors", nullptr}},
        {Site::TransportError,
         {"ipc.send_retries", "ipc.send_errors", nullptr}},
        {Site::AfuOverflow,
         {"fpga.dropped", "verifier.violations", nullptr}},
        {Site::KernelLostNotify, {"kernel.epoch_timeouts", nullptr}},
        {Site::VerifierCrash,
         {"kernel.epoch_timeouts", "verifier.violations", nullptr}},
        {Site::FrameCorrupt,
         {"verifier.violations", "kernel.epoch_timeouts", nullptr}},
    };

    FaultPlan &plan = FaultPlan::instance();
    int silent = 0;
    for (const Detector &detector : kDetectors) {
        const std::uint64_t injected = plan.injected(detector.site);
        if (injected == 0)
            continue;
        bool caught = false;
        std::string tried;
        for (const char *const *name = detector.counters; *name != nullptr;
             ++name) {
            if (!tried.empty())
                tried += "|";
            tried += *name;
            if (counterValue(*name) > detectorBaseline(*name)) {
                caught = true;
                break;
            }
        }
        if (caught)
            continue;
        ++silent;
        logWarn("faultinject: SILENT ACCEPT: ", injected, " ",
                siteName(detector.site),
                " fault(s) injected but no detector fired (", tried, ")");
        telemetry::emit(telemetry::Event::SilentAccept,
                        {.arg0 = injected,
                         .reason = std::string(siteName(detector.site)) +
                                   ": no detector fired (" + tried + ")"});
    }
    return silent;
}

std::string
exportCrossProcessReport()
{
    FaultPlan &plan = FaultPlan::instance();
    std::string out = "hq-fault-report 1\n";
    for (int i = 0; i < kNumSites; ++i) {
        const Site site = static_cast<Site>(i);
        const std::uint64_t injected = plan.injected(site);
        const std::uint64_t eligible = plan.eligible(site);
        if (injected == 0 && eligible == 0)
            continue;
        out += "inj ";
        out += siteName(site);
        out += ' ';
        out += std::to_string(injected);
        out += ' ';
        out += std::to_string(eligible);
        out += '\n';
    }
    for (std::size_t i = 0; i < kNumDetectorCounters; ++i) {
        const std::uint64_t value = counterValue(kDetectorCounters[i]);
        const std::uint64_t base = detectorBaseline(kDetectorCounters[i]);
        if (value <= base)
            continue;
        out += "det ";
        out += kDetectorCounters[i];
        out += ' ';
        out += std::to_string(value - base);
        out += '\n';
    }
    out += "end\n";
    return out;
}

bool
absorbCrossProcessReport(const std::string &report)
{
    std::istringstream in(report);
    std::string line;
    if (!std::getline(in, line) || line != "hq-fault-report 1")
        return false;
    bool saw_end = false;
    while (std::getline(in, line)) {
        if (line == "end") {
            saw_end = true;
            break;
        }
        std::istringstream fields(line);
        std::string tag, name;
        if (!(fields >> tag >> name))
            return false;
        if (tag == "inj") {
            std::uint64_t injected = 0;
            std::uint64_t eligible = 0;
            Site site;
            if (!(fields >> injected >> eligible) ||
                !siteFromName(name, site))
                return false;
            FaultPlan::instance().addCounts(site, injected, eligible);
        } else if (tag == "det") {
            std::uint64_t delta = 0;
            if (!(fields >> delta))
                return false;
            telemetry::Registry::instance().counter(name).add(delta);
        } else {
            return false;
        }
    }
    return saw_end;
}

} // namespace faultinject
} // namespace hq
