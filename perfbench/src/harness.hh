/**
 * @file
 * Shared plumbing of hifi_perfbench: command line, timing
 * and quantiles, the output ledger that checks every unit against its
 * pinned or first-seen result, and the metric tables and JSON result
 * line the program prints.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start);
double secondsSince(Clock::time_point start);

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/// Units per minute over the median span of `span` consecutive
/// completions.  `doneS` holds completion times in seconds from the
/// window start, which counts as completion zero.  A burst of host
/// noise then moves only the spans it falls in, not the rate.
double medianRatePerMin(std::vector<double> doneS, size_t span);

/// The workload seed whose unit outputs pins.txt pins.
constexpr uint64_t kDefaultSeed = 1;

/// Seed of one unit config: a SplitMix64 step over (seed, salt).
uint64_t deriveSeed(uint64_t seed, uint64_t salt);

/// CPUs this process may run on (what `nproc` prints).
size_t availableCpus();

/// User + system CPU seconds this process has used so far.
double processCpuSeconds();

/** Machine-wide CPU time counters from /proc/stat, in ticks. */
struct MachineCpu
{
    double busy = 0.0;  ///< every non-idle state, steal included
    double steal = 0.0; ///< taken by the hypervisor from this VM
};

/// Current counters; zeros where /proc/stat is unavailable.
MachineCpu readMachineCpu();

/// Share of the CPU time this machine wanted between two readings
/// that the hypervisor gave to other guests (0 when none).
double stealShare(const MachineCpu &from, const MachineCpu &to);

/** Command line of hifi_perfbench. */
struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;

    /// pins.txt; at the default seed every unit config needs a pin.
    std::string pinsPath;

    /// Print the observed unit outputs in pins.txt format and skip
    /// the pin comparison (used to re-pin after an intended change).
    bool printPins = false;

    /// Source identity stamped on the result (run.py fills these).
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/// workload -> config -> pinned value, from a pins.txt file.
using Pins = std::map<std::string, std::map<std::string, std::string>>;

/// Parse a pins file; throws std::runtime_error when unreadable.
Pins loadPins(const std::string &path);

/**
 * Expected output of every unit config.  At the default seed the
 * expectation is the pinned value; at any other seed it is the first
 * value observed in this run, so repeats, traced and untraced runs,
 * and service jobs versus direct runs must all agree with it.
 */
class Ledger
{
  public:
    Ledger(std::map<std::string, std::string> pins, bool pinned);

    /// Record one unit's output; false (with a message on stderr)
    /// when it disagrees with the expectation.
    bool check(const std::string &config, const std::string &value);

    /// Units of `config` checked so far.
    size_t seen(const std::string &config) const;

    /// First observed value per config.
    const std::map<std::string, std::string> &
    observed() const
    {
        return first_;
    }

  private:
    std::map<std::string, std::string> pins_;
    bool pinned_ = false;
    std::map<std::string, std::string> first_;
    std::map<std::string, size_t> count_;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A metric's declaration, mirrored in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/// Metrics of an untraced run, in BENCHMARK.json order.
const std::vector<MetricSpec> &endToEndSpecs();

/// Metrics of a traced run, in BENCHMARK.json order.
const std::vector<MetricSpec> &perLayerSpecs();

/**
 * Values keyed by metric name: either one value per unit (reported
 * as their median) or one value for the whole run.
 */
class Samples
{
  public:
    /// One unit's value of `name`.
    void add(const std::string &name, double value);

    /// A run-level value of `name` (overrides per-unit values).
    void set(const std::string &name, double value);

    /// Run-level value, else the median of the unit values, else 0.
    double value(const std::string &name) const;

    /// Every spec with its value, in spec order.
    std::vector<Metric> metrics(const std::vector<MetricSpec> &specs) const;

  private:
    std::map<std::string, std::vector<double>> perUnit_;
    std::map<std::string, double> runLevel_;
};

/** The last line the program prints. */
struct RunResult
{
    bool correct = true;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<Metric> metrics;
};

std::string jsonEscape(const std::string &text);

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
std::string resultJson(const RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
