/**
 * @file
 * The benchmark's four workloads.  Each is a closed loop driven by the
 * benchmark thread: set up (with one untimed warm-up unit), run units
 * for a timed window, then run the untimed agreement checks.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "layers.hh"

namespace perfbench
{

/** What one timed window (plus its checks) produced. */
struct WindowStats
{
    std::vector<double> unitMs; ///< host time per timed unit
    size_t attempted = 0;       ///< units run, checks included
    size_t failed = 0;          ///< errored, not Completed, or mismatched
    size_t passed = 0;          ///< timed units that passed their check
    double windowS = 0.0;
    /// Units per minute, from medians so that a burst of host noise
    /// does not decide it (each workload says how).
    double perMin = 0.0;

    /// Over the distinct unit configs, so independent of unit count.
    double correctFrac = 0.0;
    double simHours = 0.0;

    LayerAccounting layers; ///< traced runs only
};

class Workload
{
  public:
    /// `ledger` checks every unit's output (against pins when
    /// `pinned`); units use `unitThreads` threads; unit_tail_ms is the
    /// `tailQuantile` of unit time.
    Workload(Ledger ledger, bool pinned, size_t unitThreads,
             double tailQuantile)
        : ledger_(std::move(ledger)), pinned_(pinned),
          unitThreads_(unitThreads), tailQuantile_(tailQuantile)
    {
    }

    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /// Everything before the first timed unit, ending with one
    /// untimed warm-up unit.  May run several times, with tearDown
    /// in between.
    virtual void setUp() = 0;
    virtual void tearDown() = 0;

    /// Run units for about `seconds`; with `trace`, collect layers.
    virtual void measure(double seconds, bool trace,
                         WindowStats &stats) = 0;

    /// Untimed agreement checks after the window.
    virtual void verify(WindowStats &stats) = 0;

    double tailQuantile() const { return tailQuantile_; }
    size_t unitThreads() const { return unitThreads_; }

    /// First observed output per config (pins.txt format values).
    const std::map<std::string, std::string> &
    observed() const
    {
        return ledger_.observed();
    }

  protected:
    Ledger ledger_;
    const bool pinned_;

  private:
    const size_t unitThreads_;
    const double tailQuantile_;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const Options &options,
                                       const Pins &pins);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
