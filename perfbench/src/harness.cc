#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench
{

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
medianRatePerMin(std::vector<double> doneS, size_t span)
{
    doneS.insert(doneS.begin(), 0.0);
    std::sort(doneS.begin(), doneS.end());
    if (doneS.size() < 2 || doneS.back() <= 0.0)
        return 0.0;
    span = std::clamp<size_t>(span, 1, doneS.size() - 1);
    std::vector<double> spans;
    for (size_t i = 0; i + span < doneS.size(); ++i)
        spans.push_back(doneS[i + span] - doneS[i]);
    return 60.0 * static_cast<double>(span) / median(spans);
}

uint64_t
deriveSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

MachineCpu
readMachineCpu()
{
    // cpu user nice system idle iowait irq softirq steal ...
    std::ifstream in("/proc/stat");
    std::string label;
    double field[8] = {};
    in >> label;
    for (double &f : field)
        in >> f;
    if (!in || label != "cpu")
        return {};
    const double idle = field[3] + field[4];
    double all = 0.0;
    for (const double f : field)
        all += f;
    return {all - idle, field[7]};
}

double
stealShare(const MachineCpu &from, const MachineCpu &to)
{
    const double busy = to.busy - from.busy;
    return busy > 0.0 ? (to.steal - from.steal) / busy : 0.0;
}

Pins
loadPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins file '" + path + "'");
    Pins pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, config, value;
        fields >> workload >> config;
        std::getline(fields >> std::ws, value);
        if (workload.empty() || config.empty() || value.empty())
            throw std::runtime_error("malformed pins line: " + line);
        pins[workload][config] = value;
    }
    return pins;
}

Ledger::Ledger(std::map<std::string, std::string> pins, bool pinned)
    : pins_(std::move(pins)), pinned_(pinned)
{
}

bool
Ledger::check(const std::string &config, const std::string &value)
{
    ++count_[config];
    first_.emplace(config, value);
    std::string expected;
    const char *source = "";
    if (pinned_) {
        const auto it = pins_.find(config);
        if (it == pins_.end()) {
            std::cerr << "MISMATCH " << config
                      << ": no pinned value at the default seed (got "
                      << value << ")\n";
            return false;
        }
        expected = it->second;
        source = "pinned";
    } else {
        expected = first_.at(config);
        source = "first run";
    }
    if (value == expected)
        return true;
    std::cerr << "MISMATCH " << config << ": got " << value << ", "
              << source << " " << expected << "\n";
    return false;
}

size_t
Ledger::seen(const std::string &config) const
{
    const auto it = count_.find(config);
    return it == count_.end() ? 0 : it->second;
}

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"unit_p50_ms", "ms"},
        {"unit_tail_ms", "ms"},
        {"throughput_per_min", "1/min"},
        {"peak_rss_mib", "MiB"},
        {"fidelity.correct_frac", "ratio"},
        {"sim.campaign_hours", "h"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"core.stage.fab_ms", "ms"},
        {"core.stage.acquire_ms", "ms"},
        {"core.stage.postprocess_ms", "ms"},
        {"core.stage.analyze_ms", "ms"},
        {"core.stage.finalize_ms", "ms"},
        {"core.unaccounted_ms", "ms"},
        {"fab.voxelize_ms", "ms"},
        {"fab.defects_ms", "ms"},
        {"scope.sem_image_ms", "ms"},
        {"scope.sem_image_calls", "count"},
        {"scope.sem_image_call_p50_us", "us"},
        {"scope.sem_image_call_p99_us", "us"},
        {"scope.frames_per_slice", "ratio"},
        {"scope.clean_cache.hit_ratio", "ratio"},
        {"scope.interpolate_calls", "count"},
        {"image.qc_ms", "ms"},
        {"image.qc_calls", "count"},
        {"image.qc_call_p50_us", "us"},
        {"image.qc_call_p99_us", "us"},
        {"image.denoise_ms", "ms"},
        {"image.register_ms", "ms"},
        {"image.assemble_ms", "ms"},
        {"image.mi_evals", "count"},
        {"volume.tile.hit", "count"},
        {"volume.tile.miss", "count"},
        {"volume.tile.evicted", "count"},
        {"volume.tile.spilled_mib", "MiB"},
        {"re.analyze_ms", "ms"},
        {"re.segmentation_ms", "ms"},
        {"service.submit_us", "us"},
        {"service.volume_cache.hit_ratio", "ratio"},
        {"service.checkpoints_per_job", "count"},
        {"service.retries_per_job", "count"},
        {"pool.busy_frac", "ratio"},
        {"pool.chunks_per_job", "count"},
        {"proc.cpu_util", "ratio"},
        {"solver.batch_tran_ms", "ms"},
        {"solver.newton_per_trial", "count"},
        {"solver.lu_refactorizations", "count"},
        {"solver.dense_fallbacks", "count"},
        {"solver.retired_early_frac", "ratio"},
        {"fidelity.dim_err_max_nm", "nm"},
        {"trace.overhead_frac", "ratio"},
    };
    return specs;
}

void
Samples::add(const std::string &name, double value)
{
    perUnit_[name].push_back(value);
}

void
Samples::set(const std::string &name, double value)
{
    runLevel_[name] = value;
}

double
Samples::value(const std::string &name) const
{
    if (const auto it = runLevel_.find(name); it != runLevel_.end())
        return it->second;
    if (const auto it = perUnit_.find(name); it != perUnit_.end())
        return median(it->second);
    return 0.0;
}

std::vector<Metric>
Samples::metrics(const std::vector<MetricSpec> &specs) const
{
    std::vector<Metric> out;
    for (const MetricSpec &spec : specs)
        out.push_back({spec.name, value(spec.name), spec.unit});
    return out;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
resultJson(const RunResult &result)
{
    std::ostringstream out;
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        // Non-finite values have no JSON spelling; they only arise
        // from an empty run, which is already a failure.
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        char num[32];
        std::snprintf(num, sizeof(num), "%.17g", v);
        out << (i ? ", " : "") << "\"" << jsonEscape(m.name)
            << "\": {\"value\": " << num << ", \"unit\": \""
            << jsonEscape(m.unit) << "\"}";
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench
