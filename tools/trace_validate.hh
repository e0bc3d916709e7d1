/**
 * @file
 * Chrome trace_event validator for the traces that
 * telemetry::Session exports: a minimal JSON parser plus the
 * structural and coverage checks.  Lives outside libhifi: only
 * tools/hifi_trace_check and tests/test_telemetry link it.
 */

#ifndef HIFI_TOOLS_TRACE_VALIDATE_HH
#define HIFI_TOOLS_TRACE_VALIDATE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace hifi
{
namespace telemetry
{

/** Options for validateChromeTrace. */
struct TraceCheckOptions
{
    /// Minimum number of distinct span names.
    size_t minDistinctNames = 1;

    /// Name prefixes that must each appear on at least one span
    /// (e.g. {"fab", "scope"} matches "fab.voxelize").
    std::vector<std::string> requiredPrefixes;
};

/** What the validator found. */
struct TraceStats
{
    size_t events = 0;
    size_t distinctNames = 0;
    std::vector<std::string> names; ///< sorted distinct names
};

/**
 * Validate a Chrome trace_event JSON document: well-formed JSON, a
 * `traceEvents` array of "X" events with string `name` and numeric
 * `ts` / `dur` / `pid` / `tid`, per-thread spans properly nested
 * (intervals on one tid are disjoint or contained, never partially
 * overlapping), plus the checks in `options`.  Returns true on
 * success; on failure `error` (when non-null) explains the first
 * violation.  `stats` (when non-null) is filled on success.
 */
bool validateChromeTrace(const std::string &json,
                         const TraceCheckOptions &options = {},
                         std::string *error = nullptr,
                         TraceStats *stats = nullptr);

} // namespace telemetry
} // namespace hifi

#endif // HIFI_TOOLS_TRACE_VALIDATE_HH
