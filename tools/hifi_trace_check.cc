/**
 * @file
 * CI gate for telemetry artifacts: validates that a Chrome
 * trace_event JSON file produced by the pipeline is well-formed
 * (parseable, "X" events with the mandatory fields, per-thread spans
 * properly nested) and covers the expected stages.
 *
 *   hifi_trace_check <trace.json> [--min-names N]
 *                    [--require-prefixes a,b,c]
 *
 * Exit status: 0 when the trace passes, 1 on any violation (the
 * first one is printed), 2 on usage / I/O errors.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "trace_validate.hh"

namespace
{

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::string item;
    std::stringstream ss(list);
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    hifi::telemetry::TraceCheckOptions options;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--min-names") == 0 && i + 1 < argc) {
            options.minDistinctNames =
                static_cast<size_t>(std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--require-prefixes") == 0 &&
                   i + 1 < argc) {
            options.requiredPrefixes = splitCommas(argv[++i]);
        } else if (argv[i][0] != '-' && path.empty()) {
            path = argv[i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " <trace.json> [--min-names N]"
                         " [--require-prefixes a,b,c]\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "hifi_trace_check: no trace file given\n";
        return 2;
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "hifi_trace_check: cannot open " << path << "\n";
        return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    std::string error;
    hifi::telemetry::TraceStats stats;
    if (!hifi::telemetry::validateChromeTrace(buffer.str(), options,
                                              &error, &stats)) {
        std::cerr << "hifi_trace_check: " << path << ": " << error
                  << "\n";
        return 1;
    }

    std::cout << path << ": OK (" << stats.events << " events, "
              << stats.distinctNames << " distinct names:";
    for (const auto &name : stats.names)
        std::cout << " " << name;
    std::cout << ")\n";
    return 0;
}
