/**
 * @file
 * perfbench: run one workload of the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *
 * Prints one table line per metric (value, unit, sample count), then a
 * JSON object with the keys correct, attempted, failed and metrics as the
 * last line. Exit status 0 only when every guest run matched the
 * reference interpreter. run.py builds and wraps this binary and keeps
 * only the metrics BENCHMARK.json declares.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hh"
#include "support/error.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n";
    return 2;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    bool have_workload = false;
    bool have_seconds = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    throw std::invalid_argument("missing value for " + arg);
                return argv[i];
            };
            if (arg == "--workload") {
                options.workload = next();
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(next());
            } else if (arg == "--seconds") {
                options.seconds = std::stod(next());
                have_seconds = true;
            } else if (arg == "--trace") {
                options.trace = std::stoi(next()) != 0;
            } else if (arg == "--work-dir") {
                options.workDir = next();
            } else {
                return usage("unknown option " + arg);
            }
        }
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (!have_workload)
        return usage("no --workload given");
    if (!have_seconds)
        return usage("no --seconds given");

    perfbench::Outcome outcome;
    try {
        std::filesystem::create_directories(options.workDir);
        outcome = perfbench::runWorkload(options);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    for (const std::string &failure : outcome.failures)
        std::cout << "FAIL " << failure << "\n";
    std::printf("%-32s %16s  %-8s %s\n", "metric", "value", "unit",
                "samples");
    for (const auto &[name, m] : outcome.metrics)
        std::printf("%-32s %16.6g  %-8s %llu\n", name.c_str(), m.value,
                    m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    if (!outcome.spanFile.empty())
        std::cout << "spans written to " << outcome.spanFile << "\n";

    std::cout << "{\"correct\": " << (outcome.correct() ? "true" : "false")
              << ", \"attempted\": " << outcome.attempted
              << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : outcome.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << jsonNumber(m.value)
                  << ", \"unit\": \"" << m.unit
                  << "\", \"samples\": " << m.samples << "}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return outcome.correct() ? 0 : 1;
}
