/**
 * @file
 * The repository benchmark: three seeded workloads driven through the
 * engine's public API, every guest result checked against the reference
 * interpreter.
 *
 *   suite-steady  the 16 Fig. 12 proxies, 4 guest threads, on aarch and
 *                 rv64, in a seeded order (steady-state execution)
 *   cold-image    never-seen images of ~4k once-run blocks on a fresh
 *                 engine per image and host (cold start, translation)
 *   serve-warm    closed-loop serve::runSessions over a warm artifact
 *                 loaded from a .rtbc snapshot (serving)
 *
 * An untraced run reports the end-to-end metrics; a traced run times the
 * calls into each layer from outside and reports per-layer metrics plus
 * the tracing overhead. See README.md for the metric definitions.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One invocation of a workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement time; whole passes run until it is used up (at least
     * one pass, two when tracing). run.py passes BENCHMARK.json's
     * run_seconds unless told otherwise. */
    double seconds = 0;
    bool trace = false;
    /** Directory for the snapshot and the span file (must exist). */
    std::string workDir = ".";
    /** Self-test sizing: a few programs, small images, small batches. */
    bool smoke = false;
};

struct Metric
{
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
};

struct Outcome
{
    /** Guest runs and sessions checked against the reference. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** What went wrong, one line each. */
    std::vector<std::string> failures;
    std::map<std::string, Metric> metrics;
    /** Span file written by a traced run (empty otherwise). */
    std::string spanFile;

    bool correct() const { return failed == 0 && failures.empty(); }
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; throws risotto::FatalError on an unknown name. */
Outcome runWorkload(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
