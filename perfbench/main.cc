/**
 * @file
 * The benchmark program: one workload, one seed, one process.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans F]
 *   perfbench --list
 *
 * With --trace 0 it repeats untraced passes of the workload (set-up,
 * then every job on a Runner) until the next pass would end after S
 * seconds, and reports each end-to-end metric as the median over the
 * passes. With --trace 1 it makes one untraced and one traced pass
 * (traced.hh) and reports the per-layer metrics. Either way the last
 * line of stdout is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * where each simulation is one attempted op.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "traced.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 40;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void
usage()
{
    std::fputs("usage: perfbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans FILE]\n"
               "       perfbench --list    (print the workload names)\n",
               stderr);
    std::exit(2);
}

/** Parse a whole argument as a number, or exit with the usage line. */
template <typename T>
T
number(const char *arg)
{
    T v{};
    const char *end = arg + std::strlen(arg);
    const auto [ptr, ec] = std::from_chars(arg, end, v);
    if (ec != std::errc() || ptr != end)
        usage();
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage();
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = number<uint64_t>(val);
        else if (key == "--seconds")
            o.seconds = number<double>(val);
        else if (key == "--trace")
            o.trace = number<int>(val) != 0;
        else if (key == "--spans")
            o.spans = val;
        else
            usage();
    }
    if (o.workload.empty() || o.seconds <= 0)
        usage();
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is in KiB
}

/** Shortest decimal text that reads back as exactly `v`. */
std::string
exact(double v)
{
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, ptr) : "0";
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("\n");
    for (const Metric &m : metrics)
        std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    exact(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/**
 * End-to-end metrics, untraced. sim_mips is simulated instructions
 * over the seconds inside Runner::runAll: the exact budgets on the
 * exact workloads, the instructions covered from entry to halt on
 * sampled_full.
 */
int
gated(const WorkloadPlan &plan, const Options &opt)
{
    std::vector<double> wall, setup, mips;
    uint64_t attempted = 0, failed = 0, digest = 0;
    bool repeatable = true;
    double longest = 0;
    const auto t0 = Clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    do {
        const Pass p = runPass(plan, opt.seed);
        const size_t f = failedJobs(plan, p);
        attempted += p.jobs.size();
        failed += f;
        if (!p.error.empty())
            std::printf("runAll threw: %s\n", p.error.c_str());
        const uint64_t d = statsDigest(p.jobs, p.results);
        if (wall.empty())
            digest = d;
        repeatable = repeatable && d == digest;
        wall.push_back(p.wallSeconds);
        setup.push_back(p.setupSeconds);
        mips.push_back(simulatedInstructions(p.results) /
                       p.simSeconds / 1e6);
        longest = std::max(longest, p.wallSeconds);
        std::printf("pass %zu: setup %.3f s, sim %.3f s, wall %.3f s, "
                    "%.3f MIPS, %zu/%zu jobs failed, digest %016" PRIx64
                    "\n",
                    wall.size(), p.setupSeconds, p.simSeconds,
                    p.wallSeconds, mips.back(), f, p.jobs.size(), d);
        std::fflush(stdout);
    } while (elapsed() + longest <= opt.seconds);

    if (!repeatable)
        std::printf("simulated statistics differ between passes\n");
    std::printf("%s seed %" PRIu64 ": passes %zu, stats digest %016" PRIx64
                "\n",
                plan.name.c_str(), opt.seed, wall.size(), digest);
    printResult(failed == 0 && repeatable, attempted, failed,
                {{"wall_s", "s", median(wall)},
                 {"setup_s", "s", median(setup)},
                 {"sim_mips", "MIPS", median(mips)},
                 {"peak_rss_mib", "MiB", peakRssMib()}});
    return 0;
}

int
traced(const WorkloadPlan &plan, const Options &opt)
{
    const LayerReport rep = runTraced(plan, opt.seed, opt.spans);
    for (const std::string &p : rep.problems)
        std::printf("FAILED %s\n", p.c_str());
    std::printf("%s seed %" PRIu64 ": traced, host %s\n",
                plan.name.c_str(), opt.seed, hostJson().c_str());
    printResult(rep.failed == 0, rep.attempted, rep.failed, rep.metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
        for (const WorkloadPlan &plan : allPlans())
            std::printf("%s\n", plan.name.c_str());
        return 0;
    }
    const Options opt = parse(argc, argv);
    try {
        const WorkloadPlan &plan = planFor(opt.workload);
        return opt.trace ? traced(plan, opt) : gated(plan, opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
