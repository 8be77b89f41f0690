#include "workloads.hh"

#include <chrono>
#include <exception>

#include "common/log.hh"

namespace perfbench {

using namespace dvr;

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kProbeInsts = 2'000'000;

/**
 * The interval `dvr_run --verify --sample` runs with: dvr_run derives
 * it from its default 500k budget (defaultSampleInterval's 50k floor)
 * before --verify raises the budget to run to halt. Fixed here, so a
 * change to the sampling policy in src/ cannot change the workload.
 */
constexpr uint64_t kSampleInterval = 50'000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SimConfig
exactConfig(const std::string &technique, uint64_t insts)
{
    SimConfig cfg = SimConfig::baseline(technique);
    cfg.maxInstructions = insts;
    return cfg;
}

} // namespace

const std::vector<WorkloadPlan> &
allPlans()
{
    static const std::vector<WorkloadPlan> plans = {
        // The Figure 2 sweep shape. Four kernels share the KR graph and
        // each regenerates it, so preparation is a large share of the
        // run.
        {"gap_sweep",
         {{"bfs", "KR"}, {"cc", "KR"}, {"pr", "KR"}, {"sssp", "KR"},
          {"bfs", "UR"}},
         {"base", "vr"},
         {128, 224, 350, 512},
         1'000'000,
         2},
        // Small data sets and runahead-dominated detailed time: a pure
        // gather (hj8), nested discovery (nas_cg), read-modify-write
        // (nas_is).
        {"gather_runahead",
         {{"hj8", ""}, {"nas_cg", ""}, {"nas_is", ""}},
         {"vr", "dvr"},
         {},
         3'000'000,
         1},
        // Whole programs, mostly functional execution with cache
        // warming, and no runahead client.
        {"sampled_full", {{"pr", "KR"}, {"hj8", ""}}, {"base"}, {}, 0, 1},
    };
    return plans;
}

const WorkloadPlan &
planFor(const std::string &name)
{
    for (const WorkloadPlan &plan : allPlans()) {
        if (plan.name == name)
            return plan;
    }
    fatal("unknown workload '" + name + "'");
}

void
prepareInput(std::deque<PreparedWorkload> &out,
             const std::pair<std::string, std::string> &input,
             uint64_t seed)
{
    WorkloadParams wp;
    wp.scaleShift = 0;
    wp.seed = seed;
    out.emplace_back(input.first, input.second, wp,
                     SimConfig::baseline("base").memoryBytes);
}

std::deque<PreparedWorkload>
prepare(const WorkloadPlan &plan, uint64_t seed)
{
    std::deque<PreparedWorkload> prepared;
    for (const auto &input : plan.inputs)
        prepareInput(prepared, input, seed);
    return prepared;
}

std::vector<SimJob>
jobsFor(const WorkloadPlan &plan,
        const std::deque<PreparedWorkload> &prepared)
{
    std::vector<SimJob> jobs;
    for (const PreparedWorkload &pw : prepared) {
        for (const std::string &tech : plan.techniques) {
            const std::string label = pw.label() + "/" + tech;
            if (plan.sampled()) {
                // Entry to halt, with the budget and interval of
                // `dvr_run --verify --sample`.
                SimConfig cfg = SimConfig::baseline(tech);
                cfg.maxInstructions =
                    pw.workload().fullRunInsts * 2 + 1'000'000;
                cfg.sample.interval = kSampleInterval;
                jobs.push_back({&pw, cfg, label + "-sampled"});
                continue;
            }
            if (plan.robs.empty())
                jobs.push_back({&pw, exactConfig(tech, plan.insts), label});
            for (unsigned rob : plan.robs) {
                SimConfig cfg = exactConfig(tech, plan.insts);
                cfg.core = CoreConfig::withRob(rob);
                jobs.push_back({&pw, cfg, label + "-" + std::to_string(rob)});
            }
        }
    }
    return jobs;
}

std::vector<SimJob>
exactJobsFor(const WorkloadPlan &plan,
             const std::deque<PreparedWorkload> &prepared)
{
    if (!plan.sampled())
        return jobsFor(plan, prepared);
    std::vector<SimJob> jobs;
    for (const PreparedWorkload &pw : prepared) {
        jobs.push_back({&pw, exactConfig("base", kProbeInsts),
                        pw.label() + "/base-probe"});
    }
    return jobs;
}

Pass
runPass(const WorkloadPlan &plan, uint64_t seed)
{
    Pass p;
    const auto t0 = Clock::now();
    p.prepared = prepare(plan, seed);
    p.jobs = jobsFor(plan, p.prepared);
    p.setupSeconds = secondsSince(t0);

    Runner runner(plan.threads);
    const CowMemStats cow0 = SimMemory::cowStats();
    const ArenaProcessStats arena0 = Arena::processStats();
    const auto t1 = Clock::now();
    try {
        p.results = runner.runAll(p.jobs);
    } catch (const std::exception &e) {
        p.error = e.what();
    }
    p.simSeconds = secondsSince(t1);
    p.wallSeconds = secondsSince(t0);
    p.cow = SimMemory::cowStats().since(cow0);
    p.arena = Arena::processStats().since(arena0);
    return p;
}

size_t
failedJobs(const WorkloadPlan &plan, const Pass &pass)
{
    if (pass.results.size() != pass.jobs.size())
        return pass.jobs.size();
    size_t failed = 0;
    for (const SimResult &r : pass.results) {
        if (plan.sampled() &&
            (!r.verified || r.stats.get("sample.windows") < kMinWindows))
            ++failed;
    }
    return failed;
}

double
simulatedInstructions(const std::vector<SimResult> &rs)
{
    double n = 0;
    for (const SimResult &r : rs)
        n += double(r.core.instructions);
    return n;
}

bool
isHostTimed(const std::string &stat)
{
    return stat == "sample.functional_mips";
}

uint64_t
statsDigest(const std::vector<SimJob> &jobs,
            const std::vector<SimResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *data, size_t n) {
        const auto *b = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    };
    for (size_t i = 0; i < results.size() && i < jobs.size(); ++i) {
        mix(jobs[i].label.data(), jobs[i].label.size());
        for (const auto &[key, value] : results[i].stats.all()) {
            if (isHostTimed(key))
                continue;
            mix(key.data(), key.size());
            mix(&value, sizeof value);
        }
        const unsigned char flags =
            (results[i].halted ? 1 : 0) | (results[i].verified ? 2 : 0);
        mix(&flags, 1);
    }
    return h;
}

} // namespace perfbench
