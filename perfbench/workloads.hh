/**
 * @file
 * The benchmark's three workloads: which benchmark-inputs each one
 * prepares, which simulations it runs on them and on how many Runner
 * threads, and the untraced pass that times one run of a workload.
 * The gated and the traced runs both build their work from here, so
 * they always measure the same simulations.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "mem/sim_memory.hh"
#include "sim/runner.hh"

namespace perfbench {

/**
 * One workload: its benchmark-inputs and the jobs it runs on them.
 * Every input runs under every technique, at every ROB size, with the
 * same instruction budget.
 */
struct WorkloadPlan
{
    std::string name;
    /** (kernel, graph input) pairs; the input is empty for hpc-db. */
    std::vector<std::pair<std::string, std::string>> inputs;
    std::vector<std::string> techniques;
    /** ROB sizes; empty runs the baseline core only. */
    std::vector<unsigned> robs;
    /** Exact budget per job; 0 samples each input from entry to halt. */
    uint64_t insts = 0;
    unsigned threads = 1;

    bool sampled() const { return insts == 0; }
};

/** Every workload, in the order `--workload all` runs them. */
const std::vector<WorkloadPlan> &allPlans();

/** The plan for a workload name; fatal() on an unknown name. */
const WorkloadPlan &planFor(const std::string &name);

/**
 * Build one benchmark-input and append it to `out`. `seed` goes into
 * WorkloadParams::seed; GAP graph topology comes from the fixed
 * GraphInputSpec seeds, so it varies the hpc-db data and the sssp
 * weights only.
 */
void prepareInput(std::deque<dvr::PreparedWorkload> &out,
                  const std::pair<std::string, std::string> &input,
                  uint64_t seed);

/** Build every benchmark-input of the plan, in order. */
std::deque<dvr::PreparedWorkload> prepare(const WorkloadPlan &plan,
                                          uint64_t seed);

/** The plan's simulations over its prepared inputs, in a fixed order. */
std::vector<dvr::SimJob>
jobsFor(const WorkloadPlan &plan,
        const std::deque<dvr::PreparedWorkload> &prepared);

/**
 * Exact jobs the traced run re-executes layer by layer for its checks
 * and memory replays: the plan's own jobs, or for a sampled plan one
 * short exact `base` run per input (sampled runs are opaque to the
 * benchmark between entry and halt).
 */
std::vector<dvr::SimJob>
exactJobsFor(const WorkloadPlan &plan,
             const std::deque<dvr::PreparedWorkload> &prepared);

/** One untraced run of a workload: set-up, then all jobs on a Runner. */
struct Pass
{
    std::deque<dvr::PreparedWorkload> prepared;
    std::vector<dvr::SimJob> jobs;
    /** In job order; empty when runAll threw. */
    std::vector<dvr::SimResult> results;
    /** What runAll threw, if it did. */
    std::string error;
    double setupSeconds = 0;
    /** Inside Runner::runAll. */
    double simSeconds = 0;
    /** Start of set-up to the last result collected. */
    double wallSeconds = 0;
    /** Process-wide counter deltas over runAll. */
    dvr::CowMemStats cow;
    dvr::ArenaProcessStats arena;
};

Pass runPass(const WorkloadPlan &plan, uint64_t seed);

/**
 * Jobs of the pass that failed: all of them when runAll threw; for a
 * sampled plan also each run that did not halt with its golden-model
 * check passing or measured fewer than kMinWindows windows.
 */
size_t failedJobs(const WorkloadPlan &plan, const Pass &pass);

/**
 * Sampled runs must measure at least this many CPI windows (about 1000
 * per input at the reference geometry), so a change cannot buy sampled
 * speed by measuring fewer of them.
 */
inline constexpr double kMinWindows = 900;

/** Simulated instructions: exact budgets, or covered entry to halt. */
double simulatedInstructions(const std::vector<dvr::SimResult> &rs);

/**
 * FNV-1a digest of every simulated statistic of every result, in job
 * order. Host-time statistics are left out, so the digest repeats
 * exactly for a seed unless a change alters simulated results.
 */
uint64_t statsDigest(const std::vector<dvr::SimJob> &jobs,
                     const std::vector<dvr::SimResult> &results);

/** True for statistics that measure the host, not the model. */
bool isHostTimed(const std::string &stat);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
