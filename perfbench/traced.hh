/**
 * @file
 * The traced run: per-layer host time and counters for one workload,
 * measured from outside src/. Spans wrap the benchmark's own calls
 * into each src/ module's public functions; spans inside src/ are not
 * part of this benchmark.
 *
 * One traced run makes an untraced pass of the workload (the
 * reference for the checks and for runner.sweep_s), then a traced
 * pass:
 *  - set-up, with a span around each PreparedWorkload build and one
 *    makeInputEdges probe per distinct graph input;
 *  - on a TaskPool of the workload's thread count, each job first run
 *    untraced as the Runner runs it, then re-executed traced on the
 *    same worker: an exact job through the public calls
 *    Simulator::runOn makes (TechniqueRegistry find/prepare/create,
 *    MemorySystem, OooCore, attach, run), with a forwarding CoreClient
 *    between the core and the technique that times the hooks and
 *    records the main thread's loads and stores; a sampled job through
 *    runSampled, its functional and detailed split read from the
 *    sample.* statistics.
 * trace.overhead_frac compares each traced re-execution with its
 * untraced twin. The forwarder's own cost per call is calibrated once
 * and taken out of core.self_s and core.ns_per_inst as
 * trace.forwarder_s. A job without a technique has the forwarder
 * attached too, so its core builds a RetireInfo per instruction that
 * the untraced run does not; that cost stays in its core time.
 *
 * After each re-execution, outside its spans, the job is checked:
 *  (a) its statistics equal the untraced Runner result;
 *  (b) FunctionalCore::run for exactly core.instructions from the same
 *      start reproduces the registers, the PC and the memory image;
 *  (c) for jobs without a runahead client, the recorded stream
 *      replayed through a fresh MemorySystem reproduces every mem.*
 *      statistic.
 * The same stream, replayed through MemorySystem::access and through
 * warmTouchBatch, gives mem.access_ns and mem.warm_ns. A sampled
 * workload's checks and replays run on one short exact probe job per
 * input.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hh"

namespace perfbench {

/** A reported metric: name, unit, value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

struct LayerReport
{
    /** Every per-layer metric, in a fixed order. */
    std::vector<Metric> metrics;
    /** Simulations run, untraced and traced. */
    uint64_t attempted = 0;
    /** Simulations that threw, failed verification or a check. */
    uint64_t failed = 0;
    /** One line per failure. */
    std::vector<std::string> problems;
};

/**
 * Run the workload untraced and then traced, check every traced
 * re-execution, and write the spans with the host description and
 * the metrics to `spans_path` as JSON (skipped when empty).
 */
LayerReport runTraced(const WorkloadPlan &plan, uint64_t seed,
                      const std::string &spans_path);

/** Host, compiler and build type, as a JSON object. */
std::string hostJson();

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
