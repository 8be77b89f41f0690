#include "traced.hh"

#include <sys/utsname.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "graph/generators.hh"
#include "runahead/technique.hh"
#include "sim/functional_core.hh"
#include "sim/sampling.hh"
#include "sim/task_pool.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace dvr;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

/** A timed interval at a layer boundary; times in seconds from start. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;    ///< index of the enclosing span, -1 for none
    int job = -1;       ///< traced job index, -1 outside any job
};

/** In-memory span store, shared by the re-execution pool's threads. */
class Tracer
{
  public:
    int open(const char *name, int parent, int job)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, t, t, parent, job});
        return int(spans_.size()) - 1;
    }

    /** Close span `id`; returns its duration. */
    double close(int id)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[size_t(id)].end = t;
        return t - spans_[size_t(id)].start;
    }

    /** Summed duration of every span called `name`. */
    double total(const std::string &name) const
    {
        double s = 0;
        for (const Span &sp : spans_)
            s += sp.name == name ? sp.end - sp.start : 0.0;
        return s;
    }

    /** Call only once the pool has drained. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    const Clock::time_point origin_ = Clock::now();
    std::mutex mutex_;
    std::vector<Span> spans_;   // guarded by mutex_
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, int parent, int job)
        : tracer_(tracer), id_(tracer.open(name, parent, job))
    {
    }
    ~ScopedSpan()
    {
        if (id_ >= 0)
            tracer_.close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

    /** Close now; returns the duration. */
    double close()
    {
        const double s = tracer_.close(id_);
        id_ = -1;
        return s;
    }

  private:
    Tracer &tracer_;
    int id_;
};

/** One main-thread access, as the core issued it to MemorySystem. */
struct MemRef
{
    Addr addr = 0;
    Cycle cycle = 0;
    uint64_t value = 0;
    InstPc pc = 0;
    uint8_t bytes = 0;
    bool store = false;
};

/**
 * Timestamp for per-hook timing, read twice per hook call, so it must
 * be far cheaper than steady_clock: the TSC on x86, else steady_clock
 * ticks.
 */
inline uint64_t
stamp()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return uint64_t(Clock::now().time_since_epoch().count());
#endif
}

/**
 * What the tracer's own instruments cost, measured once per traced
 * run: the stamp's rate, an empty timed bracket, and what one onRetire
 * call through the forwarder adds to the untraced run's retirement.
 * The forwarder figures come from a tight loop, so they are a lower
 * bound: they miss the host caches the recording evicts.
 */
struct TracerCost
{
    double secondsPerTick = 0;
    double bracketTicks = 0;
    /**
     * Ticks per retirement the forwarder adds, by [technique attached]
     * [memory op]. Without a technique the untraced core makes no call
     * at all; with one it calls the technique directly.
     */
    double retireTicks[2][2] = {};

    /** Hook seconds from `ticks` over `calls` timed brackets. */
    double hookSeconds(uint64_t ticks, uint64_t calls) const
    {
        return std::max(0.0, (double(ticks) - double(calls) * bracketTicks) *
                                 secondsPerTick);
    }

    /**
     * Seconds the forwarder added to a core run of `insts` retirements,
     * `refs` of them loads or stores. The far rarer stall calls are
     * left out.
     */
    double forwarderSeconds(bool attached, double insts, double refs) const
    {
        const auto &t = retireTicks[attached ? 1 : 0];
        return ((insts - refs) * t[0] + refs * t[1]) * secondsPerTick;
    }
};

/**
 * Sits between the core and the technique: forwards both hooks, times
 * them, and records every main-thread load and store with the
 * arguments the core passes to MemorySystem::access (loads at issue +
 * 1, stores at commit).
 *
 * Every full-ROB stall hook is timed. A stamp pair costs about as much
 * as a typical onRetire call, and onRetire runs once per instruction,
 * so only a pseudo-random 1 in 16 of those calls is timed and the
 * total is scaled by calls / timed calls; the sampling is random so it
 * cannot alias with loop bodies.
 */
class ForwardingClient final : public CoreClient
{
  public:
    ForwardingClient(CoreClient *target, std::vector<MemRef> &stream)
        : target_(target), stream_(stream)
    {
    }

    void onRetire(const RetireInfo &ri) override
    {
        const Instruction &inst = *ri.inst;
        if (inst.isLoad()) {
            stream_.push_back({ri.effAddr, ri.issueCycle + 1,
                               ri.loadValue, ri.pc,
                               uint8_t(inst.memBytes()), false});
        } else if (inst.isStore()) {
            stream_.push_back({ri.effAddr, ri.commitCycle, 0, ri.pc,
                               uint8_t(inst.memBytes()), true});
        }
        if (!target_)
            return;
        ++retireCalls_;
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        if ((rng_ & 15) != 0) {
            target_->onRetire(ri);
            return;
        }
        const uint64_t t0 = stamp();
        target_->onRetire(ri);
        retireTicks_ += stamp() - t0;
        ++retireTimed_;
    }

    Cycle onFullRobStall(const StallInfo &si) override
    {
        ++stallCalls_;
        if (!target_)
            return 0;
        const uint64_t t0 = stamp();
        const Cycle extra = target_->onFullRobStall(si);
        stallTicks_ += stamp() - t0;
        return extra;
    }

    /** Host seconds inside the technique's hooks. */
    double hookSeconds(const TracerCost &tc) const
    {
        const double retire =
            retireTimed_ == 0
                ? 0.0
                : tc.hookSeconds(retireTicks_, retireTimed_) *
                      double(retireCalls_) / double(retireTimed_);
        const double stall =
            target_ ? tc.hookSeconds(stallTicks_, stallCalls_) : 0.0;
        return retire + stall;
    }
    /** Hook calls forwarded to the technique. */
    uint64_t calls() const
    {
        return retireCalls_ + (target_ ? stallCalls_ : 0);
    }
    /** Full-ROB stall hook invocations by the core. */
    uint64_t stalls() const { return stallCalls_; }

  private:
    CoreClient *target_;
    std::vector<MemRef> &stream_;
    uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
    uint64_t retireCalls_ = 0;
    uint64_t retireTimed_ = 0;
    uint64_t retireTicks_ = 0;
    uint64_t stallCalls_ = 0;
    uint64_t stallTicks_ = 0;
};

/** Does nothing: the technique the forwarder's cost is measured with. */
class NullClient final : public CoreClient
{
};

/** Median of seven runs of `batch`; a run the host preempted drops out. */
template <typename Batch>
double
medianOfBatches(Batch batch)
{
    std::array<double, 7> batches{};
    for (double &b : batches)
        b = batch();
    std::sort(batches.begin(), batches.end());
    return batches[batches.size() / 2];
}

double
secondsPerStamp()
{
    const auto c0 = Clock::now();
    const uint64_t s0 = stamp();
    while (Clock::now() - c0 < std::chrono::milliseconds(50)) {
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - c0).count();
    return secs / double(stamp() - s0);
}

TracerCost
calibrateTracer()
{
    constexpr int kCalls = 20000;
    TracerCost tc;
    tc.secondsPerTick = secondsPerStamp();
    tc.bracketTicks = medianOfBatches([] {
        uint64_t acc = 0;
        for (int i = 0; i < kCalls; ++i) {
            const uint64_t t0 = stamp();
            acc += stamp() - t0;
        }
        return double(acc) / kCalls;
    });

    // Ticks per onRetire call. The call goes through a volatile pointer
    // so it stays virtual, as the core's call through its client does.
    auto perRetire = [](CoreClient *target, const RetireInfo &ri) {
        CoreClient *volatile client = target;
        return medianOfBatches([&] {
            const uint64_t t0 = stamp();
            for (int i = 0; i < kCalls; ++i)
                client->onRetire(ri);
            return double(stamp() - t0) / kCalls;
        });
    };
    Instruction alu;
    Instruction load;
    load.op = Opcode::kLoad;
    RetireInfo retire[2];
    retire[0].inst = &alu;
    retire[1].inst = &load;
    NullClient noop;
    const double direct = perRetire(&noop, retire[0]);
    std::vector<MemRef> stream;
    stream.reserve(size_t(kCalls) * 7);
    for (int attached = 0; attached < 2; ++attached) {
        ForwardingClient fwd(attached ? &noop : nullptr, stream);
        for (int mem = 0; mem < 2; ++mem) {
            tc.retireTicks[attached][mem] = std::max(
                0.0, perRetire(&fwd, retire[mem]) - (attached ? direct : 0.0));
            stream.clear();
        }
    }
    return tc;
}

/** What one traced job measured; filled by its pool task. */
struct JobRecord
{
    std::string problem;        ///< empty when every check passed
    double taskSeconds = 0;     ///< the whole pool task, checks included
    double untracedSeconds = 0; ///< the job run as the Runner runs it
    double seconds = 0;         ///< root span of the traced re-execution
    double coreRun = 0;
    double hookSeconds = 0;
    double forwarderSeconds = 0;
    uint64_t hookCalls = 0;
    double detailedInsts = 0;
    double functionalSeconds = 0;
    double functionalInsts = 0;
    double accessSeconds = 0;
    double warmSeconds = 0;
    uint64_t refs = 0;
};

/** An exact job's end state after its traced re-execution. */
struct ExactRun
{
    SimResult result;
    std::array<uint64_t, kNumArchRegs> regs{};
    InstPc pc = 0;
    std::unique_ptr<SimMemory> memory;
    std::vector<MemRef> stream;
    bool client = false;        ///< the technique built a core client
    uint64_t stalls = 0;        ///< full-ROB hook invocations
};

/**
 * Re-execute an exact job through the public calls Simulator::runOn
 * makes (src/sim/simulator.cc, runImpl), one span per layer call. A
 * job without a technique runs with the forwarder attached too, so its
 * core builds a RetireInfo per instruction that runImpl's never does.
 */
ExactRun
reexecuteExact(const SimJob &job, const SimResult &want, Tracer &tr,
               int id, JobRecord &rec, const TracerCost &tc)
{
    ExactRun out;
    // Room for every load and store the untraced run retired, so the
    // recording does not reallocate inside the core.run span.
    out.stream.reserve(size_t(want.core.loads + want.core.stores));
    ScopedSpan root(tr, "sim.job", -1, id);
    const Workload &w = job.workload->workload();
    const SimMemory &image = job.workload->memory();

    SimConfig cfg = job.cfg;
    const TechniqueInfo *info = nullptr;
    {
        ScopedSpan s(tr, "runahead.registry", root.id(), id);
        info = TechniqueRegistry::instance().find(
            techniqueName(cfg.technique));
        if (!info)
            fatal(std::string("technique '") +
                  techniqueName(cfg.technique) + "' is not registered");
        if (info->prepare)
            info->prepare(cfg);
    }

    // As PreparedWorkload::run and runImpl: a fresh arena epoch and a
    // frame that hands the run's storage back at the end.
    Arena::forCurrentThread().reset();
    ArenaFrame arenaFrame(Arena::forCurrentThread());
    SimMemory mem = image;
    std::unique_ptr<MemorySystem> memsys;
    {
        ScopedSpan s(tr, "mem.construct", root.id(), id);
        memsys = std::make_unique<MemorySystem>(cfg.mem, mem);
    }
    const TechniqueContext ctx{cfg,   w.program, mem,    image,
                               *memsys, nullptr, 0};
    std::unique_ptr<RunaheadTechnique> tech;
    {
        ScopedSpan s(tr, "runahead.create", root.id(), id);
        if (info->create)
            tech = info->create(ctx);
    }
    ForwardingClient client(tech.get(), out.stream);
    std::unique_ptr<OooCore> core;
    {
        ScopedSpan s(tr, "core.construct", root.id(), id);
        core = std::make_unique<OooCore>(cfg.core, w.program, mem,
                                         *memsys, &client);
    }
    if (tech) {
        ScopedSpan s(tr, "runahead.attach", root.id(), id);
        tech->attach(*core);
    }
    {
        ScopedSpan s(tr, "core.run", root.id(), id);
        core->run(cfg.maxInstructions);
        rec.coreRun = s.close();
    }
    {
        ScopedSpan s(tr, "sim.collect", root.id(), id);
        SimResult &r = out.result;
        r.core = core->stats();
        r.halted = core->stats().halted;
        r.verified = r.halted && w.verify && w.verify(mem);
        r.stats.merge("core.", core->stats().toStatSet());
        StatSet ms = memsys->stats();
        ms.set("mshr_occupancy",
               memsys->mshrs().avgOccupancy(core->stats().cycles));
        r.stats.merge("mem.", ms);
        StatSet bp;
        bp.set("lookups", double(core->predictor().lookups));
        bp.set("mispredicts", double(core->predictor().mispredicts));
        r.stats.merge("bpred.", bp);
        if (tech)
            tech->finalizeStats(r.stats);
    }
    rec.seconds = root.close();

    out.regs = core->regs().value;
    out.pc = core->pc();
    out.memory = std::make_unique<SimMemory>(mem);
    out.client = tech != nullptr;
    out.stalls = client.stalls();
    rec.hookCalls = client.calls();
    rec.hookSeconds = client.hookSeconds(tc);
    rec.detailedInsts = double(out.result.core.instructions);
    rec.forwarderSeconds = tc.forwarderSeconds(
        out.client, rec.detailedInsts, double(out.stream.size()));
    return out;
}

/** First statistic that differs between two stat sets, or "". */
std::string
firstDifference(const StatSet &want, const StatSet &got)
{
    for (const auto &[key, value] : want.all()) {
        if (isHostTimed(key))
            continue;
        if (!got.has(key))
            return key + " missing";
        if (got.get(key) != value) {
            std::ostringstream os;
            os.precision(17);
            os << key << " " << value << " vs " << got.get(key);
            return os.str();
        }
    }
    for (const auto &[key, value] : got.all()) {
        if (!want.has(key))
            return key + " unexpected";
    }
    return "";
}

/**
 * Check (a): the re-execution reproduces the Runner's statistics. A
 * core with a client counts full-ROB stall events, so for a technique
 * without one the untraced count must be 0 and the traced count is
 * the forwarder's own stall-hook count.
 */
std::string
checkStats(const SimResult &want, const ExactRun &run)
{
    StatSet expected = want.stats;
    if (!run.client) {
        if (want.stats.getOr("core.full_rob_stall_events", 0) != 0)
            return "core.full_rob_stall_events nonzero without client";
        expected.set("core.full_rob_stall_events", double(run.stalls));
    }
    if (want.halted != run.result.halted ||
        want.verified != run.result.verified)
        return "halted/verified differ";
    return firstDifference(expected, run.result.stats);
}

/**
 * Check (b): functional execution of exactly core.instructions from
 * the job's start state reproduces registers, PC and memory, i.e. the
 * timing model and its runahead left architectural state untouched.
 */
std::string
checkArchState(const PreparedWorkload &pw, const ExactRun &run)
{
    SimMemory mem = pw.memory();
    const FunctionalCore fc(pw.predecoded(), mem);
    FunctionalState st;
    const uint64_t n = run.result.core.instructions;
    if (fc.run(st, n) != n)
        return "functional run stopped early";
    if (st.regs != run.regs)
        return "registers differ";
    if (st.pc != run.pc)
        return "pc differs";
    if (!mem.sameContent(*run.memory))
        return "memory differs";
    return "";
}

/**
 * Replay the stream through a fresh MemorySystem::access; returns its
 * mem.* statistics (with the live run's cycle count for the MSHR
 * occupancy average) and adds the replay's seconds to `seconds`.
 */
StatSet
replayAccess(const MemConfig &cfg, const SimMemory &image,
             const std::vector<MemRef> &stream, Cycle cycles,
             double &seconds)
{
    ArenaFrame frame(Arena::forCurrentThread());
    MemorySystem ms(cfg, image);
    const auto t0 = Clock::now();
    for (const MemRef &m : stream) {
        ms.access(m.addr, m.bytes, m.cycle, m.store, Requester::kMain,
                  m.pc, m.value);
    }
    seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    StatSet s = ms.stats();
    s.set("mshr_occupancy", ms.mshrs().avgOccupancy(cycles));
    StatSet prefixed;
    prefixed.merge("mem.", s);
    return prefixed;
}

/** Replay the stream through warmTouchBatch in sampling's batches. */
void
replayWarm(const MemConfig &cfg, const SimMemory &image,
           const std::vector<MemRef> &stream, double &seconds)
{
    constexpr size_t kBatch = 64;
    ArenaFrame frame(Arena::forCurrentThread());
    MemorySystem ms(cfg, image);
    std::vector<uint64_t> enc(stream.size());
    for (size_t i = 0; i < stream.size(); ++i)
        enc[i] = (stream[i].addr << 1) | (stream[i].store ? 1 : 0);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < enc.size(); i += kBatch)
        ms.warmTouchBatch(enc.data() + i, std::min(kBatch, enc.size() - i));
    seconds += std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Keep only the mem.* statistics of a result. */
StatSet
memStats(const StatSet &all)
{
    StatSet s;
    for (const auto &[key, value] : all.all()) {
        if (key.rfind("mem.", 0) == 0)
            s.set(key, value);
    }
    return s;
}

/** Re-execute, check (a)-(c) and replay one exact job. */
void
traceExactJob(const SimJob &job, const SimResult &want, Tracer &tr,
              int id, JobRecord &rec, const TracerCost &tc)
{
    ExactRun run = reexecuteExact(job, want, tr, id, rec, tc);
    std::string problem;
    {
        ScopedSpan s(tr, "check.stats", -1, id);
        problem = checkStats(want, run);
    }
    if (problem.empty()) {
        ScopedSpan s(tr, "check.arch_state", -1, id);
        problem = checkArchState(*job.workload, run);
    }
    const MemConfig &mc = job.cfg.mem;
    const SimMemory &image = job.workload->memory();
    {
        ScopedSpan s(tr, "mem.replay_access", -1, id);
        const StatSet replayed = replayAccess(
            mc, image, run.stream, run.result.core.cycles,
            rec.accessSeconds);
        if (problem.empty() && !run.client)
            problem = firstDifference(memStats(want.stats), replayed);
    }
    {
        ScopedSpan s(tr, "mem.replay_warm", -1, id);
        replayWarm(mc, image, run.stream, rec.warmSeconds);
    }
    rec.refs = run.stream.size();
    rec.problem = problem;
}

/**
 * Re-run a sampled job through runSampled, as PreparedWorkload::run
 * does, and check (a) against the Runner's result.
 */
void
traceSampledJob(const SimJob &job, const SimResult &want, Tracer &tr,
                int id, JobRecord &rec)
{
    const PreparedWorkload &pw = *job.workload;
    SimResult r;
    {
        ScopedSpan root(tr, "sampling.run", -1, id);
        Arena::forCurrentThread().reset();
        r = runSampled(job.cfg, pw.workload(), pw.memory(), nullptr, 0,
                       &pw.predecoded());
        rec.seconds = root.close();
    }
    const double fmips = r.stats.get("sample.functional_mips");
    rec.functionalInsts = r.stats.get("sample.insts_functional");
    rec.functionalSeconds =
        fmips > 0 ? rec.functionalInsts / (fmips * 1e6) : 0.0;
    rec.coreRun = rec.seconds - rec.functionalSeconds;
    rec.detailedInsts = r.stats.get("sample.insts_warmup") +
                        r.stats.get("sample.insts_measured");
    if (want.halted != r.halted || want.verified != r.verified)
        rec.problem = "halted/verified differ";
    else
        rec.problem = firstDifference(want.stats, r.stats);
}

/** One traced pool run: a record per job and the pool's wall time. */
struct TracedBatch
{
    std::vector<JobRecord> recs;
    /** TaskPool::run, the scheduler Runner::runAll uses. */
    double wallSeconds = 0;
};

/**
 * Run `jobs` on a pool of `threads`. Each task runs its job untraced,
 * as Runner::runAll does, then re-executes it traced on the same
 * worker, so the two timings see the same host conditions. A task that
 * throws records the exception as its job's problem.
 */
TracedBatch
traceJobs(const std::vector<SimJob> &jobs,
          const std::vector<SimResult> &want, bool sampled,
          unsigned threads, Tracer &tr, int first_id, const TracerCost &tc)
{
    TracedBatch batch;
    batch.recs.resize(jobs.size());
    TaskPool pool(threads);
    const auto t0 = Clock::now();
    pool.run(jobs.size(), [&](size_t i) {
        const auto start = Clock::now();
        JobRecord &rec = batch.recs[i];
        const int id = first_id + int(i);
        try {
            {
                ScopedSpan s(tr, "sim.untraced", -1, id);
                jobs[i].workload->run(jobs[i].cfg);
                rec.untracedSeconds = s.close();
            }
            if (sampled)
                traceSampledJob(jobs[i], want[i], tr, id, rec);
            else
                traceExactJob(jobs[i], want[i], tr, id, rec, tc);
        } catch (const std::exception &e) {
            rec.problem = std::string("threw: ") + e.what();
        } catch (...) {
            rec.problem = "threw a non-standard exception";
        }
        rec.taskSeconds =
            std::chrono::duration<double>(Clock::now() - start).count();
    });
    batch.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return batch;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/**
 * Write the spans, with per-job counters measured at the same
 * boundaries, the host and the metrics. `recs` runs parallel to
 * `labels`.
 */
void
writeSpans(const std::string &path, const WorkloadPlan &plan,
           uint64_t seed, const std::vector<std::string> &labels,
           const std::vector<const JobRecord *> &recs,
           const LayerReport &report, const Tracer &tr)
{
    std::ofstream out(path);
    out.precision(17);
    out << "{\n  \"workload\": " << jsonString(plan.name)
        << ",\n  \"seed\": " << seed << ",\n  \"host\": " << hostJson()
        << ",\n  \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        out << (i ? "," : "") << "\n    " << jsonString(m.name)
            << ": {\"value\": " << m.value
            << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    out << "\n  },\n  \"jobs\": [";
    for (size_t i = 0; i < labels.size(); ++i) {
        const JobRecord &r = *recs[i];
        out << (i ? "," : "") << "\n    {\"label\": "
            << jsonString(labels[i]) << ", \"seconds\": " << r.seconds
            << ", \"untraced_s\": " << r.untracedSeconds
            << ", \"core_run_s\": " << r.coreRun
            << ", \"hook_s\": " << r.hookSeconds
            << ", \"forwarder_s\": " << r.forwarderSeconds
            << ", \"hook_calls\": " << r.hookCalls
            << ", \"mem_refs\": " << r.refs
            << ", \"problem\": " << jsonString(r.problem) << "}";
    }
    out << "\n  ],\n  \"spans\": [";
    const std::vector<Span> &spans = tr.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? "," : "") << "\n    {\"name\": "
            << jsonString(s.name) << ", \"start\": " << s.start
            << ", \"end\": " << s.end << ", \"parent\": " << s.parent
            << ", \"job\": " << s.job << "}";
    }
    out << "\n  ]\n}\n";
    if (!out)
        warn("perfbench: cannot write " + path);
}

} // namespace

std::string
hostJson()
{
    std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
        __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10],
                    &regs[11])) {
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        cpu = brand;
        cpu.erase(0, cpu.find_first_not_of(' '));
    }
#endif
    utsname u{};
    uname(&u);
    std::ostringstream os;
    os << "{\"cpu\": " << jsonString(cpu)
       << ", \"vcpus\": " << std::thread::hardware_concurrency()
       << ", \"kernel\": "
       << jsonString(std::string(u.sysname) + " " + u.release + " " +
                     u.machine)
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << "}";
    return os.str();
}

LayerReport
runTraced(const WorkloadPlan &plan, uint64_t seed,
          const std::string &spans_path)
{
    LayerReport rep;
    // The untraced reference: the gated run's pass, plus (for a
    // sampled plan) the Runner results of the exact probe jobs.
    const Pass ref = runPass(plan, seed);
    rep.attempted += ref.jobs.size();
    if (const size_t f = failedJobs(plan, ref)) {
        rep.failed += f;
        rep.problems.push_back("untraced pass: " +
                               (ref.error.empty() ? "failed runs" : ref.error));
    }
    const std::vector<SimJob> refExact = exactJobsFor(plan, ref.prepared);
    std::vector<SimResult> refExactResults =
        plan.sampled() ? std::vector<SimResult>{} : ref.results;
    if (plan.sampled()) {
        rep.attempted += refExact.size();
        try {
            refExactResults = Runner(1).runAll(refExact);
        } catch (const std::exception &e) {
            rep.failed += refExact.size();
            rep.problems.push_back(std::string("probe jobs: ") + e.what());
        }
    }

    // Traced set-up.
    Tracer tr;
    std::set<std::string> graphs;
    for (const auto &[kernel, input] : plan.inputs) {
        if (!input.empty() && graphs.insert(input).second) {
            ScopedSpan s(tr, "graph.make_input_edges", -1, -1);
            makeInputEdges(graphInput(input), 0);
        }
    }
    std::deque<PreparedWorkload> prepared;
    double imageBytes = 0;
    for (const auto &input : plan.inputs) {
        {
            ScopedSpan s(tr, "workloads.prepare", -1, -1);
            prepareInput(prepared, input, seed);
        }
        imageBytes += double(prepared.back().memory().livePages()) *
                      double(kPageBytes);
    }

    // Traced re-execution and checks. Job ids number the workload's
    // own jobs first, then a sampled plan's exact probes.
    const TracerCost tc = calibrateTracer();
    const std::vector<SimJob> jobs = jobsFor(plan, prepared);
    const std::vector<SimJob> exact = exactJobsFor(plan, prepared);
    TracedBatch own;
    if (ref.results.size() == jobs.size()) {
        own = traceJobs(jobs, ref.results, plan.sampled(), plan.threads,
                        tr, 0, tc);
    }
    TracedBatch probes;
    if (plan.sampled() && refExactResults.size() == exact.size()) {
        probes = traceJobs(exact, refExactResults, false, plan.threads,
                           tr, int(own.recs.size()), tc);
    }
    rep.attempted += own.recs.size() + probes.recs.size();
    std::vector<std::string> labels;
    std::vector<const JobRecord *> recs;
    for (size_t i = 0; i < own.recs.size(); ++i) {
        labels.push_back(jobs[i].label);
        recs.push_back(&own.recs[i]);
    }
    for (size_t i = 0; i < probes.recs.size(); ++i) {
        labels.push_back(exact[i].label);
        recs.push_back(&probes.recs[i]);
    }
    for (size_t i = 0; i < recs.size(); ++i) {
        if (!recs[i]->problem.empty()) {
            ++rep.failed;
            rep.problems.push_back(labels[i] + ": " + recs[i]->problem);
        }
    }

    // Aggregate.
    const std::vector<JobRecord> &replayed =
        plan.sampled() ? probes.recs : own.recs;
    double tracedSeconds = 0, untracedSeconds = 0;
    for (const JobRecord *r : recs) {
        tracedSeconds += r->seconds;
        untracedSeconds += r->untracedSeconds;
    }
    double taskSeconds = 0, coreRun = 0, hook = 0, forwarder = 0;
    double detailed = 0, funcSeconds = 0, funcInsts = 0;
    uint64_t hookCalls = 0;
    for (const JobRecord &r : own.recs) {
        taskSeconds += r.taskSeconds;
        coreRun += r.coreRun;
        hook += r.hookSeconds;
        forwarder += r.forwarderSeconds;
        hookCalls += r.hookCalls;
        detailed += r.detailedInsts;
        funcSeconds += r.functionalSeconds;
        funcInsts += r.functionalInsts;
    }
    double accessSeconds = 0, warmSeconds = 0, refs = 0;
    for (const JobRecord &r : replayed) {
        accessSeconds += r.accessSeconds;
        warmSeconds += r.warmSeconds;
        refs += double(r.refs);
    }
    double episodes = 0, laneLoads = 0, raUseful = 0, raAll = 0;
    double demand = 0, llcMisses = 0, windows = 0, ciMax = 0;
    for (const SimResult &r : ref.results) {
        const StatSet &s = r.stats;
        episodes += s.getOr("vr.episodes", 0) + s.getOr("dvr.episodes", 0);
        laneLoads +=
            s.getOr("vr.lane_loads", 0) + s.getOr("dvr.lane_loads", 0);
        const double hidden = s.get("mem.timeliness.ra_fully_hidden") +
                              s.get("mem.timeliness.ra_partial");
        raUseful += hidden;
        raAll += hidden + s.get("mem.timeliness.ra_full_latency") +
                 s.get("mem.timeliness.ra_evicted") +
                 s.get("mem.timeliness.ra_useless");
        demand += s.get("mem.demand_accesses");
        llcMisses += s.get("mem.llc_misses");
        windows += s.getOr("sample.windows", 0);
        ciMax = std::max(ciMax, s.getOr("sample.cpi_rel_ci95", 0));
    }
    const double samplingDetailed = plan.sampled() ? coreRun : 0.0;
    // The core's own time: the core.run spans less the technique's
    // hooks and what the forwarder itself added.
    const double coreSelf = coreRun - hook - forwarder;

    rep.metrics = {
        {"graph.edges_s", "s", tr.total("graph.make_input_edges")},
        {"workloads.prepare_s", "s", tr.total("workloads.prepare")},
        {"workloads.image_mib", "MiB", imageBytes / kMiB},
        {"runner.sweep_s", "s", ref.simSeconds},
        {"runner.util", "ratio",
         ratio(taskSeconds, plan.threads * own.wallSeconds)},
        {"core.run_s", "s", coreRun},
        {"core.self_s", "s", coreSelf},
        {"core.ns_per_inst", "ns",
         1e9 * ratio(coreRun - forwarder, detailed)},
        {"runahead.hook_s", "s", hook},
        {"runahead.hook_calls", "count", double(hookCalls)},
        {"runahead.episodes", "count", episodes},
        {"runahead.lane_loads", "count", laneLoads},
        {"runahead.ns_per_lane_load", "ns", 1e9 * ratio(hook, laneLoads)},
        {"runahead.useful_frac", "ratio", ratio(raUseful, raAll)},
        {"mem.access_ns", "ns", 1e9 * ratio(accessSeconds, refs)},
        {"mem.warm_ns", "ns", 1e9 * ratio(warmSeconds, refs)},
        {"mem.cow_cloned_mib", "MiB", double(ref.cow.bytesCloned) / kMiB},
        {"common.arena_allocs_per_kinst", "allocs/kinst",
         ratio(double(ref.arena.allocCalls),
               simulatedInstructions(ref.results) / 1e3)},
        {"mem.demand_accesses", "count", demand},
        {"mem.llc_mpki", "misses/kinst", 1e3 * ratio(llcMisses, detailed)},
        {"functional.mips", "MIPS", ratio(funcInsts, funcSeconds) / 1e6},
        {"sampling.functional_s", "s", funcSeconds},
        {"sampling.detailed_s", "s", samplingDetailed},
        {"sampling.detailed_frac", "ratio",
         ratio(samplingDetailed, samplingDetailed + funcSeconds)},
        {"sampling.windows", "count", windows},
        {"sampling.cpi_ci95_rel", "ratio", ciMax},
        {"trace.overhead_frac", "ratio",
         ratio(tracedSeconds, untracedSeconds) - 1},
        {"trace.forwarder_s", "s", forwarder},
    };
    if (!spans_path.empty())
        writeSpans(spans_path, plan, seed, labels, recs, rep, tr);
    return rep;
}

} // namespace perfbench
