/**
 * @file
 * Fluid chip simulation implementation — a des::Kernel client.
 *
 * Each rate re-solve of the fluid model is one kernel event. The
 * handler solves the time to the next completion, advances the kernel
 * clock by that dt, then makes one serial pass over the active cores
 * in index order: it advances each core, folds its drained bytes into
 * the shared accumulator, reloads finished cores and tallies what the
 * next re-solve needs (memory-active count, smallest remaining
 * compute and bytes). It re-arms itself while work remains.
 *
 * Determinism notes: the pass is serial and in core-index order, so
 * the one non-exact reduction (the floating-point byte sum) has a
 * fixed sequence and output is byte-identical at any ASCEND_THREADS.
 * The arithmetic matches the pre-kernel hand-rolled loop, which the
 * checked-in tests/golden/ outputs pin.
 */

#include "soc/chip_sim.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>

#include "common/error.hh"
#include "common/logging.hh"
#include "des/kernel.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_session.hh"

namespace ascend {
namespace soc {

namespace {

[[noreturn]] void
throwGuard(const char *which, int events, double now,
           std::size_t active_cores, std::size_t cores,
           std::uint64_t tasks_done, std::uint64_t tasks_total)
{
    throwError(ErrorCode::GuardExceeded,
               "runChipSim(%s): event-count guard exceeded after %d "
               "events at t=%.9g s: %zu/%zu cores active, "
               "%llu/%llu tasks done — likely a numerical livelock "
               "in the task set",
               which, events, now, active_cores, cores,
               static_cast<unsigned long long>(tasks_done),
               static_cast<unsigned long long>(tasks_total));
}

std::uint64_t
totalTasks(const std::vector<std::vector<CoreTask>> &per_core)
{
    std::uint64_t n = 0;
    for (const auto &q : per_core)
        n += q.size();
    return n;
}

/** Fluid sim time (seconds) to trace nanoseconds. */
std::uint64_t
traceNs(double seconds)
{
    return std::uint64_t(std::llround(seconds * 1e9));
}

} // anonymous namespace

ChipSimResult
runChipSim(const std::vector<std::vector<CoreTask>> &per_core,
           double mem_bytes_per_sec, const ChipSimOptions &options)
{
    static runtime::PerfScope &perf = runtime::perfScope("chip-sim");
    const runtime::PerfTimer timer(perf);

    simAssert(mem_bytes_per_sec > 0, "memory capacity must be positive");
    const std::size_t cores = per_core.size();

    struct CoreState
    {
        std::size_t next = 0;
        double computeLeft = 0;
        double bytesLeft = 0;
        bool active = false;
        double taskStart = 0; ///< sim time the current task began
        double finish = 0;
    };
    std::vector<CoreState> state(cores);
    obs::Tracer *const tracer = obs::Tracer::current();

    auto load_next = [&](std::size_t c, double now) {
        CoreState &cs = state[c];
        while (cs.next < per_core[c].size()) {
            const CoreTask &t = per_core[c][cs.next];
            cs.computeLeft = t.computeSeconds;
            cs.bytesLeft = double(t.memBytes);
            if (cs.computeLeft > 0 || cs.bytesLeft > 0) {
                cs.active = true;
                cs.taskStart = now;
                return;
            }
            ++cs.next; // zero task: completes instantly
        }
        cs.active = false;
        cs.finish = now;
    };

    double now = 0;
    double bytes_moved = 0;
    for (std::size_t c = 0; c < cores; ++c)
        load_next(c, now);

    // What the next rate re-solve needs, tallied over the active set
    // by the pass that leaves it: the memory-active task count and
    // the smallest remaining compute and bytes.
    const double inf = std::numeric_limits<double>::infinity();
    unsigned mem_active = 0;
    double min_compute = inf;
    double min_bytes = inf;
    auto tally = [&](const CoreState &cs) {
        if (cs.computeLeft > 0)
            min_compute = std::min(min_compute, cs.computeLeft);
        if (cs.bytesLeft > 0) {
            ++mem_active;
            min_bytes = std::min(min_bytes, cs.bytesLeft);
        }
    };

    // Active-core index set, ascending: finished cores leave every
    // scan, so one event costs O(active cores), not O(all cores).
    std::vector<std::size_t> active;
    active.reserve(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        if (state[c].active) {
            active.push_back(c);
            tally(state[c]);
        }
    }

    des::Kernel kernel;
    int guard = 0;

    // One rate re-solve per kernel event; the handler re-arms itself
    // while any core is still active.
    std::function<void(des::Kernel &)> resolve;
    resolve = [&](des::Kernel &k) {
        // Time to the next completion: the per-core minimum of
        // min(computeLeft, bytesLeft / rate) equals this, because
        // dividing by one positive rate is monotone under
        // round-to-nearest.
        const double rate =
            mem_active ? mem_bytes_per_sec / mem_active : 0;
        double dt = min_compute;
        if (mem_active)
            dt = std::min(dt, min_bytes / rate);
        simAssert(dt >= 0 && dt < inf,
                  "chip sim event time must be finite");
        dt = std::max(dt, 1e-15); // numerical floor

        now += dt;
        k.advanceTo(now);
        mem_active = 0;
        min_compute = inf;
        min_bytes = inf;
        // One pass in core-index order: advance, fold the fluid byte
        // accounting, reload finished cores, compact the active set
        // in place and tally the next re-solve.
        std::size_t kept = 0;
        for (const std::size_t c : active) {
            CoreState &cs = state[c];
            if (cs.computeLeft > 0)
                cs.computeLeft = std::max(0.0, cs.computeLeft - dt);
            if (cs.bytesLeft > 0) {
                const double moved = std::min(cs.bytesLeft, rate * dt);
                cs.bytesLeft -= moved;
                bytes_moved += moved;
            }
            if (cs.computeLeft <= 0 && cs.bytesLeft <= 0) {
                if (tracer) {
                    const std::uint64_t t0 = traceNs(cs.taskStart);
                    tracer->span(obs::Domain::Chip,
                                 std::uint32_t(c) + 1, "task", t0,
                                 traceNs(now) - t0,
                                 per_core[c][cs.next].memBytes);
                }
                ++cs.next;
                load_next(c, now);
                if (!cs.active)
                    continue;
            }
            active[kept++] = c;
            tally(cs);
        }
        active.resize(kept);

        if (++guard > options.guardLimit) {
            std::uint64_t done = 0;
            for (const CoreState &cs : state)
                done += cs.next;
            throwGuard("fault-free", guard, now, active.size(), cores,
                       done, totalTasks(per_core));
        }
        if (!active.empty())
            k.schedule(now, 0, "chip.resolve", resolve);
    };

    if (!active.empty())
        kernel.schedule(0, 0, "chip.resolve", resolve);
    kernel.run();

    ChipSimResult result;
    result.makespan = now;
    result.coreFinish.reserve(cores);
    for (const CoreState &cs : state)
        result.coreFinish.push_back(cs.finish);
    result.avgMemUtilization =
        now > 0 ? bytes_moved / (mem_bytes_per_sec * now) : 0.0;
    return result;
}

ChipSimResult
runChipSim(const std::vector<std::vector<CoreTask>> &per_core,
           double mem_bytes_per_sec,
           const resilience::ChipFaultPlan &plan,
           const ChipSimOptions &options)
{
    if (plan.empty()) // bit-for-bit identical to the fault-free path
        return runChipSim(per_core, mem_bytes_per_sec, options);

    static runtime::PerfScope &perf = runtime::perfScope("chip-sim");
    const runtime::PerfTimer timer(perf);

    simAssert(mem_bytes_per_sec > 0, "memory capacity must be positive");
    const std::size_t cores = per_core.size();
    const double inf = std::numeric_limits<double>::infinity();

    struct CoreState
    {
        std::size_t next = 0;       ///< index into own queue
        CoreTask current;           ///< full values, for restart
        double computeLeft = 0;
        double bytesLeft = 0;
        bool active = false;
        bool alive = true;
        double pausedUntil = 0;     ///< transient repair window
        double slowdown = 1.0;      ///< straggler compute stretch
        std::size_t eventIdx = 0;   ///< next unapplied fault event
        double taskStart = 0;       ///< sim time the current task began
        double finish = 0;
    };
    std::vector<CoreState> state(cores);
    obs::Tracer *const tracer = obs::Tracer::current();
    for (std::size_t c = 0; c < cores; ++c)
        if (c < plan.stragglerFactor.size())
            state[c].slowdown =
                std::max(plan.stragglerFactor[c], 1.0);

    ChipSimResult result;
    std::deque<CoreTask> orphans; ///< work shed by dead cores

    auto start_task = [](CoreState &cs, const CoreTask &t) {
        cs.current = t;
        cs.computeLeft = t.computeSeconds;
        cs.bytesLeft = double(t.memBytes);
        cs.active = cs.computeLeft > 0 || cs.bytesLeft > 0;
        return cs.active;
    };

    // Advance cs to its next non-trivial task: own queue first, then
    // the orphan pool (lowest-index idle core pulls first since the
    // callers iterate cores in order).
    auto load_next = [&](std::size_t c, double now) {
        CoreState &cs = state[c];
        while (cs.next < per_core[c].size()) {
            if (start_task(cs, per_core[c][cs.next])) {
                cs.taskStart = now;
                return;
            }
            ++cs.next; // zero task: completes instantly
        }
        while (!orphans.empty()) {
            const CoreTask t = orphans.front();
            orphans.pop_front();
            ++result.reDispatchedTasks;
            if (start_task(cs, t)) {
                cs.taskStart = now;
                return;
            }
        }
        cs.active = false;
        cs.finish = now;
    };

    auto events_of = [&](std::size_t c)
        -> const std::vector<resilience::FaultEvent> & {
        static const std::vector<resilience::FaultEvent> none;
        return c < plan.coreEvents.size() ? plan.coreEvents[c] : none;
    };

    // Apply every fault event due at or before @p now.
    auto apply_events = [&](double now) {
        for (std::size_t c = 0; c < cores; ++c) {
            CoreState &cs = state[c];
            const auto &events = events_of(c);
            while (cs.eventIdx < events.size() &&
                   events[cs.eventIdx].timeSec <= now) {
                const resilience::FaultEvent &e = events[cs.eventIdx];
                ++cs.eventIdx;
                if (!cs.alive)
                    continue;
                ++result.coreFailures;
                if (e.kind == resilience::FaultKind::CorePermanent) {
                    cs.alive = false;
                    cs.finish = e.timeSec;
                    if (cs.active) // shed in-flight task, restarted
                        orphans.push_back(cs.current);
                    for (std::size_t i = cs.next + (cs.active ? 1 : 0);
                         i < per_core[c].size(); ++i)
                        orphans.push_back(per_core[c][i]);
                    cs.next = per_core[c].size();
                    cs.active = false;
                } else { // transient: pause and restart from scratch
                    cs.pausedUntil = std::max(
                        cs.pausedUntil, e.timeSec + e.durationSec);
                    if (cs.active) {
                        cs.computeLeft = cs.current.computeSeconds;
                        cs.bytesLeft = double(cs.current.memBytes);
                    }
                }
            }
        }
    };

    double now = 0;
    double bytes_moved = 0;
    apply_events(now);
    for (std::size_t c = 0; c < cores; ++c)
        if (state[c].alive)
            load_next(c, now);

    des::Kernel kernel;
    int guard = 0;

    // One degraded-mode re-solve per kernel event. The handler either
    // advances the fluid state by one completion interval, or — when
    // nothing can run — jumps the clock to the next external wake-up
    // (fault strike or repair completion). It re-arms itself until
    // the work drains or no survivor can ever run again.
    std::function<void(des::Kernel &)> resolve;
    resolve = [&](des::Kernel &k) {
        // Idle survivors pick up orphaned work as it appears.
        for (std::size_t c = 0; c < cores && !orphans.empty(); ++c)
            if (state[c].alive && !state[c].active)
                load_next(c, now);

        // A core makes progress only when alive and out of repair.
        auto running = [&](const CoreState &cs) {
            return cs.active && cs.alive && now >= cs.pausedUntil;
        };

        unsigned mem_active = 0;
        bool any_running = false;
        bool any_pending = false;
        for (const CoreState &cs : state) {
            if (!cs.active)
                continue;
            any_pending = true;
            if (!running(cs))
                continue;
            any_running = true;
            if (cs.bytesLeft > 0)
                ++mem_active;
        }

        // Next external wake-up: fault events and repair completions.
        double wake = inf;
        for (std::size_t c = 0; c < cores; ++c) {
            const CoreState &cs = state[c];
            const auto &events = events_of(c);
            if (cs.alive && cs.eventIdx < events.size())
                wake = std::min(wake, events[cs.eventIdx].timeSec);
            if (cs.active && cs.alive && cs.pausedUntil > now)
                wake = std::min(wake, cs.pausedUntil);
        }

        if (!any_running) {
            if (!any_pending && orphans.empty())
                return; // all work drained; later events are moot
            if (wake == inf) {
                // Work remains but no core can ever run it again.
                result.completed = false;
                return;
            }
            now = wake;
            k.advanceTo(now);
            apply_events(now);
            if (++guard > options.guardLimit) {
                std::uint64_t done = 0;
                for (const CoreState &cs : state)
                    done += cs.next;
                throwGuard("degraded", guard, now, cores, cores, done,
                           totalTasks(per_core));
            }
            k.schedule(now, 0, "chip.wake", resolve);
            return;
        }

        const double rate =
            mem_active ? mem_bytes_per_sec / mem_active : 0;

        double dt = wake == inf ? inf : wake - now;
        for (const CoreState &cs : state) {
            if (!running(cs))
                continue;
            const double compute_dt = cs.computeLeft * cs.slowdown;
            double task_dt = 0;
            if (cs.bytesLeft > 0 && cs.computeLeft > 0)
                task_dt = std::min(compute_dt, cs.bytesLeft / rate);
            else if (cs.bytesLeft > 0)
                task_dt = cs.bytesLeft / rate;
            else
                task_dt = compute_dt;
            dt = std::min(dt, task_dt);
        }
        simAssert(dt >= 0 && dt < inf,
                  "chip sim event time must be finite");
        dt = std::max(dt, 1e-15); // numerical floor

        const double t0 = now; // running() must see the old time
        now += dt;
        k.advanceTo(now);
        // Advance in core-index order. A completed core refills from
        // its queue, then from the orphan pool, before the next core
        // advances, so the shared orphan deque is popped lowest-index
        // core first.
        for (std::size_t c = 0; c < cores; ++c) {
            CoreState &cs = state[c];
            if (!cs.active || !cs.alive || t0 < cs.pausedUntil)
                continue;
            if (cs.computeLeft > 0)
                cs.computeLeft =
                    std::max(0.0, cs.computeLeft - dt / cs.slowdown);
            if (cs.bytesLeft > 0) {
                const double moved = std::min(cs.bytesLeft, rate * dt);
                cs.bytesLeft -= moved;
                bytes_moved += moved;
            }
            if (cs.computeLeft > 0 || cs.bytesLeft > 0)
                continue;
            if (tracer) {
                // The span covers the whole residency including
                // repair pauses and restarts, matching what a
                // wall-observer of the degraded chip would see.
                const std::uint64_t start = traceNs(cs.taskStart);
                tracer->span(obs::Domain::Chip, std::uint32_t(c) + 1,
                             "task", start, traceNs(now) - start,
                             cs.current.memBytes);
            }
            ++cs.next;
            load_next(c, now);
        }
        apply_events(now);
        if (++guard > options.guardLimit) {
            std::uint64_t done = 0;
            for (const CoreState &cs : state)
                done += cs.next;
            std::size_t live_active = 0;
            for (const CoreState &cs : state)
                if (cs.active)
                    ++live_active;
            throwGuard("degraded", guard, now, live_active, cores, done,
                       totalTasks(per_core));
        }
        k.schedule(now, 0, "chip.resolve", resolve);
    };

    kernel.schedule(0, 0, "chip.resolve", resolve);
    kernel.run();

    result.makespan = now;
    result.coreFinish.reserve(cores);
    for (const CoreState &cs : state)
        result.coreFinish.push_back(cs.finish);
    result.avgMemUtilization =
        now > 0 ? bytes_moved / (mem_bytes_per_sec * now) : 0.0;
    return result;
}

double
chipStepSeconds(const std::vector<std::vector<CoreTask>> &per_core,
                double mem_bytes_per_sec,
                const resilience::ChipFaultPlan &plan)
{
    return runChipSim(per_core, mem_bytes_per_sec, plan).makespan;
}

std::vector<CoreTask>
coreTasks(const runtime::SimSession &session, const model::Network &net)
{
    const double clk_hz = session.config().clockGhz * 1e9;
    std::vector<CoreTask> tasks;
    tasks.reserve(net.layers.size());
    for (const auto &run : session.runInference(net)) {
        CoreTask t;
        t.computeSeconds = double(run.result.totalCycles) / clk_hz;
        t.memBytes = run.result.extBytes();
        tasks.push_back(t);
    }
    return tasks;
}

} // namespace soc
} // namespace ascend
