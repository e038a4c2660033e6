/**
 * @file
 * chip-4096: the fluid chip simulator at cluster-node scale, 4096
 * cores with a seeded task queue each.
 *
 * Why: the DES kernel's phases and chip_sim's fan-out over
 * runtime::parallelFor do all of the work; there is no compile, no
 * core simulation and no cache. The warm pass repeats the same
 * simulation: the chip simulator keeps nothing between calls, so the
 * two passes should read the same, and a memo added later would show
 * here as a gap.
 */

#include "bench.hh"
#include "checks.hh"
#include "common/rng.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"

namespace perfbench {

using namespace ascend;

namespace {

constexpr unsigned kCores = 4096;
constexpr double kMemBytesPerSec = 4e12;

constexpr unsigned kTasksPerCore = 128;

/**
 * 4096 queues of 128 tasks. Durations and sizes sit on a coarse grid
 * (five compute steps, eleven byte sizes) so that many cores finish
 * tasks at the same instant, as lockstep SPMD work does. Queue q's
 * pattern is fixed; the seed permutes which core runs which queue.
 * The event count depends on the queue set, so varying the queues per
 * seed would change the work per task, not just its placement.
 */
std::vector<std::vector<soc::CoreTask>>
makeWork(std::uint64_t seed)
{
    std::vector<unsigned> queue(kCores);
    for (unsigned c = 0; c < kCores; ++c)
        queue[c] = c;
    Rng rng(seed ^ 0xc419c419ULL);
    for (std::size_t i = kCores; i > 1; --i)
        std::swap(queue[i - 1], queue[rng.uniform(i)]);

    std::vector<std::vector<soc::CoreTask>> work(kCores);
    for (unsigned c = 0; c < kCores; ++c) {
        const unsigned q = queue[c];
        for (unsigned k = 0; k < kTasksPerCore; ++k)
            work[c].push_back(soc::CoreTask{
                1e-4 * double(1 + (q + 3 * k) % 5),
                Bytes((q % 11) + (k % 7) + 1) * kMiB});
    }
    return work;
}

} // anonymous namespace

Report
runChip4096(const RunContext &ctx, SpanLog &spans)
{
    Report rep;
    std::vector<std::vector<soc::CoreTask>> work;
    const std::size_t tasks = std::size_t(kCores) * kTasksPerCore;
    soc::ChipSimOptions options; // defaults: no inherited grain
    {
        const SpanLog::Scope span(spans, "setup");
        work = makeWork(ctx.seed);
    }

    auto simulate = [&](const char *name) {
        const SpanLog::Scope span(spans, name);
        return soc::runChipSim(work, kMemBytesPerSec, options);
    };

    std::vector<double> coldSec, warmSec;
    soc::ChipSimResult first;
    auto repetition = [&](unsigned r) {
        const SpanLog::Scope span(spans, "repetition");
        auto t = Clock::now();
        const soc::ChipSimResult cold = simulate("soc::runChipSim cold");
        coldSec.push_back(secondsSince(t));

        t = Clock::now();
        const soc::ChipSimResult warm = simulate("soc::runChipSim warm");
        warmSec.push_back(secondsSince(t));
        rep.attempted += 2 * tasks;

        if (r == 0) {
            first = cold;
            rep.check(checks::chipResult(cold, work, kMemBytesPerSec,
                                         "chip-4096"));
        }
        rep.check(warm.makespan == first.makespan &&
                      cold.makespan == first.makespan &&
                      warm.coreFinish == first.coreFinish,
                  "chip-4096: repeated simulation changed the result");
    };
    // Set-up ends with one untimed repetition (see zoo_cold.cc).
    repetition(0);
    const double setupSec = secondsSince(ctx.started);
    coldSec.clear();
    warmSec.clear();
    rep.attempted = 0;
    repeatFor(ctx.seconds, 3, [&](unsigned r) { repetition(r + 1); });

    {
        // Thread-count invariance: a 1-thread recomputation gives the
        // identical makespan and per-core finish times.
        const SpanLog::Scope span(spans, "checks");
        const runtime::ScopedThreadPoolSize serial(1);
        const soc::ChipSimResult t1 =
            soc::runChipSim(work, kMemBytesPerSec, options);
        rep.check(t1.makespan == first.makespan &&
                      t1.coreFinish == first.coreFinish,
                  "chip-4096: 1-thread makespan differs");
    }

    rep.endToEnd["setup_s"] = {setupSec, "s"};
    rep.endToEnd["cold_items_per_s"] = {double(tasks) / mean(coldSec),
                                        "items/s"};
    rep.endToEnd["warm_items_per_s"] = {double(tasks) / mean(warmSec),
                                        "items/s"};

    if (ctx.trace) {
        auto &m = rep.perLayer;
        const runtime::KernelCounters k0 = runtime::kernelTotals();
        simulate("soc::runChipSim counters");
        const runtime::KernelCounters k1 = runtime::kernelTotals();
        const double ev = double(k1.eventsDispatched - k0.eventsDispatched);
        m["des.events_dispatched"] = {ev, "count"};
        m["des.quiescent_points"] = {
            double(k1.quiescentPoints - k0.quiescentPoints), "count"};
        m["des.phases_run"] = {double(k1.phasesRun - k0.phasesRun),
                               "count"};
        m["des.queue_high_water"] = {double(k1.queueHighWater), "count"};
        m["des.ns_per_event"] = {mean(coldSec) * 1e9 / ev, "ns"};
        m["soc.chip_sim_ms"] = {mean(coldSec) * 1e3, "ms"};
        m["soc.events_per_task"] = {ev / double(tasks), "ratio"};
        m["runtime.parallel_for_us"] = {parallelForUs(), "us"};

        const runtime::ScopedThreadPoolSize serial(1);
        const auto t = Clock::now();
        simulate("soc::runChipSim at 1 thread");
        m["runtime.speedup_vs_t1"] = {secondsSince(t) / mean(coldSec),
                                      "ratio"};
    }
    return rep;
}

} // namespace perfbench
