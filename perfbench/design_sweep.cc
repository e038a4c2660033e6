/**
 * @file
 * design-sweep: seeded one-axis layer sweeps through a surrogate-on
 * session, one cold pass on a fresh cache and then warm re-queries.
 *
 * Why: SimCache lookups dominate (a prediction probes up to eight
 * anchors) along with surrogate interpolation; the compiler and the
 * core simulator run only for anchors and fallbacks. The warm passes
 * are pure lookups fanned out over the pool, so lock contention in
 * the cache shows here and almost nowhere else.
 */

#include <cmath>
#include <memory>

#include "bench.hh"
#include "checks.hh"
#include "common/rng.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"
#include "soc/training_soc.hh"

namespace perfbench {

using namespace ascend;

namespace {

/** Warm re-query passes per repetition. */
constexpr unsigned kWarmPasses = 40;

/** Predicted queries re-simulated exactly by the error-budget check. */
constexpr std::size_t kBudgetSample = 48;

/**
 * Four one-axis families in a seeded submission order. The shape set
 * itself is fixed: which shapes land on the surrogate's anchor grid
 * decides how many exact simulations a pass costs, so shifting the
 * sweeps per seed would change the work, not just the input order.
 */
std::vector<model::Layer>
makeQueries(std::uint64_t seed)
{
    std::vector<model::Layer> q;
    for (std::uint64_t i = 0; i < 400; ++i)
        q.push_back(model::Layer::linear("gemm-m", 520 + 12 * i, 1024,
                                         1024));
    for (std::uint64_t i = 0; i < 390; ++i)
        q.push_back(model::Layer::batchedMatmul("bmm-count", 12 + i, 256,
                                                64, 256));
    for (unsigned i = 0; i < 256; ++i)
        q.push_back(model::Layer::conv2d("conv-batch", 32 + i, 64, 16,
                                         16, 128, 3, 1, 1));
    for (std::uint64_t i = 0; i < 540; ++i)
        q.push_back(model::Layer::softmax("softmax-rows", 2600 + 37 * i,
                                          1024));
    Rng rng(seed ^ 0x5eeb5eebULL);
    for (std::size_t i = q.size(); i > 1; --i)
        std::swap(q[i - 1], q[rng.uniform(i)]);
    return q;
}

surrogate::SurrogateOptions
surrogateOn()
{
    surrogate::SurrogateOptions s;
    s.enabled = true;
    return s;
}

struct Pass
{
    std::vector<core::SimResult> results;
    std::vector<surrogate::Outcome> outcomes;
};

Pass
queryAll(const runtime::SimSession &s,
         const std::vector<model::Layer> &q)
{
    Pass p;
    p.results.resize(q.size());
    p.outcomes.resize(q.size());
    runtime::parallelFor(q.size(), [&](std::size_t i) {
        p.results[i] = s.runLayer(q[i], &p.outcomes[i]);
    });
    return p;
}

std::uint64_t
simsRun()
{
    return runtime::perfScope("layer-sim").calls();
}

} // anonymous namespace

Report
runDesignSweep(const RunContext &ctx, SpanLog &spans)
{
    Report rep;
    const soc::TrainingSoc soc;
    const arch::CoreConfig &cfg = soc.coreConfig();
    std::vector<model::Layer> queries;
    {
        const SpanLog::Scope span(spans, "setup");
        queries = makeQueries(ctx.seed);
    }
    const std::size_t n = queries.size();

    std::vector<double> coldSec, warmSec, repSec, sims;
    Pass first;
    std::shared_ptr<runtime::SimCache> warmCache;

    auto repetition = [&](unsigned r) {
        const SpanLog::Scope span(spans, "repetition");
        const auto start = Clock::now();
        const std::uint64_t sims0 = simsRun();
        warmCache = std::make_shared<runtime::SimCache>();
        const runtime::SimSession s(cfg, {}, warmCache, {},
                                    surrogateOn());
        Pass cold;
        {
            const SpanLog::Scope span(spans, "cold pass");
            cold = queryAll(s, queries);
        }
        coldSec.push_back(secondsSince(start));
        sims.push_back(double(simsRun() - sims0));

        const auto t = Clock::now();
        Pass warm;
        {
            const SpanLog::Scope span(spans, "warm passes");
            for (unsigned k = 0; k < kWarmPasses; ++k)
                warm = queryAll(s, queries);
        }
        warmSec.push_back(secondsSince(t));
        repSec.push_back(secondsSince(start));
        rep.attempted += (1 + kWarmPasses) * n;

        // Warm answers equal cold answers; predictions are pure
        // functions of the shape, so cold passes repeat exactly.
        if (r == 0)
            first = cold;
        for (std::size_t i = 0; i < n; ++i) {
            rep.check(checks::sameResult(warm.results[i],
                                         cold.results[i],
                                         "design-sweep warm " +
                                             std::to_string(i)));
            rep.check(checks::sameResult(cold.results[i],
                                         first.results[i],
                                         "design-sweep repeat " +
                                             std::to_string(i)));
        }
    };
    // Set-up ends with one untimed repetition (see zoo_cold.cc).
    repetition(0);
    const double setupSec = secondsSince(ctx.started);
    for (auto *v : {&coldSec, &warmSec, &repSec, &sims})
        v->clear();
    rep.attempted = 0;
    repeatFor(ctx.seconds, 3, [&](unsigned r) { repetition(r + 1); });

    // Error budget: a seeded sample of predicted queries, re-simulated
    // on an exact-only session with a cache of its own (a shared cache
    // would serve the prediction back).
    std::vector<std::size_t> predicted;
    for (std::size_t i = 0; i < n; ++i)
        if (first.outcomes[i] == surrogate::Outcome::Predicted)
            predicted.push_back(i);
    rep.check(!predicted.empty(), "design-sweep: nothing was predicted");
    {
        const SpanLog::Scope span(spans, "checks");
        Rng rng(ctx.seed ^ 0xb0d6e7ULL);
        const runtime::SimSession exact(
            cfg, {}, std::make_shared<runtime::SimCache>(), {},
            surrogate::SurrogateOptions{});
        const double budget = surrogateOn().errBudget;
        for (std::size_t k = 0;
             k < kBudgetSample && !predicted.empty(); ++k) {
            const std::size_t i =
                predicted[rng.uniform(predicted.size())];
            rep.check(checks::withinBudget(
                first.results[i].totalCycles,
                exact.runLayer(queries[i]).totalCycles, budget,
                "design-sweep prediction " + queries[i].name + " #" +
                    std::to_string(i)));
        }
    }

    rep.endToEnd["setup_s"] = {setupSec, "s"};
    rep.endToEnd["cold_items_per_s"] = {double(n) / mean(coldSec),
                                        "items/s"};
    rep.endToEnd["warm_items_per_s"] = {
        double(kWarmPasses * n) / mean(warmSec), "items/s"};

    if (ctx.trace) {
        auto &m = rep.perLayer;
        {
            const SpanLog::Scope span(spans, "SimSession::runLayer hits");
            const runtime::SimSession s(cfg, {}, warmCache, {},
                                        surrogateOn());
            const auto t = Clock::now();
            for (const model::Layer &l : queries)
                s.runLayer(l);
            m["runtime.hit_ns"] = {secondsSince(t) * 1e9 / double(n),
                                   "ns"};
        }
        m["runtime.parallel_for_us"] = {parallelForUs(), "us"};

        // One repetition at 1 thread: the speedup base, the
        // duplicate-free simulation count and the outcome counts
        // (which vary with scheduling at more threads).
        {
            const runtime::ScopedThreadPoolSize serial(1);
            const SpanLog::Scope span(spans, "repetition at 1 thread");
            const std::uint64_t sims0 = simsRun();
            const runtime::SurrogateCounters before =
                runtime::surrogateTotals();
            const auto t = Clock::now();
            const runtime::SimSession s(
                cfg, {}, std::make_shared<runtime::SimCache>(), {},
                surrogateOn());
            Pass p = queryAll(s, queries);
            const double simsT1 = double(simsRun() - sims0);
            for (unsigned k = 0; k < kWarmPasses; ++k)
                p = queryAll(s, queries);
            const double t1 = secondsSince(t);
            const runtime::SurrogateCounters after =
                runtime::surrogateTotals();
            m["runtime.sims_run"] = {median(sims), "count"};
            m["runtime.duplicate_sims"] = {median(sims) - simsT1,
                                           "count"};
            m["runtime.speedup_vs_t1"] = {t1 / mean(repSec), "ratio"};
            m["surrogate.predicted"] = {
                double(after.predictions - before.predictions), "count"};
            m["surrogate.anchors"] = {
                double(after.anchors - before.anchors), "count"};
            m["surrogate.fallback_small"] = {
                double(after.fallbackSmall - before.fallbackSmall),
                "count"};
            m["surrogate.fallback_hull"] = {
                double(after.fallbackHull - before.fallbackHull),
                "count"};
            m["surrogate.fallback_budget"] = {
                double(after.fallbackBudget - before.fallbackBudget),
                "count"};
            m["surrogate.spot_checks"] = {
                double(after.spotChecks - before.spotChecks), "count"};
            m["surrogate.predicted_share"] = {
                double(after.predictions - before.predictions) /
                    double(n),
                "ratio"};
        }

        // The compile / simulate split on every distinct query, which
        // is also the exact answer each prediction is measured against.
        const compiler::LayerCompiler compiler(cfg);
        const core::CoreSim sim(cfg);
        double compileSec = 0, simSec = 0, instrs = 0, emitted = 0,
               cycles = 0, maxErr = 0;
        for (std::size_t i = 0; i < n; ++i) {
            auto t = Clock::now();
            isa::Program prog;
            {
                const SpanLog::Scope span(spans,
                                          "LayerCompiler::compile");
                prog = compiler.compile(queries[i]);
            }
            compileSec += secondsSince(t);
            t = Clock::now();
            core::SimResult r;
            {
                const SpanLog::Scope span(spans, "CoreSim::run");
                r = sim.run(prog);
            }
            simSec += secondsSince(t);
            emitted += double(prog.size());
            instrs += double(r.instrsExecuted);
            cycles += double(r.totalCycles);
            if (first.outcomes[i] == surrogate::Outcome::Predicted)
                maxErr = std::max(
                    maxErr,
                    std::abs(double(first.results[i].totalCycles) -
                             double(r.totalCycles)) /
                        double(r.totalCycles));
        }
        m["compiler.compile_us"] = {compileSec * 1e6, "us"};
        m["compiler.instrs_emitted"] = {emitted, "count"};
        m["core.sim_us"] = {simSec * 1e6, "us"};
        m["core.instrs_per_s"] = {instrs / simSec, "1/s"};
        m["core.sim_cycles"] = {cycles, "cycles"};
        m["surrogate.max_err_pct"] = {100 * maxErr, "%"};
    }
    return rep;
}

} // namespace perfbench
