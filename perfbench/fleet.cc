/**
 * @file
 * fleet: serving::runFleet on long seeded arrival traces, with
 * latency curves measured on the chip simulator during set-up.
 *
 * Why: the DES event chain and the serving handlers do the work; it is
 * the same kernel as chip-4096, used serially instead of in phases.
 * Set-up builds ResNet50 and MobileNetV2 (the brownout rung) batch
 * latency curves through a surrogate-on session, as bench_serving
 * does, so compiler, core-sim and surrogate costs land in setup_s.
 * The warm pass serves the same traces again: the fleet keeps nothing
 * between runs, so both passes should read the same.
 */

#include <memory>

#include "bench.hh"
#include "checks.hh"
#include "common/rng.hh"
#include "model/zoo.hh"
#include "resilience/fault_domain.hh"
#include "runtime/perf_stats.hh"
#include "serving/fleet.hh"
#include "soc/training_soc.hh"

namespace perfbench {

using namespace ascend;
using serving::BatchLatencyModel;
using serving::FleetOptions;
using serving::FleetResult;

namespace {

/** Offered requests per cell at load 1.0 (scaled by the cell load). */
constexpr double kRequestsAtSaturation = 30000;

/**
 * Fault schedules do not follow --seed: where a replica dies decides
 * how much of a trace is shed, so seeded faults would change the work
 * per request, not just the arrival instants.
 */
constexpr std::uint64_t kFaultSeed = 8;

/** Two QoS classes, deadlines in units of the full-batch latency. */
std::vector<serving::QosTier>
tiers(double lb)
{
    serving::QosTier premium;
    premium.name = "premium";
    premium.deadlineSec = 5.0 * lb;
    premium.share = 0.2;
    premium.sheddable = false;
    premium.reservedSlots = 2;
    serving::QosTier standard;
    standard.name = "standard";
    standard.deadlineSec = 3.0 * lb;
    standard.share = 0.8;
    return {premium, standard};
}

/** Governed fleet: admission control, hedging and autoscale on. */
FleetOptions
governed(double lb)
{
    FleetOptions o;
    o.replicas = 4;
    o.warmSpares = 1;
    o.failoverSec = 2.0 * lb;
    o.admission.enabled = true;
    o.hedge.enabled = true;
    o.hedge.afterSec = 1.25 * lb;
    o.autoscale.enabled = true;
    o.autoscale.checkIntervalSec = 2.0 * lb;
    o.autoscale.queueDepthPerReplica = 16;
    o.autoscale.spinUpSec = 5.0 * lb;
    o.autoscale.maxExtraReplicas = 2;
    o.retry.maxRetries = 3;
    o.retry.timeoutSec = 0.5 * lb;
    o.retry.backoffBaseSec = 0.1 * lb;
    return o;
}

/** One fleet run: its inputs and whether the tail bound applies. */
struct Cell
{
    std::string name;
    std::vector<serving::Request> arrivals;
    resilience::FaultSchedule faults;
    FleetOptions options;
    bool brownout = false;  ///< dispatches on the cheap curve too
    bool tailBound = false; ///< fault-free governed
};

std::vector<Cell>
makeCells(std::uint64_t seed, const BatchLatencyModel &model,
          const std::vector<serving::QosTier> &tt)
{
    Rng rng(seed ^ 0xf1ee7ULL);
    const double lb = model.latencySeconds(model.maxBatch());
    std::vector<Cell> cells;

    auto arrivals = [&](double load, unsigned replicas, bool bursty) {
        const double sat = model.saturationRequestsPerSec(replicas);
        serving::ArrivalSpec a;
        a.seed = rng.next();
        a.ratePerSec = load * sat;
        a.horizonSec = kRequestsAtSaturation / sat;
        if (bursty) {
            a.burstFactor = 2.0;
            a.burstPeriodSec = a.horizonSec / 10.0;
            a.burstDuty = 0.3;
        }
        return serving::generateArrivals(a, tt);
    };
    const resilience::FaultSchedule none =
        resilience::FaultSchedule::generate(resilience::FaultSpec{});

    for (double load : {0.7, 1.5}) {
        Cell c;
        c.name = "governed load " + std::to_string(load);
        c.arrivals = arrivals(load, 4, true);
        c.faults = none;
        c.options = governed(lb);
        c.tailBound = true;
        cells.push_back(std::move(c));
    }
    // A hedged governed cell with independent replica faults is left
    // out: on some arrival traces it answers requests twice
    // (completed + shed > offered; see the FOUND line in CHANGES.md).
    {
        // One rack of two struck, against the full defenses.
        Cell c;
        c.name = "defended rack outage";
        c.arrivals = arrivals(0.95, 8, false);
        resilience::CorrelatedFaultSpec f;
        f.seed = kFaultSeed;
        f.horizonSec = c.arrivals.back().arrivalSec;
        f.topology.replicas = 8;
        f.topology.replicasPerRack = 4;
        if (!resilience::applyFaultProfile(f, "rack"))
            throw std::runtime_error("fault profile 'rack' is unknown");
        c.faults = resilience::generateCorrelated(f);
        FleetOptions &o = c.options;
        o.replicas = 8;
        o.admission.enabled = true;
        o.retry.maxRetries = 3;
        o.retry.timeoutSec = 0.5 * lb;
        o.retry.backoffBaseSec = 0.1 * lb;
        o.retry.jitterFraction = 0.5;
        o.retry.jitterSeed = f.seed;
        o.reoffer.enabled = true;
        o.reoffer.delaySec = 2.0 * lb;
        o.health.enabled = true;
        o.health.cooloffSec = 2.0 * lb;
        o.brownout.enabled = true;
        o.brownout.minResidencySec = 5.0 * lb;
        c.brownout = true;
        cells.push_back(std::move(c));
    }
    return cells;
}

} // anonymous namespace

Report
runFleet(const RunContext &ctx, SpanLog &spans)
{
    Report rep;
    const soc::TrainingSoc soc;
    BatchLatencyModel model, cheap;
    std::vector<serving::QosTier> tt;
    std::vector<Cell> cells;
    double curveSec = 0, arrivalsSec = 0;
    runtime::SurrogateCounters surBefore, surAfter;
    std::uint64_t sims = 0;
    {
        const SpanLog::Scope span(spans, "setup");
        surrogate::SurrogateOptions sur;
        sur.enabled = true;
        const runtime::SimSession session(
            soc.coreConfig(), {}, std::make_shared<runtime::SimCache>(),
            {}, sur);
        surBefore = runtime::surrogateTotals();
        const std::uint64_t sims0 =
            runtime::perfScope("layer-sim").calls();
        auto t = Clock::now();
        {
            const SpanLog::Scope s(spans,
                                   "BatchLatencyModel::fromNetwork");
            const double ghz = session.config().clockGhz;
            const auto anchors = BatchLatencyModel::denseAnchors(16);
            model = BatchLatencyModel::fromNetwork(
                session, [](unsigned b) { return model::zoo::resnet50(b); },
                anchors, ghz);
            cheap = BatchLatencyModel::fromNetwork(
                session,
                [](unsigned b) { return model::zoo::mobilenetV2(b); },
                anchors, ghz);
        }
        curveSec = secondsSince(t);
        surAfter = runtime::surrogateTotals();
        sims = runtime::perfScope("layer-sim").calls() - sims0;

        t = Clock::now();
        {
            const SpanLog::Scope s(spans, "serving::generateArrivals");
            tt = tiers(model.latencySeconds(model.maxBatch()));
            cells = makeCells(ctx.seed, model, tt);
        }
        arrivalsSec = secondsSince(t);
    }

    std::uint64_t requests = 0;
    for (const Cell &c : cells)
        requests += c.arrivals.size();

    auto serve = [&](const char *pass) {
        std::vector<FleetResult> out;
        for (const Cell &c : cells) {
            const SpanLog::Scope span(spans, std::string("serving::runFleet ") +
                                                 pass + " " + c.name);
            out.push_back(serving::runFleet(c.arrivals, tt, model,
                                            c.faults, c.options,
                                            c.brownout ? &cheap : nullptr));
        }
        return out;
    };

    const double lb = model.latencySeconds(model.maxBatch());
    const double floorSec =
        std::min(model.latencySeconds(1), cheap.latencySeconds(1));
    const double tailBoundSec = tt[0].deadlineSec + lb;

    std::vector<double> coldSec, warmSec;
    std::vector<FleetResult> first;
    auto repetition = [&](unsigned r) {
        const SpanLog::Scope span(spans, "repetition");
        auto t = Clock::now();
        const std::vector<FleetResult> cold = serve("cold");
        coldSec.push_back(secondsSince(t));
        t = Clock::now();
        const std::vector<FleetResult> warm = serve("warm");
        warmSec.push_back(secondsSince(t));
        rep.attempted += 2 * requests;

        if (r == 0) {
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const Cell &c = cells[i];
                rep.check(checks::fleetInvariants(
                    cold[i], c.brownout ? floorSec
                                        : model.latencySeconds(1),
                    "fleet " + c.name));
                if (c.tailBound)
                    rep.check(checks::fleetTailBound(
                        cold[i], tailBoundSec, "fleet " + c.name));
            }
            first = cold;
        }
        for (std::size_t i = 0; i < cells.size(); ++i)
            rep.check(cold[i].latencies == first[i].latencies &&
                          warm[i].latencies == first[i].latencies &&
                          warm[i].shed == first[i].shed,
                      "fleet " + cells[i].name +
                          ": repeated run changed the result");
    };
    // Set-up ends with one untimed repetition (see zoo_cold.cc).
    repetition(0);
    const double setupSec = secondsSince(ctx.started);
    coldSec.clear();
    warmSec.clear();
    rep.attempted = 0;
    repeatFor(ctx.seconds, 3, [&](unsigned r) { repetition(r + 1); });

    rep.endToEnd["setup_s"] = {setupSec, "s"};
    rep.endToEnd["cold_items_per_s"] = {
        double(requests) / mean(coldSec), "items/s"};
    rep.endToEnd["warm_items_per_s"] = {
        double(requests) / mean(warmSec), "items/s"};

    if (ctx.trace) {
        auto &m = rep.perLayer;
        const runtime::KernelCounters k0 = runtime::kernelTotals();
        const std::vector<FleetResult> res = serve("counters");
        const runtime::KernelCounters k1 = runtime::kernelTotals();
        const double ev = double(k1.eventsDispatched - k0.eventsDispatched);
        double offered = 0, completed = 0, shed = 0, goodput = 0;
        for (const FleetResult &f : res) {
            offered += double(f.offered);
            completed += double(f.completed);
            shed += double(f.shed);
            goodput += double(f.goodput);
        }
        m["des.events_dispatched"] = {ev, "count"};
        m["des.quiescent_points"] = {
            double(k1.quiescentPoints - k0.quiescentPoints), "count"};
        m["des.phases_run"] = {double(k1.phasesRun - k0.phasesRun),
                               "count"};
        m["des.queue_high_water"] = {double(k1.queueHighWater), "count"};
        m["des.ns_per_event"] = {mean(coldSec) * 1e9 / ev, "ns"};
        m["serving.run_fleet_ms"] = {mean(coldSec) * 1e3, "ms"};
        m["serving.events_per_request"] = {ev / double(requests), "ratio"};
        m["serving.latency_model_ms"] = {curveSec * 1e3, "ms"};
        m["serving.arrivals_ms"] = {arrivalsSec * 1e3, "ms"};
        m["serving.offered"] = {offered, "count"};
        m["serving.completed"] = {completed, "count"};
        m["serving.shed"] = {shed, "count"};
        m["serving.goodput"] = {goodput, "count"};

        // Set-up ran at the workload's single thread, so its surrogate
        // outcome counts are the scheduling-free ones.
        auto d = [&](std::uint64_t a, std::uint64_t b) {
            return double(a - b);
        };
        const double q = double(surAfter.queries() - surBefore.queries());
        m["surrogate.predicted"] = {
            d(surAfter.predictions, surBefore.predictions), "count"};
        m["surrogate.anchors"] = {d(surAfter.anchors, surBefore.anchors),
                                  "count"};
        m["surrogate.fallback_small"] = {
            d(surAfter.fallbackSmall, surBefore.fallbackSmall), "count"};
        m["surrogate.fallback_hull"] = {
            d(surAfter.fallbackHull, surBefore.fallbackHull), "count"};
        m["surrogate.fallback_budget"] = {
            d(surAfter.fallbackBudget, surBefore.fallbackBudget),
            "count"};
        m["surrogate.spot_checks"] = {
            d(surAfter.spotChecks, surBefore.spotChecks), "count"};
        m["surrogate.predicted_share"] = {
            d(surAfter.predictions, surBefore.predictions) / q, "ratio"};
        m["surrogate.max_err_pct"] = {100 * surAfter.maxRelError, "%"};
        m["runtime.sims_run"] = {double(sims), "count"};
        m["runtime.parallel_for_us"] = {parallelForUs(), "us"};
        m["runtime.speedup_vs_t1"] = {1.0, "ratio"};
    }
    return rep;
}

} // namespace perfbench
