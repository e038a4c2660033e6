/**
 * @file
 * Self-tests of the benchmark's output checks: each check accepts a
 * consistent output and rejects the same output minimally perturbed.
 * Run with `python3 perfbench/run.py --self-test`; exits non-zero on
 * the first check that fails to reject (or wrongly rejects).
 */

#include <functional>
#include <iostream>

#include "checks.hh"

using namespace ascend;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool accepted, const std::string &msg, bool want_accept,
       const std::string &name)
{
    if (accepted == want_accept)
        return;
    ++failures;
    std::cerr << "FAIL " << name << ": expected "
              << (want_accept ? "accept" : "reject") << " ("
              << (msg.empty() ? "accepted" : msg) << ")\n";
}

void
accepts(const std::string &msg, const std::string &name)
{
    expect(msg.empty(), msg, true, name);
}

void
rejects(const std::string &msg, const std::string &name)
{
    expect(msg.empty(), msg, false, name);
}

core::SimResult
sampleResult()
{
    core::SimResult r;
    r.totalCycles = 1000;
    r.totalFlops = 123456;
    r.instrsExecuted = 77;
    r.barriers = 3;
    for (std::size_t p = 0; p < r.pipes.size(); ++p)
        r.pipes[p] = {Cycles(100 + p), Cycles(200 + p), Cycles(10 + p),
                      5 + p};
    for (std::size_t b = 0; b < r.busBytes.size(); ++b)
        r.busBytes[b] = 1000 + b;
    return r;
}

/** A layer one cycle short of each bandwidth bound is rejected. */
void
bandwidthBoundTests()
{
    arch::CoreConfig cfg; // busExt 94, busUb 2048 bytes/cycle
    using isa::Bus;
    auto layer = [](Cycles total, Bytes a, Bytes b, Bytes out,
                    Cycles busiest) {
        core::SimResult r;
        r.totalCycles = total;
        r.busBytes[std::size_t(Bus::ExtA)] = a;
        r.busBytes[std::size_t(Bus::ExtB)] = b;
        r.busBytes[std::size_t(Bus::ExtOut)] = out;
        r.pipes[std::size_t(isa::Pipe::Cube)].busyCycles = busiest;
        return r;
    };
    // Inbound: (ExtA + ExtB) = 94 * 500 bytes needs >= 500 cycles.
    accepts(checks::bandwidthBounds(layer(500, 94 * 300, 94 * 200, 0, 0),
                                    cfg, "inbound"),
            "inbound at bound");
    rejects(checks::bandwidthBounds(layer(499, 94 * 300, 94 * 200, 0, 0),
                                    cfg, "inbound"),
            "inbound one cycle short");
    // Outbound: min(UB, Ext) = 94 bytes per cycle.
    accepts(checks::bandwidthBounds(layer(400, 0, 0, 94 * 400, 0), cfg,
                                    "outbound"),
            "outbound at bound");
    rejects(checks::bandwidthBounds(layer(399, 0, 0, 94 * 400, 0), cfg,
                                    "outbound"),
            "outbound one cycle short");
    // Busiest pipe.
    accepts(checks::bandwidthBounds(layer(700, 0, 0, 0, 700), cfg, "pipe"),
            "pipe at bound");
    rejects(checks::bandwidthBounds(layer(699, 0, 0, 0, 700), cfg, "pipe"),
            "pipe one cycle short");
}

/** A reloaded entry differing in any one field is rejected. */
void
sameResultTests()
{
    const core::SimResult want = sampleResult();
    accepts(checks::sameResult(want, want, "same"), "identical entry");
    std::vector<std::pair<std::string,
                          std::function<void(core::SimResult &)>>>
        perturb = {
            {"totalCycles", [](auto &r) { ++r.totalCycles; }},
            {"totalFlops", [](auto &r) { ++r.totalFlops; }},
            {"instrsExecuted", [](auto &r) { ++r.instrsExecuted; }},
            {"barriers", [](auto &r) { ++r.barriers; }},
        };
    for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
        const std::string n = "pipe" + std::to_string(p);
        perturb.push_back({n + ".busy",
                           [p](auto &r) { ++r.pipes[p].busyCycles; }});
        perturb.push_back({n + ".finish",
                           [p](auto &r) { ++r.pipes[p].finishCycle; }});
        perturb.push_back({n + ".wait",
                           [p](auto &r) { ++r.pipes[p].waitCycles; }});
        perturb.push_back({n + ".instrs",
                           [p](auto &r) { ++r.pipes[p].instrs; }});
    }
    for (std::size_t b = 0; b < isa::kNumBuses; ++b)
        perturb.push_back({"bus" + std::to_string(b),
                           [b](auto &r) { ++r.busBytes[b]; }});
    for (const auto &[field, fn] : perturb) {
        core::SimResult got = want;
        fn(got);
        rejects(checks::sameResult(got, want, "reloaded"),
                "reloaded entry differing in " + field);
    }
}

/** A prediction moved past the error budget is rejected. */
void
budgetTests()
{
    accepts(checks::withinBudget(10200, 10000, 0.02, "pred"),
            "prediction at the budget");
    accepts(checks::withinBudget(9800, 10000, 0.02, "pred"),
            "prediction at the budget, below");
    rejects(checks::withinBudget(10201, 10000, 0.02, "pred"),
            "prediction one cycle past the budget");
    rejects(checks::withinBudget(9799, 10000, 0.02, "pred"),
            "prediction one cycle past the budget, below");
}

/** A fleet result with one request dropped is rejected. */
void
fleetTests()
{
    serving::FleetResult r;
    r.offered = 10;
    r.shed = 3;
    r.completed = 7;
    r.goodput = 6;
    r.latencies = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1};
    r.p99 = 1.1;
    accepts(checks::fleetInvariants(r, 0.5, "fleet"), "consistent fleet");
    accepts(checks::fleetTailBound(r, 1.1, "fleet"), "p99 at the bound");

    serving::FleetResult dropped = r;
    --dropped.completed;
    dropped.latencies.pop_back();
    rejects(checks::fleetInvariants(dropped, 0.5, "fleet"),
            "fleet with one completed request dropped");
    dropped = r;
    --dropped.shed;
    rejects(checks::fleetInvariants(dropped, 0.5, "fleet"),
            "fleet with one shed request dropped");

    serving::FleetResult g = r;
    g.goodput = 8;
    rejects(checks::fleetInvariants(g, 0.5, "fleet"),
            "goodput above completed");
    rejects(checks::fleetInvariants(r, 0.51, "fleet"),
            "latency below the batch-1 service time");
    rejects(checks::fleetTailBound(r, 1.09, "fleet"), "p99 past the bound");
}

/** Chip-sim results that break a method property are rejected. */
void
chipTests()
{
    // Two cores: compute sums 3 s and 1 s, 8 bytes at 2 bytes/s = 4 s.
    const std::vector<std::vector<soc::CoreTask>> work = {
        {{1.0, 2}, {2.0, 2}}, {{1.0, 4}}};
    soc::ChipSimResult r;
    r.makespan = 4.0;
    r.coreFinish = {4.0, 2.5};
    accepts(checks::chipResult(r, work, 2.0, "chip"), "consistent chip");

    soc::ChipSimResult c = r;
    c.completed = false;
    rejects(checks::chipResult(c, work, 2.0, "chip"), "incomplete chip");
    c = r;
    c.coreFinish.pop_back();
    rejects(checks::chipResult(c, work, 2.0, "chip"), "missing core finish");
    c = r;
    c.makespan = 3.9;
    c.coreFinish = {3.9, 2.5};
    rejects(checks::chipResult(c, work, 2.0, "chip"),
            "makespan below bytes / bandwidth");
    c = r;
    c.coreFinish = {4.0, 4.5};
    rejects(checks::chipResult(c, work, 2.0, "chip"),
            "makespan below the latest finish");
    c = r;
    c.makespan = 2.9;
    c.coreFinish = {2.9, 2.5};
    rejects(checks::chipResult(c, work, 4.0, "chip"),
            "makespan below the largest compute sum");
}

} // anonymous namespace

int
main()
{
    bandwidthBoundTests();
    sameResultTests();
    budgetTests();
    fleetTests();
    chipTests();
    if (failures) {
        std::cerr << failures << " check self-test(s) failed\n";
        return 1;
    }
    std::cout << "all check self-tests passed\n";
    return 0;
}
