/**
 * @file
 * Output checks of the host-time benchmark.
 */

#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {
namespace checks {

using ascend::Bytes;
using ascend::Cycles;
using ascend::core::SimResult;

namespace {

/**
 * Relative slack for sums of doubles taken in a different order than
 * the simulator takes them: rounding, not modelling, error.
 */
constexpr double kFloatSlack = 1e-9;

template <typename T>
std::string
differs(const std::string &what, const std::string &field, T got,
        T want)
{
    std::ostringstream os;
    os << what << ": " << field << " is " << got << ", expected "
       << want;
    return os.str();
}

} // anonymous namespace

std::string
sameResult(const SimResult &got, const SimResult &want,
           const std::string &what)
{
    if (got.totalCycles != want.totalCycles)
        return differs(what, "totalCycles", got.totalCycles,
                       want.totalCycles);
    if (got.totalFlops != want.totalFlops)
        return differs(what, "totalFlops", got.totalFlops,
                       want.totalFlops);
    if (got.instrsExecuted != want.instrsExecuted)
        return differs(what, "instrsExecuted", got.instrsExecuted,
                       want.instrsExecuted);
    if (got.barriers != want.barriers)
        return differs(what, "barriers", got.barriers, want.barriers);
    for (std::size_t p = 0; p < got.pipes.size(); ++p) {
        const auto &g = got.pipes[p];
        const auto &w = want.pipes[p];
        const std::string pipe = "pipe[" + std::to_string(p) + "].";
        if (g.busyCycles != w.busyCycles)
            return differs(what, pipe + "busyCycles", g.busyCycles,
                           w.busyCycles);
        if (g.finishCycle != w.finishCycle)
            return differs(what, pipe + "finishCycle", g.finishCycle,
                           w.finishCycle);
        if (g.waitCycles != w.waitCycles)
            return differs(what, pipe + "waitCycles", g.waitCycles,
                           w.waitCycles);
        if (g.instrs != w.instrs)
            return differs(what, pipe + "instrs", g.instrs, w.instrs);
    }
    for (std::size_t b = 0; b < got.busBytes.size(); ++b)
        if (got.busBytes[b] != want.busBytes[b])
            return differs(what, "bus[" + std::to_string(b) + "]",
                           got.busBytes[b], want.busBytes[b]);
    return {};
}

std::string
bandwidthBounds(const SimResult &r, const ascend::arch::CoreConfig &c,
                const std::string &what)
{
    using ascend::isa::Bus;
    Cycles busiest = 0;
    for (const auto &p : r.pipes)
        busiest = std::max(busiest, p.busyCycles);
    if (r.totalCycles < busiest)
        return differs(what, "totalCycles below busiest pipe",
                       r.totalCycles, busiest);

    const Bytes inbound = r.bus(Bus::ExtA) + r.bus(Bus::ExtB);
    if (Bytes(r.totalCycles) * c.busExtBytesPerCycle < inbound)
        return differs(what, "totalCycles below inbound ext bound",
                       r.totalCycles,
                       (inbound + c.busExtBytesPerCycle - 1) /
                           c.busExtBytesPerCycle);

    const Bytes outPort =
        std::min(c.busUbBytesPerCycle, c.busExtBytesPerCycle);
    const Bytes outbound = r.bus(Bus::ExtOut);
    if (Bytes(r.totalCycles) * outPort < outbound)
        return differs(what, "totalCycles below outbound ext bound",
                       r.totalCycles, (outbound + outPort - 1) / outPort);
    return {};
}

std::string
withinBudget(Cycles predicted, Cycles exact, double budget,
             const std::string &what)
{
    const double err = std::abs(double(predicted) - double(exact)) /
                       std::max(double(exact), 1.0);
    if (err > budget) {
        std::ostringstream os;
        os << what << ": predicted " << predicted << " vs exact "
           << exact << " cycles, error " << err << " > budget "
           << budget;
        return os.str();
    }
    return {};
}

std::string
fleetInvariants(const ascend::serving::FleetResult &r,
                double service_floor_sec, const std::string &what)
{
    if (r.completed + r.shed != r.offered)
        return differs(what, "completed + shed", r.completed + r.shed,
                       r.offered);
    if (r.goodput > r.completed)
        return differs(what, "goodput above completed", r.goodput,
                       r.completed);
    if (r.latencies.size() != r.completed)
        return differs(what, "latency samples",
                       std::uint64_t(r.latencies.size()), r.completed);
    const double floor = service_floor_sec * (1 - kFloatSlack);
    for (std::size_t i = 0; i < r.latencies.size(); ++i)
        if (r.latencies[i] < floor)
            return differs(what,
                           "latency[" + std::to_string(i) +
                               "] below batch-1 service time",
                           r.latencies[i], service_floor_sec);
    return {};
}

std::string
fleetTailBound(const ascend::serving::FleetResult &r, double bound_sec,
               const std::string &what)
{
    if (r.p99 > bound_sec * (1 + kFloatSlack))
        return differs(what, "p99 above deadline + latency(maxBatch)",
                       r.p99, bound_sec);
    return {};
}

std::string
chipResult(const ascend::soc::ChipSimResult &r,
           const std::vector<std::vector<ascend::soc::CoreTask>> &work,
           double mem_bytes_per_sec, const std::string &what)
{
    if (!r.completed)
        return what + ": chip sim did not complete";
    if (r.coreFinish.size() != work.size())
        return differs(what, "coreFinish entries",
                       std::uint64_t(r.coreFinish.size()),
                       std::uint64_t(work.size()));
    const double latest =
        r.coreFinish.empty()
            ? 0
            : *std::max_element(r.coreFinish.begin(), r.coreFinish.end());
    if (r.makespan != latest)
        return differs(what, "makespan vs latest core finish",
                       r.makespan, latest);

    double longestCompute = 0;
    double totalBytes = 0;
    for (const auto &queue : work) {
        double compute = 0;
        for (const auto &t : queue) {
            compute += t.computeSeconds;
            totalBytes += double(t.memBytes);
        }
        longestCompute = std::max(longestCompute, compute);
    }
    if (r.makespan < longestCompute * (1 - kFloatSlack))
        return differs(what, "makespan below largest compute sum",
                       r.makespan, longestCompute);
    const double drain = totalBytes / mem_bytes_per_sec;
    if (r.makespan < drain * (1 - kFloatSlack))
        return differs(what, "makespan below bytes / bandwidth",
                       r.makespan, drain);
    return {};
}

} // namespace checks
} // namespace perfbench
