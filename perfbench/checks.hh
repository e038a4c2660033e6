/**
 * @file
 * Output checks of the host-time benchmark.
 *
 * Each check compares a simulator output against a value computed
 * apart from the program, or against a property the method must
 * have. None of them reads a value the program does not fix: no
 * cache hit/miss counts and no surrogate outcome counts (both vary
 * with thread scheduling), and no speed figures.
 *
 * Every check returns an empty string when it holds and a one-line
 * description of the first violation otherwise. checks_test.cc shows
 * that each one rejects a minimally perturbed output.
 */

#ifndef ASCEND_PERFBENCH_CHECKS_HH
#define ASCEND_PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "arch/core_config.hh"
#include "core/core_sim.hh"
#include "serving/fleet.hh"
#include "soc/chip_sim.hh"

namespace perfbench {
namespace checks {

/**
 * Field-by-field equality of two simulated results (cycles, flops,
 * instructions, barriers, every pipe and bus counter).
 */
std::string sameResult(const ascend::core::SimResult &got,
                       const ascend::core::SimResult &want,
                       const std::string &what);

/**
 * Bandwidth lower bounds one simulated layer must meet:
 *  - totalCycles >= the busiest pipe's busy cycles;
 *  - totalCycles >= (ExtA + ExtB bytes) / busExtBytesPerCycle;
 *  - totalCycles >= ExtOut bytes / min(busUb, busExt bytes per cycle).
 * Evaluated in exact integer arithmetic.
 */
std::string bandwidthBounds(const ascend::core::SimResult &r,
                            const ascend::arch::CoreConfig &config,
                            const std::string &what);

/** |predicted - exact| / exact <= @p budget, on total cycles. */
std::string withinBudget(ascend::Cycles predicted, ascend::Cycles exact,
                         double budget, const std::string &what);

/**
 * Fleet invariants: completed + shed == offered, goodput <= completed,
 * one latency per completion, and every latency at least
 * @p service_floor_sec (the fastest batch-1 latency any model the
 * run may dispatch on).
 */
std::string fleetInvariants(const ascend::serving::FleetResult &r,
                            double service_floor_sec,
                            const std::string &what);

/** Tail bound of a fault-free governed run: p99 <= @p bound_sec. */
std::string fleetTailBound(const ascend::serving::FleetResult &r,
                           double bound_sec, const std::string &what);

/**
 * Fluid chip-sim properties: completed; one finish time per core; the
 * makespan equals the latest finish; the makespan is at least every
 * core's compute sum and at least total bytes / @p mem_bytes_per_sec.
 */
std::string
chipResult(const ascend::soc::ChipSimResult &r,
           const std::vector<std::vector<ascend::soc::CoreTask>> &work,
           double mem_bytes_per_sec, const std::string &what);

} // namespace checks
} // namespace perfbench

#endif // ASCEND_PERFBENCH_CHECKS_HH
