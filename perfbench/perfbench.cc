/**
 * @file
 * Host-time benchmark driver: runs one workload in this process and
 * prints one JSON object as the last line of stdout.
 *
 *   perfbench --workload <zoo-cold|design-sweep|chip-4096|fleet>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --t0-ns <CLOCK_MONOTONIC ns at process launch>
 *             --out-dir <dir>
 *
 * perfbench/run.py builds this binary, pins the environment and runs
 * it; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "runtime/thread_pool.hh"

namespace perfbench {

long
SpanLog::open(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.startUs = secondsSince(origin_) * 1e6;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(long(spans_.size()) - 1);
    return stack_.back();
}

void
SpanLog::close(long index)
{
    spans_[std::size_t(index)].endUs = secondsSince(origin_) * 1e6;
    stack_.pop_back();
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Every per-layer metric a traced run reports, with its unit. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"graph.lower_us", "us"},
    {"graph.layers_lowered", "count"},
    {"compiler.compile_us", "us"},
    {"compiler.instrs_emitted", "count"},
    {"core.sim_us", "us"},
    {"core.instrs_per_s", "1/s"},
    {"core.sim_cycles", "cycles"},
    {"runtime.sims_run", "count"},
    {"runtime.duplicate_sims", "count"},
    {"runtime.hit_ns", "ns"},
    {"runtime.cache_save_ms", "ms"},
    {"runtime.cache_load_ms", "ms"},
    {"runtime.cache_file_bytes", "bytes"},
    {"runtime.parallel_for_us", "us"},
    {"runtime.speedup_vs_t1", "ratio"},
    {"surrogate.predicted", "count"},
    {"surrogate.anchors", "count"},
    {"surrogate.fallback_small", "count"},
    {"surrogate.fallback_hull", "count"},
    {"surrogate.fallback_budget", "count"},
    {"surrogate.spot_checks", "count"},
    {"surrogate.predicted_share", "ratio"},
    {"surrogate.max_err_pct", "%"},
    {"des.events_dispatched", "count"},
    {"des.quiescent_points", "count"},
    {"des.phases_run", "count"},
    {"des.queue_high_water", "count"},
    {"des.ns_per_event", "ns"},
    {"soc.chip_sim_ms", "ms"},
    {"soc.events_per_task", "ratio"},
    {"serving.run_fleet_ms", "ms"},
    {"serving.events_per_request", "ratio"},
    {"serving.latency_model_ms", "ms"},
    {"serving.arrivals_ms", "ms"},
    {"serving.offered", "count"},
    {"serving.completed", "count"},
    {"serving.shed", "count"},
    {"serving.goodput", "count"},
};

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"cold_items_per_s", "items/s"},
    {"warm_items_per_s", "items/s"},
};

/**
 * The metric map in its canonical order. A layer a workload does not
 * exercise reads 0 (no work, no time). A name outside the canonical
 * list, or a unit that disagrees with it, is a bug in the workload.
 */
std::map<std::string, Metric>
canonical(const std::map<std::string, Metric> &got,
          const std::vector<std::pair<std::string, std::string>> &names,
          bool fill_zero)
{
    std::map<std::string, Metric> out;
    for (const auto &[name, unit] : names) {
        auto it = got.find(name);
        if (it == got.end()) {
            if (!fill_zero)
                throw std::logic_error("metric " + name + " missing");
            out[name] = {0, unit};
        } else {
            if (it->second.unit != unit)
                throw std::logic_error("metric " + name + " unit " +
                                       it->second.unit);
            out[name] = it->second;
        }
    }
    for (const auto &[name, m] : got)
        if (!out.count(name))
            throw std::logic_error("unknown metric " + name);
    return out;
}

void
printResult(const Report &rep, bool trace)
{
    std::map<std::string, Metric> metrics =
        trace ? canonical(rep.perLayer, kPerLayer, true)
              : canonical(rep.endToEnd, kEndToEnd, false);
    std::ostringstream os;
    os << std::setprecision(10);
    os << "{\"correct\": " << (rep.checkFailures.empty() ? "true" : "false")
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    bool firstMetric = true;
    for (const auto &[name, m] : metrics) {
        os << (firstMetric ? "" : ", ") << jsonString(name)
           << ": {\"value\": " << m.value
           << ", \"unit\": " << jsonString(m.unit) << "}";
        firstMetric = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --t0-ns <ns> "
                 "--out-dir <dir>\n";
    std::exit(2);
}

} // anonymous namespace

void
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    out << std::setprecision(12) << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"start_us\": " << s.startUs
            << ", \"end_us\": " << s.endUs << ", \"parent\": " << s.parent
            << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]\n";
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
parallelForUs()
{
    const std::size_t n = ascend::runtime::globalPool().size();
    constexpr int kCalls = 2000;
    const auto t = Clock::now();
    for (int i = 0; i < kCalls; ++i)
        ascend::runtime::parallelFor(n, [](std::size_t) {});
    return secondsSince(t) * 1e6 / kCalls;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunContext ctx;
    long long t0Ns = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        if (arg == "--workload")
            ctx.workload = v;
        else if (arg == "--seed")
            ctx.seed = std::stoull(v);
        else if (arg == "--seconds")
            ctx.seconds = std::stod(v);
        else if (arg == "--trace")
            ctx.trace = v == "1";
        else if (arg == "--t0-ns")
            t0Ns = std::stoll(v);
        else if (arg == "--out-dir")
            ctx.outDir = v;
        else
            usage(("unknown flag " + arg).c_str());
    }
    if (ctx.workload.empty() || ctx.outDir.empty() || ctx.seconds <= 0)
        usage("--workload, --seconds and --out-dir are required");
    // setup_s counts from the launch instant the wrapper recorded on
    // the same monotonic clock, so exec and static initialization are
    // part of set-up.
    ctx.started = t0Ns >= 0
                      ? Clock::time_point(std::chrono::nanoseconds(t0Ns))
                      : Clock::now();
    ctx.threads = ascend::runtime::ThreadPool::configuredThreads();
    std::filesystem::create_directories(ctx.outDir);

    SpanLog spans(ctx.trace);
    Report rep;
    try {
        if (ctx.workload == "zoo-cold")
            rep = runZooCold(ctx, spans);
        else if (ctx.workload == "design-sweep")
            rep = runDesignSweep(ctx, spans);
        else if (ctx.workload == "chip-4096")
            rep = runChip4096(ctx, spans);
        else if (ctx.workload == "fleet")
            rep = runFleet(ctx, spans);
        else
            usage(("unknown workload " + ctx.workload).c_str());
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << ctx.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }
    rep.endToEnd["peak_rss_mib"] = {peakRssMiB(), "MiB"};

    for (const std::string &f : rep.checkFailures)
        std::cerr << "CHECK FAILED: " << f << "\n";
    if (ctx.trace)
        spans.write(ctx.outDir + "/spans-" + ctx.workload + "-" +
                    std::to_string(ctx.seed) + ".json");
    // The untraced metrics also go to stderr on traced runs, so the
    // tracing overhead can be read off one traced run.
    std::cerr << "threads " << ctx.threads << "\n";
    for (const auto &[name, m] : rep.endToEnd)
        std::cerr << "e2e " << name << " " << m.value << " " << m.unit
                  << "\n";
    printResult(rep, ctx.trace);
    return 0;
}
