/**
 * @file
 * zoo-cold: cold whole-network simulation through the graph front-end,
 * then the same networks answered from the saved cache file.
 *
 * Why: the compiler and the core simulator do almost all of the work,
 * SimCache only inserts, and the thread pool fans out over each
 * graph's layers. The warm half (load the file, answer every layer
 * from it) is the SimCache read path without any simulation.
 */

#include <filesystem>
#include <functional>
#include <memory>
#include <set>

#include "bench.hh"
#include "checks.hh"
#include "common/rng.hh"
#include "graph/decoder.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "model/zoo.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"
#include "soc/training_soc.hh"

namespace perfbench {

using namespace ascend;

namespace {

/** One input graph plus, where model/zoo has one, its linear twin. */
struct Input
{
    std::string name;
    std::string network; ///< family, for the one-per-network check
    graph::Graph graph;
    std::function<model::Network()> twin; ///< empty: no linear twin
};

std::vector<Input>
makeInputs(std::uint64_t seed)
{
    Rng rng(seed ^ 0x2001c01dULL);
    std::vector<Input> in;
    auto add = [&in](std::string network, unsigned batch,
                     graph::Graph g,
                     std::function<model::Network()> twin) {
        in.push_back({network + "/b" + std::to_string(batch), network,
                      std::move(g), std::move(twin)});
    };
    for (unsigned b : {1u, 4u, 8u}) {
        add("resnet50", b, graph::zoo::resnet50Graph(b),
            [b] { return model::zoo::resnet50(b); });
        add("mobilenetv2", b, graph::zoo::mobilenetV2Graph(b),
            [b] { return model::zoo::mobilenetV2(b); });
        add("vgg16", b, graph::zoo::vgg16Graph(b),
            [b] { return model::zoo::vgg16(b); });
        add("bert-base", b, graph::zoo::bertBaseGraph(b),
            [b] { return model::zoo::bertBase(b); });
        add("bert-large", b, graph::zoo::bertLargeGraph(b),
            [b] { return model::zoo::bertLarge(b); });
    }
    // Decoder phases at three seeded lengths each (one per octave
    // band, so every seed covers short, medium and long contexts).
    graph::DecoderConfig dec;
    for (unsigned base : {128u, 512u, 1536u}) {
        const unsigned len = base + 8 * unsigned(rng.uniform(16));
        in.push_back({"prefill/" + std::to_string(len), "prefill",
                      graph::prefillGraph(dec, len), {}});
        in.push_back({"decode/" + std::to_string(len), "decode",
                      graph::decodeGraph(dec, len), {}});
    }
    // Seeded submission order: the batch is the same work in any
    // order, but which repeated shapes race differs.
    for (std::size_t i = in.size(); i > 1; --i)
        std::swap(in[i - 1], in[rng.uniform(i)]);
    return in;
}

runtime::SimSession
exactSession(const arch::CoreConfig &cfg,
             std::shared_ptr<runtime::SimCache> cache)
{
    return runtime::SimSession(cfg, {}, std::move(cache), {},
                               surrogate::SurrogateOptions{});
}

std::vector<graph::GraphRun>
runAll(const runtime::SimSession &s, const std::vector<Input> &in,
       SpanLog &spans)
{
    std::vector<graph::GraphRun> out;
    out.reserve(in.size());
    for (const Input &i : in) {
        const SpanLog::Scope span(spans, "graph::runGraph " + i.name);
        out.push_back(graph::runGraph(s, i.graph));
    }
    return out;
}

std::uint64_t
simsRun()
{
    return runtime::perfScope("layer-sim").calls();
}

} // anonymous namespace

Report
runZooCold(const RunContext &ctx, SpanLog &spans)
{
    Report rep;
    std::vector<Input> inputs;
    std::vector<model::Layer> distinct; ///< one layer per shape
    std::size_t layers = 0;
    const soc::TrainingSoc soc;
    const arch::CoreConfig &cfg = soc.coreConfig();
    {
        const SpanLog::Scope span(spans, "setup");
        inputs = makeInputs(ctx.seed);
        std::set<std::string> seen;
        for (const Input &i : inputs)
            for (const graph::Step &s : graph::lower(i.graph)) {
                ++layers;
                if (seen.insert(runtime::fingerprint(s.layer)).second)
                    distinct.push_back(s.layer);
            }
    }

    const std::string cacheFile =
        ctx.outDir + "/zoo-cold-" + std::to_string(ctx.seed) + ".bin";
    std::vector<double> coldSec, saveSec, loadSec, warmSec, sims;
    std::vector<graph::GraphRun> first; ///< rep 0's cold runs
    std::shared_ptr<runtime::SimCache> warmCache;

    // One repetition: cold pass, save, then load + answer from file.
    auto repetition = [&](unsigned r) {
        const SpanLog::Scope span(spans, "repetition");
        const std::uint64_t sims0 = simsRun();
        auto cache = std::make_shared<runtime::SimCache>();
        auto t = Clock::now();
        std::vector<graph::GraphRun> cold;
        {
            const SpanLog::Scope s(spans, "cold pass");
            cold = runAll(exactSession(cfg, cache), inputs, spans);
        }
        coldSec.push_back(secondsSince(t));
        sims.push_back(double(simsRun() - sims0));

        t = Clock::now();
        {
            const SpanLog::Scope s(spans, "SimCache::saveFile");
            rep.check(cache->saveFile(cacheFile),
                      "zoo-cold: saving the cache file failed");
        }
        saveSec.push_back(secondsSince(t));

        t = Clock::now();
        warmCache = std::make_shared<runtime::SimCache>();
        std::size_t loaded = 0;
        {
            const SpanLog::Scope s(spans, "SimCache::loadFile");
            loaded = warmCache->loadFile(cacheFile);
        }
        loadSec.push_back(secondsSince(t));
        const std::uint64_t simsWarm = simsRun();
        std::vector<graph::GraphRun> warm;
        {
            const SpanLog::Scope s(spans, "warm pass");
            warm = runAll(exactSession(cfg, warmCache), inputs, spans);
        }
        warmSec.push_back(secondsSince(t));
        rep.attempted += 2 * layers;

        // Disk round trip: the file holds every entry, the warm pass is
        // answered from it without a single simulation, and every layer
        // equals the cold result field by field. Cold results repeat
        // exactly across repetitions.
        rep.check(loaded == cache->stats().entries,
                  "zoo-cold: reloaded cache file lost entries");
        rep.check(simsRun() == simsWarm,
                  "zoo-cold: warm pass simulated instead of loading");
        if (r == 0)
            first = cold;
        for (std::size_t g = 0; g < inputs.size(); ++g) {
            for (std::size_t l = 0; l < cold[g].runs.size(); ++l)
                rep.check(checks::sameResult(
                    warm[g].runs[l].result, cold[g].runs[l].result,
                    "zoo-cold reloaded " + inputs[g].name + " layer " +
                        std::to_string(l)));
            rep.check(checks::sameResult(cold[g].total, first[g].total,
                                         "zoo-cold repeat " +
                                             inputs[g].name));
        }
    };
    // Set-up ends with one untimed repetition, so the timed ones find
    // the pool spawned and the allocator and page tables warm.
    repetition(0);
    const double setupSec = secondsSince(ctx.started);
    for (auto *v : {&coldSec, &saveSec, &loadSec, &warmSec, &sims})
        v->clear();
    rep.attempted = 0;
    repeatFor(ctx.seconds, 3, [&](unsigned r) { repetition(r + 1); });

    {
        const SpanLog::Scope span(spans, "checks");
        // Linear twin: the graph total equals the linear model/zoo
        // network's inferenceResult, on a cache of its own.
        const auto twinSession =
            exactSession(cfg, std::make_shared<runtime::SimCache>());
        for (std::size_t g = 0; g < inputs.size(); ++g)
            if (inputs[g].twin)
                rep.check(checks::sameResult(
                    first[g].total,
                    twinSession.inferenceResult(inputs[g].twin()),
                    "zoo-cold linear twin " + inputs[g].name));

        // Bandwidth lower bounds on every distinct layer.
        std::set<std::string> seen;
        for (std::size_t g = 0; g < inputs.size(); ++g)
            for (const runtime::LayerRun &lr : first[g].runs)
                if (seen.insert(runtime::fingerprint(lr.layer)).second)
                    rep.check(checks::bandwidthBounds(
                        lr.result, cfg,
                        "zoo-cold " + inputs[g].name + " " +
                            lr.layer.name));

        // Thread-count invariance: one graph per network, again at 1
        // thread on a fresh cache.
        const runtime::ScopedThreadPoolSize serial(1);
        std::set<std::string> networks;
        const auto t1 =
            exactSession(cfg, std::make_shared<runtime::SimCache>());
        for (std::size_t g = 0; g < inputs.size(); ++g)
            if (networks.insert(inputs[g].network).second)
                rep.check(checks::sameResult(
                    graph::runGraph(t1, inputs[g].graph).total,
                    first[g].total,
                    "zoo-cold 1-thread " + inputs[g].name));
    }

    rep.endToEnd["setup_s"] = {setupSec, "s"};
    rep.endToEnd["cold_items_per_s"] = {double(layers) / mean(coldSec),
                                        "items/s"};
    rep.endToEnd["warm_items_per_s"] = {double(layers) / mean(warmSec),
                                        "items/s"};

    if (ctx.trace) {
        auto &m = rep.perLayer;
        std::vector<double> lowerSec;
        for (int k = 0; k < 5; ++k) {
            const SpanLog::Scope span(spans, "graph::lower (all)");
            const auto t = Clock::now();
            for (const Input &i : inputs)
                graph::lower(i.graph);
            lowerSec.push_back(secondsSince(t));
        }
        m["graph.lower_us"] = {mean(lowerSec) * 1e6, "us"};
        m["graph.layers_lowered"] = {double(layers), "count"};

        // The compile / simulate split SimSession::runLayer hides.
        const compiler::LayerCompiler compiler(cfg);
        const core::CoreSim sim(cfg);
        double compileSec = 0, simSec = 0, instrs = 0, emitted = 0,
               cycles = 0;
        for (const model::Layer &l : distinct) {
            auto t = Clock::now();
            isa::Program prog;
            {
                const SpanLog::Scope span(spans,
                                          "LayerCompiler::compile");
                prog = compiler.compile(l);
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
        }
        m["compiler.compile_us"] = {compileSec * 1e6, "us"};
        m["compiler.instrs_emitted"] = {emitted, "count"};
        m["core.sim_us"] = {simSec * 1e6, "us"};
        m["core.instrs_per_s"] = {instrs / simSec, "1/s"};
        m["core.sim_cycles"] = {cycles, "cycles"};

        // Serial hit cost through the session on the reloaded cache.
        {
            const SpanLog::Scope span(spans, "SimSession::runLayer hits");
            const auto warm = exactSession(cfg, warmCache);
            const auto t = Clock::now();
            std::size_t n = 0;
            for (const Input &i : inputs)
                for (const graph::Step &s : graph::lower(i.graph)) {
                    warm.runLayer(s.layer);
                    ++n;
                }
            m["runtime.hit_ns"] = {secondsSince(t) * 1e9 / double(n),
                                   "ns"};
        }
        m["runtime.cache_save_ms"] = {mean(saveSec) * 1e3, "ms"};
        m["runtime.cache_load_ms"] = {mean(loadSec) * 1e3, "ms"};
        m["runtime.cache_file_bytes"] = {
            double(std::filesystem::file_size(cacheFile)), "bytes"};
        m["runtime.parallel_for_us"] = {parallelForUs(), "us"};

        // One cold pass at 1 thread: the speedup base and the
        // duplicate-free simulation count.
        const runtime::ScopedThreadPoolSize serial(1);
        const SpanLog::Scope span(spans, "cold pass at 1 thread");
        const std::uint64_t sims0 = simsRun();
        const auto t = Clock::now();
        runAll(exactSession(cfg, std::make_shared<runtime::SimCache>()),
               inputs, spans);
        const double t1 = secondsSince(t);
        const double simsT1 = double(simsRun() - sims0);
        m["runtime.sims_run"] = {median(sims), "count"};
        m["runtime.duplicate_sims"] = {median(sims) - simsT1, "count"};
        m["runtime.speedup_vs_t1"] = {t1 / mean(coldSec), "ratio"};
    }
    std::filesystem::remove(cacheFile);
    return rep;
}

} // namespace perfbench
