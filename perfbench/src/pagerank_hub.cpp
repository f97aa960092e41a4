/**
 * @file
 * pagerank_hub: a closed loop of pagerank solves to convergence on the
 * hub-heavy twitter stand-in, one engine using every host core. The
 * wave loop's per-round bookkeeping is nearly all of the time here; the
 * service, catalog and storage layers are idle.
 */

#include <memory>

#include "algorithms/factory.hpp"
#include "engine/digraph_engine.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dg = digraph;

namespace {

/** Twitter stand-in scale: about 1 s per solve on a 4-core host, so a
 *  30 s run measures 25-30 set-up + solve rounds. */
constexpr double kScale = 0.05;
constexpr double kSmokeScale = 0.004;
/** Solves a run makes even when the window is shorter. */
constexpr std::size_t kMinSolves = 3;

struct Solve
{
    double wall = 0.0;
    double cpu = 0.0;
    dg::metrics::RunReport report;
};

} // namespace

PassResult
runPagerankHub(const RunConfig &cfg, Tracer &tracer)
{
    PassResult out = emptyPass();
    const double scale = cfg.smoke ? kSmokeScale : kScale;

    dg::engine::EngineOptions opts = baseOptions();
    opts.engine_threads = cfg.nproc;

    // --- rounds of set-up + one solve until the window is spent, so
    // set-up and solve are sampled alike, interleaved across the window.
    // A solve is one closed-loop request; its latency is its
    // call-to-return wall. ---
    SetupSamples setup;
    Substrate built;
    std::unique_ptr<dg::engine::DiGraphEngine> engine;
    std::vector<Solve> solves;
    double solving = 0.0;
    const auto window_start = Clock::now();
    while (solves.size() < kMinSolves ||
           secondsBetween(window_start, Clock::now()) < cfg.seconds) {
        engine.reset();
        built = setup.build(dg::graph::Dataset::twitter, scale, opts, tracer);
        {
            Tracer::Scope span(tracer, "engine", "engine.construct");
            engine = std::make_unique<dg::engine::DiGraphEngine>(
                *built.g, built.sub, opts);
        }
        setup.finish();

        const auto algo = dg::algorithms::makeAlgorithm("pagerank", *built.g);
        Solve s;
        const double cpu0 = processCpuSeconds();
        const auto s0 = Clock::now();
        {
            Tracer::Scope span(tracer, "engine", "engine.run");
            s.report = engine->run(*algo);
        }
        s.wall = secondsBetween(s0, Clock::now());
        s.cpu = processCpuSeconds() - cpu0;
        solving += s.wall;
        solves.push_back(std::move(s));
    }
    put(out.end_to_end, "peak_rss_mb", peakRssMiB());
    out.attempted += 2 * solves.size(); // a set-up and a solve per round
    out.provenance["solves"] = std::to_string(solves.size());
    out.provenance["engine_threads"] = std::to_string(cfg.nproc);
    setup.report(out, built);

    // --- oracle gate + determinism self-check (outside the window):
    // the first solve against the sequential engine, every later solve
    // bit-identical to the first. ---
    Tracer::Scope oracle_span(tracer, "oracle", "oracle.check");
    Oracle oracle(*built.g);
    const auto &first = solves.front().report;
    if (const auto diff = oracle.check("pagerank", first); !diff.empty())
        out.fail("oracle: " + diff);
    for (std::size_t i = 1; i < solves.size(); ++i) {
        const auto &r = solves[i].report;
        if (r.final_state != first.final_state ||
            r.sim_cycles != first.sim_cycles ||
            r.edge_processings != first.edge_processings ||
            r.waves != first.waves)
            out.fail("determinism: solve " + std::to_string(i) +
                     " differs from solve 0");
    }
    put(out.per_layer, "oracle.sequential_s", oracle.seconds());

    // --- end-to-end ---
    std::vector<double> walls;
    std::vector<double> engine_walls, compute, barrier, merge, schedule,
        cpu_ratio;
    for (const Solve &s : solves) {
        walls.push_back(s.wall);
        engine_walls.push_back(s.report.wall_seconds);
        compute.push_back(s.report.wall_compute_seconds);
        barrier.push_back(s.report.wall_barrier_seconds);
        merge.push_back(s.report.wall_merge_seconds);
        schedule.push_back(s.report.wall_schedule_seconds);
        cpu_ratio.push_back(s.wall > 0.0 ? s.cpu / s.wall : 0.0);
    }
    put(out.end_to_end, "solve_s", median(walls));
    put(out.end_to_end, "sim_cycles", first.sim_cycles);
    put(out.end_to_end, "job_latency_p50_s", quantile(walls, 0.5));
    put(out.end_to_end, "job_latency_p90_s", quantile(walls, 0.9));
    put(out.end_to_end, "jobs_per_s",
        static_cast<double>(solves.size()) / solving);

    // --- per layer: engine phases (medians over solves; the counts
    // are identical in every solve) and the simulated platform. ---
    const double run_s = median(engine_walls);
    const double phases = median(compute) + median(barrier) +
                          median(merge) + median(schedule);
    const auto edges = static_cast<double>(first.edge_processings);
    put(out.per_layer, "engine.run_s", run_s);
    put(out.per_layer, "engine.compute_s", median(compute));
    put(out.per_layer, "engine.barrier_s", median(barrier));
    put(out.per_layer, "engine.merge_s", median(merge));
    put(out.per_layer, "engine.schedule_s", median(schedule));
    put(out.per_layer, "engine.unattributed_s", run_s - phases);
    put(out.per_layer, "engine.edge_processings", edges);
    put(out.per_layer, "engine.vertex_updates",
        static_cast<double>(first.vertex_updates));
    put(out.per_layer, "engine.local_rounds",
        static_cast<double>(first.rounds));
    put(out.per_layer, "engine.waves", static_cast<double>(first.waves));
    put(out.per_layer, "engine.ns_per_edge",
        edges > 0 ? run_s * 1e9 / edges : 0.0);
    put(out.per_layer, "engine.edges_per_round",
        first.rounds ? edges / static_cast<double>(first.rounds) : 0.0);
    put(out.per_layer, "engine.updates_per_edge",
        edges > 0 ? static_cast<double>(first.vertex_updates) / edges
                  : 0.0);
    put(out.per_layer, "engine.cpu_per_wall", median(cpu_ratio));
    put(out.per_layer, "engine.job_state_bytes",
        static_cast<double>(engine->jobStateBytes()));
    put(out.per_layer, "gpusim.host_bytes",
        static_cast<double>(first.host_transfer_bytes));
    put(out.per_layer, "gpusim.ring_bytes",
        static_cast<double>(first.ring_transfer_bytes));
    put(out.per_layer, "gpusim.global_load_bytes",
        static_cast<double>(first.global_load_bytes));
    put(out.per_layer, "gpusim.utilization", first.utilization);
    put(out.per_layer, "gpusim.compute_cycles", first.compute_cycles);
    put(out.per_layer, "gpusim.comm_cycles", first.comm_cycles);
    put(out.per_layer, "gpusim.loaded_data_util",
        first.loadedDataUtilization());
    return out;
}

} // namespace perfbench
