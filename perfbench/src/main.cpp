/**
 * @file
 * perfbench: runs one workload from a seed and prints every
 * metric by name with its unit. The last line of standard output is one
 * JSON object {"correct", "attempted", "failed", "metrics"}; the line
 * before it is the run's provenance. Usually launched via
 * perfbench/run.py, which builds this binary first:
 *
 *   perfbench --workload pagerank_hub --seed 1 --seconds 20 --trace 0
 *
 * --trace 0 reports the end-to-end metrics of one untraced pass.
 * --trace 1 runs the workload twice in half the window each, untraced
 * then traced; it reports the traced pass's per-layer metrics, each
 * layer's self time, and trace.overhead_ratio between the two passes,
 * and writes the spans as a chrome trace into --out-dir.
 *
 * Exit status: 0 when every output matched its oracle, 1 on any
 * mismatch or failed operation (the JSON line is still printed), 2 on a
 * usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/parse.hpp"
#include "partition/preprocess.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dg = digraph;

const std::vector<std::pair<std::string, std::string>> &
endToEndCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> c = {
        {"setup_s", "s"},
        {"solve_s", "s"},
        {"sim_cycles", "cycles"},
        {"job_latency_p50_s", "s"},
        {"job_latency_p90_s", "s"},
        {"jobs_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
    };
    return c;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> c = {
        {"graph.generate_s", "s"},
        {"partition.preprocess_s", "s"},
        {"partition.decompose_s", "s"},
        {"partition.merge_s", "s"},
        {"partition.dependency_s", "s"},
        {"partition.sketch_s", "s"},
        {"partition.partition_s", "s"},
        {"partition.paths", "count"},
        {"partition.partitions", "count"},
        {"substrate.build_s", "s"},
        {"substrate.bytes", "bytes"},
        {"engine.run_s", "s"},
        {"engine.compute_s", "s"},
        {"engine.barrier_s", "s"},
        {"engine.merge_s", "s"},
        {"engine.schedule_s", "s"},
        {"engine.unattributed_s", "s"},
        {"engine.edge_processings", "count"},
        {"engine.vertex_updates", "count"},
        {"engine.local_rounds", "count"},
        {"engine.waves", "count"},
        {"engine.ns_per_edge", "ns/edge"},
        {"engine.edges_per_round", "edges/round"},
        {"engine.updates_per_edge", "ratio"},
        {"engine.cpu_per_wall", "ratio"},
        {"engine.job_state_bytes", "bytes"},
        {"gpusim.host_bytes", "bytes"},
        {"gpusim.ring_bytes", "bytes"},
        {"gpusim.global_load_bytes", "bytes"},
        {"gpusim.utilization", "ratio"},
        {"gpusim.compute_cycles", "cycles"},
        {"gpusim.comm_cycles", "cycles"},
        {"gpusim.loaded_data_util", "ratio"},
        {"service.run_p50_s.sssp", "s"},
        {"service.run_p50_s.bfs", "s"},
        {"service.run_p50_s.wcc", "s"},
        {"service.run_p50_s.kcore", "s"},
        {"service.run_p50_s.ppr8", "s"},
        {"service.run_p50_s.msbfs8", "s"},
        {"service.ns_per_edge.scalar", "ns/edge"},
        {"service.ns_per_edge.lanes", "ns/edge"},
        {"service.queued_p50_s", "s"},
        {"service.wait_p90_s", "s"},
        {"service.grants", "count"},
        {"service.parks", "count"},
        {"service.co_scheduled_grants", "count"},
        {"service.peak_running", "count"},
        {"service.rejected", "count"},
        {"service.cpu_per_wall", "ratio"},
        {"service.submit_p50_us", "us"},
        {"loadgen.lag_p90_s", "s"},
        {"update.latency_p50_s", "s"},
        {"update.run_p50_s", "s"},
        {"update.preprocess_p50_s", "s"},
        {"update.wait_p50_s", "s"},
        {"catalog.epochs_created", "count"},
        {"catalog.epochs_retired", "count"},
        {"store.commits", "count"},
        {"store.commit_fails", "count"},
        {"store.bytes", "bytes"},
        {"store.commit_root_s", "s"},
        {"oracle.sequential_s", "s"},
        {"fail_ratio", "ratio"},
        {"trace.self_s.graph", "s"},
        {"trace.self_s.partition", "s"},
        {"trace.self_s.substrate", "s"},
        {"trace.self_s.engine", "s"},
        {"trace.self_s.service", "s"},
        {"trace.self_s.catalog", "s"},
        {"trace.self_s.storage", "s"},
        {"trace.self_s.oracle", "s"},
        {"trace.overhead_ratio", "ratio"},
    };
    return c;
}

namespace {

const std::string *
unitOf(const std::string &name)
{
    for (const auto *cat : {&endToEndCatalog(), &perLayerCatalog()})
        for (const auto &[n, unit] : *cat)
            if (n == name)
                return &unit;
    return nullptr;
}

} // namespace

void
put(MetricMap &map, const std::string &name, double value)
{
    const std::string *unit = unitOf(name);
    if (!unit) {
        std::fprintf(stderr, "perfbench: metric '%s' is not in the catalog\n",
                     name.c_str());
        std::exit(2);
    }
    map[name] = Metric{value, *unit};
}

PassResult
emptyPass()
{
    PassResult p;
    for (const auto &[name, unit] : perLayerCatalog())
        p.per_layer[name] = Metric{0.0, unit};
    return p;
}

dg::engine::EngineOptions
baseOptions()
{
    dg::engine::EngineOptions opts;
    opts.platform.num_devices = kGpus;
    return opts;
}

Substrate
SetupSamples::build(dg::graph::Dataset d, double scale,
                    const dg::engine::EngineOptions &opts, Tracer &tracer)
{
    dataset_ = d;
    scale_ = scale;
    Substrate s;
    start_ = Clock::now();
    {
        Tracer::Scope span(tracer, "graph", "graph.generate");
        s.g = std::make_unique<dg::graph::DirectedGraph>(
            dg::graph::makeDataset(d, scale));
    }
    const auto t1 = Clock::now();
    dg::engine::EngineOptions o = opts;
    o.resolvePartitionBudget(s.g->numEdges());
    dg::partition::Preprocessed pre;
    {
        Tracer::Scope span(tracer, "partition", "partition.preprocess");
        pre = dg::partition::preprocess(*s.g, o.preprocess);
    }
    const auto t2 = Clock::now();
    decompose_.push_back(pre.timings.decompose_s);
    merge_.push_back(pre.timings.merge_s);
    dependency_.push_back(pre.timings.dependency_s);
    sketch_.push_back(pre.timings.sketch_s);
    partition_.push_back(pre.timings.partition_s);
    {
        Tracer::Scope span(tracer, "substrate", "substrate.build");
        s.sub = dg::engine::EngineSubstrate::build(*s.g, std::move(pre));
    }
    generate_.push_back(secondsBetween(start_, t1));
    preprocess_.push_back(secondsBetween(t1, t2));
    substrate_.push_back(secondsBetween(t2, Clock::now()));
    return s;
}

void
SetupSamples::finish(double excluded)
{
    total_.push_back(secondsBetween(start_, Clock::now()) - excluded);
}

void
SetupSamples::report(PassResult &out, const Substrate &last) const
{
    put(out.end_to_end, "setup_s", median(total_));
    put(out.per_layer, "graph.generate_s", median(generate_));
    put(out.per_layer, "partition.preprocess_s", median(preprocess_));
    put(out.per_layer, "partition.decompose_s", median(decompose_));
    put(out.per_layer, "partition.merge_s", median(merge_));
    put(out.per_layer, "partition.dependency_s", median(dependency_));
    put(out.per_layer, "partition.sketch_s", median(sketch_));
    put(out.per_layer, "partition.partition_s", median(partition_));
    put(out.per_layer, "substrate.build_s", median(substrate_));
    put(out.per_layer, "substrate.bytes",
        static_cast<double>(last.sub->memoryBytes()));
    const auto &pre = last.sub->pre;
    put(out.per_layer, "partition.paths",
        static_cast<double>(pre.paths.numPaths()));
    put(out.per_layer, "partition.partitions",
        static_cast<double>(pre.numPartitions()));
    out.provenance["dataset"] = dg::graph::datasetName(dataset_);
    out.provenance["scale"] = jsonNumber(scale_);
    out.provenance["vertices"] = std::to_string(last.g->numVertices());
    out.provenance["edges"] = std::to_string(last.g->numEdges());
    out.provenance["paths"] = std::to_string(pre.paths.numPaths());
    out.provenance["partitions"] = std::to_string(pre.numPartitions());
    out.provenance["setup_samples"] = std::to_string(total_.size());
}

namespace {

PassResult
runWorkload(const RunConfig &cfg, Tracer &tracer)
{
    if (cfg.workload == "pagerank_hub")
        return runPagerankHub(cfg, tracer);
    if (cfg.workload == "query_stream")
        return runQueryStream(cfg, tracer);
    return runLiveUpdates(cfg, tracer);
}

/** The work-normalized time the overhead ratio compares. */
double
overheadBasis(const PassResult &p)
{
    return p.end_to_end.at("job_latency_p50_s").value;
}

void
printMetrics(std::FILE *f, const MetricMap &metrics)
{
    std::fprintf(f, "{");
    bool first = true;
    for (const auto &[name, m] : metrics) {
        std::fprintf(f, "%s%s: {\"value\": %s, \"unit\": %s}",
                     first ? "" : ", ", jsonString(name).c_str(),
                     jsonNumber(m.value).c_str(), jsonString(m.unit).c_str());
        first = false;
    }
    std::fprintf(f, "}");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload pagerank_hub|query_stream|"
                 "live_updates --seed N --seconds S --trace 0|1\n"
                 "          [--smoke] [--out-dir DIR] [--tmp-dir DIR]\n",
                 argv0);
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    int trace = -1;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "perfbench: %s needs a value\n",
                             a.c_str());
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        if (a == "--workload") {
            cfg.workload = value();
        } else if (a == "--seed") {
            cfg.seed = digraph::common::parseUnsigned(value(), a);
            have_seed = true;
        } else if (a == "--seconds") {
            cfg.seconds = digraph::common::parseDouble(value(), a);
            have_seconds = true;
        } else if (a == "--trace") {
            trace = static_cast<int>(
                digraph::common::parseUnsigned(value(), a, 1));
        } else if (a == "--smoke") {
            cfg.smoke = true;
        } else if (a == "--out-dir") {
            cfg.out_dir = value();
        } else if (a == "--tmp-dir") {
            cfg.tmp_dir = value();
        } else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n",
                         a.c_str());
            return usage(argv[0]);
        }
    }
    const bool known_workload = cfg.workload == "pagerank_hub" ||
                                cfg.workload == "query_stream" ||
                                cfg.workload == "live_updates";
    if (!known_workload || !have_seed || !have_seconds ||
        (trace != 0 && trace != 1) || !(cfg.seconds > 0.0))
        return usage(argv[0]);
    cfg.nproc = std::max(1u, std::thread::hardware_concurrency());

    PassResult result;
    if (trace == 0) {
        Tracer off(false);
        result = runWorkload(cfg, off);
    } else {
        RunConfig half = cfg;
        half.seconds = cfg.seconds / 2.0;
        Tracer off(false);
        const PassResult untraced = runWorkload(half, off);
        Tracer on(true);
        result = runWorkload(half, on);
        result.attempted += untraced.attempted;
        result.failed += untraced.failed;
        result.failures.insert(result.failures.end(),
                               untraced.failures.begin(),
                               untraced.failures.end());
        const double base = overheadBasis(untraced);
        put(result.per_layer, "trace.overhead_ratio",
            base > 0 ? overheadBasis(result) / base : 0.0);

        const auto self = on.selfSecondsByLayer();
        std::fprintf(stderr, "layer self time (traced pass, %.1f s window):\n",
                     half.seconds);
        for (const auto &[layer, secs] : self) {
            std::fprintf(stderr, "  %-10s %10.4f s\n", layer.c_str(), secs);
            const std::string name = "trace.self_s." + layer;
            if (result.per_layer.count(name))
                put(result.per_layer, name, secs);
        }
        std::fprintf(stderr,
                     "  %-10s %10s   (host time inside engine.run; the "
                     "simulated clock is in gpusim.* metrics)\n",
                     "gpusim", "-");
        const std::string path = cfg.out_dir + "/trace-" + cfg.workload +
                                 "-" + std::to_string(cfg.seed) + ".json";
        if (!on.writeChromeJson(path))
            result.fail("cannot write " + path);
        else
            std::fprintf(stderr, "chrome trace: %s\n", path.c_str());
    }
    put(result.per_layer, "fail_ratio",
        result.attempted ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 0.0);

    for (const auto &why : result.failures)
        std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());

    result.provenance["workload"] = cfg.workload;
    result.provenance["seed"] = std::to_string(cfg.seed);
    result.provenance["seconds"] = jsonNumber(cfg.seconds);
    result.provenance["nproc"] = std::to_string(cfg.nproc);
    result.provenance["build_type"] = PERFBENCH_BUILD_TYPE;
    result.provenance["compiler"] = PERFBENCH_COMPILER;
    result.provenance["gpus"] = std::to_string(kGpus);
    std::printf("provenance {");
    bool first = true;
    for (const auto &[k, v] : result.provenance) {
        std::printf("%s%s: %s", first ? "" : ", ", jsonString(k).c_str(),
                    jsonString(v).c_str());
        first = false;
    }
    std::printf("}\n");

    const MetricMap &metrics =
        trace == 0 ? result.end_to_end : result.per_layer;
    const auto &catalog = trace == 0 ? endToEndCatalog() : perLayerCatalog();
    bool complete = metrics.size() == catalog.size();
    for (const auto &[name, unit] : catalog)
        complete = complete && metrics.count(name);
    if (!complete) {
        std::fprintf(stderr, "perfbench: workload %s left metrics unset\n",
                     cfg.workload.c_str());
        return 2;
    }
    const bool correct = result.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    printMetrics(stdout, metrics);
    std::printf("}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
