/**
 * @file
 * The three benchmark workloads and the metric catalog they report
 * into. See perfbench/README.md for why each workload exists and which
 * layer each metric belongs to.
 */

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/options.hpp"
#include "engine/substrate.hpp"
#include "graph/generators.hpp"
#include "support.hpp"

namespace perfbench {

/** (name, unit) of every end-to-end metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &endToEndCatalog();

/** (name, unit) of every per-layer metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &perLayerCatalog();

/** Set @p name (which must be in a catalog) to @p value. */
void put(MetricMap &map, const std::string &name, double value);

/** A PassResult whose per-layer metrics all start at 0 (a layer a
 *  workload leaves idle reports 0). */
PassResult emptyPass();

/** Closed loop: repeated pagerank solves on the twitter stand-in. */
PassResult runPagerankHub(const RunConfig &cfg, Tracer &tracer);

/** Open loop: a seeded multi-tenant query mix on the webbase stand-in. */
PassResult runQueryStream(const RunConfig &cfg, Tracer &tracer);

/** Open loop: point queries interleaved with durable edge-batch updates
 *  on the ljournal stand-in. */
PassResult runLiveUpdates(const RunConfig &cfg, Tracer &tracer);

// --- shared set-up helpers (support for the workload files) ---

/** Simulated GPUs of every workload (the CLI default). */
inline constexpr unsigned kGpus = 4;

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetupReps = 9;

/** Engine options shared by the workloads. */
digraph::engine::EngineOptions baseOptions();

/** A stand-in graph and the substrate preprocessed from it. */
struct Substrate
{
    std::unique_ptr<digraph::graph::DirectedGraph> g;
    std::shared_ptr<const digraph::engine::EngineSubstrate> sub;
};

/**
 * Set-up samples across repetitions. Each sample is one build() (timed
 * per stage) plus whatever the workload constructs on top of it before
 * finish(); report() writes the medians.
 */
class SetupSamples
{
  public:
    /** Start a sample: generate the stand-in @p d at @p scale
     *  (graph::makeDataset, the stand-in's own generator seed, so every
     *  run seed sees the same graph), preprocess it and build its
     *  substrate, each call timed as a span. */
    Substrate build(digraph::graph::Dataset d, double scale,
                    const digraph::engine::EngineOptions &opts,
                    Tracer &tracer);

    /** End the current sample: its total runs from build() to now,
     *  less @p excluded seconds spent on work that is not set-up. */
    void finish(double excluded = 0.0);

    /** setup_s, the graph./partition./substrate. metrics, and the
     *  stand-in's shape (from @p last) in the provenance. */
    void report(PassResult &out, const Substrate &last) const;

  private:
    digraph::graph::Dataset dataset_ = digraph::graph::Dataset::dblp;
    double scale_ = 0.0;
    Clock::time_point start_;
    std::vector<double> total_, generate_, preprocess_, decompose_, merge_,
        dependency_, sketch_, partition_, substrate_;
};

} // namespace perfbench
