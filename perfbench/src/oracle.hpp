/**
 * @file
 * The oracle gate: every engine result the benchmark produces is checked
 * against the sequential FIFO-worklist engine (baselines::runSequential)
 * on the graph it ran on, outside any timed window.
 *
 * sssp, bfs, wcc, kcore and msbfs lanes must match exactly; pagerank and
 * ppr lanes must match within the algorithm's resultTolerance(),
 * relative to max(1, |oracle value|).
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "metrics/run_report.hpp"

namespace perfbench {

/** Sequential-oracle checker bound to one graph (one epoch). */
class Oracle
{
  public:
    /** @p g must outlive the oracle. */
    explicit Oracle(const digraph::graph::DirectedGraph &g) : g_(g) {}

    /**
     * Check the outputs in @p report of the job that ran @p spec
     * ("sssp:5", "bfs:5", "wcc", "kcore:4", "pagerank", "ppr:a+b+...",
     * "msbfs:a+b+..."). Returns an empty string on a match, else what
     * differed. Oracle solves are cached per spec.
     */
    std::string check(const std::string &spec,
                      const digraph::metrics::RunReport &report);

    /** Wall seconds spent in sequential solves so far. */
    double seconds() const { return seconds_; }

  private:
    /** Sequential fixpoint of one scalar spec (cached). */
    const std::vector<digraph::Value> &solve(const std::string &spec,
                                             double *tolerance);

    const digraph::graph::DirectedGraph &g_;
    std::map<std::string, std::pair<std::vector<digraph::Value>, double>>
        cache_;
    double seconds_ = 0.0;
};

/** First vertex where @p got and @p want differ by more than
 *  tol * max(1, |want|) (inf must match inf), or "" when they agree. */
std::string compareStates(const std::vector<digraph::Value> &got,
                          const std::vector<digraph::Value> &want,
                          double tol);

} // namespace perfbench
