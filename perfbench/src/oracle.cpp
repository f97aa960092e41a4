#include "oracle.hpp"

#include <cmath>
#include <sstream>

#include "algorithms/factory.hpp"
#include "algorithms/multi_source.hpp"
#include "baselines/sequential.hpp"
#include "common/timer.hpp"

namespace perfbench {

namespace dg = digraph;

namespace {

/** Split "name:a+b+c" into its source list. */
std::vector<std::string>
laneSources(const std::string &spec)
{
    std::vector<std::string> out;
    const auto colon = spec.find(':');
    std::string cur;
    for (std::size_t i = colon + 1; i < spec.size(); ++i) {
        if (spec[i] == '+' || spec[i] == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += spec[i];
        }
    }
    out.push_back(cur);
    return out;
}

} // namespace

std::string
compareStates(const std::vector<dg::Value> &got,
              const std::vector<dg::Value> &want, double tol)
{
    if (got.size() != want.size()) {
        std::ostringstream os;
        os << "size " << got.size() << " != oracle " << want.size();
        return os.str();
    }
    for (std::size_t v = 0; v < got.size(); ++v) {
        const bool match =
            std::isinf(want[v])
                ? (std::isinf(got[v]) && (got[v] > 0) == (want[v] > 0))
                : std::abs(got[v] - want[v]) <=
                      tol * std::max(1.0, std::abs(want[v]));
        if (!match) {
            std::ostringstream os;
            os.precision(17);
            os << "vertex " << v << ": " << got[v] << " != oracle "
               << want[v];
            return os.str();
        }
    }
    return {};
}

const std::vector<dg::Value> &
Oracle::solve(const std::string &spec, double *tolerance)
{
    auto it = cache_.find(spec);
    if (it == cache_.end()) {
        dg::WallTimer timer;
        dg::algorithms::AlgorithmPtr algo;
        if (spec.rfind("ppr1:", 0) == 0) {
            algo = std::make_shared<dg::algorithms::PprSingle>(
                static_cast<dg::VertexId>(std::stoull(spec.substr(5))));
        } else {
            algo = dg::algorithms::makeAlgorithmSpec(spec, g_);
        }
        // Exact families compare bitwise; the accumulative ones get the
        // algorithm's own result tolerance.
        const bool approx = algo->name() == "pagerank" ||
                            algo->name() == "ppr1";
        auto result = dg::baselines::runSequential(g_, *algo);
        seconds_ += timer.seconds();
        it = cache_
                 .emplace(spec,
                          std::make_pair(std::move(result.state),
                                         approx ? algo->resultTolerance()
                                                : 0.0))
                 .first;
    }
    *tolerance = it->second.second;
    return it->second.first;
}

std::string
Oracle::check(const std::string &spec, const dg::metrics::RunReport &report)
{
    const bool ppr = spec.rfind("ppr:", 0) == 0;
    const bool msbfs = spec.rfind("msbfs:", 0) == 0;
    if (!ppr && !msbfs) {
        double tol = 0.0;
        const auto &want = solve(spec, &tol);
        const std::string diff = compareStates(report.final_state, want, tol);
        return diff.empty() ? diff : spec + ": " + diff;
    }
    const auto sources = laneSources(spec);
    if (report.lane_states.size() != sources.size())
        return spec + ": lane count mismatch";
    for (std::size_t l = 0; l < sources.size(); ++l) {
        const std::string lane_spec =
            (ppr ? "ppr1:" : "bfs:") + sources[l];
        double tol = 0.0;
        const auto &want = solve(lane_spec, &tol);
        const std::string diff =
            compareStates(report.lane_states[l], want, tol);
        if (!diff.empty())
            return spec + " lane " + std::to_string(l) + ": " + diff;
    }
    return {};
}

} // namespace perfbench
