/**
 * @file
 * Tests for the four-array path storage, including a direct check of the
 * paper's Figure 4 example layout.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "partition/path_set.hpp"
#include "storage/path_storage.hpp"

namespace digraph::storage {
namespace {

/** The directed graph of the paper's Figure 3(a)/Figure 4. */
graph::DirectedGraph
figure3Graph()
{
    graph::GraphBuilder b(15);
    const std::pair<int, int> edges[] = {
        {0, 1},  {1, 2},   {2, 3},   {3, 4},  {4, 5},
        {3, 6},  {6, 7},   {7, 8},   {8, 9},  {8, 10},
        {10, 11}, {11, 12}, {7, 13},  {13, 14}, {14, 6}};
    for (const auto &[s, t] : edges)
        b.addEdge(static_cast<VertexId>(s), static_cast<VertexId>(t));
    return b.build();
}

/** The paper's Figure 3(a) path decomposition, built explicitly. */
partition::PathSet
figure3Paths(const graph::DirectedGraph &g)
{
    auto edge_id = [&g](VertexId s, VertexId t) {
        const auto nbrs = g.outNeighbors(s);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
            if (nbrs[k] == t)
                return g.outEdgeId(s, k);
        }
        ADD_FAILURE() << "missing edge " << s << "->" << t;
        return kInvalidEdge;
    };
    partition::PathSet ps;
    auto add = [&](std::initializer_list<VertexId> verts) {
        auto it = verts.begin();
        ps.beginPath(*it);
        VertexId prev = *it++;
        for (; it != verts.end(); ++it) {
            ps.extend(*it, edge_id(prev, *it));
            prev = *it;
        }
    };
    add({0, 1, 2, 3, 4, 5});     // p1
    add({3, 6, 7, 8, 9});        // p2
    add({8, 10, 11, 12});        // p3
    add({7, 13, 14, 6});         // p4
    return ps;
}

TEST(PathStorage, Figure4Layout)
{
    const auto g = figure3Graph();
    const auto paths = figure3Paths(g);
    ASSERT_TRUE(paths.validate(g));
    PathStorage storage(paths, g);

    // PTable: offsets of each path's first vertex in E_idx (Fig 4).
    EXPECT_EQ(storage.pathOffset(0), 0u);
    EXPECT_EQ(storage.pathOffset(1), 6u);
    EXPECT_EQ(storage.pathOffset(2), 11u);
    EXPECT_EQ(storage.pathOffset(3), 15u);
    EXPECT_EQ(storage.pathOffset(4), 19u);

    // E_idx: vertex ids along the paths.
    const auto e_idx = storage.eIdx();
    const VertexId expected[] = {0, 1, 2,  3,  4,  5, 3, 6, 7, 8,
                                 9, 8, 10, 11, 12, 7, 13, 14, 6};
    ASSERT_EQ(e_idx.size(), std::size(expected));
    for (std::size_t i = 0; i < std::size(expected); ++i)
        EXPECT_EQ(e_idx[i], expected[i]) << "slot " << i;

    // V_val has one master slot per vertex.
    EXPECT_EQ(storage.numVertices(), 15u);
    EXPECT_EQ(storage.numPaths(), 4u);
}

TEST(PathStorage, ViewsSliceCorrectly)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    auto view = storage.path(1); // p2 = 3 -> 6 -> 7 -> 8 -> 9
    ASSERT_EQ(view.length(), 4u);
    EXPECT_EQ(view.vertex_ids[0], 3u);
    EXPECT_EQ(view.vertex_ids[4], 9u);
    ASSERT_EQ(view.edge_ids.size(), 4u);
    EXPECT_EQ(g.edgeSource(view.edge_ids[0]), 3u);
    EXPECT_EQ(g.edgeTarget(view.edge_ids[0]), 6u);
}

TEST(PathStorage, InitializeAndPull)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    std::vector<Value> vinit(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        vinit[v] = 100.0 + v;
    std::vector<Value> einit(g.numEdges(), -1.0);
    storage.initialize(vinit, einit);

    auto view = storage.path(0);
    EXPECT_EQ(view.mirror_states[0], 100.0);
    EXPECT_EQ(view.mirror_states[5], 105.0);
    EXPECT_EQ(view.edge_states[0], -1.0);

    // Mutate a master and pull the path: mirror and snapshot refresh.
    storage.vVal(1) = 999.0;
    storage.pullPath(0);
    view = storage.path(0);
    EXPECT_EQ(view.mirror_states[1], 999.0);
    EXPECT_EQ(view.loaded_states[1], 999.0);
}

TEST(PathStorage, ReplicasHaveIndependentMirrors)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    std::vector<Value> vinit(g.numVertices(), 0.0);
    std::vector<Value> einit(g.numEdges(), 0.0);
    storage.initialize(vinit, einit);

    // Vertex 3 occurs on p1 (slot 3) and p2 (slot 6 = head).
    auto p1 = storage.path(0);
    p1.mirror_states[3] = 7.0;
    auto p2 = storage.path(1);
    EXPECT_EQ(p2.mirror_states[0], 0.0)
        << "replica mirrors must be independent";
    EXPECT_EQ(storage.vVal(3), 0.0);
}

TEST(PathStorage, ByteAccountingMatchesLayout)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    // p1 has 6 vertices, 5 edges.
    const std::size_t expected = 6 * (sizeof(VertexId) + sizeof(Value)) +
                                 5 * sizeof(Value) +
                                 sizeof(std::uint64_t);
    EXPECT_EQ(storage.pathBytes(0), expected);
    EXPECT_EQ(storage.rangeBytes(0, 2),
              storage.pathBytes(0) + storage.pathBytes(1));
}

TEST(PathStorage, SlotAccessorsMatchViews)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    std::vector<Value> vinit(g.numVertices(), 1.5);
    std::vector<Value> einit(g.numEdges(), 0.0);
    storage.initialize(vinit, einit);
    for (std::uint64_t s = 0; s < storage.eIdx().size(); ++s) {
        EXPECT_EQ(storage.vertexAt(s), storage.eIdx()[s]);
        EXPECT_EQ(storage.sVal(s), 1.5);
    }
}

TEST(SlotDirtySet, ScrambledMarksDrainAscendingOnce)
{
    // Range [1000, 1300): 300 slots, not a multiple of 64, starting off
    // a word boundary.
    SlotDirtySet dirty;
    dirty.bind(1000, 1300);
    const std::vector<std::uint64_t> marks = {1299, 1000, 1077, 1063, 1299,
                                              1128, 1064, 1000, 1191, 1127};
    for (const std::uint64_t s : marks)
        dirty.mark(s);
    std::vector<std::uint64_t> want(marks);
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    EXPECT_EQ(dirty.count(), want.size());
    for (const std::uint64_t s : want)
        EXPECT_TRUE(dirty.test(s)) << s;
    EXPECT_FALSE(dirty.test(1001));

    std::vector<std::uint64_t> got = {42}; // drain appends
    dirty.drain(got);
    want.insert(want.begin(), 42);
    EXPECT_EQ(got, want);
    EXPECT_EQ(dirty.count(), 0u);
    EXPECT_TRUE(dirty.spanCoversMarks());

    // Drained means empty: a second drain yields nothing, and the set is
    // reusable.
    got.clear();
    dirty.drain(got);
    EXPECT_TRUE(got.empty());
    dirty.mark(1250);
    dirty.drain(got);
    EXPECT_EQ(got, std::vector<std::uint64_t>{1250});
}

TEST(SlotDirtySet, ResetAfterPartialMarking)
{
    SlotDirtySet dirty;
    dirty.bind(0, 130);
    for (const std::uint64_t s : {129ull, 3ull, 70ull})
        dirty.mark(s);
    dirty.reset();
    EXPECT_EQ(dirty.count(), 0u);
    EXPECT_TRUE(dirty.spanCoversMarks());
    for (const std::uint64_t s : {129ull, 3ull, 70ull})
        EXPECT_FALSE(dirty.test(s)) << s;
    dirty.mark(64);
    std::vector<std::uint64_t> got;
    dirty.drain(got);
    EXPECT_EQ(got, std::vector<std::uint64_t>{64});
    // Binding again clears everything, including a different range.
    dirty.mark(5);
    dirty.bind(10, 20);
    EXPECT_EQ(dirty.count(), 0u);
    dirty.mark(19);
    got.clear();
    dirty.drain(got);
    EXPECT_EQ(got, std::vector<std::uint64_t>{19});
}

TEST(RangeBitmap, SweepKeepsSelectedAndShrinksSpan)
{
    // The partition worklist: sweep visits ascending, drops the indexes
    // the callback rejects, and later sweeps see only the survivors.
    RangeBitmap bits;
    bits.bind(7, 7 + 200);
    for (const std::uint64_t i : {150ull, 8ull, 206ull, 71ull, 72ull})
        bits.mark(i);
    std::vector<std::uint64_t> seen;
    bits.sweep([&](std::uint64_t i) {
        seen.push_back(i);
        return i == 72 || i == 150;
    });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{8, 71, 72, 150, 206}));
    EXPECT_EQ(bits.count(), 2u);
    EXPECT_TRUE(bits.spanCoversMarks());
    seen.clear();
    bits.sweep([&](std::uint64_t i) {
        seen.push_back(i);
        return false;
    });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{72, 150}));
    EXPECT_EQ(bits.count(), 0u);
    bits.mark(7);
    EXPECT_TRUE(bits.spanCoversMarks());
    EXPECT_EQ(bits.count(), 1u);
}

} // namespace
} // namespace digraph::storage
