#include "engine/value_plane.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace digraph::engine {

void
ValuePlane::beginRun(const partition::Preprocessed &pre)
{
    if (sync_ == nullptr)
        panic("ValuePlane::beginRun: no ReplicaSync attached");
    const PartitionId nparts = pre.numPartitions();
    const PathId npaths = pre.paths.numPaths();
    slot_active.assign(storage.eIdx().size(), 0);
    master_version.assign(storage.numVertices(), 0);
    slot_seen_version.assign(storage.eIdx().size(), 0);
    partition_active.assign(nparts, 0);
    path_active_count.assign(npaths, 0);
    stale_queue.resize(nparts);
    resetStaleQueues();
    overlay_index.assign(storage.numVertices(), kNoOverlayEntry);
    partition_worklist.resize(nparts);
    partition_dirty.resize(nparts);
    for (PartitionId q = 0; q < nparts; ++q) {
        partition_worklist[q].bind(pre.partition_offsets[q],
                                   pre.partition_offsets[q + 1]);
        partition_dirty[q].bind(
            storage.pathOffset(pre.partition_offsets[q]),
            storage.pathOffset(pre.partition_offsets[q + 1]));
    }
    // Scalar by default; a lane run re-populates via initializeLanes().
    lane_count = 0;
    lane_full_mask = 0;
    lane_v.clear();
    lane_s.clear();
    lane_loaded.clear();
    lane_e.clear();
    slot_lane_mask.clear();
    lane_active_slots.clear();
}

void
ValuePlane::resetStaleQueues()
{
    for (auto &queue : stale_queue)
        queue.clear();
    const std::size_t entries = sync_->numMirrorEntries();
    stale_mark.assign(entries, 0);
    unmarked_entries.resize(entries);
    for (std::size_t k = 0; k < entries; ++k)
        unmarked_entries[k] = static_cast<MirrorEntryId>(k);
    const VertexId nv = storage.numVertices();
    unmarked_count.resize(nv);
    for (VertexId v = 0; v < nv; ++v) {
        unmarked_count[v] = static_cast<std::uint32_t>(
            sync_->mirrorBegin(v + 1) - sync_->mirrorBegin(v));
    }
}

void
ValuePlane::initializeLanes(const graph::DirectedGraph &g,
                            const algorithms::LaneAlgorithm &algo,
                            const partition::Preprocessed &pre)
{
    const unsigned k = algo.lanes();
    if (k == 0 || k > algorithms::kMaxValueLanes)
        panic("ValuePlane::initializeLanes: bad lane count ", k);
    lane_count = k;
    lane_full_mask = k == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << k) - 1;
    const VertexId nv = storage.numVertices();
    lane_v.resize(static_cast<std::size_t>(nv) * k);
    for (VertexId v = 0; v < nv; ++v) {
        for (unsigned l = 0; l < k; ++l)
            lane_v[static_cast<std::size_t>(v) * k + l] =
                algo.initVertexLane(g, v, l);
    }
    const std::size_t nslots = storage.eIdx().size();
    lane_s.resize(nslots * k);
    lane_loaded.resize(nslots * k);
    for (std::size_t s = 0; s < nslots; ++s) {
        const std::size_t src =
            static_cast<std::size_t>(storage.vertexAt(s)) * k;
        for (unsigned l = 0; l < k; ++l) {
            lane_s[s * k + l] = lane_v[src + l];
            lane_loaded[s * k + l] = lane_v[src + l];
        }
    }
    const std::size_t nedges = storage.layout().numPathEdges();
    lane_e.resize(nedges * k);
    for (std::size_t i = 0; i < nedges; ++i) {
        const EdgeId e = storage.edgeIdAt(i);
        for (unsigned l = 0; l < k; ++l)
            lane_e[i * k + l] = algo.initEdgeLane(g, e, l);
    }
    slot_lane_mask.assign(nslots, 0);
    lane_active_slots.assign(
        static_cast<std::size_t>(pre.numPartitions()) * k, 0);
}

void
ValuePlane::initializeState(const graph::DirectedGraph &g,
                            const algorithms::Algorithm &algo,
                            const WarmStart *warm)
{
    std::vector<Value> vinit(g.numVertices());
    if (warm && warm->vertex_state) {
        if (warm->vertex_state->size() != g.numVertices())
            panic("DiGraphEngine::run: warm state size mismatch");
        vinit = *warm->vertex_state;
    } else {
        for (VertexId v = 0; v < g.numVertices(); ++v)
            vinit[v] = algo.initVertex(g, v);
    }
    std::vector<Value> einit(g.numEdges());
    if (warm && warm->edge_state) {
        if (warm->edge_state->size() != g.numEdges())
            panic("DiGraphEngine::run: warm edge-state size mismatch");
        einit = *warm->edge_state;
    } else {
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            einit[e] = warm ? algo.warmEdgeState(g, e,
                                                 vinit[g.edgeSource(e)])
                            : algo.initEdge(g, e);
        }
    }
    storage.initialize(vinit, einit);
}

void
ValuePlane::initFlat(const graph::DirectedGraph &g,
                     const algorithms::Algorithm &algo, bool double_buffer)
{
    vertex_values.resize(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        vertex_values[v] = algo.initVertex(g, v);
    edge_values.resize(g.numEdges());
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        edge_values[e] = algo.initEdge(g, e);
    vertex_active.assign(g.numVertices(), 0);
    if (double_buffer) {
        vertex_values_next = vertex_values;
        vertex_active_next.assign(g.numVertices(), 0);
    } else {
        vertex_values_next.clear();
        vertex_active_next.clear();
    }
}

void
ValuePlane::initCheckpoint(const graph::DirectedGraph &g,
                           const partition::Preprocessed &pre)
{
    // Epoch-0 checkpoint: the freshly-initialized state. Later epochs
    // only copy journalled-dirty entries.
    const auto vvals = storage.vVals();
    ckpt_v.assign(vvals.begin(), vvals.end());
    const auto evals = storage.eVal();
    ckpt_e.assign(evals.begin(), evals.end());
    ckpt_v_dirty.assign(g.numVertices(), 0);
    ckpt_v_dirty_list.clear();
    ckpt_part_dirty.assign(pre.numPartitions(), 0);
    ckpt_part_dirty_list.clear();
    ckpt_wave = 0;
}

void
ValuePlane::copyPartitionEval(const partition::Preprocessed &pre,
                              PartitionId p, bool to_checkpoint)
{
    // Path q's edges occupy E_val indexes
    // [pathOffset(q) - q, pathOffset(q + 1) - q - 1); for the contiguous
    // path range [path_lo, path_hi) of a partition the union telescopes
    // to [pathOffset(path_lo) - path_lo, pathOffset(path_hi) - path_hi).
    const std::uint32_t path_lo = pre.partition_offsets[p];
    const std::uint32_t path_hi = pre.partition_offsets[p + 1];
    const std::uint64_t lo = storage.pathOffset(path_lo) - path_lo;
    const std::uint64_t hi = storage.pathOffset(path_hi) - path_hi;
    auto live = storage.eVals();
    if (to_checkpoint) {
        std::copy(live.begin() + static_cast<std::ptrdiff_t>(lo),
                  live.begin() + static_cast<std::ptrdiff_t>(hi),
                  ckpt_e.begin() + static_cast<std::ptrdiff_t>(lo));
    } else {
        std::copy(ckpt_e.begin() + static_cast<std::ptrdiff_t>(lo),
                  ckpt_e.begin() + static_cast<std::ptrdiff_t>(hi),
                  live.begin() + static_cast<std::ptrdiff_t>(lo));
    }
}

bool
ValuePlane::bookkeepingConsistent(const partition::Preprocessed &pre) const
{
    const PathId np = pre.paths.numPaths();
    if (path_active_count.size() != np)
        return slot_active.empty(); // run() has not initialized yet
    std::vector<std::uint32_t> recount(np, 0);
    for (std::uint64_t s = 0; s < slot_active.size(); ++s) {
        if (slot_active[s])
            ++recount[sync_->pathOfSlot(s)];
    }
    // Worklists: the bitmap bit is the in-worklist flag, so a path with
    // active slots must have its bit set, and the sweeps must see every
    // set bit. Dirty sets are drained every local round.
    for (PartitionId q = 0; q < pre.numPartitions(); ++q) {
        if (!partition_worklist[q].spanCoversMarks() ||
            !partition_dirty[q].spanCoversMarks() ||
            partition_dirty[q].count() != 0)
            return false;
        for (PathId path = pre.partition_offsets[q];
             path < pre.partition_offsets[q + 1]; ++path) {
            if (recount[path] != path_active_count[path])
                return false;
            if (recount[path] > 0 && !partition_worklist[q].test(path))
                return false;
        }
    }
    // Stale queues: every queued entry belongs to the queue's partition
    // and has a set mark, queued once; every set mark is queued.
    if (stale_mark.size() != sync_->numMirrorEntries())
        return false;
    std::vector<std::uint8_t> queued(stale_mark.size(), 0);
    std::size_t total_queued = 0;
    for (PartitionId q = 0; q < pre.numPartitions(); ++q) {
        for (const MirrorEntryId k : stale_queue[q]) {
            if (k >= stale_mark.size() || sync_->entryPartition(k) != q ||
                queued[k] || stale_mark[k] == 0)
                return false;
            queued[k] = 1;
            ++total_queued;
        }
    }
    const std::uint64_t mark_bits = lane_count > 0 ? lane_full_mask : 1;
    std::size_t marked = 0;
    for (const std::uint64_t mark : stale_mark) {
        if (mark & ~mark_bits)
            return false;
        marked += mark != 0;
    }
    if (marked != total_queued)
        return false;
    // Unmarked lists: each vertex's list holds exactly its entries with
    // a zero mark, each once.
    std::vector<std::uint8_t> listed(stale_mark.size(), 0);
    for (VertexId v = 0; v < storage.numVertices(); ++v) {
        const std::uint64_t begin = sync_->mirrorBegin(v);
        const std::uint64_t end = sync_->mirrorBegin(v + 1);
        if (unmarked_count[v] > end - begin)
            return false;
        for (std::uint32_t j = 0; j < unmarked_count[v]; ++j) {
            const MirrorEntryId k = unmarked_entries[begin + j];
            if (k < begin || k >= end || listed[k] || stale_mark[k] != 0)
                return false;
            listed[k] = 1;
        }
        for (std::uint64_t k = begin; k < end; ++k) {
            if ((stale_mark[k] == 0) != (listed[k] != 0))
                return false;
        }
    }
    // Every dispatch overlay was released after its barrier fan-out.
    if (std::any_of(overlay_index.begin(), overlay_index.end(),
                    [](std::uint32_t e) { return e != kNoOverlayEntry; }))
        return false;
    if (lane_count > 0) {
        // Lane invariants: the scalar slot flag tracks the union over
        // lanes, and the per-(partition, lane) counters recount.
        std::vector<std::uint64_t> lane_recount(lane_active_slots.size(),
                                                0);
        for (std::uint64_t s = 0; s < slot_lane_mask.size(); ++s) {
            const std::uint64_t mask = slot_lane_mask[s];
            if ((mask != 0) != (slot_active[s] != 0))
                return false;
            if (mask & ~lane_full_mask)
                return false;
            std::uint64_t m = mask;
            const std::size_t base =
                static_cast<std::size_t>(sync_->partitionOfSlot(s)) *
                lane_count;
            while (m) {
                const unsigned l =
                    static_cast<unsigned>(std::countr_zero(m));
                m &= m - 1;
                ++lane_recount[base + l];
            }
        }
        if (lane_recount != lane_active_slots)
            return false;
    }
    return true;
}

std::size_t
ValuePlane::memoryBytes() const
{
    std::size_t bytes = storage.valueBytes();
    bytes += slot_active.size() * sizeof(std::uint8_t);
    bytes += master_version.size() * sizeof(std::uint32_t);
    bytes += slot_seen_version.size() * sizeof(std::uint32_t);
    bytes += partition_active.size() * sizeof(std::uint8_t);
    bytes += path_active_count.size() * sizeof(std::uint32_t);
    for (const auto &wl : partition_worklist)
        bytes += wl.memoryBytes();
    for (const auto &queue : stale_queue)
        bytes += queue.capacity() * sizeof(MirrorEntryId);
    bytes += stale_mark.size() * sizeof(std::uint64_t);
    bytes += unmarked_entries.size() * sizeof(MirrorEntryId);
    bytes += unmarked_count.size() * sizeof(std::uint32_t);
    bytes += overlay_index.size() * sizeof(std::uint32_t);
    for (const auto &dirty : partition_dirty)
        bytes += dirty.memoryBytes();
    bytes += (lane_v.size() + lane_s.size() + lane_loaded.size() +
              lane_e.size()) *
             sizeof(Value);
    bytes += slot_lane_mask.size() * sizeof(std::uint64_t);
    bytes += lane_active_slots.size() * sizeof(std::uint64_t);
    bytes += (ckpt_v.size() + ckpt_e.size()) * sizeof(Value);
    bytes += ckpt_v_dirty.size() * sizeof(std::uint8_t);
    bytes += ckpt_v_dirty_list.capacity() * sizeof(VertexId);
    bytes += ckpt_part_dirty.size() * sizeof(std::uint8_t);
    bytes += ckpt_part_dirty_list.capacity() * sizeof(PartitionId);
    bytes += (vertex_values.size() + vertex_values_next.size() +
              edge_values.size()) *
             sizeof(Value);
    bytes += (vertex_active.size() + vertex_active_next.size()) *
             sizeof(std::uint8_t);
    return bytes;
}

} // namespace digraph::engine
