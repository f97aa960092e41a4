/**
 * @file
 * Replica-synchronization layer of the execution substrate (DESIGN.md
 * §12): the immutable vertex-replication indexes (slot ownership, the
 * occurrence CSR and the mirror-entry CSR) plus the batched master<->mirror
 * synchronization operations that run against a job's ValuePlane.
 *
 * A ReplicaSync instance is built once per preprocessing result and is
 * strictly read-only afterwards, so any number of concurrent jobs may
 * share one instance; all mutable state lives in the ValuePlane passed
 * into each operation.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "partition/preprocess.hpp"
#include "storage/path_storage.hpp"

namespace digraph::engine {

class ValuePlane;

/** Proxy-vs-atomic push split of one mirror-push phase (feeds the
 *  simulated sync-cost model). */
struct PushStats
{
    std::uint64_t proxy_pushes = 0;
    std::uint64_t atomic_pushes = 0;
};

/** Dense-index sentinel: the vertex has no entry in an open overlay. */
inline constexpr std::uint32_t kNoOverlayEntry = UINT32_MAX;

/** Position of a (vertex, mirroring partition) pair in the mirror-entry
 *  CSR. The CSR is vertex-major, so ascending entry ids of one
 *  partition are ascending vertex ids. */
using MirrorEntryId = std::uint32_t;

/**
 * Private master overlay of one dispatch: per touched master, one stripe
 * of `width` values (1 on scalar runs, K on lane runs), copied from the
 * committed master on first touch and merged into by the dispatch's own
 * pushes.
 *
 * The overlay stays *open* from the dispatch's compute phase through its
 * wave-barrier replay: lookups go through a dense vertex -> entry index
 * (ValuePlane::overlay_index). The index is shared by every dispatch of
 * a wave chunk, which is race-free because the chunk's partitions are
 * vertex-disjoint: each dispatch reads and writes only its own
 * vertices' entries. The barrier (commit, fault journal, fan-out) reads
 * the entries in first-touch order — every consumer is order-free — and
 * release() then resets the index entries this overlay set
 * (O(touched)) before the next chunk opens its overlays.
 */
struct MasterOverlay
{
    /** Touched masters in first-touch order. */
    std::vector<VertexId> vertices;
    /** Stripe pool, `width` values per entry (parallel to vertices). */
    std::vector<Value> values;
    /** Values per entry. */
    unsigned width = 1;
    /** Dense vertex -> entry index while open; nullptr once
     *  released. */
    std::uint32_t *index = nullptr;

    /** Open for a dispatch over @p dense_index (all kNoOverlayEntry on
     *  the vertices this dispatch will touch). */
    void
    open(std::uint32_t *dense_index, unsigned stripe_width)
    {
        index = dense_index;
        width = stripe_width;
    }

    /** Stripe of @p v, inserted from @p committed (width values) on
     *  first touch. Open overlays only. */
    Value *
    stripe(VertexId v, const Value *committed)
    {
        std::uint32_t &entry = index[v];
        if (entry == kNoOverlayEntry) {
            entry = static_cast<std::uint32_t>(vertices.size());
            vertices.push_back(v);
            values.insert(values.end(), committed, committed + width);
        }
        return values.data() + static_cast<std::size_t>(entry) * width;
    }

    /** Stripe of @p v, or nullptr when untouched. Open overlays
     *  only. */
    const Value *
    find(VertexId v) const
    {
        const std::uint32_t entry = index[v];
        return entry == kNoOverlayEntry
                   ? nullptr
                   : values.data() + static_cast<std::size_t>(entry) * width;
    }

    /** Reset the index entries this overlay set and detach from the
     *  index; the entries stay readable. */
    void
    release()
    {
        if (index == nullptr)
            return;
        for (const VertexId v : vertices)
            index[v] = kNoOverlayEntry;
        index = nullptr;
    }

    bool empty() const { return vertices.empty(); }
};

/** One entry of a lane dispatch's master push log (ordered replay). */
struct LanePush
{
    VertexId vertex;
    std::uint32_t lane;
    Value push;
};

/** Sort @p changed (vertex or mirror-entry ids) ascending and OR-merge
 *  duplicate ids' masks in the parallel @p changed_lanes — the lane
 *  twin of the sort + unique a scalar changed list gets. @p pairs is
 *  reused scratch. */
inline void
sortMergeChangedLanes(std::vector<VertexId> &changed,
                      std::vector<std::uint64_t> &changed_lanes,
                      std::vector<std::pair<VertexId, std::uint64_t>> &pairs)
{
    pairs.clear();
    for (std::size_t i = 0; i < changed.size(); ++i)
        pairs.emplace_back(changed[i], changed_lanes[i]);
    std::sort(pairs.begin(), pairs.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    changed.clear();
    changed_lanes.clear();
    for (const auto &[v, mask] : pairs) {
        if (!changed.empty() && changed.back() == v) {
            changed_lanes.back() |= mask;
        } else {
            changed.push_back(v);
            changed_lanes.push_back(mask);
        }
    }
}

/**
 * Shared, immutable replica indexes + the master/mirror sync operations.
 */
class ReplicaSync
{
  public:
    /** Build every index from @p pre / @p layout (called once). */
    void build(const partition::Preprocessed &pre,
               const storage::PathLayout &layout, VertexId num_vertices);

    /** Path owning E_idx slot @p slot. */
    PathId pathOfSlot(std::uint64_t slot) const
    {
        return path_of_slot_[slot];
    }

    /** True when the slot is a source position (not a path tail). */
    bool isSrcSlot(std::uint64_t slot) const { return is_src_slot_[slot]; }

    /** Partition of path @p p. */
    PartitionId partitionOfPath(PathId p) const
    {
        return partition_of_path_[p];
    }

    /** Partition owning E_idx slot @p slot. */
    PartitionId partitionOfSlot(std::uint64_t slot) const
    {
        return partition_of_path_[path_of_slot_[slot]];
    }

    /** Occurrence slots of vertex @p v (ascending). */
    std::span<const std::uint64_t>
    occurrences(VertexId v) const
    {
        return {occur_slots_.data() + occur_offsets_[v],
                occur_slots_.data() + occur_offsets_[v + 1]};
    }

    /** Partitions holding ANY occurrence of @p v (deduplicated). */
    std::span<const PartitionId>
    mirrorPartitions(VertexId v) const
    {
        return {mirror_parts_.data() + mirror_offsets_[v],
                mirror_parts_.data() + mirror_offsets_[v + 1]};
    }

    /** Total E_idx slots covered by the indexes. */
    std::size_t numSlots() const { return path_of_slot_.size(); }

    /** Entries of the mirror-entry CSR: one per (vertex, mirroring
     *  partition) pair — the index space of ValuePlane::stale_mark and
     *  of the stale queues. */
    std::size_t numMirrorEntries() const { return mirror_parts_.size(); }

    /** First mirror entry of @p v; its entries are
     *  [mirrorBegin(v), mirrorBegin(v + 1)). */
    std::uint64_t mirrorBegin(VertexId v) const
    {
        return mirror_offsets_[v];
    }

    /** Vertex of mirror entry @p k. */
    VertexId entryVertex(MirrorEntryId k) const { return entry_vertex_[k]; }

    /** Mirroring partition of mirror entry @p k. */
    PartitionId entryPartition(MirrorEntryId k) const
    {
        return mirror_parts_[k];
    }

    // --- batched sync operations (mutate only @p plane) ---

    /** Activate every source occurrence of @p v and mark the owning
     *  partitions active (initial activation / warm-start seeds /
     *  degrade-recovery reseeding). */
    void activateVertex(ValuePlane &plane, VertexId v) const;

    /**
     * Consume partition @p p's stale queue of mirror entries: for each
     * queued entry whose vertex's master version bumped since a local
     * slot last absorbed it, update the slot's seen version, activate
     * source slots, and append the vertex to @p stale_vertices
     * (ascending; drives the ring master-refresh pulls at replay). The
     * walk covers exactly the entry's run of occurrences inside the
     * partition. Each entry's pending mark (ValuePlane::stale_mark) is
     * read and cleared, and the entry returns to its vertex's unmarked
     * list. Replaces a dispatch-start full version scan of the slot
     * range.
     *
     * Lane runs pass @p stale_lanes: a stale slot then re-activates
     * exactly the lanes its pending mark flags as changed — one lane's
     * progress never schedules edge work for the other K-1 lanes — and
     * each stale vertex's mask is appended (parallel to
     * @p stale_vertices) so the transport can delta-encode the refresh
     * pull instead of shipping all K lane values.
     */
    void convertStaleQueue(ValuePlane &plane, PartitionId p,
                           std::vector<VertexId> &stale_vertices,
                           std::vector<std::uint64_t> *stale_lanes =
                               nullptr) const;

    /**
     * Mirror->master push phase over one partition's drained dirty
     * slots @p dirty_slots (ascending slot order): each mirror with a
     * pending push merges into the private @p overlay (master values
     * frozen for the wave live in plane.storage), logs into @p pushes,
     * and collects the mirror entries of masters whose overlaid value
     * changed into @p changed (sorted/deduplicated, hence in vertex
     * order). Returns the proxy/atomic split.
     *
     * @p AlgoT is either a non-virtual kernel policy (specialized wave
     * kernels — the merge math inlines into the batch loop) or
     * algorithms::Algorithm (generic fallback). @p LogPushes false
     * skips the push log entirely (delta-merge kernels commit the
     * overlay instead). Defined in replica_sync_impl.hpp.
     */
    template <class AlgoT, bool LogPushes>
    PushStats
    pushDirtyMirrorsT(ValuePlane &plane,
                      std::span<const std::uint64_t> dirty_slots,
                      const AlgoT &algo, const graph::DirectedGraph &g,
                      bool use_proxy,
                      std::uint32_t proxy_indegree_threshold,
                      MasterOverlay &overlay,
                      std::vector<std::pair<VertexId, Value>> &pushes,
                      std::vector<MirrorEntryId> &changed) const;

    /**
     * Refresh phase: re-pull and re-activate the partition-local
     * mirrors of each mirror entry in @p changed (its run of
     * occurrences) from the overlaid master (the proxy-vertex effect —
     * accumulated results are reusable within the next local round).
     * Defined in replica_sync_impl.hpp.
     */
    template <class AlgoT>
    void refreshLocalMirrorsT(ValuePlane &plane, const AlgoT &algo,
                              const MasterOverlay &overlay,
                              const std::vector<MirrorEntryId> &changed)
        const;

    /**
     * Wave-barrier activation fan-out of the committed @p changed
     * masters (serial phase): feed the stale queues of mirroring
     * partitions and wake consumer partitions. Only a vertex's unmarked
     * entries (ValuePlane::unmarked_entries) are visited: each is
     * marked, queued, and — when its partition holds a source
     * occurrence — wakes that partition. A marked entry needs no visit:
     * its partition has not run since the mark was set, so it is still
     * queued and, as a consumer, still active. The dispatching
     * partition @p p skips itself only when its @p overlay already
     * equals the committed master across every lane (sole writer); its
     * entry then stays unmarked. Lane runs pass the per-vertex
     * changed-lane masks in @p changed_lanes (parallel to @p changed),
     * which are also OR-merged into the entries already marked; scalar
     * runs pass an empty span. Partitions woken from inactive are
     * appended to @p activated_parts (unsorted; caller dedups) for the
     * notification transfers.
     */
    void fanOutChanged(ValuePlane &plane, PartitionId p,
                       const std::vector<VertexId> &changed,
                       std::span<const std::uint64_t> changed_lanes,
                       const MasterOverlay &overlay,
                       std::vector<PartitionId> &activated_parts) const;

    // --- K-wide lane variants (batched multi-source mode; each is the
    // stripe-wise analogue of its scalar twin, and at K == 1 performs
    // exactly the scalar operation on the lane arrays — the bit-identity
    // lever tests/test_multisource.cpp pins) ---

    /** Activate lane @p lane of every source occurrence of @p v and
     *  mark the owning partitions active. */
    void activateVertexLane(ValuePlane &plane, VertexId v,
                            unsigned lane) const;

    /** Lane variant of pushDirtyMirrorsT(): every lane of a dirty slot
     *  with a pending push merges into the K-wide @p overlay stripe;
     *  @p changed collects masters where ANY lane changed
     *  activation-worthily, with the per-vertex mask of changed lanes
     *  in @p changed_lanes (parallel; @p pairs is sort scratch).
     *  Defined in replica_sync_impl.hpp. */
    template <class AlgoT, bool LogPushes>
    PushStats
    pushDirtyMirrorsLanesT(
        ValuePlane &plane, std::span<const std::uint64_t> dirty_slots,
        const AlgoT &algo, const graph::DirectedGraph &g, bool use_proxy,
        std::uint32_t proxy_indegree_threshold, MasterOverlay &overlay,
        std::vector<LanePush> &pushes, std::vector<MirrorEntryId> &changed,
        std::vector<std::uint64_t> &changed_lanes,
        std::vector<std::pair<VertexId, std::uint64_t>> &pairs) const;

    /** Lane variant of refreshLocalMirrorsT(): pulls every lane of the
     *  in-range mirrors from the overlaid master stripe and re-activates
     *  the changed lanes (@p changed_lanes parallel to @p changed) of
     *  source slots. Defined in replica_sync_impl.hpp. */
    template <class AlgoT>
    void refreshLocalMirrorsLanesT(
        ValuePlane &plane, const AlgoT &algo, const MasterOverlay &overlay,
        const std::vector<MirrorEntryId> &changed,
        const std::vector<std::uint64_t> &changed_lanes) const;

    /** Host bytes of the shared indexes. */
    std::size_t memoryBytes() const;

  private:
    /** Path owning each E_idx slot. */
    std::vector<PathId> path_of_slot_;
    /** Whether each slot is a source position (not a path tail). */
    std::vector<std::uint8_t> is_src_slot_;
    /** Partition of each path. */
    std::vector<PartitionId> partition_of_path_;
    /** CSR: vertex -> its occurrence slots across all paths. */
    std::vector<std::uint64_t> occur_offsets_;
    std::vector<std::uint64_t> occur_slots_;
    /** Mirror-entry CSR: vertex -> partitions holding ANY occurrence
     *  (deduplicated, ascending). An entry's position k is its
     *  MirrorEntryId; the per-entry arrays below are parallel to
     *  mirror_parts_. */
    std::vector<std::uint64_t> mirror_offsets_;
    std::vector<PartitionId> mirror_parts_;
    /** Vertex of each entry. */
    std::vector<VertexId> entry_vertex_;
    /** Whether the entry's partition holds a SOURCE occurrence of the
     *  vertex (a consumer, woken by the fan-out). */
    std::vector<std::uint8_t> entry_consumer_;
    /** Run of each entry's occurrences inside its partition: entry k
     *  covers occur_slots_[entry_occ_[k], entry_occ_[k + 1]) (a
     *  vertex's occurrences are ascending and partitions own contiguous
     *  slot ranges, so the runs tile the occurrence list). */
    std::vector<std::uint64_t> entry_occ_;
    /** Mirror entry of each E_idx slot. */
    std::vector<MirrorEntryId> slot_entry_;
};

} // namespace digraph::engine
