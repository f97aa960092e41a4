/**
 * @file
 * Per-job value plane of the execution substrate (DESIGN.md §12): every
 * piece of *mutable* run state one job owns — the four-array value
 * storage (V_val/S_val/E_val over a shared PathLayout), activation
 * bitsets and incremental worklists, master version clocks, and the
 * checkpoint copy-on-write shadows of the fault layer.
 *
 * Ownership rule: the shared substrate layers (ReplicaSync, Dispatcher)
 * are read-only; anything a run mutates lives here, so N concurrent
 * jobs over one substrate are fully isolated by giving each its own
 * ValuePlane. Within one job, a partition's slice of the plane
 * (activation flags, worklist, dirty set) is touched only by the
 * dispatch owning that partition during a wave's compute phase, and by
 * the serial barrier otherwise.
 *
 * The flat-mode arrays serve the baseline engines (BSP/async/
 * sequential), which iterate on plain per-vertex/per-edge state without
 * path storage; they share the plane type so snapshotting, convergence
 * sweeps, and reporting are uniform across engine families.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "algorithms/multi_source.hpp"
#include "common/types.hpp"
#include "engine/replica_sync.hpp"
#include "graph/digraph.hpp"
#include "partition/preprocess.hpp"
#include "storage/path_storage.hpp"

namespace digraph::engine {

/** Warm-start input for a run: converged states from a previous run
 *  plus the vertices whose neighborhood changed. */
struct WarmStart
{
    /** Vertex states to resume from (size = numVertices). */
    const std::vector<Value> *vertex_state = nullptr;
    /** Explicit per-edge caches (size = numEdges); when null they are
     *  derived via Algorithm::warmEdgeState(). */
    const std::vector<Value> *edge_state = nullptr;
    /** Activation seed (e.g. sources of inserted edges). */
    const std::vector<VertexId> *active_vertices = nullptr;
};

/**
 * All mutable per-job state of one engine run.
 */
class ValuePlane
{
  public:
    // --- four-array value storage (path engines) ---
    storage::PathStorage storage;

    // --- activation / version state (path engines) ---
    /** Chain activation within the current dispatch (set by processed
     *  edges and local refreshes). */
    std::vector<std::uint8_t> slot_active;
    /** Master change counter per vertex; a source slot whose seen
     *  version lags must re-propagate (cross-partition activation
     *  without per-slot broadcasts). */
    std::vector<std::uint32_t> master_version;
    /** Last master version each source slot has propagated. */
    std::vector<std::uint32_t> slot_seen_version;
    std::vector<std::uint8_t> partition_active;

    // --- incremental worklists (partition-sliced) ---
    /** Active source slots per path (incremental activation counter). */
    std::vector<std::uint32_t> path_active_count;
    /** Per partition: bitmap over its path range; a set bit means the
     *  path sits in the worklist (it may have active slots). Swept
     *  lazily each local round in storage order, so active-path
     *  collection costs O(touched words + active paths) instead of
     *  O(partition slots), with no sort. */
    std::vector<storage::RangeBitmap> partition_worklist;
    /** Per partition: mirror entries whose vertex's master version
     *  bumped since the partition last absorbed it (fed at the wave
     *  barrier; consumed at dispatch start instead of a full slot-range
     *  version scan). Each entry appears at most once (see
     *  stale_mark). */
    std::vector<std::vector<MirrorEntryId>> stale_queue;
    /** Pending mark per mirror entry (ReplicaSync mirror-entry CSR):
     *  non-zero iff the entry sits in its partition's stale_queue. Lane
     *  runs keep the OR of the changed-lane masks of every fan-out since
     *  the partition last ran (conversion activates only those lanes);
     *  scalar runs store 1. */
    std::vector<std::uint64_t> stale_mark;
    /** Per vertex, its mirror entries whose mark is 0: the first
     *  unmarked_count[v] ids from position ReplicaSync::mirrorBegin(v)
     *  on (any order). The fan-out flips and empties the list; the
     *  conversion puts each entry back as it clears the mark. */
    std::vector<MirrorEntryId> unmarked_entries;
    std::vector<std::uint32_t> unmarked_count;
    /** Dense vertex -> entry index of the open dispatch overlays
     *  (MasterOverlay; kNoOverlayEntry between waves). Shared by a
     *  chunk's vertex-disjoint dispatches, each releasing its own
     *  entries after its barrier fan-out. */
    std::vector<std::uint32_t> overlay_index;
    /** Per partition: dirty-slot set for the mirror-push phase. */
    std::vector<storage::SlotDirtySet> partition_dirty;

    // --- checkpoint COW state (fault layer; allocated only when fault
    // tolerance is enabled) ---
    /** Shadow copy of V_val at the last checkpoint epoch. */
    std::vector<Value> ckpt_v;
    /** Shadow copy of E_val at the last checkpoint epoch. */
    std::vector<Value> ckpt_e;
    /** Masters mutated since the last epoch (flag + journal). */
    std::vector<std::uint8_t> ckpt_v_dirty;
    std::vector<VertexId> ckpt_v_dirty_list;
    /** Partitions whose E_val slice was dispatched since the epoch. */
    std::vector<std::uint8_t> ckpt_part_dirty;
    std::vector<PartitionId> ckpt_part_dirty_list;
    /** Wave of the last checkpoint epoch. */
    std::uint64_t ckpt_wave = 0;

    // --- K-wide lane state (batched multi-source mode, DESIGN.md §17;
    // lane_count == 0 on scalar runs and every lane array stays empty).
    // SoA stripe layout: entity index * lane_count + lane, so the K
    // values of one vertex/slot/edge are contiguous (SIMD-friendly). ---
    /** Value lanes K of the current run (0 = scalar mode). */
    unsigned lane_count = 0;
    /** All-lanes activation mask ((1 << K) - 1; 0 in scalar mode). */
    std::uint64_t lane_full_mask = 0;
    /** Master states: numVertices x K stripes (the lane V_val). */
    std::vector<Value> lane_v;
    /** Mirror states: numSlots x K stripes (the lane S_val). */
    std::vector<Value> lane_s;
    /** Partition-load snapshots, parallel to lane_s. */
    std::vector<Value> lane_loaded;
    /** Per-edge caches: numPathEdges x K stripes (the lane E_val). */
    std::vector<Value> lane_e;
    /** Active-lane bitset per slot. Invariant: slot_active[s] ==
     *  (slot_lane_mask[s] != 0), so the scalar path/worklist
     *  bookkeeping tracks the union over lanes unchanged. */
    std::vector<std::uint64_t> slot_lane_mask;
    /** Active slots per (partition, lane): numPartitions x K, indexed
     *  p * lane_count + lane. Partition-sliced so concurrent dispatches
     *  never race; per-lane convergence sums the column at wave end. */
    std::vector<std::uint64_t> lane_active_slots;

    // --- flat-mode state (baseline engines) ---
    /** Per-vertex values (current iterate). */
    std::vector<Value> vertex_values;
    /** Per-vertex values of the next iterate (BSP double buffer). */
    std::vector<Value> vertex_values_next;
    /** Per-edge cached values. */
    std::vector<Value> edge_values;
    /** Per-vertex activation flags (current round). */
    std::vector<std::uint8_t> vertex_active;
    /** Per-vertex activation flags being built for the next round. */
    std::vector<std::uint8_t> vertex_active_next;

    /** Bind the storage to @p layout, sharing the immutable topology
     *  (the substrate path; fresh value arrays are allocated). */
    void
    bindLayout(std::shared_ptr<const storage::PathLayout> layout,
               VertexId num_vertices)
    {
        storage = storage::PathStorage(std::move(layout), num_vertices);
    }

    /** Attach the shared replica indexes the inline activation
     *  bookkeeping consults. Must precede beginRun(). */
    void attach(const ReplicaSync *sync) { sync_ = sync; }

    /** Reset/resize every per-run structure for a run over @p pre
     *  (storage values are initialized separately). */
    void beginRun(const partition::Preprocessed &pre);

    /** Empty every stale queue, clear every mark and refill each
     *  vertex's unmarked list with all its entries (run start and
     *  device-loss recovery). */
    void resetStaleQueues();

    /** Collect partition @p p's worklist paths that have active slots,
     *  in storage order, into @p paths with their active-slot counts in
     *  @p counts; paths without any leave the worklist. */
    void
    collectActivePaths(PartitionId p, std::vector<PathId> &paths,
                       std::vector<std::uint32_t> &counts)
    {
        paths.clear();
        counts.clear();
        partition_worklist[p].sweep([&](std::uint64_t q) {
            const std::uint32_t n = path_active_count[q];
            if (n == 0)
                return false;
            paths.push_back(static_cast<PathId>(q));
            counts.push_back(n);
            return true;
        });
    }

    /** Initialize the four arrays from @p algo (or from @p warm).
     *  @throws via panic() on warm-start size mismatches. */
    void initializeState(const graph::DirectedGraph &g,
                         const algorithms::Algorithm &algo,
                         const WarmStart *warm);

    /** Allocate/initialize the flat-mode arrays from @p algo.
     *  @param double_buffer Also materialize vertex_values_next /
     *  vertex_active_next (BSP). */
    void initFlat(const graph::DirectedGraph &g,
                  const algorithms::Algorithm &algo, bool double_buffer);

    /** Set a slot's activation flag, maintaining the per-path active
     *  counter and the owning partition's path worklist. Only the
     *  partition owning the slot may call this (partition-sliced
     *  state, safe under concurrent wave dispatches). */
    void
    activateSlot(std::uint64_t slot)
    {
        if (slot_active[slot])
            return;
        slot_active[slot] = 1;
        const PathId q = sync_->pathOfSlot(slot);
        if (path_active_count[q]++ == 0)
            partition_worklist[sync_->partitionOfPath(q)].mark(q);
    }

    /** Clear a processed slot's activation flag (counter bookkeeping). */
    void
    deactivateSlot(std::uint64_t slot)
    {
        if (slot_active[slot]) {
            slot_active[slot] = 0;
            --path_active_count[sync_->pathOfSlot(slot)];
        }
    }

    /** Allocate and initialize every lane array for a K-wide run over
     *  @p algo (called after beginRun(), which resets lane_count to 0
     *  for scalar runs). */
    void initializeLanes(const graph::DirectedGraph &g,
                         const algorithms::LaneAlgorithm &algo,
                         const partition::Preprocessed &pre);

    /** Activate one lane of a slot. The union bookkeeping (slot flag,
     *  path counter, partition worklist) engages only on the slot's
     *  first active lane, preserving the slot_active invariant. Same
     *  ownership rule as activateSlot(). */
    void
    activateSlotLane(std::uint64_t slot, unsigned lane)
    {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        std::uint64_t &mask = slot_lane_mask[slot];
        if (mask & bit)
            return;
        if (mask == 0)
            activateSlot(slot);
        mask |= bit;
        ++lane_active_slots[static_cast<std::size_t>(
                                sync_->partitionOfSlot(slot)) *
                                lane_count +
                            lane];
    }

    /** Activate the lanes in @p lanes_mask of a slot (staleness /
     *  refresh paths: the scalar engine re-activates the whole slot
     *  there; the lane twin activates exactly the lanes whose master
     *  changed, so one lane's progress never schedules edge work for
     *  the other K-1 lanes). */
    void
    activateSlotLanesMask(std::uint64_t slot, std::uint64_t lanes_mask)
    {
        std::uint64_t &mask = slot_lane_mask[slot];
        std::uint64_t missing = lanes_mask & ~mask;
        if (!missing)
            return;
        if (mask == 0)
            activateSlot(slot);
        const std::size_t base = static_cast<std::size_t>(
                                     sync_->partitionOfSlot(slot)) *
                                 lane_count;
        mask |= missing;
        while (missing) {
            const unsigned l =
                static_cast<unsigned>(std::countr_zero(missing));
            missing &= missing - 1;
            ++lane_active_slots[base + l];
        }
    }

    /** Take and clear a slot's whole activation mask (the lane kernel's
     *  walk consume; @p p is the owning partition). Returns the taken
     *  mask (0 = slot was inactive). */
    std::uint64_t
    consumeSlotLanes(std::uint64_t slot, PartitionId p)
    {
        std::uint64_t &mask = slot_lane_mask[slot];
        const std::uint64_t taken = mask;
        if (!taken)
            return 0;
        mask = 0;
        slot_active[slot] = 0;
        --path_active_count[sync_->pathOfSlot(slot)];
        const std::size_t base =
            static_cast<std::size_t>(p) * lane_count;
        std::uint64_t m = taken;
        while (m) {
            const unsigned l =
                static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            --lane_active_slots[base + l];
        }
        return taken;
    }

    /** Journal a master mutation since the last checkpoint epoch. */
    void
    markVertexDirty(VertexId v)
    {
        if (!ckpt_v_dirty[v]) {
            ckpt_v_dirty[v] = 1;
            ckpt_v_dirty_list.push_back(v);
        }
    }

    /** Journal a partition whose E_val slice a dispatch may mutate. */
    void
    markPartitionDirty(PartitionId p)
    {
        if (!ckpt_part_dirty[p]) {
            ckpt_part_dirty[p] = 1;
            ckpt_part_dirty_list.push_back(p);
        }
    }

    /** Take the epoch-0 checkpoint (full V_val + E_val copy) and reset
     *  the dirty journals. */
    void initCheckpoint(const graph::DirectedGraph &g,
                        const partition::Preprocessed &pre);

    /** Copy partition @p p's E_val slice between live and shadow
     *  arrays (@p to_checkpoint: live -> shadow, else shadow -> live). */
    void copyPartitionEval(const partition::Preprocessed &pre,
                           PartitionId p, bool to_checkpoint);

    /**
     * Validate the incremental activation bookkeeping (tests): per-path
     * active-slot counters must equal a full recount of slot flags,
     * every path with a nonzero counter must sit in its partition's
     * worklist bitmap, the stale queues must match their marks (a mark
     * is set iff its entry is queued, in its own partition's queue,
     * once), each vertex's unmarked list must hold exactly its entries
     * with a zero mark, once each, and no dirty set or overlay index
     * entry may be left open. O(total slots + entries) — debug/tests
     * only; valid at wave boundaries.
     */
    bool bookkeepingConsistent(const partition::Preprocessed &pre) const;

    /** Host bytes of every per-job array this plane owns (value
     *  storage, activation/worklist bitmaps, stale queues, marks and
     *  unmarked lists, dirty bitmaps, overlay index,
     *  checkpoint shadows, flat arrays) — excludes the shared layout
     *  and indexes. */
    std::size_t memoryBytes() const;

  private:
    const ReplicaSync *sync_ = nullptr;
};

} // namespace digraph::engine
