/**
 * @file
 * Out-of-line definitions of ReplicaSync's static-dispatch sync
 * templates (pushDirtyMirrorsT / refreshLocalMirrorsT and their lane
 * twins). Split from replica_sync.hpp because they need the complete
 * ValuePlane type, which itself includes replica_sync.hpp.
 *
 * Included by the wave-body instantiation unit (wave_kernel.cpp) — not
 * by general engine headers, so the templates compile exactly where
 * they are instantiated.
 */

#pragma once

#include <algorithm>

#include "common/prefetch.hpp"
#include "engine/replica_sync.hpp"
#include "engine/value_plane.hpp"

namespace digraph::engine {

template <class AlgoT, bool LogPushes>
PushStats
ReplicaSync::pushDirtyMirrorsT(
    ValuePlane &plane, std::span<const std::uint64_t> dirty_slots,
    const AlgoT &algo, const graph::DirectedGraph &g, bool use_proxy,
    std::uint32_t proxy_indegree_threshold, MasterOverlay &overlay,
    std::vector<std::pair<VertexId, Value>> &pushes,
    std::vector<MirrorEntryId> &changed) const
{
    // Every dirty mirror pushes its pending value/delta to the
    // (privately overlaid) master. Only slots written this round are
    // examined — the incremental replacement of a full slot-range
    // sweep. Ascending slot order keeps the merge order of the sweep.
    // Refreshes are deferred to refreshLocalMirrors() so that a refresh
    // of one replica can never clobber another replica's un-pushed
    // work.
    PushStats stats;
    const std::size_t n = dirty_slots.size();
    for (std::size_t k = 0; k < n; ++k) {
        if (k + kPrefetchDistance < n) {
            // Gather prefetch: the master each upcoming dirty slot will
            // copy into the overlay (and the mirror pair itself).
            const std::uint64_t ahead = dirty_slots[k + kPrefetchDistance];
            DIGRAPH_PREFETCH(
                &plane.storage.vVal(plane.storage.vertexAt(ahead)));
            DIGRAPH_PREFETCH(&plane.storage.sVal(ahead));
        }
        const std::uint64_t s = dirty_slots[k];
        Value &mirror = plane.storage.sVal(s);
        Value &loaded = plane.storage.loadedVal(s);
        if (!algo.hasPush(mirror, loaded))
            continue;
        const VertexId v = plane.storage.vertexAt(s);
        const Value push = algo.pushValue(mirror, loaded);
        Value &master = *overlay.stripe(v, &plane.storage.vVal(v));
        const bool master_changed = algo.mergeMaster(master, push);
        loaded = mirror;
        if constexpr (LogPushes)
            pushes.emplace_back(v, push);
        if (use_proxy && g.inDegree(v) >= proxy_indegree_threshold)
            ++stats.proxy_pushes;
        else
            ++stats.atomic_pushes;
        if (master_changed)
            changed.push_back(slot_entry_[s]);
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    return stats;
}

template <class AlgoT>
void
ReplicaSync::refreshLocalMirrorsT(
    ValuePlane &plane, const AlgoT &algo, const MasterOverlay &overlay,
    const std::vector<MirrorEntryId> &changed) const
{
    for (const MirrorEntryId k : changed) {
        const Value master = *overlay.find(entry_vertex_[k]);
        for (std::uint64_t o = entry_occ_[k]; o < entry_occ_[k + 1]; ++o) {
            const std::uint64_t slot = occur_slots_[o];
            Value &mirror = plane.storage.sVal(slot);
            mirror = algo.pull(master, mirror);
            plane.storage.loadedVal(slot) = mirror;
            if (is_src_slot_[slot])
                plane.activateSlot(slot);
        }
    }
}

template <class AlgoT, bool LogPushes>
PushStats
ReplicaSync::pushDirtyMirrorsLanesT(
    ValuePlane &plane, std::span<const std::uint64_t> dirty_slots,
    const AlgoT &algo, const graph::DirectedGraph &g, bool use_proxy,
    std::uint32_t proxy_indegree_threshold, MasterOverlay &overlay,
    std::vector<LanePush> &pushes, std::vector<MirrorEntryId> &changed,
    std::vector<std::uint64_t> &changed_lanes,
    std::vector<std::pair<VertexId, std::uint64_t>> &pairs) const
{
    // Stripe-wise twin of pushDirtyMirrorsT: the dirty worklist stays
    // slot-granular (one mark covers all K lanes of the written
    // mirror), and each lane pushes independently into its stripe
    // position. At K == 1 the control flow, push counts, and merge
    // order are exactly the scalar phase's.
    PushStats stats;
    const unsigned lanes = plane.lane_count;
    const std::size_t n = dirty_slots.size();
    for (std::size_t k = 0; k < n; ++k) {
        if (k + kPrefetchDistance < n) {
            const std::uint64_t ahead = dirty_slots[k + kPrefetchDistance];
            DIGRAPH_PREFETCH(
                &plane.lane_v[static_cast<std::size_t>(
                                  plane.storage.vertexAt(ahead)) *
                              lanes]);
            DIGRAPH_PREFETCH(&plane.lane_s[ahead * lanes]);
        }
        const std::uint64_t s = dirty_slots[k];
        Value *mirror = &plane.lane_s[s * lanes];
        Value *loaded = &plane.lane_loaded[s * lanes];
        const VertexId v = plane.storage.vertexAt(s);
        Value *master = nullptr;
        std::uint64_t changed_mask = 0;
        for (unsigned l = 0; l < lanes; ++l) {
            if (!algo.hasPush(mirror[l], loaded[l]))
                continue;
            const Value push = algo.pushValue(mirror[l], loaded[l]);
            if (master == nullptr) {
                master = overlay.stripe(
                    v, &plane.lane_v[static_cast<std::size_t>(v) * lanes]);
            }
            if (algo.mergeMaster(master[l], push))
                changed_mask |= std::uint64_t{1} << l;
            loaded[l] = mirror[l];
            if constexpr (LogPushes)
                pushes.push_back({v, l, push});
            if (use_proxy && g.inDegree(v) >= proxy_indegree_threshold)
                ++stats.proxy_pushes;
            else
                ++stats.atomic_pushes;
        }
        if (changed_mask) {
            changed.push_back(slot_entry_[s]);
            changed_lanes.push_back(changed_mask);
        }
    }
    sortMergeChangedLanes(changed, changed_lanes, pairs);
    return stats;
}

template <class AlgoT>
void
ReplicaSync::refreshLocalMirrorsLanesT(
    ValuePlane &plane, const AlgoT &algo, const MasterOverlay &overlay,
    const std::vector<MirrorEntryId> &changed,
    const std::vector<std::uint64_t> &changed_lanes) const
{
    const unsigned lanes = plane.lane_count;
    for (std::size_t i = 0; i < changed.size(); ++i) {
        const MirrorEntryId k = changed[i];
        const Value *master = overlay.find(entry_vertex_[k]);
        for (std::uint64_t o = entry_occ_[k]; o < entry_occ_[k + 1]; ++o) {
            const std::uint64_t slot = occur_slots_[o];
            Value *mirror = &plane.lane_s[slot * lanes];
            Value *loaded = &plane.lane_loaded[slot * lanes];
            for (unsigned l = 0; l < lanes; ++l) {
                mirror[l] = algo.pull(master[l], mirror[l]);
                loaded[l] = mirror[l];
            }
            // Only the lanes whose master changed re-activate — the
            // stripe refresh itself still covers all K (coherence).
            if (is_src_slot_[slot])
                plane.activateSlotLanesMask(slot, changed_lanes[i]);
        }
    }
}

} // namespace digraph::engine
