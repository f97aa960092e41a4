#include "engine/replica_sync.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "engine/value_plane.hpp"

namespace digraph::engine {

void
ReplicaSync::build(const partition::Preprocessed &pre,
                   const storage::PathLayout &layout,
                   VertexId num_vertices)
{
    const PathId np = pre.paths.numPaths();
    const PartitionId nparts = pre.numPartitions();

    // Path of each slot, partition of each path.
    path_of_slot_.resize(layout.numSlots());
    is_src_slot_.assign(layout.numSlots(), 0);
    for (PathId p = 0; p < np; ++p) {
        for (std::uint64_t s = layout.pathOffset(p);
             s < layout.pathOffset(p + 1); ++s) {
            path_of_slot_[s] = p;
            is_src_slot_[s] = s + 1 < layout.pathOffset(p + 1);
        }
    }
    partition_of_path_.resize(np);
    for (PartitionId q = 0; q < nparts; ++q) {
        for (std::uint32_t p = pre.partition_offsets[q];
             p < pre.partition_offsets[q + 1]; ++p) {
            partition_of_path_[p] = q;
        }
    }

    // Occurrence CSR: vertex -> slots.
    const auto e_idx = layout.eIdx();
    occur_offsets_.assign(num_vertices + 1, 0);
    for (const VertexId v : e_idx)
        ++occur_offsets_[v + 1];
    for (VertexId v = 0; v < num_vertices; ++v)
        occur_offsets_[v + 1] += occur_offsets_[v];
    occur_slots_.resize(e_idx.size());
    {
        std::vector<std::uint64_t> cursor(occur_offsets_.begin(),
                                          occur_offsets_.end() - 1);
        for (std::uint64_t s = 0; s < e_idx.size(); ++s)
            occur_slots_[cursor[e_idx[s]]++] = s;
    }

    // Mirror-entry CSR (vertex -> partitions with any occurrence,
    // deduplicated) with its per-entry arrays. A vertex's occurrence
    // slots are ascending and partitions own contiguous path (hence
    // slot) ranges, so the partition sequence along the occurrence list
    // is already non-decreasing: one streaming pass with a last-seen
    // compare opens an entry at each partition change, and the entry's
    // occurrence run lasts until the next one opens.
    mirror_offsets_.assign(num_vertices + 1, 0);
    mirror_parts_.clear();
    entry_vertex_.clear();
    entry_consumer_.clear();
    entry_occ_.clear();
    slot_entry_.resize(e_idx.size());
    for (VertexId v = 0; v < num_vertices; ++v) {
        PartitionId last_mirror = kInvalidPartition;
        for (std::uint64_t k = occur_offsets_[v];
             k < occur_offsets_[v + 1]; ++k) {
            const std::uint64_t slot = occur_slots_[k];
            const PartitionId part =
                partition_of_path_[path_of_slot_[slot]];
            if (part != last_mirror) {
                mirror_parts_.push_back(part);
                entry_vertex_.push_back(v);
                entry_consumer_.push_back(0);
                entry_occ_.push_back(k);
                last_mirror = part;
            }
            slot_entry_[slot] =
                static_cast<MirrorEntryId>(mirror_parts_.size() - 1);
            if (is_src_slot_[slot])
                entry_consumer_.back() = 1;
        }
        mirror_offsets_[v + 1] = mirror_parts_.size();
    }
    entry_occ_.push_back(occur_slots_.size());
    if (mirror_parts_.size() >
        std::numeric_limits<MirrorEntryId>::max())
        panic("ReplicaSync::build: ", mirror_parts_.size(),
              " mirror entries overflow the 32-bit entry ids");
}

void
ReplicaSync::activateVertex(ValuePlane &plane, VertexId v) const
{
    for (std::uint64_t k = occur_offsets_[v]; k < occur_offsets_[v + 1];
         ++k) {
        const std::uint64_t slot = occur_slots_[k];
        if (is_src_slot_[slot]) {
            plane.activateSlot(slot);
            plane.partition_active[partitionOfSlot(slot)] = 1;
        }
    }
}

void
ReplicaSync::convertStaleQueue(ValuePlane &plane, PartitionId p,
                               std::vector<VertexId> &stale_vertices,
                               std::vector<std::uint64_t> *stale_lanes) const
{
    // The queue holds each entry once (fanOutChanged queues an entry
    // only when its mark was clear), so sorting yields exactly the
    // sort + unique of every fan-out since this partition last ran, in
    // vertex order (the CSR is vertex-major); the mark carries the OR of
    // their changed-lane masks. Partitions are vertex-disjoint within a
    // chunk, so concurrent dispatches clear different marks and refill
    // different vertices' unmarked lists.
    auto &queue = plane.stale_queue[p];
    std::sort(queue.begin(), queue.end());
    for (const MirrorEntryId k : queue) {
        const VertexId v = entry_vertex_[k];
        std::uint64_t &mark = plane.stale_mark[k];
        const std::uint64_t lanes_mask = mark;
        mark = 0;
        plane.unmarked_entries[mirror_offsets_[v] +
                               plane.unmarked_count[v]++] = k;
        bool any_stale = false;
        const std::uint32_t version = plane.master_version[v];
        for (std::uint64_t o = entry_occ_[k]; o < entry_occ_[k + 1]; ++o) {
            const std::uint64_t slot = occur_slots_[o];
            if (plane.slot_seen_version[slot] != version) {
                any_stale = true;
                plane.slot_seen_version[slot] = version;
                if (!is_src_slot_[slot])
                    continue;
                if (stale_lanes != nullptr)
                    plane.activateSlotLanesMask(slot, lanes_mask);
                else
                    plane.activateSlot(slot);
            }
        }
        if (any_stale) {
            stale_vertices.push_back(v);
            if (stale_lanes != nullptr)
                stale_lanes->push_back(lanes_mask);
        }
    }
    queue.clear();
}

void
ReplicaSync::fanOutChanged(
    ValuePlane &plane, PartitionId p,
    const std::vector<VertexId> &changed,
    std::span<const std::uint64_t> changed_lanes,
    const MasterOverlay &overlay,
    std::vector<PartitionId> &activated_parts) const
{
    const unsigned lanes = plane.lane_count;
    const unsigned width = lanes > 0 ? lanes : 1;
    for (std::size_t i = 0; i < changed.size(); ++i) {
        const VertexId v = changed[i];
        const Value *master =
            lanes > 0 ? &plane.lane_v[static_cast<std::size_t>(v) * lanes]
                      : &plane.storage.vVal(v);
        const Value *ov = overlay.find(v);
        const bool self_current =
            ov != nullptr && std::equal(ov, ov + width, master);
        const std::uint64_t mask =
            changed_lanes.empty() ? 1 : changed_lanes[i];
        const std::uint64_t begin = mirror_offsets_[v];
        if (lanes > 0) {
            // Entries still pending from an earlier fan-out gain this
            // fan-out's lanes (scalar marks are 1 and need nothing).
            for (std::uint64_t k = begin; k < mirror_offsets_[v + 1];
                 ++k) {
                if (plane.stale_mark[k] != 0 &&
                    !(self_current && mirror_parts_[k] == p))
                    plane.stale_mark[k] |= mask;
            }
        }
        // Flip the unmarked entries. The self entry stays unmarked when
        // the overlay is current.
        MirrorEntryId *unmarked = plane.unmarked_entries.data() + begin;
        std::uint32_t &count = plane.unmarked_count[v];
        std::uint32_t kept = 0;
        for (std::uint32_t j = 0; j < count; ++j) {
            const MirrorEntryId k = unmarked[j];
            const PartitionId part = mirror_parts_[k];
            if (part == p && self_current) {
                unmarked[kept++] = k;
                continue;
            }
            plane.stale_mark[k] = mask;
            plane.stale_queue[part].push_back(k);
            if (!entry_consumer_[k])
                continue;
            if (part == p) {
                plane.partition_active[p] = 1;
            } else if (!plane.partition_active[part]) {
                // Gate only on the activation that wakes the partition
                // up; later batches are picked up whenever it runs.
                plane.partition_active[part] = 1;
                activated_parts.push_back(part);
            }
        }
        count = kept;
    }
}

void
ReplicaSync::activateVertexLane(ValuePlane &plane, VertexId v,
                                unsigned lane) const
{
    for (std::uint64_t k = occur_offsets_[v]; k < occur_offsets_[v + 1];
         ++k) {
        const std::uint64_t slot = occur_slots_[k];
        if (is_src_slot_[slot]) {
            plane.activateSlotLane(slot, lane);
            plane.partition_active[partitionOfSlot(slot)] = 1;
        }
    }
}

std::size_t
ReplicaSync::memoryBytes() const
{
    return path_of_slot_.size() * sizeof(PathId) +
           is_src_slot_.size() * sizeof(std::uint8_t) +
           partition_of_path_.size() * sizeof(PartitionId) +
           (occur_offsets_.size() + occur_slots_.size()) *
               sizeof(std::uint64_t) +
           mirror_offsets_.size() * sizeof(std::uint64_t) +
           mirror_parts_.size() * sizeof(PartitionId) +
           entry_vertex_.size() * sizeof(VertexId) +
           entry_consumer_.size() * sizeof(std::uint8_t) +
           entry_occ_.size() * sizeof(std::uint64_t) +
           slot_entry_.size() * sizeof(MirrorEntryId);
}

} // namespace digraph::engine
