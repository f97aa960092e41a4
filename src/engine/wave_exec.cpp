/**
 * @file
 * The wave-barrier phase of a dispatch (DESIGN.md "Host execution
 * model" + §14). The compute phase lives in the wave-body template
 * (wave_body.hpp, instantiated by wave_kernel.cpp); this unit holds the
 * commit side:
 *
 *  - commitDeltas() — the lock-free parallel master commit of the
 *    delta-accumulative family: each outcome's private overlay is
 *    stored directly into V_val. The overlay value equals what the
 *    ordered replay would produce (same merge sequence from the same
 *    frozen wave-start master), and the chunk's partitions are
 *    vertex-disjoint, so concurrent commits touch disjoint masters —
 *    no locks, no atomics, no ordering requirement;
 *  - replayDispatch() — the serial remainder of the barrier, in
 *    dispatch order: work counters, simulated transport costs, the
 *    ordered merge replay (bitwise family / generic fallback), version
 *    bumps, and the activation fan-out.
 */

#include "engine/digraph_engine.hpp"

#include <algorithm>

#include "engine/dispatcher.hpp"

namespace digraph::engine {

void
DiGraphEngine::commitDeltas(const DispatchOutcome &outcome)
{
    // Plain stores are race-free here: a wave chunk only contains
    // mutually non-interfering (vertex-disjoint) partitions, so no two
    // concurrent commits write the same master. The entries are in
    // first-touch order, which is fine: each store hits its own
    // master.
    const MasterOverlay &overlay = outcome.overlay;
    const unsigned k = overlay.width;
    for (std::size_t i = 0; i < overlay.vertices.size(); ++i) {
        const VertexId v = overlay.vertices[i];
        const Value *src = overlay.values.data() + i * k;
        Value *dst = plane_.lane_count > 0
                         ? &plane_.lane_v[static_cast<std::size_t>(v) * k]
                         : &plane_.storage.vVal(v);
        std::copy(src, src + k, dst);
    }
}

void
DiGraphEngine::replayDispatch(DispatchOutcome &outcome,
                              metrics::RunReport &report)
{
    const PartitionId p = outcome.partition;
    ++partition_process_count_[p];
    counters_.add(metrics::Counter::PartitionProcessings);
    counters_.add(metrics::Counter::Rounds, outcome.local_rounds);
    counters_.add(metrics::Counter::EdgeProcessings,
                  outcome.edge_processings);
    counters_.add(metrics::Counter::VertexUpdates,
                  outcome.vertex_updates);
    counters_.add(metrics::Counter::LoadedVertices,
                  outcome.loaded_vertices);
    counters_.add(metrics::Counter::GlobalLoadBytes,
                  outcome.global_load_bytes);

    const DeviceId dev = transport_.chooseDevice(p, sched_);
    transport_.partition_device[p] = dev;
    auto &device = transport_.platform().device(dev);
    // One SMX owns this dispatch's serial round chain; other SMXs are
    // touched only by work-stealing surplus, so concurrent partitions on
    // the device keep their own SMXs.
    const SmxId home_smx = device.leastLoadedSmx();
    if (outcome.deferred_load_bytes)
        device.addGlobalLoad(outcome.deferred_load_bytes);

    double ready = transport_.ensureResident(
        p, dev,
        std::max({device.smx(home_smx).clock(),
                  transport_.partition_done[p],
                  transport_.partition_msg_ready[p]}),
        sched_, report);

    // Master refresh: path results are buffered in the global memory of
    // the device that produced them (Section 3.2.2); masters written on
    // another device are pulled over the ring, one batch per source
    // device. The stale vertices were collected from the incremental
    // stale queue at dispatch start.
    ready = transport_.masterRefreshPulls(
        dev, outcome.stale_vertices, ready, report,
        plane_.lane_count > 0 ? &outcome.stale_lanes : nullptr);

    // Charge the recorded kernel rounds to the device clocks, exactly as
    // the interleaved execution would have: group 0 chains on the home
    // SMX, surplus groups steal the momentarily least-loaded SMX.
    const double kernel_begin = ready;
    ready = transport_.chargeKernelRounds(p, dev, home_smx,
                                          outcome.round_group_cycles,
                                          outcome.round_ends, ready,
                                          report);
    if (trace_) {
        trace_->event(metrics::TraceEventType::Dispatch, trace_wave_, p,
                      kernel_begin, ready - kernel_begin,
                      outcome.local_rounds, outcome.edge_processings);
    }

    // Master commit, per the resolved kernel: the delta-accumulative
    // family was already committed in parallel (commitDeltas) and only
    // hands over its activation-worthy set; everything else replays its
    // push log in order against the true masters (earlier dispatches of
    // this wave have committed theirs — the deterministic
    // dispatch-order merge).
    std::vector<VertexId> changed;
    if (kernel_.delta_merge) {
        changed = std::move(outcome.changed);
        if (ft_enabled_) {
            // The ordered path journals per replayed push; here the
            // overlay entries ARE the pushed masters (first-touch order;
            // the journal is a set). (Lane runs exclude fault tolerance,
            // so the scalar overlay is the only case.)
            for (const VertexId v : outcome.overlay.vertices)
                plane_.markVertexDirty(v);
        }
    } else {
        kernel_.ordered_merge(*this, outcome, kernel_ctx_, changed);
    }
    if (trace_) {
        trace_->event(metrics::TraceEventType::MergeBarrier, trace_wave_,
                      p, ready, 0.0, outcome.push_count, changed.size());
    }
    for (const VertexId v : changed) {
        ++plane_.master_version[v];
        transport_.master_writer[v] = dev;
    }

    // Activation fan-out: every changed master feeds the stale queues of
    // the partitions mirroring it (once per pending pair) and re-enters
    // its consumer partitions into the worklist; partitions woken from
    // inactive get ring notification transfers.
    std::vector<PartitionId> activated_parts;
    sync_.fanOutChanged(plane_, p, changed, outcome.changed_lanes,
                        outcome.overlay, activated_parts);
    // The overlay's last reader is done: free its dense-index entries
    // for the next chunk's dispatches.
    outcome.overlay.release();
    std::sort(activated_parts.begin(), activated_parts.end());
    activated_parts.erase(
        std::unique(activated_parts.begin(), activated_parts.end()),
        activated_parts.end());
    transport_.notifyActivations(dev, activated_parts, ready, report);
    transport_.partition_done[p] = ready;
    if (outcome.reactivate_self)
        plane_.partition_active[p] = 1;
}

} // namespace digraph::engine
