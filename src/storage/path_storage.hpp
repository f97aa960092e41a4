/**
 * @file
 * The paper's four-array directed-path storage (Section 3.2.1, Fig 4).
 *
 *  - E_idx: per-path vertex-id sequences, concatenated (two successive
 *    items describe one directed edge);
 *  - S_val: mirror state per E_idx slot (the replica a GPU thread reads
 *    and writes while walking the path);
 *  - E_val: per-edge algorithm value (e.g. the last-propagated source
 *    contribution), aligned with the edges of each path;
 *  - V_val: master state per vertex (one slot per vertex id);
 *  - PTable: offset of each path's first vertex in E_idx; two successive
 *    entries delimit a path.
 *
 * Because a partition's paths occupy consecutive PTable/E_idx ranges, a
 * warp assigned to a partition reads consecutive global memory — the
 * coalesced-access property the cost model rewards.
 *
 * The storage is split along the mutability boundary: PathLayout holds
 * the immutable topology arrays (PTable, E_idx, edge ids) and is shared
 * between concurrent jobs via shared_ptr; PathStorage adds the per-job
 * mutable value arrays (S_val, loaded snapshots, E_val, V_val) on top of
 * one layout.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/prefetch.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "partition/path_set.hpp"

namespace digraph::storage {

/** Mutable view of one path's storage slices. */
struct PathView
{
    /** Vertex ids along the path (length = edges + 1). */
    std::span<const VertexId> vertex_ids;
    /** Mirror states, parallel to vertex_ids. */
    std::span<Value> mirror_states;
    /** Mirror snapshot at partition-load time, parallel to vertex_ids. */
    std::span<Value> loaded_states;
    /** Per-edge algorithm values, parallel to the path's edges. */
    std::span<Value> edge_states;
    /** Original graph edge ids, parallel to the path's edges. */
    std::span<const EdgeId> edge_ids;

    /** Number of edges. */
    std::size_t length() const { return edge_ids.size(); }
};

/**
 * Bitmap over a contiguous index range [lo, hi) (one partition's E_idx
 * slots or path ids) that yields its marked indexes in ascending order
 * without sorting. mark() is idempotent, so the bitmap also dedupes.
 * Only the span of words touched since the last drain/sweep is scanned,
 * so a round that marks a few indexes of a large range costs O(span),
 * not O(range).
 */
class RangeBitmap
{
  public:
    RangeBitmap() = default;

    /** Bind to index range [lo, hi); clears any previous state. */
    void
    bind(std::uint64_t lo, std::uint64_t hi)
    {
        lo_ = lo;
        words_.assign((hi - lo + 63) / 64, 0);
        first_ = words_.size();
        end_ = 0;
    }

    /** Mark @p i (must be inside the bound range). */
    void
    mark(std::uint64_t i)
    {
        const std::size_t w = static_cast<std::size_t>((i - lo_) >> 6);
        words_[w] |= std::uint64_t{1} << ((i - lo_) & 63);
        if (w < first_)
            first_ = w;
        if (w >= end_)
            end_ = w + 1;
    }

    /** Whether @p i is marked. */
    bool
    test(std::uint64_t i) const
    {
        return (words_[static_cast<std::size_t>((i - lo_) >> 6)] >>
                ((i - lo_) & 63)) &
               1;
    }

    /** Append every marked index to @p out in ascending order and
     *  unmark them all. */
    void
    drain(std::vector<std::uint64_t> &out)
    {
        for (std::size_t w = first_; w < end_; ++w) {
            std::uint64_t bits = words_[w];
            words_[w] = 0;
            const std::uint64_t base = lo_ + (std::uint64_t{w} << 6);
            while (bits) {
                out.push_back(base +
                              static_cast<std::uint64_t>(
                                  std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
        first_ = words_.size();
        end_ = 0;
    }

    /** Visit the marked indexes in ascending order; each one for which
     *  @p keep returns false is unmarked. The touched span shrinks to
     *  the words still holding marks. */
    template <class Keep>
    void
    sweep(Keep &&keep)
    {
        std::size_t first = words_.size();
        std::size_t end = 0;
        for (std::size_t w = first_; w < end_; ++w) {
            std::uint64_t bits = words_[w];
            const std::uint64_t base = lo_ + (std::uint64_t{w} << 6);
            while (bits) {
                const std::uint64_t bit = bits & -bits;
                bits &= bits - 1;
                if (!keep(base + static_cast<std::uint64_t>(
                                     std::countr_zero(bit))))
                    words_[w] &= ~bit;
            }
            if (words_[w] != 0) {
                first = std::min(first, w);
                end = w + 1;
            }
        }
        first_ = first;
        end_ = end;
    }

    /** Unmark everything (O(touched span), not O(range)). */
    void
    reset()
    {
        for (std::size_t w = first_; w < end_; ++w)
            words_[w] = 0;
        first_ = words_.size();
        end_ = 0;
    }

    /** Number of marked indexes (O(touched span); tests). */
    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (std::size_t w = first_; w < end_; ++w)
            n += static_cast<std::size_t>(std::popcount(words_[w]));
        return n;
    }

    /** True when every mark lies inside the touched span (the scans
     *  would otherwise miss it; tests). */
    bool
    spanCoversMarks() const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            if (words_[w] != 0 && (w < first_ || w >= end_))
                return false;
        }
        return true;
    }

    /** Bytes of the bitmap words. */
    std::size_t
    memoryBytes() const
    {
        return words_.size() * sizeof(std::uint64_t);
    }

  private:
    std::uint64_t lo_ = 0;
    std::vector<std::uint64_t> words_;
    /** Touched word span [first_, end_); empty when first_ >= end_. */
    std::size_t first_ = 0;
    std::size_t end_ = 0;
};

/** Dirty-slot set of one partition's mirror-push phase: slots written
 *  this local round, drained in ascending slot order (the merge order
 *  a full slot-range sweep would produce). */
using SlotDirtySet = RangeBitmap;

/**
 * Immutable topology half of the four-array storage: PTable, E_idx and
 * the per-edge original-graph edge ids. Built once per preprocessing
 * result and shared (read-only) by every job running on it.
 */
class PathLayout
{
  public:
    PathLayout() = default;

    /** Materialize from @p paths (already in final partition order). */
    explicit PathLayout(const partition::PathSet &paths);

    /** Number of paths. */
    PathId numPaths() const
    {
        return ptable_.empty() ? 0
                               : static_cast<PathId>(ptable_.size() - 1);
    }

    /** Total E_idx slots. */
    std::size_t numSlots() const { return e_idx_.size(); }

    /** Total path edges (E_val length). */
    std::size_t numPathEdges() const { return edge_ids_.size(); }

    /** PTable entry: E_idx offset of path @p p's first vertex. */
    std::uint64_t pathOffset(PathId p) const { return ptable_[p]; }

    /** Raw E_idx array. */
    std::span<const VertexId> eIdx() const { return e_idx_; }

    /** Vertex id stored at E_idx slot @p slot. */
    VertexId vertexAt(std::uint64_t slot) const { return e_idx_[slot]; }

    /** Original graph edge id stored at E_val index @p i. */
    EdgeId edgeIdAt(std::uint64_t i) const { return edge_ids_[i]; }

    /** Raw per-path-edge original edge-id array. */
    std::span<const EdgeId> edgeIds() const { return edge_ids_; }

    /** Bytes a GPU must move to load path @p p (E_idx + S_val + E_val
     *  slices plus its PTable entry). */
    std::size_t pathBytes(PathId p) const;

    /** Bytes for a contiguous path range [first, last). */
    std::size_t rangeBytes(PathId first, PathId last) const;

    /** Host bytes of the layout arrays themselves. */
    std::size_t memoryBytes() const;

  private:
    std::vector<std::uint64_t> ptable_;
    std::vector<VertexId> e_idx_;
    std::vector<EdgeId> edge_ids_;
};

/**
 * The four arrays plus PTable: one shared immutable PathLayout plus this
 * instance's own mutable value arrays (per-job state).
 */
class PathStorage
{
  public:
    PathStorage() = default;

    /** Build a fresh private layout from @p paths over @p g. */
    PathStorage(const partition::PathSet &paths,
                const graph::DirectedGraph &g);

    /** Share @p layout (concurrent jobs over one topology); only the
     *  value arrays are allocated here. */
    PathStorage(std::shared_ptr<const PathLayout> layout,
                VertexId num_vertices);

    /** The shared topology half. */
    const PathLayout &layout() const { return *layout_; }

    /** The shared topology half, by owner (job-manager sharing). */
    const std::shared_ptr<const PathLayout> &layoutPtr() const
    {
        return layout_;
    }

    /** Number of paths. */
    PathId numPaths() const { return layout_->numPaths(); }

    /** Number of vertices (V_val size). */
    VertexId numVertices() const
    {
        return static_cast<VertexId>(v_val_.size());
    }

    /** Mutable view of path @p p. */
    PathView path(PathId p);

    /** PTable entry: E_idx offset of path @p p's first vertex. */
    std::uint64_t pathOffset(PathId p) const
    {
        return layout_->pathOffset(p);
    }

    /** Master state of vertex @p v. */
    Value &vVal(VertexId v) { return v_val_[v]; }
    Value vVal(VertexId v) const { return v_val_[v]; }

    /** Whole master-state array. */
    std::span<Value> vVals() { return v_val_; }
    std::span<const Value> vVals() const { return v_val_; }

    /** Raw E_idx array (tests / coalescing analysis). */
    std::span<const VertexId> eIdx() const { return layout_->eIdx(); }

    /** Vertex id stored at E_idx slot @p slot. */
    VertexId vertexAt(std::uint64_t slot) const
    {
        return layout_->vertexAt(slot);
    }

    /** Mirror state at slot @p slot (hot-loop accessor). */
    Value &sVal(std::uint64_t slot) { return s_val_[slot]; }
    Value sVal(std::uint64_t slot) const { return s_val_[slot]; }

    /** Partition-load snapshot at slot @p slot (hot-loop accessor). */
    Value &loadedVal(std::uint64_t slot) { return loaded_val_[slot]; }
    Value loadedVal(std::uint64_t slot) const { return loaded_val_[slot]; }

    /** Raw E_val array. */
    std::span<const Value> eVal() const { return e_val_; }

    /** Mutable E_val array (checkpoint capture/restore). E_val slices
     *  align with path edges: path p's edges occupy indexes
     *  [pathOffset(p) - p, pathOffset(p + 1) - p - 1). */
    std::span<Value> eVals() { return e_val_; }

    /** Original graph edge id stored at E_val index @p i. */
    EdgeId edgeIdAt(std::uint64_t i) const
    {
        return layout_->edgeIdAt(i);
    }

    /** Fill every S_val and loaded-state slot of path @p p from V_val
     *  (the partition-load pull). */
    void pullPath(PathId p);

    /**
     * pullPath() with a master override: each slot is filled from
     * @p masterOf(vertex_id) instead of V_val. Used by dispatches that
     * buffer their master merges privately until a wave barrier — the
     * pull must see the dispatch's own pending merges even though V_val
     * is frozen for the wave.
     */
    template <typename F>
    void
    pullPathWith(PathId p, F &&masterOf)
    {
        const std::uint64_t lo = layout_->pathOffset(p);
        const std::uint64_t hi = layout_->pathOffset(p + 1);
        for (std::uint64_t slot = lo; slot < hi; ++slot) {
            // Path-sequential gather: E_idx streams linearly but V_val
            // is hit through the vertex id — prefetch the master a few
            // slots ahead (the overlay miss path reads V_val too).
            if (slot + kPrefetchDistance < hi) {
                DIGRAPH_PREFETCH(
                    &v_val_[layout_->vertexAt(slot + kPrefetchDistance)]);
            }
            s_val_[slot] = masterOf(layout_->vertexAt(slot));
            loaded_val_[slot] = s_val_[slot];
        }
    }

    /** Bytes a GPU must move to load path @p p. */
    std::size_t pathBytes(PathId p) const
    {
        return layout_->pathBytes(p);
    }

    /** Bytes for a contiguous path range [first, last). */
    std::size_t rangeBytes(PathId first, PathId last) const
    {
        return layout_->rangeBytes(first, last);
    }

    /** Initialize V_val, S_val snapshots and E_val.
     *  @param vertex_init V_val per vertex; @param edge_init E_val per
     *  original edge id. */
    void initialize(const std::vector<Value> &vertex_init,
                    const std::vector<Value> &edge_init);

    /** Host bytes of this instance's private value arrays (excludes the
     *  shared layout). */
    std::size_t valueBytes() const;

  private:
    std::shared_ptr<const PathLayout> layout_ =
        std::make_shared<PathLayout>();
    std::vector<Value> s_val_;
    std::vector<Value> loaded_val_;
    std::vector<Value> e_val_;
    std::vector<Value> v_val_;
};

} // namespace digraph::storage
