/**
 * @file
 * The ordered worker pool, and the tile pool's memory-event recorder.
 *
 * runOrdered() is the repo's one thread pool. Work items run on
 * worker threads in any order; their results are folded back on the
 * calling thread in strict ascending index order. That in-order fold
 * is what keeps output bit-identical for any worker count, and it is
 * used at two levels (docs/ARCHITECTURE.md spells out the model):
 *
 *  - frame tiles (GraphicsPipeline, --tile-jobs): work(tile) renders
 *    and signs one tile into its private task slot, touching only
 *    state that is read-only during the raster phase or
 *    per-tile-disjoint; fold(tile) does everything order-sensitive
 *    (MemSystem replay, StatRegistry folds, signature-buffer writes,
 *    Frame Buffer tile flushes);
 *  - sweep cells (ParallelRunner, --jobs): work(i) simulates cell i
 *    into its result slot; fold(i) reports cell i's progress.
 *
 * With jobs <= 1 no threads are spawned and the pair runs inline per
 * item, which is *definitionally* the serial loop; the parallel
 * schedule is equivalent because work writes are disjoint and the
 * fold order is fixed.
 */

#ifndef REGPU_GPU_TILE_POOL_HH
#define REGPU_GPU_TILE_POOL_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "gpu/memiface.hh"

namespace regpu
{

/**
 * MemTraceSink that records every access instead of forwarding it, so
 * a worker can render a tile without touching the shared (cache-state-
 * order-sensitive) MemSystem; the merge phase then replays the events
 * into the real sink in exact renderTile emission order. Reused across
 * tiles via clear() (capacity is retained).
 */
class MemEventRecorder : public MemTraceSink
{
  public:
    void vertexFetch(Addr addr, u32 bytes) override
    {
        events.push_back({Kind::VertexFetch, addr, bytes});
    }
    void parameterWrite(Addr addr, u32 bytes) override
    {
        events.push_back({Kind::ParameterWrite, addr, bytes});
    }
    void parameterRead(Addr addr, u32 bytes) override
    {
        events.push_back({Kind::ParameterRead, addr, bytes});
    }
    void texelFetch(u32 textureCacheIndex, Addr addr) override
    {
        events.push_back({Kind::TexelFetch, addr, textureCacheIndex});
    }
    void colorFlush(Addr addr, u32 bytes) override
    {
        events.push_back({Kind::ColorFlush, addr, bytes});
    }
    void colorRead(Addr addr, u32 bytes) override
    {
        events.push_back({Kind::ColorRead, addr, bytes});
    }

    /** Forward every recorded access to @p sink, in recorded order. */
    void
    replay(MemTraceSink &sink) const
    {
        for (const Event &e : events) {
            switch (e.kind) {
              case Kind::VertexFetch:
                sink.vertexFetch(e.addr, e.arg);
                break;
              case Kind::ParameterWrite:
                sink.parameterWrite(e.addr, e.arg);
                break;
              case Kind::ParameterRead:
                sink.parameterRead(e.addr, e.arg);
                break;
              case Kind::TexelFetch:
                sink.texelFetch(e.arg, e.addr);
                break;
              case Kind::ColorFlush:
                sink.colorFlush(e.addr, e.arg);
                break;
              case Kind::ColorRead:
                sink.colorRead(e.addr, e.arg);
                break;
            }
        }
    }

    void clear() { events.clear(); }
    std::size_t size() const { return events.size(); }

  private:
    enum class Kind : u8
    {
        VertexFetch,
        ParameterWrite,
        ParameterRead,
        TexelFetch,
        ColorFlush,
        ColorRead,
    };
    struct Event
    {
        Kind kind;
        Addr addr;
        u32 arg; //!< bytes, or the texture-cache index for TexelFetch
    };
    std::vector<Event> events;
};

/**
 * Run @p work(i) for every i in [0, count) on up to @p jobs worker
 * threads (any claim order), and @p fold(i) on the calling thread in
 * strict ascending order; fold(i) runs only after work(i) returned,
 * eagerly as results arrive (the caller never waits for the whole
 * batch before folding).
 *
 * jobs <= 1 runs both inline per item with no thread spawned. The
 * first exception a work item throws is rethrown on the calling
 * thread after every worker joined; fold then has seen only indices
 * below the failed one. An exception from fold is rethrown the same
 * way. Either failure stops workers from claiming further items.
 * Each worker's participation is wrapped in an ungated ObsScope
 * named @p spanCat / @p spanName (string literals: the obs ring
 * stores the pointers), so Perfetto timelines show pool occupancy.
 */
void runOrdered(std::size_t count, unsigned jobs,
                const std::function<void(std::size_t)> &work,
                const std::function<void(std::size_t)> &fold,
                const char *spanCat, const char *spanName);

} // namespace regpu

#endif // REGPU_GPU_TILE_POOL_HH
