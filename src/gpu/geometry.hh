/**
 * @file
 * The Geometry Pipeline: Vertex Fetcher, Vertex Processors and
 * Primitive Assembly (clipping, culling, viewport transform).
 */

#ifndef REGPU_GPU_GEOMETRY_HH
#define REGPU_GPU_GEOMETRY_HH

#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "gpu/primitive.hh"
#include "gpu/vertex.hh"

namespace regpu
{

class MemTraceSink;

/** Per-drawcall output of the Geometry Pipeline. */
struct GeometryOutput
{
    std::vector<Primitive> primitives;
    u64 verticesFetched = 0;
    u64 verticesShaded = 0;
    u64 trianglesIn = 0;
    u64 trianglesCulled = 0;
    u64 trianglesClipped = 0;  //!< triangles that needed near-plane clip
};

/**
 * Functional model of the Geometry Pipeline for one drawcall.
 */
class GeometryPipeline
{
  public:
    GeometryPipeline(const GpuConfig &_config, StatRegistry &_stats,
                     MemTraceSink *_mem)
        : config(_config), stats(_stats), mem(_mem)
    {}

    /**
     * Run fetch + shade + assemble for a drawcall.
     *
     * Clipping: triangles fully outside the frustum are rejected;
     * triangles crossing the near plane are clipped (Sutherland-
     * Hodgman) into a small fan. Back-face culling follows the
     * drawcall state (2D sprite draws disable it via degenerate
     * winding being allowed).
     */
    GeometryOutput process(const DrawCall &draw);

  private:
    const GpuConfig &config;
    StatRegistry &stats;
    MemTraceSink *mem;
};

} // namespace regpu

#endif // REGPU_GPU_GEOMETRY_HH
