/**
 * @file
 * Double-buffered Frame Buffer in simulated main memory.
 *
 * The display scans out the Front Buffer while the GPU renders into
 * the Back Buffer; buffers swap at frame end (paper §IV-C). Tile
 * contents therefore persist for two frames, which is why RE and TE
 * compare a tile against the frame *before* the displayed one.
 */

#ifndef REGPU_GPU_FRAMEBUFFER_HH
#define REGPU_GPU_FRAMEBUFFER_HH

#include <algorithm>
#include <vector>

#include "common/config.hh"
#include "gpu/color.hh"

namespace regpu
{

/**
 * Two full-screen color surfaces plus tile-granularity access helpers.
 */
class FrameBuffer
{
  public:
    explicit FrameBuffer(const GpuConfig &_config)
        : config(_config),
          surfaces{std::vector<Color>(pixelCount()),
                   std::vector<Color>(pixelCount())}
    {}

    /** Pixels per surface. */
    std::size_t
    pixelCount() const
    {
        return static_cast<std::size_t>(config.screenWidth)
            * config.screenHeight;
    }

    /** Index of the surface the GPU currently renders into. */
    u32 backIndex() const { return back; }

    /** Swap front and back (end of frame). */
    void swap() { back ^= 1; }

    /** Simulated base address of the back buffer. */
    Addr
    backAddr() const
    {
        return 0x4'0000'0000ull + (static_cast<Addr>(back) << 31);
    }

    /** Simulated address of a tile's first pixel in the back buffer. */
    Addr
    tileAddr(TileId tile) const
    {
        const u32 tx = tile % config.tilesX();
        const u32 ty = tile / config.tilesX();
        const Addr pixel = static_cast<Addr>(ty) * config.tileHeight
            * config.screenWidth + static_cast<Addr>(tx) * config.tileWidth;
        return backAddr() + pixel * 4;
    }

    /** Bytes one tile occupies (clipped tiles at screen edges count
     *  their real pixel footprint). */
    u32
    tileBytes(TileId tile) const
    {
        const u32 tx = tile % config.tilesX();
        const u32 ty = tile / config.tilesX();
        const u32 w = std::min(config.tileWidth,
                               config.screenWidth - tx * config.tileWidth);
        const u32 h = std::min(config.tileHeight,
                               config.screenHeight - ty * config.tileHeight);
        return w * h * 4;
    }

    /**
     * Write a rendered tile (tileWidth x tileHeight colors, row-major;
     * off-screen pixels of edge tiles are ignored) into the back buffer.
     */
    void writeTile(TileId tile, const std::vector<Color> &colors);

    /** Read a tile from the back buffer (row-major, edge pixels of
     *  off-screen regions returned as clear black). */
    std::vector<Color> readTile(TileId tile) const;

    /** Compare a rendered tile against the back buffer's current
     *  content (ground truth for redundancy classification). */
    bool tileEquals(TileId tile, const std::vector<Color> &colors) const;

    /** Direct pixel access to the back buffer (tests, image dumps). */
    Color
    pixel(u32 x, u32 y) const
    {
        return surfaces[back][static_cast<std::size_t>(y)
                              * config.screenWidth + x];
    }

    /** Direct pixel access to the front buffer. */
    Color
    frontPixel(u32 x, u32 y) const
    {
        return surfaces[back ^ 1][static_cast<std::size_t>(y)
                                  * config.screenWidth + x];
    }

    /** Whole back-buffer snapshot (row-major). */
    const std::vector<Color> &backSurface() const
    { return surfaces[back]; }

    /** Whole front-buffer snapshot (row-major). */
    const std::vector<Color> &frontSurface() const
    { return surfaces[back ^ 1]; }

    /**
     * Walk the on-screen rows of @p tile (edge tiles are clipped).
     * Calls fn(surfaceOffset, tileOffset, pixels) once per row, where
     * surfaceOffset indexes a full surface and tileOffset a row-major
     * tileWidth x tileHeight buffer. Stops at the first row for which
     * fn returns false.
     * @return true when every row's fn returned true
     */
    template <typename Fn>
    bool
    forEachTileRow(TileId tile, Fn &&fn) const
    {
        const u32 x0 = (tile % config.tilesX()) * config.tileWidth;
        const u32 y0 = (tile / config.tilesX()) * config.tileHeight;
        const u32 w = std::min(config.tileWidth, config.screenWidth - x0);
        const u32 h = std::min(config.tileHeight, config.screenHeight - y0);
        for (u32 dy = 0; dy < h; dy++) {
            if (!fn(static_cast<std::size_t>(y0 + dy) * config.screenWidth
                        + x0,
                    static_cast<std::size_t>(dy) * config.tileWidth, w))
                return false;
        }
        return true;
    }

  private:
    const GpuConfig &config;
    std::vector<Color> surfaces[2];
    u32 back = 0;
};

} // namespace regpu

#endif // REGPU_GPU_FRAMEBUFFER_HH
