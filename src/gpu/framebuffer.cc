#include "gpu/framebuffer.hh"

#include <cstring>

namespace regpu
{

void
FrameBuffer::writeTile(TileId tile, const std::vector<Color> &colors)
{
    Color *surf = surfaces[back].data();
    forEachTileRow(tile, [&](std::size_t s, std::size_t t, u32 n) {
        std::copy_n(colors.data() + t, n, surf + s);
        return true;
    });
}

std::vector<Color>
FrameBuffer::readTile(TileId tile) const
{
    std::vector<Color> out(static_cast<std::size_t>(config.tileWidth)
                           * config.tileHeight, Color(0, 0, 0, 0));
    const Color *surf = surfaces[back].data();
    forEachTileRow(tile, [&](std::size_t s, std::size_t t, u32 n) {
        std::copy_n(surf + s, n, out.data() + t);
        return true;
    });
    return out;
}

bool
FrameBuffer::tileEquals(TileId tile, const std::vector<Color> &colors) const
{
    const Color *surf = surfaces[back].data();
    return forEachTileRow(tile, [&](std::size_t s, std::size_t t, u32 n) {
        return std::memcmp(surf + s, colors.data() + t,
                           n * sizeof(Color)) == 0;
    });
}

} // namespace regpu
