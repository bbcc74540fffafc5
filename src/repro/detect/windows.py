"""Block/window decomposition of the cascade kernel (Eqs. 1-4, Fig. 3).

Each integral image is divided into equally-sized ``n x m`` chunks of
sliding-window *anchors*; each chunk maps onto one thread block.  A thread
``(x, y)`` of block ``(i, j)`` stages four integral-image pixels into shared
memory (Eqs. 1-4), which together cover the ``2n x 2m`` neighbourhood the
block's windows touch; three of the four pixels belong to regions explored
by the neighbouring blocks, which is exactly the paper's point about
coalesced, cooperative staging.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["staging_addresses", "BlockMapping"]


def staging_addresses(
    x: int, y: int, i: int, j: int, n: int, m: int
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The four Eq. 1-4 transfers of thread ``(x, y)`` in block ``(i, j)``.

    Returns ``[(shared_coord, integral_coord), ...]`` with
    ``alpha = i * n + x`` and ``beta = j * m + y`` exactly as the paper
    defines them (coordinates ordered ``(column, row)`` like the equations).
    """
    if not (0 <= x < n and 0 <= y < m):
        raise ConfigurationError(f"thread ({x},{y}) outside an {n}x{m} block")
    alpha = i * n + x
    beta = j * m + y
    return [
        ((x, y), (alpha, beta)),  # Eq. 1
        ((x + n, y), (alpha + n, beta)),  # Eq. 2
        ((x, y + m), (alpha, beta + m)),  # Eq. 3
        ((x + n, y + m), (alpha + n, beta + m)),  # Eq. 4
    ]


@dataclass(frozen=True)
class BlockMapping:
    """Geometry of the cascade kernel's grid for one pyramid level.

    The block defaults to the paper's 16×16 anchors (Section III-B),
    which the pipeline and every ablation use.
    """

    level_width: int
    level_height: int
    window: int = 24
    block_w: int = 16  # n: anchors per block along x
    block_h: int = 16  # m: anchors per block along y

    def __post_init__(self) -> None:
        if self.block_w <= 0 or self.block_h <= 0:
            raise ConfigurationError("block dimensions must be positive")
        if self.level_width < self.window or self.level_height < self.window:
            raise ConfigurationError(
                f"level {self.level_width}x{self.level_height} cannot hold a "
                f"{self.window}-pixel window"
            )

    @property
    def anchors_x(self) -> int:
        """Valid window anchors along x."""
        return self.level_width - self.window + 1

    @property
    def anchors_y(self) -> int:
        return self.level_height - self.window + 1

    @property
    def blocks_x(self) -> int:
        return -(-self.anchors_x // self.block_w)

    @property
    def blocks_y(self) -> int:
        return -(-self.anchors_y // self.block_h)

    @property
    def grid_blocks(self) -> int:
        return self.blocks_x * self.blocks_y

    @property
    def threads_per_block(self) -> int:
        return self.block_w * self.block_h

    @property
    def shared_tile_bytes(self) -> int:
        """Shared-memory staging tile: the block's windows touch
        ``(n + window) x (m + window)`` integral pixels (float32)."""
        return (self.block_w + self.window) * (self.block_h + self.window) * 4

    @property
    def staging_loads_per_thread(self) -> int:
        """Integral pixels staged per thread (the paper's 4 of Eqs. 1-4)."""
        tile = (self.block_w + self.window) * (self.block_h + self.window)
        return -(-tile // self.threads_per_block)

    def block_anchor_box(self, bx: int, by: int) -> tuple[int, int, int, int]:
        """Anchor range ``(x0, y0, x1, y1)`` (half-open) of block (bx, by)."""
        if not (0 <= bx < self.blocks_x and 0 <= by < self.blocks_y):
            raise ConfigurationError(f"block ({bx},{by}) outside the grid")
        x0 = bx * self.block_w
        y0 = by * self.block_h
        return x0, y0, min(x0 + self.block_w, self.anchors_x), min(
            y0 + self.block_h, self.anchors_y
        )
