"""The compute-backend seam: every Fig. 1 numeric kernel behind one ABC.

The Fig. 1 pipeline is a fixed chain of compute steps — anti-alias
filtering, pyramid scaling, integral images, cascade evaluation.  A
:class:`ComputeBackend` owns the *numeric* side of each step; the layers
above it (:mod:`repro.detect.pipeline`, :mod:`repro.detect.engine`) keep
the orchestration, the timing-model launches and the simulated schedules.
Swapping the backend must never change a single output byte — the
:mod:`repro.backend.oracle` differ and the cross-backend golden tests
enforce that contract, which is what makes a future CuPy/Torch backend
verifiable against the NumPy reference (ROADMAP "GPU-backend hook").

Method ↔ Fig. 1 stage map:

===============================  =======================================
backend method                   Fig. 1 stage
===============================  =======================================
``antialias``                    Filtering (binomial low-pass)
``downscale`` / bilinear plans   Scaling (``tex2D`` bilinear fetches)
``integral_image`` / ``squared_integral_image`` / integral plans
                                 Integral image (scan + transpose chain)
``transpose``                    Integral image (the transpose kernels)
``make_cascade_evaluator``       Face detection kernel (dense + sparse
                                 stage evaluation, variance norms)
===============================  =======================================

Plans (``make_*_plan`` / ``make_cascade_evaluator``) are the reusable
form of each kernel: the throughput engine builds them once per geometry
and replays them every frame.  Each plan has one entry point, and it
takes frame stacks: a ``(..., h, w)`` input gives an output with the
same leading shape, so one frame is a 2-D array or a stack of one, and
a fused device batch is a stack of N.  Every lane must match that frame
run alone, bit for bit on bitexact backends.  ``reference``, the
oracle, loops its per-frame bodies over the lanes; every other backend
has one body, over the whole stack.  Their scratch lives in a
:class:`ScratchArena` the caller passes in — one per workspace, shared by
every plan of every level and sized to the largest level it has seen —
or in a private arena when none is given.  Plans are **not** thread-safe
— each engine worker owns its own — while the backend object itself must
be stateless and shareable.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # typing only: keep repro.backend import-light
    from repro.detect.windows import BlockMapping
    from repro.haar.cascade import Cascade

__all__ = [
    "SPARSE_THRESHOLD",
    "WINDOW_AREA",
    "DEVICE_ORDER",
    "BackendCapabilities",
    "BORROWED_SLOTS",
    "ScratchArena",
    "BilinearPlan",
    "IntegralPlan",
    "CascadeMaps",
    "CascadeEvaluator",
    "ComputeBackend",
]

#: default dense->sparse switch point of the cascade evaluation: gather only
#: surviving anchors once fewer than this fraction of the grid is alive
SPARSE_THRESHOLD = 0.04

#: window area used by the variance normalisation (24x24 training window)
WINDOW_AREA = 24 * 24

#: probe order for device auto-selection: best accelerator first, CPU last
DEVICE_ORDER = ("cuda", "mps", "cpu")


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend instance can promise once it is actually resolved.

    ``device``
        The device kind the instance computes on: ``"cpu"``, ``"cuda"``
        or ``"mps"``.  Anything other than ``"cpu"`` is *device-bound*:
        the engine must re-probe it inside worker processes before
        sharding across them.
    ``dtype``
        The working precision of the cascade accumulators.
    ``exactness``
        ``"bitexact"`` backends promise byte-identical outputs against
        the reference and are held to the byte gate by the oracle;
        ``"tolerance"`` backends are validated with per-stage numeric
        bounds plus a detection-level IoU/score gate instead.
    """

    device: str = "cpu"
    dtype: str = "float64"
    exactness: str = "bitexact"

    def __post_init__(self) -> None:
        if self.device not in DEVICE_ORDER:
            raise ValueError(f"device must be one of {DEVICE_ORDER}, got {self.device!r}")
        if self.exactness not in ("bitexact", "tolerance"):
            raise ValueError(
                f"exactness must be 'bitexact' or 'tolerance', got {self.exactness!r}"
            )

    @property
    def device_bound(self) -> bool:
        """True when the instance holds state tied to a non-CPU device."""
        return self.device != "cpu"


#: scratch names that borrow an owner name's arena slot, each because its
#: live range never overlaps the owner's within one level
BORROWED_SLOTS = {
    # the octave chain and a level's resample finish before that level's
    # integrals are computed, and the resample's output is a fresh array
    "bilinear.rows": "integral.ii",
    "bilinear.g0": "integral.sqii",
    "bilinear.g1": "cascade.tmp",
    "bilinear.g2": "cascade.vals",
    # CascadeLaunchTemplate.build runs after the cascade walk has returned
    "launch.pad_lo": "cascade.tmp",
    "launch.pad_hi": "cascade.vals",
    # a sparse stage runs after the walk's last dense stage (a masked walk
    # has none), so a survivor chunk's corner gather and its index take
    # the dense chunk slots
    "cascade.gather": "cascade.tmp",
    "cascade.index": "cascade.vals",
}


class ScratchArena:
    """Named scratch buffers shared by the plans of one workspace.

    :meth:`take` returns a view of the arena slot behind ``name``,
    regrown when a request outgrows it, so each slot ends up sized to
    the largest level that asked for it — one scratch set, not one per
    level.  A name owns its slot unless :data:`BORROWED_SLOTS` lends it
    another name's, so the arena holds one slot per live range.  A
    view's contents are undefined on return and the next ``take`` of
    any name on the same slot overwrites them.  That is safe only while
    the plans sharing an arena run one at a time, which is the
    workspace contract: single-worker, one level at a time.
    """

    def __init__(self) -> None:
        #: one buffer per slot, keyed by the owner name
        self._buffers: dict[str, np.ndarray] = {}
        #: the last view handed out per name: a repeat request for the
        #: same shape and dtype gets the same array object back
        self._views: dict[str, np.ndarray] = {}

    def take(self, name: str, shape, dtype) -> np.ndarray:
        """A ``shape``/``dtype`` view of the slot behind scratch name ``name``."""
        shape = tuple(shape) if isinstance(shape, tuple) else (int(shape),)
        dtype = np.dtype(dtype)
        view = self._views.get(name)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        size = math.prod(shape) * dtype.itemsize
        slot = BORROWED_SLOTS.get(name, name)
        buf = self._buffers.get(slot)
        if buf is None or buf.nbytes < size:
            buf = self._buffers[slot] = np.empty(size, dtype=np.uint8)
            # every view of the outgrown buffer goes with it, so no
            # cached view keeps it alive or hands it out again
            for other in [n for n in self._views if BORROWED_SLOTS.get(n, n) == slot]:
                del self._views[other]
        view = self._views[name] = buf[:size].view(dtype).reshape(shape)
        return view

    @property
    def nbytes(self) -> int:
        """Bytes the arena holds across all of its slots."""
        return sum(buf.nbytes for buf in self._buffers.values())


class BilinearPlan(ABC):
    """Precomputed bilinear resample for one fixed (src, dst) geometry.

    Reproduces :meth:`repro.image.texture.Texture2D.fetch` bit-for-bit
    (texel centres at ``+0.5``, clamp-to-edge, float32 lerp weights).
    """

    @abstractmethod
    def apply(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Resample a ``(..., src_h, src_w)`` stack into a fresh (or
        provided) ``(..., dst_h, dst_w)`` one.  Bilinear lerps are
        per-pixel, so stacking lanes cannot change a byte."""


class IntegralPlan(ABC):
    """Reusable integral + squared-integral computation for one geometry.

    The returned arrays are padded ``(..., h+1, w+1)`` float64 with zero
    first row/column and live in the plan's :class:`ScratchArena` — they are
    overwritten by the next :meth:`compute` of any plan sharing that
    arena, exactly like device-resident buffers.
    """

    height: int
    width: int

    @property
    def stride(self) -> int:
        """Row stride of the flattened padded integral image."""
        return self.width + 1

    @abstractmethod
    def compute(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ii, sqii)`` padded integrals of a ``(..., h, w)`` stack,
        ``(..., h+1, w+1)`` each.  Cumulative sums run lane by lane, so
        stacking lanes cannot change a byte."""


@dataclass
class CascadeMaps:
    """Functional output of one cascade evaluation over an anchor grid
    (or a stack of them: every map then has the same leading shape)."""

    depth_map: np.ndarray  # (..., ay, ax) int32: stages passed per anchor
    margin_map: np.ndarray  # (..., ay, ax) float64: last evaluated stage margin
    sigma_map: np.ndarray  # (..., ay, ax) float64: per-window pixel std devs


class CascadeEvaluator(ABC):
    """Reusable cascade evaluation for one (cascade, level geometry) pair.

    Its scratch lives in the :class:`ScratchArena` it was built with; the
    maps returned by :meth:`evaluate` are freshly allocated (they outlive
    the call), the scratch is not.  Not thread-safe — one evaluator per
    engine worker per level.
    """

    @abstractmethod
    def evaluate(self, ii: np.ndarray, sqii: np.ndarray) -> CascadeMaps:
        """Walk every anchor through the cascade.

        ``(..., h+1, w+1)`` padded integrals in, maps of ``(..., ay, ax)``
        out.  The dense->sparse switch point is an execution-strategy
        knob (see :meth:`ComputeBackend.make_cascade_evaluator`): a stack
        may take one switch decision for all its lanes without changing
        a byte.
        """

    def window_sigma(self, ii: np.ndarray, sqii: np.ndarray) -> np.ndarray:
        """Per-anchor window pixel std dev — the :meth:`evaluate` preamble
        alone.  The fast path's variance screen reads this without paying
        for any cascade stage; backends with a cheaper route override it.
        """
        return self.evaluate(ii, sqii).sigma_map

    def evaluate_masked(
        self,
        ii: np.ndarray,
        sqii: np.ndarray,
        active: np.ndarray,
        *,
        sigma: np.ndarray | None = None,
    ) -> CascadeMaps:
        """Walk only the anchors where ``active`` is True.

        Inactive anchors stay at depth 0 / margin 0.  For every *active*
        anchor the result matches a full :meth:`evaluate` bit-for-bit
        (sparse gathers read the same float64 integral values as dense
        slices).  ``sigma`` may pass in an already-computed
        :meth:`window_sigma` grid.  The default implementation evaluates
        everything and zeroes the inactive anchors — correct, not fast.
        """
        maps = self.evaluate(ii, sqii)
        if sigma is None:
            sigma = maps.sigma_map
        return CascadeMaps(
            depth_map=np.where(active, maps.depth_map, 0).astype(np.int32),
            margin_map=np.where(active, maps.margin_map, 0.0),
            sigma_map=sigma,
        )


class ComputeBackend(ABC):
    """One implementation of every Fig. 1 numeric kernel (see module doc)."""

    #: registry name; also recorded in bench/trace provenance
    name: ClassVar[str] = "abstract"

    @property
    def capabilities(self) -> BackendCapabilities:
        """Capability record of this instance (see :class:`BackendCapabilities`).

        The default is the strongest promise — bitexact float64 on the
        CPU — which is what both NumPy backends deliver.  Device-aware
        backends override this with the device they actually resolved.
        """
        return BackendCapabilities()

    # -- Fig. 1 "Filtering" --------------------------------------------------

    @abstractmethod
    def antialias(self, image: np.ndarray, scale: float) -> np.ndarray:
        """Low-pass ``image`` ahead of subsampling by ``scale``."""

    # -- Fig. 1 "Scaling" ----------------------------------------------------

    @abstractmethod
    def downscale(self, image: np.ndarray, out_width: int, out_height: int) -> np.ndarray:
        """One-shot bilinear resample (the ``tex2D`` gather of Section III-A)."""

    @abstractmethod
    def make_bilinear_plan(
        self,
        src_h: int,
        src_w: int,
        dst_h: int,
        dst_w: int,
        *,
        arena: ScratchArena | None = None,
    ) -> BilinearPlan:
        """Reusable resampling plan for one fixed geometry.

        ``arena`` holds its scratch (a private one when ``None``), here
        and in the other ``make_*`` methods.
        """

    # -- Fig. 1 "Integral image" ---------------------------------------------

    @abstractmethod
    def integral_image(self, image: np.ndarray) -> np.ndarray:
        """Padded ``(h+1, w+1)`` float64 integral image."""

    @abstractmethod
    def squared_integral_image(self, image: np.ndarray) -> np.ndarray:
        """Padded integral image of squared pixels (variance norms)."""

    @abstractmethod
    def transpose(self, matrix: np.ndarray) -> np.ndarray:
        """Matrix transpose (the Ruetsch/Micikevicius tiled kernel)."""

    @abstractmethod
    def make_integral_plan(
        self, height: int, width: int, *, arena: ScratchArena | None = None
    ) -> IntegralPlan:
        """Reusable integral computation over arena buffers."""

    # -- Fig. 1 "Face detection kernel" --------------------------------------

    @abstractmethod
    def make_cascade_evaluator(
        self,
        cascade: "Cascade",
        mapping: "BlockMapping",
        *,
        sparse_threshold: float | None = None,
        arena: ScratchArena | None = None,
    ) -> CascadeEvaluator:
        """Reusable evaluator for one cascade over one level geometry.

        ``sparse_threshold`` overrides the backend's dense->sparse switch
        point (a live-anchor fraction; negative never switches).  The
        switch point is a pure execution-strategy knob: results are
        byte-identical at every value.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
