"""The compiled cascade: one flat, stride-independent copy per cascade.

The paper keeps one packed copy of the cascade in constant memory
(Section III-C); every scale's kernel reads it and only the grid and the
image stride differ.  :func:`compile_cascade` is the host counterpart.
It resolves a :class:`~repro.haar.cascade.Cascade` once into flat arrays
over its ``R`` rectangles, ``K`` weak classifiers and ``S`` stages:

``rows``, ``cols``
    ``(R, 4)`` integral-image corner rows and columns of every
    rectangle, in the reference corner order ``[A, B, C, D]`` =
    ``[(y1, x1), (y0, x1), (y1, x0), (y0, x0)]``;
``weights``
    ``(R,)`` per-rectangle weights;
``rect_start``
    ``(K + 1,)``: classifier ``k`` owns rectangles
    ``rect_start[k]:rect_start[k + 1]``;
``threshold``, ``left``, ``right``
    ``(K,)`` stump thresholds and outputs;
``stage_start``
    ``(S + 1,)``: stage ``s`` owns classifiers
    ``stage_start[s]:stage_start[s + 1]``.

Nothing here depends on a level's row stride.  An evaluator binds
``rows * stride + cols`` into one ``(R, 4)`` int64 arena buffer,
``cascade.offsets``, at the start of every kernel call; no per-level or
per-stride table is kept.  The compiled form is keyed by cascade
*identity*: hashing a frozen cascade by value walks every classifier.

The vectorized kernel evaluates a sparse stage as one *rectangle group*
(:attr:`CompiledCascade.layout`, one per compiled cascade).  Inside a
stage the classifiers are sorted by rectangle count (most first) and the
rectangles laid out slot-major: slot ``k`` holds rectangle ``k`` of
every classifier that has one, so each slot is a prefix of the sorted
classifiers and the per-classifier rectangle sums are at most three
elementwise slot adds.  ``inverse`` maps each classifier back to its
sorted row, so the stage sum still accumulates in the cascade's order.
The layout keeps its own ``rows`` and ``cols`` in that rectangle order.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.haar.features import feature_rects

__all__ = [
    "ClassifierPlan",
    "StagePlan",
    "RectGroup",
    "GroupLayout",
    "CompiledCascade",
    "compile_cascade",
]


class ClassifierPlan:
    """One weak classifier, with its rectangles resolved once.

    ``rects`` are ``(x0, y0, x1, y1, weight)`` tuples for the dense
    loops; ``start:end`` is the classifier's range of rows in
    :attr:`CompiledCascade.rows`, and in the offsets that the
    ``reference`` and ``arrayapi`` evaluators bind from them.
    """

    __slots__ = ("rects", "threshold", "left", "right", "start", "end")

    def __init__(self, classifier, start: int) -> None:
        self.rects = tuple(
            (r.x, r.y, r.x + r.w, r.y + r.h, r.weight)
            for r in feature_rects(classifier.feature)
        )
        self.threshold = classifier.threshold
        self.left = classifier.left
        self.right = classifier.right
        self.start = start
        self.end = start + len(self.rects)


class StagePlan:
    __slots__ = ("classifiers", "threshold")

    def __init__(self, classifiers: tuple[ClassifierPlan, ...], threshold: float) -> None:
        self.classifiers = classifiers
        self.threshold = threshold


class RectGroup(NamedTuple):
    """One stage of the vectorized sparse kernel (see module doc).

    ``start:end`` is the stage's row range in the layout's rectangle
    order; every array is a view into :class:`GroupLayout` storage.
    """

    start: int
    end: int
    #: classifiers in the stage; slot 0 holds one rectangle of each
    n: int
    #: classifiers with a rectangle in slot 1, 2, 3 (non-increasing)
    slots: tuple[int, ...]
    #: (R_s, 1) rectangle weights, slot-major
    weights: np.ndarray
    #: (C, 1) thresholds and outputs, in sorted classifier order
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    #: (C,) sorted row of each classifier, in cascade order
    inverse: np.ndarray


class GroupLayout(NamedTuple):
    """One rectangle group per stage, and the corners in its order."""

    #: (R, 4) corner rows and columns, in the layout's rectangle order
    rows: np.ndarray
    cols: np.ndarray
    stages: tuple[RectGroup, ...]


class CompiledCascade:
    """Flat, stride-independent arrays of one cascade (see module doc)."""

    def __init__(self, cascade) -> None:
        if cascade.window != 24:
            raise ConfigurationError("the kernel is specialised for 24x24 windows")
        stages = []
        start = 0
        for stage in cascade.stages:
            classifiers = []
            for classifier in stage.classifiers:
                plan = ClassifierPlan(classifier, start)
                start = plan.end
                classifiers.append(plan)
            stages.append(StagePlan(tuple(classifiers), stage.threshold))
        #: python-level plans for the per-classifier loops
        self.stages: tuple[StagePlan, ...] = tuple(stages)
        plans = [cl for stage in self.stages for cl in stage.classifiers]
        rects = np.array(
            [rect for cl in plans for rect in cl.rects], dtype=np.float64
        ).reshape(-1, 5)
        x0, y0, x1, y1 = (rects[:, i].astype(np.int64) for i in range(4))
        self.rows = np.stack([y1, y0, y1, y0], axis=1)
        self.cols = np.stack([x1, x1, x0, x0], axis=1)
        self.weights = rects[:, 4].copy()
        self.rect_start = np.array([0] + [cl.end for cl in plans], dtype=np.int64)
        self.threshold = np.array([cl.threshold for cl in plans], dtype=np.float64)
        self.left = np.array([cl.left for cl in plans], dtype=np.float64)
        self.right = np.array([cl.right for cl in plans], dtype=np.float64)
        self.stage_start = np.cumsum(
            [0] + [len(stage.classifiers) for stage in self.stages], dtype=np.int64
        )
        #: the vectorized kernel's rectangle groups, one per stage
        self.layout: GroupLayout = self._build_layout()

    @property
    def num_rects(self) -> int:
        return int(self.rows.shape[0])

    def _build_layout(self) -> GroupLayout:
        counts = np.diff(self.rect_start)
        order = np.empty(self.num_rects, dtype=np.int64)
        n_cls = len(counts)
        threshold = np.empty((n_cls, 1))
        left = np.empty((n_cls, 1))
        right = np.empty((n_cls, 1))
        inverse = np.empty(n_cls, dtype=np.int64)
        weights = np.empty((self.num_rects, 1))
        stages = []
        for k0, k1 in zip(self.stage_start[:-1].tolist(), self.stage_start[1:].tolist()):
            # most rectangles first; stable, so ties keep cascade order
            ranked = k0 + np.argsort(-counts[k0:k1], kind="stable")
            inverse[k0:k1] = np.argsort(ranked - k0, kind="stable")
            threshold[k0:k1, 0] = self.threshold[ranked]
            left[k0:k1, 0] = self.left[ranked]
            right[k0:k1, 0] = self.right[ranked]
            r0 = pos = int(self.rect_start[k0])
            slots = []
            for slot in range(int(counts[k0:k1].max())):
                members = ranked[counts[ranked] > slot]
                order[pos : pos + members.size] = self.rect_start[members] + slot
                pos += members.size
                if slot:
                    slots.append(int(members.size))
            weights[r0:pos] = self.weights[order[r0:pos], np.newaxis]
            stages.append(
                RectGroup(
                    start=r0,
                    end=pos,
                    n=k1 - k0,
                    slots=tuple(slots),
                    weights=weights[r0:pos],
                    threshold=threshold[k0:k1],
                    left=left[k0:k1],
                    right=right[k0:k1],
                    inverse=inverse[k0:k1],
                )
            )
        return GroupLayout(rows=self.rows[order], cols=self.cols[order], stages=tuple(stages))


#: id(cascade) -> (weak reference to it, its compiled form)
_COMPILED: dict[int, tuple[weakref.ref, CompiledCascade]] = {}


def compile_cascade(cascade) -> CompiledCascade:
    """The compiled form of ``cascade``, built once per cascade object.

    Keyed by identity and dropped with the cascade.  Two threads that
    miss at once each compile; either result is equivalent.
    """
    key = id(cascade)
    hit = _COMPILED.get(key)
    if hit is not None and hit[0]() is cascade:
        return hit[1]
    compiled = CompiledCascade(cascade)

    def forget(ref, key=key) -> None:
        if _COMPILED.get(key, (None,))[0] is ref:
            del _COMPILED[key]

    _COMPILED[key] = (weakref.ref(cascade, forget), compiled)
    return compiled
