"""Training recipes: the declarative config behind every zoo model.

A :class:`TrainingRecipe` captures *everything* that determines a trained
cascade besides the seed — stage profile, boosting algorithm, hit-rate /
stage-FPR targets, face count, feature-pool size.  Its canonical-JSON
SHA-256 digest keys the artifact store, replacing the old hand-bumped
``_RECIPE = "r4"`` string: change any field and the digest (and therefore
the model version) changes, so stale cached cascades invalidate
automatically instead of relying on someone remembering to bump a
constant.

The four built-in recipes reproduce the cascades the benchmark suite has
always shared (``quick`` / ``quick_baseline`` for tests, ``paper`` /
``opencv_like`` for the Table II comparison) with parameters identical to
the retired ``zoo.py`` module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import ZooError
from repro.haar.opencv_like import OPENCV_FRONTAL_STAGE_SIZES, paper_stage_sizes

__all__ = [
    "TrainingRecipe",
    "RECIPES",
    "QUICK_STAGE_SIZES",
    "recipe_for",
    "canonical_json",
]

#: stage profile of the quick cascades (12 stages, 200 weak classifiers)
QUICK_STAGE_SIZES = (4, 6, 8, 10, 12, 14, 16, 18, 22, 26, 30, 34)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace — digest input."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TrainingRecipe:
    """Everything (but the seed) that determines a trained cascade."""

    name: str
    stage_sizes: tuple[int, ...]
    algorithm: str
    min_hit_rate: float
    n_faces: int
    pool_size: int
    target_stage_fpr: float | None = None
    validation_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.name:
            raise ZooError("recipe name must be non-empty")
        if not self.stage_sizes:
            raise ZooError(f"recipe {self.name!r} has an empty stage profile")
        if self.algorithm not in ("gentle", "ada"):
            raise ZooError(f"unknown boosting algorithm {self.algorithm!r}")

    @property
    def num_stages(self) -> int:
        return len(self.stage_sizes)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "stage_sizes": list(self.stage_sizes),
            "algorithm": self.algorithm,
            "min_hit_rate": self.min_hit_rate,
            "n_faces": self.n_faces,
            "pool_size": self.pool_size,
            "target_stage_fpr": self.target_stage_fpr,
            "validation_fraction": self.validation_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingRecipe":
        try:
            return cls(
                name=str(data["name"]),
                stage_sizes=tuple(int(s) for s in data["stage_sizes"]),
                algorithm=str(data["algorithm"]),
                min_hit_rate=float(data["min_hit_rate"]),
                n_faces=int(data["n_faces"]),
                pool_size=int(data["pool_size"]),
                target_stage_fpr=(
                    None
                    if data.get("target_stage_fpr") is None
                    else float(data["target_stage_fpr"])
                ),
                validation_fraction=float(data.get("validation_fraction", 0.25)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ZooError(f"malformed recipe description: {exc}") from exc

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (full hex)."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()

    def version(self, seed: int) -> str:
        """The deterministic model version: recipe digest + seed.

        Training is seeded-deterministic, so (recipe, seed) fully
        identifies the resulting cascade bytes — the version doubles as
        the cache key the ``_RECIPE`` hand-bump used to approximate.
        """
        return f"{self.digest()[:12]}-s{int(seed)}"


#: the built-in recipes, parameter-identical to the retired ``zoo.py``
RECIPES: dict[str, TrainingRecipe] = {
    "quick": TrainingRecipe(
        name="quick",
        stage_sizes=QUICK_STAGE_SIZES,
        algorithm="gentle",
        min_hit_rate=0.995,
        n_faces=400,
        pool_size=1200,
    ),
    "quick_baseline": TrainingRecipe(
        name="quick_baseline",
        stage_sizes=QUICK_STAGE_SIZES,
        algorithm="ada",
        min_hit_rate=0.999,
        n_faces=400,
        pool_size=1200,
    ),
    "paper": TrainingRecipe(
        name="paper",
        stage_sizes=tuple(paper_stage_sizes()),
        algorithm="gentle",
        min_hit_rate=0.996,
        n_faces=900,
        pool_size=2000,
    ),
    "opencv_like": TrainingRecipe(
        name="opencv_like",
        stage_sizes=tuple(OPENCV_FRONTAL_STAGE_SIZES),
        algorithm="ada",
        min_hit_rate=0.999,
        target_stage_fpr=0.12,
        n_faces=900,
        pool_size=2000,
    ),
}


def recipe_for(name: str) -> TrainingRecipe:
    """Look up a built-in recipe; raises :class:`ZooError` when unknown."""
    try:
        return RECIPES[name]
    except KeyError:
        raise ZooError(
            f"unknown recipe {name!r}; built-ins: {sorted(RECIPES)}"
        ) from None
