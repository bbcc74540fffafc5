"""Model zoo: versioned, provenance-carrying cascade artifacts.

The zoo manages trained cascades as first-class artifacts instead of
anonymous JSON blobs: every model version is a directory holding the
cascade plus a manifest (recipe + digest, seed, git SHA, round log,
held-out ROC point), versions are content-derived (recipe digest + seed)
so recipe changes invalidate automatically, training checkpoints after
every stage and resumes byte-identically, and ``repro serve`` hot-swaps
between published versions without dropping a request.

Compat: the module-level builders of the retired ``zoo.py``
(:func:`quick_cascade` & friends, ``QUICK_STAGE_SIZES``) keep working —
they are thin wrappers over :func:`~repro.zoo.training.load_or_train`
for the built-in recipes, now backed by the versioned store.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ConfigurationError, ZooError
from repro.haar.cascade import Cascade
from repro.zoo.manifest import ModelManifest, cascade_digest
from repro.zoo.recipes import QUICK_STAGE_SIZES, RECIPES, TrainingRecipe, recipe_for
from repro.zoo.store import ModelStore, default_store, parse_ref
from repro.zoo.training import evaluate_recipe, load_or_train, train_model

__all__ = [
    # new subsystem API
    "TrainingRecipe",
    "RECIPES",
    "recipe_for",
    "ModelManifest",
    "cascade_digest",
    "ModelStore",
    "default_store",
    "parse_ref",
    "train_model",
    "load_or_train",
    "evaluate_recipe",
    "resolve_model",
    "builtin_cascade",
    # compat with the retired zoo.py module
    "QUICK_STAGE_SIZES",
    "quick_cascade",
    "quick_baseline_cascade",
    "paper_cascade",
    "opencv_like_cascade",
]

#: serving-layer shorthand accepted wherever a model reference is
_BUILTIN_ALIASES = {"opencv": "opencv_like", "quick-baseline": "quick_baseline"}


def resolve_model(
    ref: str, *, seed: int = 0, store: ModelStore | None = None
) -> tuple[Cascade, ModelManifest | None]:
    """Resolve any model reference to a loaded cascade.

    Accepts a built-in recipe name (``quick``, trained on demand), a zoo
    reference (``model`` / ``model@version``), or a path to a cascade
    JSON file (no manifest — returns ``None`` for it).
    """
    name = _BUILTIN_ALIASES.get(ref, ref)
    path = Path(ref)
    if path.suffix == ".json" or path.is_file():
        if not path.is_file():
            raise ZooError(f"cascade file {ref!r} does not exist")
        return Cascade.load(path), None
    store = store if store is not None else default_store()
    model, version = parse_ref(name)
    if model in RECIPES and version is None:
        return load_or_train(model, seed=seed, store=store)
    return store.load(name)


def builtin_cascade(name: str, seed: int = 0) -> Cascade:
    """The cascade a built-in profile name selects (zoo-cached).

    The names are the built-in recipes under their serving shorthand:
    ``quick``, ``quick-baseline``, ``paper`` and ``opencv``.  Any other
    name raises :class:`ConfigurationError` listing them.
    """
    choices = sorted(
        (set(RECIPES) - set(_BUILTIN_ALIASES.values())) | set(_BUILTIN_ALIASES)
    )
    if name not in choices:
        raise ConfigurationError(f"unknown cascade {name!r}; choose from {choices}")
    return load_or_train(_BUILTIN_ALIASES.get(name, name), seed=seed)[0]


def quick_cascade(seed: int = 0) -> Cascade:
    """Small GentleBoost cascade for tests/examples (zoo-cached)."""
    return load_or_train("quick", seed=seed)[0]


def quick_baseline_cascade(seed: int = 0) -> Cascade:
    """Small AdaBoost baseline cascade (zoo-cached)."""
    return load_or_train("quick_baseline", seed=seed)[0]


def paper_cascade(seed: int = 0) -> Cascade:
    """The paper's cascade: 25 stages / 1446 weak, GentleBoost (zoo-cached).

    The aggressive per-stage hit-rate target (0.996) pairs with
    GentleBoost's strong early stages to give the ~94.5 % first-stage
    rejection the paper measures (Fig. 7).
    """
    return load_or_train("paper", seed=seed)[0]


def opencv_like_cascade(seed: int = 0) -> Cascade:
    """The baseline: 25 stages / 2913 weak, AdaBoost, OpenCV profile.

    Two design choices mirror the general-purpose tuning of the Lienhart
    cascade: a laxer hit-rate target (0.999) and the classic per-stage
    false-positive design point (each stage lets ~12 % of its negatives
    through rather than rejecting maximally).  The resulting weaker early
    rejection is what makes the baseline pay ~2.5x more work per frame
    (Table II) while reaching similar final accuracy through depth.
    """
    return load_or_train("opencv_like", seed=seed)[0]
