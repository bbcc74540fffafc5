"""Checkpointed model training: recipe in, published zoo version out.

Wraps :class:`~repro.boosting.cascade_trainer.CascadeTrainer` with the
bootstrap idiom of bob.ip.facedetect's ``bootstrap.py``: after every
trained stage the full resumable state (partial cascade, bootstrapped
negative pool, round log, bootstrap batch counter — the trainer's only
RNG state, since all randomness is derived from ``rng_for(seed, ...,
batch)``) is written under the store's checkpoint directory.  An
interrupted ``repro train`` picks up from the last finished stage and,
because training is seeded-deterministic, produces a **byte-identical**
cascade to an uninterrupted run.

Published versions carry a held-out ROC operating point: faces and
background windows drawn from evaluation-only seed streams
(``zoo-eval-faces`` / ``zoo-eval-negatives``) that training never sees.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.boosting.cascade_trainer import (
    CascadeTrainer,
    TrainedStageReport,
    TrainerCheckpoint,
    default_negative_source,
    evaluate_cascade_on_windows,
)
from repro.data.backgrounds import render_background, sample_patches
from repro.data.faces import render_training_chip
from repro.errors import CascadeFormatError, ZooError
from repro.haar.cascade import Cascade
from repro.haar.enumeration import subsampled_feature_pool
from repro.haar.features import WINDOW
from repro.utils.provenance import git_sha
from repro.utils.rng import rng_for
from repro.zoo.manifest import ModelManifest, cascade_digest
from repro.zoo.recipes import TrainingRecipe, recipe_for
from repro.zoo.store import ModelStore, default_store

__all__ = [
    "train_model",
    "load_or_train",
    "evaluate_recipe",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

#: checkpoint schema: 1 is (checkpoint.json, partial.json, negatives.npy)
CHECKPOINT_VERSION = 1


def _render_faces(count: int, seed: int) -> np.ndarray:
    rng = rng_for(seed, "zoo-faces")
    return np.stack([render_training_chip(rng, WINDOW) for _ in range(count)])


def _report_to_dict(report: TrainedStageReport) -> dict:
    return {
        "index": report.index,
        "size": report.size,
        "threshold": report.threshold,
        "hit_rate": report.hit_rate,
        "false_positive_rate": report.false_positive_rate,
        "negatives_used": report.negatives_used,
        "bootstrap_batches": report.bootstrap_batches,
    }


def _report_from_dict(data: dict) -> TrainedStageReport:
    return TrainedStageReport(
        index=int(data["index"]),
        size=int(data["size"]),
        threshold=float(data["threshold"]),
        hit_rate=float(data["hit_rate"]),
        false_positive_rate=float(data["false_positive_rate"]),
        negatives_used=int(data["negatives_used"]),
        bootstrap_batches=int(data["bootstrap_batches"]),
    )


# -- checkpoint persistence ---------------------------------------------------


def _save_checkpoint(
    directory: Path,
    recipe: TrainingRecipe,
    seed: int,
    version: str,
    state: TrainerCheckpoint,
) -> None:
    """Persist one per-stage checkpoint; ``checkpoint.json`` commits last."""
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "negatives.tmp.npy", state.negatives)
    os.replace(directory / "negatives.tmp.npy", directory / "negatives.npy")
    partial = Cascade(stages=state.stages, name=recipe.name)
    tmp = directory / "partial.tmp.json"
    partial.save(tmp)
    os.replace(tmp, directory / "partial.json")
    payload = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "model": recipe.name,
        "version": version,
        "recipe_digest": recipe.digest(),
        "seed": int(seed),
        "next_stage": state.next_stage,
        "batch_counter": state.batch_counter,
        "reports": [_report_to_dict(r) for r in state.reports],
    }
    tmp = directory / "checkpoint.tmp.json"
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, directory / "checkpoint.json")


def load_checkpoint(
    directory: Path, recipe: TrainingRecipe, seed: int, version: str
) -> TrainerCheckpoint | None:
    """Load a resumable checkpoint; ``None`` when absent or stale.

    A checkpoint written for a different recipe digest, seed, or version
    is *stale* — resuming from it would not be deterministic — so it is
    discarded rather than trusted.
    """
    path = directory / "checkpoint.json"
    try:
        payload = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    try:
        if (
            payload["checkpoint_version"] != CHECKPOINT_VERSION
            or payload["model"] != recipe.name
            or payload["version"] != version
            or payload["recipe_digest"] != recipe.digest()
            or int(payload["seed"]) != int(seed)
        ):
            shutil.rmtree(directory, ignore_errors=True)
            return None
        partial = Cascade.load(directory / "partial.json")
        negatives = np.load(directory / "negatives.npy")
        return TrainerCheckpoint(
            next_stage=int(payload["next_stage"]),
            stages=partial.stages,
            reports=tuple(_report_from_dict(r) for r in payload["reports"]),
            negatives=negatives,
            batch_counter=int(payload["batch_counter"]),
        )
    except (KeyError, TypeError, ValueError, OSError, CascadeFormatError):
        shutil.rmtree(directory, ignore_errors=True)
        return None


# -- held-out evaluation ------------------------------------------------------


def evaluate_recipe(cascade: Cascade, recipe: TrainingRecipe, seed: int) -> dict:
    """ROC operating point on evaluation-only face/background windows."""
    n_eval = max(64, recipe.n_faces // 4)
    rng = rng_for(seed, "zoo-eval-faces")
    faces = np.stack([render_training_chip(rng, WINDOW) for _ in range(n_eval)])
    neg_rng = rng_for(seed, "zoo-eval-negatives")
    per_image = 24
    patches = [
        sample_patches(render_background(120, 120, neg_rng), WINDOW, per_image, neg_rng)
        for _ in range(-(-n_eval // per_image))
    ]
    negatives = np.concatenate(patches)[:n_eval]
    depth_f, _ = evaluate_cascade_on_windows(cascade, faces)
    depth_n, _ = evaluate_cascade_on_windows(cascade, negatives)
    return {
        "faces": int(len(faces)),
        "negatives": int(len(negatives)),
        "hit_rate": float(np.mean(depth_f == cascade.num_stages)),
        "false_accept_rate": float(np.mean(depth_n == cascade.num_stages)),
    }


# -- training -----------------------------------------------------------------


def train_model(
    recipe: TrainingRecipe | str,
    *,
    seed: int = 0,
    store: ModelStore | None = None,
    force: bool = False,
    resume: bool = True,
    on_stage: Callable[[TrainerCheckpoint], None] | None = None,
) -> tuple[Cascade, ModelManifest]:
    """Train (or resume training) a recipe and publish the result.

    Checkpoints are written after every stage; an interrupted run resumes
    from the last one and yields a byte-identical cascade.  ``force``
    retrains even when the version is already published; ``resume=False``
    discards any existing checkpoint first.  ``on_stage`` is called after
    each stage's checkpoint is durable (the CLI uses it for progress).
    """
    if isinstance(recipe, str):
        recipe = recipe_for(recipe)
    store = store if store is not None else default_store()
    version = recipe.version(seed)
    if not force and store.has(recipe.name, version):
        return store.load(f"{recipe.name}@{version}")

    ckpt_dir = store.checkpoint_dir(recipe.name, version)
    if not resume:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    checkpoint = load_checkpoint(ckpt_dir, recipe, seed, version) if resume else None

    faces = _render_faces(recipe.n_faces, seed)
    pool = subsampled_feature_pool(recipe.pool_size, seed=seed)
    trainer = CascadeTrainer(
        pool,
        algorithm=recipe.algorithm,
        min_hit_rate=recipe.min_hit_rate,
        target_stage_fpr=recipe.target_stage_fpr,
    )

    def _checkpoint(state: TrainerCheckpoint) -> None:
        _save_checkpoint(ckpt_dir, recipe, seed, version, state)
        if on_stage is not None:
            on_stage(state)

    cascade, reports = trainer.train(
        faces,
        stage_sizes=recipe.stage_sizes,
        negative_source=default_negative_source(seed),
        validation_fraction=recipe.validation_fraction,
        name=recipe.name,
        seed=seed,
        resume=checkpoint,
        on_stage=_checkpoint,
    )
    manifest = ModelManifest(
        model=recipe.name,
        version=version,
        recipe=recipe,
        recipe_digest=recipe.digest(),
        content_digest=cascade_digest(cascade),
        seed=seed,
        source="trained",
        git_sha=git_sha(),
        rounds=tuple(_report_to_dict(r) for r in reports),
        evaluation=evaluate_recipe(cascade, recipe, seed),
    )
    store.publish(cascade, manifest)
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    return cascade, manifest


def load_or_train(
    recipe: TrainingRecipe | str,
    *,
    seed: int = 0,
    store: ModelStore | None = None,
) -> tuple[Cascade, ModelManifest]:
    """Load a published version, or train and publish it."""
    if isinstance(recipe, str):
        recipe = recipe_for(recipe)
    store = store if store is not None else default_store()
    version = recipe.version(seed)
    if store.has(recipe.name, version):
        return store.load(f"{recipe.name}@{version}")
    return train_model(recipe, seed=seed, store=store)
