"""Model manifests: provenance for every versioned cascade artifact.

Each zoo version directory holds the cascade JSON *and* a manifest
recording where those bytes came from: the full training recipe and its
digest, the seed, the git SHA and timestamp of the training run, the
per-stage trainer round log, the held-out ROC operating point, and a
content digest over the cascade's canonical JSON.  The content digest is
the integrity check (a tampered or truncated ``cascade.json`` fails to
load) and the ``source`` field records how the bytes were made (always
``trained``: every version comes out of :mod:`repro.zoo.training`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import ZooError
from repro.haar.cascade import Cascade
from repro.zoo.recipes import TrainingRecipe, canonical_json

__all__ = ["ModelManifest", "cascade_digest", "MANIFEST_VERSION"]

#: manifest schema: 1 is the initial recipe/rounds/evaluation/digest form
MANIFEST_VERSION = 1


def cascade_digest(cascade: Cascade) -> str:
    """``sha256:<hex>`` over the cascade's canonical JSON serialisation."""
    payload = canonical_json(cascade.to_dict())
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class ModelManifest:
    """Provenance of one published model version."""

    model: str
    version: str
    recipe: TrainingRecipe
    recipe_digest: str
    content_digest: str
    seed: int
    source: str  # "trained"
    git_sha: str = "unknown"
    created_utc: str = field(default_factory=_utc_now)
    rounds: tuple[dict, ...] = ()
    evaluation: dict | None = None

    def __post_init__(self) -> None:
        if self.source != "trained":
            raise ZooError(f"manifest source must be trained, got {self.source!r}")

    def to_dict(self) -> dict:
        return {
            "manifest_version": MANIFEST_VERSION,
            "model": self.model,
            "version": self.version,
            "recipe": self.recipe.to_dict(),
            "recipe_digest": self.recipe_digest,
            "content_digest": self.content_digest,
            "seed": self.seed,
            "source": self.source,
            "git_sha": self.git_sha,
            "created_utc": self.created_utc,
            "rounds": list(self.rounds),
            "evaluation": self.evaluation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelManifest":
        try:
            version = data["manifest_version"]
            if version != MANIFEST_VERSION:
                raise ZooError(f"unsupported manifest version {version}")
            return cls(
                model=str(data["model"]),
                version=str(data["version"]),
                recipe=TrainingRecipe.from_dict(data["recipe"]),
                recipe_digest=str(data["recipe_digest"]),
                content_digest=str(data["content_digest"]),
                seed=int(data["seed"]),
                source=str(data["source"]),
                git_sha=str(data.get("git_sha", "unknown")),
                created_utc=str(data.get("created_utc", "")),
                rounds=tuple(dict(r) for r in data.get("rounds", [])),
                evaluation=(
                    None if data.get("evaluation") is None else dict(data["evaluation"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ZooError(f"malformed manifest: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ModelManifest":
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ZooError(f"manifest {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise ZooError(f"manifest {path} is not valid JSON") from exc
        return cls.from_dict(data)

    def verify(self, cascade: Cascade) -> None:
        """Raise :class:`ZooError` when the cascade bytes don't match."""
        actual = cascade_digest(cascade)
        if actual != self.content_digest:
            raise ZooError(
                f"content digest mismatch for {self.model}@{self.version}: "
                f"manifest says {self.content_digest}, cascade is {actual}"
            )
