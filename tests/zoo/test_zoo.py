"""Model-zoo subsystem tests: recipes, manifests, store, checkpoints.

The expensive property — interrupted training resumes **byte-identically**
— is verified with a deliberately tiny recipe (3 stages, 80 faces) so the
whole suite trains in seconds while still exercising the real trainer,
the real checkpoint files, and the real store publish path.
"""

import dataclasses
import json

import pytest

from repro.detect.detector import FaceDetector
from repro.errors import ConfigurationError, ZooError
from repro.obs.capture import run_trace
from repro.zoo import (
    ModelManifest,
    ModelStore,
    TrainingRecipe,
    cascade_digest,
    parse_ref,
    resolve_model,
    train_model,
)
from repro.zoo.recipes import RECIPES, canonical_json
from repro.zoo.store import default_store
from repro.zoo.training import load_checkpoint

TINY = TrainingRecipe(
    name="tiny",
    stage_sizes=(3, 4, 5),
    algorithm="gentle",
    min_hit_rate=0.99,
    n_faces=80,
    pool_size=200,
)
SEED = 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One uninterrupted tiny training run into its own store."""
    store = ModelStore(tmp_path_factory.mktemp("zoo-ref"))
    cascade, manifest = train_model(TINY, seed=SEED, store=store)
    return store, cascade, manifest


class TestRecipes:
    def test_digest_is_stable(self):
        assert TINY.digest() == TINY.digest()
        assert TINY.version(SEED) == f"{TINY.digest()[:12]}-s{SEED}"

    def test_any_field_change_mints_a_new_version(self):
        for change in (
            {"min_hit_rate": 0.991},
            {"stage_sizes": (3, 4, 6)},
            {"algorithm": "ada"},
            {"pool_size": 201},
            {"target_stage_fpr": 0.5},
        ):
            altered = dataclasses.replace(TINY, **change)
            assert altered.digest() != TINY.digest(), change
            assert altered.version(SEED) != TINY.version(SEED), change

    def test_seed_is_part_of_the_version_not_the_digest(self):
        assert TINY.version(0) != TINY.version(1)
        assert TINY.version(0).startswith(TINY.digest()[:12])

    def test_roundtrip_preserves_digest(self):
        again = TrainingRecipe.from_dict(json.loads(canonical_json(TINY.to_dict())))
        assert again == TINY
        assert again.digest() == TINY.digest()

    def test_builtin_recipes_validate(self):
        assert set(RECIPES) == {"quick", "quick_baseline", "paper", "opencv_like"}
        for recipe in RECIPES.values():
            assert recipe.digest()

    def test_invalid_recipes_are_rejected(self):
        with pytest.raises(ZooError):
            TrainingRecipe(
                name="x", stage_sizes=(), algorithm="gentle",
                min_hit_rate=0.9, n_faces=1, pool_size=1,
            )
        with pytest.raises(ZooError):
            TrainingRecipe(
                name="x", stage_sizes=(1,), algorithm="brownboost",
                min_hit_rate=0.9, n_faces=1, pool_size=1,
            )


class TestManifest:
    def test_roundtrip(self, trained):
        _, _, manifest = trained
        again = ModelManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert again == manifest

    def test_content_digest_matches_cascade(self, trained):
        _, cascade, manifest = trained
        assert manifest.content_digest == cascade_digest(cascade)
        manifest.verify(cascade)  # must not raise

    def test_verify_rejects_other_bytes(self, trained):
        store, cascade, manifest = trained
        from repro.haar.cascade import Cascade

        truncated = Cascade(stages=cascade.stages[:-1], name=cascade.name)
        with pytest.raises(ZooError, match="digest mismatch"):
            manifest.verify(truncated)

    def test_records_training_provenance(self, trained):
        _, _, manifest = trained
        assert manifest.source == "trained"
        assert manifest.seed == SEED
        assert len(manifest.rounds) == len(TINY.stage_sizes)
        assert 0.0 <= manifest.evaluation["hit_rate"] <= 1.0
        assert 0.0 <= manifest.evaluation["false_accept_rate"] <= 1.0


class TestStore:
    def test_parse_ref(self):
        assert parse_ref("quick") == ("quick", None)
        assert parse_ref("quick@latest") == ("quick", None)
        assert parse_ref("quick@abc-s0") == ("quick", "abc-s0")
        with pytest.raises(ZooError):
            parse_ref("")
        with pytest.raises(ZooError):
            parse_ref("@abc")

    def test_publish_listing_and_latest(self, trained):
        store, _, manifest = trained
        assert store.models() == ["tiny"]
        assert store.versions("tiny") == [manifest.version]
        assert store.latest("tiny") == manifest.version
        assert store.has("tiny", manifest.version)

    def test_load_verifies_digest(self, trained, tmp_path):
        store, cascade, manifest = trained
        loaded, again = store.load("tiny")
        assert cascade_digest(loaded) == manifest.content_digest
        assert again == manifest

    def test_tampered_cascade_fails_to_load(self, trained, tmp_path):
        store, cascade, manifest = trained
        copy = ModelStore(tmp_path / "tampered")
        copy.publish(cascade, manifest)
        target = copy.version_dir("tiny", manifest.version) / "cascade.json"
        payload = json.loads(target.read_text())
        payload["stages"][0]["threshold"] = 123.0
        target.write_text(json.dumps(payload))
        with pytest.raises(ZooError, match="digest mismatch"):
            copy.load("tiny")

    def test_unknown_refs_raise(self, trained):
        store, _, _ = trained
        with pytest.raises(ZooError):
            store.resolve("tiny@no-such-version")
        with pytest.raises(ZooError):
            store.resolve("nonexistent-model")

    def test_gc_keeps_only_latest(self, trained, tmp_path):
        store, cascade, manifest = trained
        scratch = ModelStore(tmp_path / "gc")
        older = dataclasses.replace(manifest, version="000000000000-s9")
        scratch.publish(cascade, older)
        scratch.publish(cascade, manifest)  # publishes + moves `latest`
        assert scratch.latest("tiny") == manifest.version
        removed = scratch.gc()
        assert removed == ["tiny@000000000000-s9"]
        assert scratch.versions("tiny") == [manifest.version]
        assert scratch.gc() == []

    def test_publish_is_idempotent(self, trained, tmp_path):
        store, cascade, manifest = trained
        scratch = ModelStore(tmp_path / "idem")
        first = scratch.publish(cascade, manifest)
        before = (first / "cascade.json").read_bytes()
        second = scratch.publish(cascade, manifest)
        assert first == second
        assert (second / "cascade.json").read_bytes() == before


class TestCheckpointResume:
    def test_interrupted_training_resumes_byte_identically(self, trained, tmp_path):
        """The headline guarantee: kill -9 mid-train loses nothing."""
        ref_store, _, manifest = trained
        reference = (
            ref_store.version_dir("tiny", manifest.version) / "cascade.json"
        ).read_bytes()

        store = ModelStore(tmp_path / "interrupted")

        class Interrupt(Exception):
            pass

        seen: list[int] = []

        def bomb(state):
            seen.append(state.next_stage)
            if state.next_stage == 2:  # two stages durable, one to go
                raise Interrupt

        with pytest.raises(Interrupt):
            train_model(TINY, seed=SEED, store=store, on_stage=bomb)
        assert seen == [1, 2]
        assert not store.has("tiny", manifest.version)

        ckpt_dir = store.checkpoint_dir("tiny", manifest.version)
        state = load_checkpoint(ckpt_dir, TINY, SEED, manifest.version)
        assert state is not None and state.next_stage == 2

        resumed_stages: list[int] = []
        cascade, resumed = train_model(
            TINY, seed=SEED, store=store,
            on_stage=lambda s: resumed_stages.append(s.next_stage),
        )
        assert resumed_stages == [3], "only the unfinished stage may retrain"
        published = (
            store.version_dir("tiny", manifest.version) / "cascade.json"
        ).read_bytes()
        assert published == reference
        assert resumed.content_digest == manifest.content_digest
        assert not ckpt_dir.exists(), "checkpoints are dropped after publish"

    def test_stale_checkpoint_is_discarded(self, tmp_path):
        store = ModelStore(tmp_path / "stale")
        version = TINY.version(SEED)

        class Interrupt(Exception):
            pass

        def bomb(state):
            raise Interrupt

        with pytest.raises(Interrupt):
            train_model(TINY, seed=SEED, store=store, on_stage=bomb)
        ckpt_dir = store.checkpoint_dir("tiny", version)
        assert ckpt_dir.is_dir()
        # a different seed or recipe must refuse to resume from it
        assert load_checkpoint(ckpt_dir, TINY, SEED + 1, version) is None
        assert not ckpt_dir.exists()

    def test_no_resume_discards_the_checkpoint(self, tmp_path):
        store = ModelStore(tmp_path / "noresume")
        version = TINY.version(SEED)

        class Interrupt(Exception):
            pass

        def bomb(state):
            raise Interrupt

        with pytest.raises(Interrupt):
            train_model(TINY, seed=SEED, store=store, on_stage=bomb)
        stages: list[int] = []
        train_model(
            TINY, seed=SEED, store=store, resume=False,
            on_stage=lambda s: stages.append(s.next_stage),
        )
        assert stages == [1, 2, 3], "resume=False must start from stage 1"


class TestResolveAndCompat:
    def test_resolve_model_from_path(self, trained, tmp_path):
        _, cascade, _ = trained
        path = tmp_path / "exported.json"
        cascade.save(path)
        loaded, manifest = resolve_model(str(path))
        assert manifest is None
        assert cascade_digest(loaded) == cascade_digest(cascade)
        with pytest.raises(ZooError):
            resolve_model(str(tmp_path / "missing.json"))

    def test_resolve_model_from_store_ref(self, trained):
        store, cascade, manifest = trained
        loaded, again = resolve_model(f"tiny@{manifest.version}", store=store)
        assert again == manifest
        loaded, again = resolve_model("tiny", store=store)
        assert again.version == manifest.version

    def test_compat_shim_exports_survive(self):
        """`from repro.zoo import paper_cascade` keeps working."""
        from repro.zoo import (  # noqa: F401
            QUICK_STAGE_SIZES,
            opencv_like_cascade,
            paper_cascade,
            quick_baseline_cascade,
            quick_cascade,
        )

        assert QUICK_STAGE_SIZES == (4, 6, 8, 10, 12, 14, 16, 18, 22, 26, 30, 34)
        assert callable(quick_cascade) and callable(paper_cascade)

    def test_default_store_honours_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_store().root == tmp_path / "zoo"



@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda name: run_trace(cascade=name), id="run_trace"),
        pytest.param(FaceDetector.pretrained, id="FaceDetector.pretrained"),
    ],
)
def test_unknown_cascade_name_lists_builtins(build):
    """Every profile-name consumer goes through one zoo decision and one error."""
    with pytest.raises(ConfigurationError) as excinfo:
        build("resnet")
    message = str(excinfo.value)
    assert "'resnet'" in message
    for name in ("quick", "quick-baseline", "paper", "opencv"):
        assert f"'{name}'" in message
