"""The shared bench timing harness: round order, scoring and identity."""

from types import SimpleNamespace

import pytest

from repro.experiments.harness import ModeTiming, identical, time_rounds


def _frame(*detections):
    return SimpleNamespace(
        raw_detections=[
            SimpleNamespace(x=x, y=y, size=size, score=score)
            for x, y, size, score in detections
        ]
    )


class TestTimeRounds:
    def test_paths_alternate_in_insertion_order(self):
        calls = []
        paths = {name: (lambda name=name: calls.append(name)) for name in "bca"}
        time_rounds(paths, warmup=1, trials=2)
        assert calls == list("bca") * 3

    def test_warmup_rounds_are_kept_out_of_scoring(self):
        timings, _ = time_rounds({"a": lambda: None, "b": lambda: None}, warmup=2, trials=3)
        for timing in timings.values():
            assert len(timing.warmup_rounds) == 2
            assert len(timing.rounds) == 3
            assert all(t >= 0.0 for t in timing.rounds + timing.warmup_rounds)

    def test_returns_last_round_outputs(self):
        counter = {"a": 0, "b": 0}

        def path(name):
            def run():
                counter[name] += 1
                return (name, counter[name])

            return run

        _, outputs = time_rounds({"a": path("a"), "b": path("b")}, warmup=1, trials=2)
        assert outputs == {"a": ("a", 3), "b": ("b", 3)}


class TestModeTiming:
    def test_median_and_iqr(self):
        timing = ModeTiming(rounds=[4.0, 1.0, 3.0, 2.0, 5.0], warmup_rounds=[100.0])
        assert timing.median_s == 3.0
        # inclusive quartiles of 1..5 are 2 and 4
        assert timing.iqr_s == pytest.approx(2.0)
        assert timing.fps(6) == 2.0

    def test_fewer_than_two_rounds(self):
        assert ModeTiming().median_s == 0.0
        assert ModeTiming().iqr_s == 0.0
        assert ModeTiming().fps(10) == 0.0
        single = ModeTiming(rounds=[0.5])
        assert single.median_s == 0.5
        assert single.iqr_s == 0.0

    def test_to_dict_keeps_raw_rounds(self):
        payload = ModeTiming(rounds=[1.0, 3.0], warmup_rounds=[9.0]).to_dict(4)
        assert payload == {
            "rounds_s": [1.0, 3.0],
            "warmup_rounds_s": [9.0],
            "median_s": 2.0,
            "iqr_s": 1.0,
            "fps": 2.0,
        }


class TestIdentical:
    def test_same_detections(self):
        a = [_frame((1, 2, 24, 0.5)), _frame()]
        b = [_frame((1, 2, 24, 0.5)), _frame()]
        assert identical(a, b)

    def test_score_difference_breaks_identity(self):
        assert not identical([_frame((1, 2, 24, 0.5))], [_frame((1, 2, 24, 0.25))])

    def test_length_mismatch_is_not_identical(self):
        frames = [_frame((1, 2, 24, 0.5)), _frame((3, 4, 24, 0.5))]
        assert not identical(frames, frames[:1])
        assert not identical(frames[:1], frames)
