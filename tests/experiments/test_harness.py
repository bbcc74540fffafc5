"""The alternating-round timing harness: round order, warmup split, outputs."""

from repro.experiments.harness import time_rounds


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
