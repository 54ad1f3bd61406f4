"""graph-analysis: white peaks, black holes, redundant-state removal."""

import itertools
import random

from stochworld import analyze, find_black_hole, find_white_peak, remove_redundant

from stochworld.core import KINDS

from helpers import chain_model, random_connected_chain, random_walk_model, unreached_by_scan


def brute_force_qualifying_sets(model, kind):
    """Every non-empty state set without the initial state that satisfies the
    defining closure property, by exhaustive subset enumeration."""
    ids = [s.id for s in model.states]
    s0 = model.initial_state.id
    edges = {(a.source, a.target) for a in model.arrows if a.effective().hi > 0.0}
    found = []
    candidates = [s for s in ids if s != s0]
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            inside = set(combo)
            if kind == "black-hole":
                ok = not any(src in inside and dst not in inside for src, dst in edges)
            else:
                ok = not any(src not in inside and dst in inside for src, dst in edges)
            if ok:
                found.append(frozenset(inside))
    return found


class TestFig3:
    def test_white_peak(self, fig3):
        assert find_white_peak(fig3) == {"1"}

    def test_black_hole(self, fig3):
        assert find_black_hole(fig3) == {"3", "4"}

    def test_no_redundant(self, fig3):
        assert analyze(fig3).redundant == frozenset()
        assert remove_redundant(fig3) == fig3


class TestStructure:
    def test_strongly_connected_empty(self, m1, cycle3):
        for model in (m1, cycle3):
            assert find_white_peak(model) == frozenset()
            assert find_black_hole(model) == frozenset()

    def test_absorbing_self_loop(self):
        model = chain_model(
            {"s0": {"s0": 0.5, "z": 0.5}, "z": {"z": 1.0}}, initial="s0"
        )
        assert find_black_hole(model) == {"z"}
        assert find_white_peak(model) == frozenset()

    def test_disjoint_component_is_white_peak(self):
        model = chain_model(
            {"s0": {"s0": 1.0}, "u": {"v": 1.0}, "v": {"u": 1.0}}, initial="s0"
        )
        assert find_white_peak(model) == {"u", "v"}

    def test_initial_state_never_included(self):
        rng = random.Random(11)
        for _ in range(30):
            model = random_connected_chain(rng, rng.randint(2, 6))
            s0 = model.initial_state.id
            assert s0 not in find_white_peak(model)
            assert s0 not in find_black_hole(model)

    def test_closure_properties(self, fig3):
        black = find_black_hole(fig3)
        white = find_white_peak(fig3)
        for a in fig3.arrows:
            if a.effective().hi > 0.0:
                assert not (a.source in black and a.target not in black)
                assert not (a.source not in white and a.target in white)

    def test_maximality_by_subset_enumeration(self, fig3):
        for kind, maximal in (
            ("black-hole", find_black_hole(fig3)),
            ("white-peak", find_white_peak(fig3)),
        ):
            for qualifying in brute_force_qualifying_sets(fig3, kind):
                assert qualifying <= maximal

    def test_maximality_on_random_models(self):
        rng = random.Random(5)
        for _ in range(10):
            # sprinkle extra arrows over two disconnected clusters
            n = rng.randint(3, 6)
            names = [f"t{i}" for i in range(n)]
            transitions = {s: {} for s in names}
            for s in names:
                outs = rng.sample(names, rng.randint(1, min(2, n)))
                share = 1.0 / len(outs)
                transitions[s] = {d: share for d in outs}
            model = chain_model(transitions, initial="t0")
            edges = {(a.source, a.target) for a in model.arrows if a.effective().hi > 0}
            black = find_black_hole(model)
            white = find_white_peak(model)
            # the returned sets satisfy their own defining closure
            assert not any(s in black and d not in black for s, d in edges)
            assert not any(s not in white and d in white for s, d in edges)
            for kind, maximal in (("black-hole", black), ("white-peak", white)):
                for qualifying in brute_force_qualifying_sets(model, kind):
                    assert qualifying <= maximal, (kind, qualifying, maximal)


    def test_equals_scan_oracle(self):
        """Reachability over the compiled adjacency equals the closure over
        id sets rebuilt per call, zero upper bounds and intervals included."""
        rng = random.Random(11)
        for i in range(700):
            model = random_walk_model(rng, KINDS[i % len(KINDS)])
            assert find_white_peak(model) == unreached_by_scan(model, reverse=False), i
            assert find_black_hole(model) == unreached_by_scan(model, reverse=True), i


class TestRemoveRedundant:
    def test_isolated_state_removed(self):
        model = chain_model(
            {"s0": {"s0": 1.0}, "i": {"i": 1.0}}, initial="s0"
        )
        cleaned = remove_redundant(model)
        assert [s.id for s in cleaned.states] == ["s0"]

    def test_encapsulated_cycle_removed(self):
        model = chain_model(
            {
                "s0": {"a": 1.0},
                "a": {"b": 1.0},
                "b": {"b": 1.0},
                "x": {"y": 1.0},
                "y": {"x": 1.0},
            },
            initial="s0",
        )
        cleaned = remove_redundant(model)
        assert {s.id for s in cleaned.states} == {"s0", "a", "b"}

    def test_idempotent(self, fig3):
        model = chain_model(
            {"s0": {"s0": 1.0}, "i": {"i": 1.0}}, initial="s0"
        )
        once = remove_redundant(model)
        assert remove_redundant(once) == once
        assert remove_redundant(remove_redundant(fig3)) == remove_redundant(fig3)

    def test_removal_deficit_lands_in_white_peak(self):
        """Removing an encapsulated state leaves a deficit exactly where the
        validator downgrades it: inside a surviving white peak."""
        from stochworld import validate

        model = chain_model(
            {
                "s0": {"s0": 1.0},
                "x": {"s0": 0.8, "r": 0.2},
                "r": {"r": 1.0},
            },
            initial="s0",
        )
        assert analyze(model).redundant == {"r"}
        cleaned = remove_redundant(model)
        assert {s.id for s in cleaned.states} == {"s0", "x"}
        report = validate(cleaned)
        assert report.ok
        assert any("0.8" in w and "white peak" in w for w in report.warnings)
