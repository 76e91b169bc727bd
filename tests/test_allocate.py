import numpy as np
import pytest

from tinymm.allocate import (
    AllocatorProblem,
    LayerChoice,
    assignment_from_dict,
    assignment_to_dict,
    budget_sweep,
    load_assignment,
    solve_brute_force,
    solve_exact,
)
from tinymm.errors import (
    InfeasibleError,
    MissingAssignmentError,
    ParseError,
    SearchSpaceTooLargeError,
)


def _layer(name, params, w4, w8, macs=None):
    macs = macs if macs is not None else params
    return LayerChoice(
        name=name, options=(4, 8), omega=(w4, w8),
        size_bits=(params * 4, params * 8), bops=(macs * 16, macs * 64),
    )


def _random_problem(rng, max_layers=12, with_budgets=True):
    y = int(rng.integers(1, max_layers + 1))
    layers = []
    for i in range(y):
        params = int(rng.integers(1, 5000))
        macs = int(rng.integers(0, 100_000))
        w8 = float(rng.uniform(0, 1))
        w4 = w8 + float(rng.uniform(0, 5))
        layers.append(_layer(f"l{i}", params, w4, w8, macs))
    size_budget = None
    bops_budget = None
    if with_budgets:
        lo = sum(min(l.size_bits) for l in layers)
        hi = sum(max(l.size_bits) for l in layers)
        size_budget = int(rng.integers(lo, hi + 1))
        if rng.random() < 0.5:
            blo = sum(min(l.bops) for l in layers)
            bhi = sum(max(l.bops) for l in layers)
            bops_budget = int(rng.integers(blo, bhi + 1))
    return AllocatorProblem(layers, size_budget, bops_budget)


def test_two_layer_frozen_example():
    # exhaustively: (8,8) size 24000 and (4,8) size 20000 are over budget,
    # (4,4) scores 1.0, (8,4) is feasible at 16000 bits with score 0.2
    p = AllocatorProblem(
        layers=[_layer("a", 1000, 0.9, 0.1), _layer("b", 2000, 0.1, 0.02)],
        size_budget_bits=18_000,
    )
    for solver in (solve_exact, solve_brute_force):
        got = solver(p)
        assert got.bits == {"a": 8, "b": 4}
        assert got.objective == pytest.approx(0.2)
        assert got.size_bits == 16_000


def test_no_budgets_all_eight():
    p = AllocatorProblem(layers=[_layer(f"l{i}", 10, 0.5 + i, 0.1) for i in range(5)])
    got = solve_exact(p)
    assert all(b == 8 for b in got.bits.values())


def test_budget_below_minimum_is_infeasible():
    p = AllocatorProblem(layers=[_layer("a", 1000, 1, 0.5)], size_budget_bits=3999)
    with pytest.raises(InfeasibleError):
        solve_exact(p)
    with pytest.raises(InfeasibleError):
        solve_brute_force(p)


def test_single_layer_single_feasible_option():
    p = AllocatorProblem(layers=[_layer("a", 100, 1.0, 0.5)], size_budget_bits=420)
    got = solve_exact(p)
    assert got.bits == {"a": 4}


def test_tie_break_prefers_high_precision():
    layers = [_layer(f"l{i}", 10, 0.5, 0.5) for i in range(4)]  # identical scores
    p = AllocatorProblem(layers=layers)
    for solver in (solve_exact, solve_brute_force):
        assert all(b == 8 for b in solver(p).bits.values())


def test_tie_break_is_lexicographic_from_first_layer():
    # both (8,4) and (4,8) are feasible with equal score; the first layer
    # must win the higher precision
    layers = [_layer("a", 100, 1.0, 1.0), _layer("b", 100, 1.0, 1.0)]
    p = AllocatorProblem(layers=layers, size_budget_bits=1200)
    for solver in (solve_exact, solve_brute_force):
        assert solver(p).bits == {"a": 8, "b": 4}


def test_search_space_cap():
    layers = [_layer(f"l{i}", 1, 1.0, 0.5) for i in range(25)]
    with pytest.raises(SearchSpaceTooLargeError):
        solve_brute_force(AllocatorProblem(layers))


def test_exact_matches_brute_force_on_random_problems():
    rng = np.random.default_rng(0)
    for _ in range(150):
        p = _random_problem(rng, max_layers=8)
        try:
            want = solve_brute_force(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_exact(p)
            continue
        got = solve_exact(p)
        assert got.objective == want.objective
        assert got.bits == want.bits
        if p.size_budget_bits is not None:
            assert got.size_bits <= p.size_budget_bits
        if p.bops_budget is not None:
            assert got.bops <= p.bops_budget


def test_budget_relaxation_never_hurts():
    rng = np.random.default_rng(1)
    for _ in range(30):
        p = _random_problem(rng, max_layers=8)
        if p.size_budget_bits is None:
            continue
        tight = solve_exact(p)
        relaxed = solve_exact(AllocatorProblem(p.layers, p.size_budget_bits * 2, p.bops_budget))
        assert relaxed.objective <= tight.objective


def test_budget_sweep_endpoints_and_midpoint():
    layers = [_layer("a", 1000, 0.9, 0.1), _layer("b", 2000, 0.1, 0.02)]
    all4 = sum(min(l.size_bits) for l in layers)
    all8 = sum(max(l.size_bits) for l in layers)
    p = AllocatorProblem(layers)
    entries = budget_sweep(p, [all4, 18_000, all8])
    assert entries[0][1].bits == {"a": 4, "b": 4}
    assert entries[1][1].bits == {"a": 8, "b": 4}
    assert entries[2][1].bits == {"a": 8, "b": 8}
    objectives = [a.objective for _, a in entries]
    assert objectives == sorted(objectives, reverse=True)


def test_budget_sweep_duplicates_and_order():
    layers = [_layer("a", 100, 1.0, 0.2)]
    p = AllocatorProblem(layers)
    entries = budget_sweep(p, [800, 800])
    assert entries[0][1] == entries[1][1]
    with pytest.raises(MissingAssignmentError):
        budget_sweep(p, [800, 400])


def test_determinism():
    rng = np.random.default_rng(2)
    p = _random_problem(rng)
    a = solve_exact(p)
    b = solve_exact(p)
    assert a == b


def test_assignment_serialization_round_trip():
    p = AllocatorProblem(layers=[_layer("a", 10, 1.0, 0.1)])
    a = solve_exact(p)
    back = assignment_from_dict(assignment_to_dict(a))
    assert back == a


@pytest.mark.parametrize("text", [
    "bits: all 8", "\udcff", "[8, 4]", '"bits"', '{"bits": [1]}', '{"bits": {"x": "a"}}',
    '{"bits": {"x": 1e400}}', '{"objective": 1}',
])
def test_load_assignment_rejects_malformed_documents(tmp_path, text):
    path = tmp_path / "assn.json"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ParseError):
        load_assignment(path)


@pytest.mark.parametrize("width", ["8.7", "NaN", "Infinity", "-Infinity", "true", '"8"', "null"])
def test_load_assignment_rejects_a_width_that_is_not_an_integer(tmp_path, width):
    # a fractional width once loaded truncated (8.7 as 8), a boolean as 1, a string as its number
    path = tmp_path / "assn.json"
    path.write_text('{"bits": {"x": 8, "y": %s}}' % width)
    with pytest.raises(ParseError):
        load_assignment(path)


def test_load_assignment_reads_an_integral_float_width_as_an_int(tmp_path):
    path = tmp_path / "assn.json"
    path.write_text('{"bits": {"x": 8.0, "y": 4}}')
    bits = load_assignment(path).bits
    assert bits == {"x": 8, "y": 4}
    assert all(type(v) is int for v in bits.values())
