"""Per-layer bit allocation under size and compute budgets.

Chooses x_i from each layer's option set, normally {4, 8}, minimizing the
summed sensitivity score subject to

    sum_i params_i * x_i      <= size budget (bits)
    sum_i macs_i * x_i * x_i  <= BOPS budget

The search space is tiny (2^Y for Y layers), so the solver is an exact
depth-first branch and bound: options are explored highest-precision
first, partial objectives are bounded below by the per-layer minima of
the undecided suffix, and a branch dies as soon as its residual minimum
size or BOPS cannot meet a budget. Ties therefore resolve to the
assignment that is lexicographically higher-precision from the first
layer. A plain enumeration solver with the same contract is kept as a
correctness oracle.

`build_problem` takes each layer's options from the widths its
sensitivity table scores; `graph.sensitivity_table` scores a layer that
the model config pins at its pinned width only, so a pin is a layer with a
single option here, whichever caller builds the problem.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

from .costs import CostReport
from .errors import (
    InfeasibleError,
    MissingAssignmentError,
    ParseError,
    SearchSpaceTooLargeError,
)
from .quantize import SensitivityTable

BRUTE_FORCE_CAP = 1 << 24


@dataclass(frozen=True)
class LayerChoice:
    """One layer's candidate precisions with their cost and score."""

    name: str
    options: tuple[int, ...]          # bit widths, e.g. (4, 8)
    omega: tuple[float, ...]          # sensitivity per option
    size_bits: tuple[int, ...]        # weight payload per option
    bops: tuple[int, ...]             # bit operations per option

    def __post_init__(self):
        n = len(self.options)
        if n == 0 or len(self.omega) != n or len(self.size_bits) != n or len(self.bops) != n:
            raise MissingAssignmentError(
                f"layer {self.name!r} needs costs and scores for every option"
            )


@dataclass
class AllocatorProblem:
    layers: list[LayerChoice] = field(default_factory=list)
    size_budget_bits: int | None = None
    bops_budget: int | None = None

    @property
    def option_count(self) -> int:
        total = 1
        for layer in self.layers:
            total *= len(layer.options)
        return total


@dataclass(frozen=True)
class BitAssignment:
    """Chosen bits per layer plus the achieved totals."""

    bits: dict[str, int]
    objective: float
    size_bits: int
    bops: int


def build_problem(
    report: CostReport,
    table: SensitivityTable,
    size_budget_bits: int | None = None,
    bops_budget: int | None = None,
) -> AllocatorProblem:
    """Assemble a problem from cost and sensitivity data for a model.

    A layer's options are the widths the table scores for it, so a layer
    the table scores at one width only (a config pin) has that one option.
    """
    layers = []
    for cost in report.layers:
        options = tuple(sorted(table.omega[cost.name]))
        omegas = tuple(table.get(cost.name, b) for b in options)
        sizes = tuple(cost.params * b for b in options)
        bop = tuple(cost.macs * b * b for b in options)
        layers.append(LayerChoice(cost.name, options, omegas, sizes, bop))
    return AllocatorProblem(layers, size_budget_bits, bops_budget)


def _order_desc(layer: LayerChoice) -> list[int]:
    """Option indices sorted by descending precision (tie-break order)."""
    return sorted(range(len(layer.options)), key=lambda i: -layer.options[i])


def _totals(p: AllocatorProblem, picks: Sequence[int]) -> tuple[float, int, int]:
    obj = sum(l.omega[i] for l, i in zip(p.layers, picks))
    size = sum(l.size_bits[i] for l, i in zip(p.layers, picks))
    bop = sum(l.bops[i] for l, i in zip(p.layers, picks))
    return obj, size, bop


def _feasible(p: AllocatorProblem, size: int, bop: int) -> bool:
    if p.size_budget_bits is not None and size > p.size_budget_bits:
        return False
    if p.bops_budget is not None and bop > p.bops_budget:
        return False
    return True


def _assignment(p: AllocatorProblem, picks: Sequence[int]) -> BitAssignment:
    obj, size, bop = _totals(p, picks)
    bits = {l.name: l.options[i] for l, i in zip(p.layers, picks)}
    return BitAssignment(bits=bits, objective=obj, size_bits=size, bops=bop)


def solve_brute_force(p: AllocatorProblem) -> BitAssignment:
    """Exhaustive enumeration in tie-break order; the correctness oracle."""
    if p.option_count > BRUTE_FORCE_CAP:
        raise SearchSpaceTooLargeError(
            f"{p.option_count} assignments exceed the enumeration cap"
        )
    orders = [_order_desc(l) for l in p.layers]
    best_picks = None
    best_obj = float("inf")
    for picks in itertools.product(*orders):
        obj, size, bop = _totals(p, picks)
        if not _feasible(p, size, bop):
            continue
        if obj < best_obj:  # strict: first among equals wins, i.e. higher precision
            best_obj = obj
            best_picks = picks
    if best_picks is None:
        raise InfeasibleError("no assignment satisfies the budgets")
    return _assignment(p, best_picks)


def solve_exact(p: AllocatorProblem) -> BitAssignment:
    """Depth-first branch and bound; globally optimal, deterministic."""
    y = len(p.layers)
    orders = [_order_desc(l) for l in p.layers]

    # suffix minima for bounding: best-possible objective / size / bops of
    # the undecided tail
    min_omega = [0.0] * (y + 1)
    min_size = [0] * (y + 1)
    min_bops = [0] * (y + 1)
    for i in range(y - 1, -1, -1):
        layer = p.layers[i]
        min_omega[i] = min_omega[i + 1] + min(layer.omega)
        min_size[i] = min_size[i + 1] + min(layer.size_bits)
        min_bops[i] = min_bops[i + 1] + min(layer.bops)

    if p.size_budget_bits is not None and min_size[0] > p.size_budget_bits:
        raise InfeasibleError(
            f"minimum possible size {min_size[0]} exceeds budget {p.size_budget_bits}"
        )
    if p.bops_budget is not None and min_bops[0] > p.bops_budget:
        raise InfeasibleError(
            f"minimum possible BOPS {min_bops[0]} exceeds budget {p.bops_budget}"
        )

    best_obj = float("inf")
    best_picks: tuple[int, ...] | None = None
    picks = [0] * y

    def descend(i: int, obj: float, size: int, bop: int) -> None:
        nonlocal best_obj, best_picks
        if obj + min_omega[i] >= best_obj:
            return
        if p.size_budget_bits is not None and size + min_size[i] > p.size_budget_bits:
            return
        if p.bops_budget is not None and bop + min_bops[i] > p.bops_budget:
            return
        if i == y:
            best_obj = obj
            best_picks = tuple(picks)
            return
        layer = p.layers[i]
        for k in orders[i]:
            picks[i] = k
            descend(i + 1, obj + layer.omega[k], size + layer.size_bits[k], bop + layer.bops[k])

    descend(0, 0.0, 0, 0)
    if best_picks is None:
        raise InfeasibleError("no assignment satisfies the budgets")
    return _assignment(p, best_picks)


def budget_sweep(
    p: AllocatorProblem, size_budgets: Sequence[int]
) -> list[tuple[int, BitAssignment]]:
    """Solve once per size budget; budgets must be sorted ascending."""
    budgets = list(size_budgets)
    if budgets != sorted(budgets):
        raise MissingAssignmentError("budgets must be sorted ascending")
    out = []
    for budget in budgets:
        sub = AllocatorProblem(p.layers, int(budget), p.bops_budget)
        out.append((int(budget), solve_exact(sub)))
    return out


# -- serialization -----------------------------------------------------------

def assignment_to_dict(a: BitAssignment) -> dict:
    return {
        "schema": "tinymm-assignment-v1",
        "bits": dict(a.bits),
        "objective": a.objective,
        "size_bits": a.size_bits,
        "bops": a.bops,
    }


def assignment_from_dict(doc: dict) -> BitAssignment:
    if not isinstance(doc, dict) or not isinstance(doc.get("bits"), dict):
        raise ParseError("assignment must be an object whose \"bits\" maps layer names to widths")
    try:
        return BitAssignment(
            bits={str(k): int(v) for k, v in doc["bits"].items()},
            objective=float(doc.get("objective", 0.0)),
            size_bits=int(doc.get("size_bits", 0)),
            bops=int(doc.get("bops", 0)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad assignment document: {exc}") from exc


def load_assignment(path) -> BitAssignment:
    """Read an assignment file; a file that is not an assignment document
    raises ParseError (OSError if it cannot be read)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: not JSON: {exc}") from exc
    return assignment_from_dict(doc)

