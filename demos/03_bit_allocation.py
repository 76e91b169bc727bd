"""Mixed-precision bit allocation under a size budget.

Builds the allocation problem for the covid reference model (sensitivity
scores from its weights, sizes and BOPS from the cost model) and sweeps
the weight-payload budget from the all-4-bit floor to the all-8-bit
ceiling, printing the chosen per-layer precisions at each point.

Run: python demos/03_bit_allocation.py
"""
from tinymm import (
    budget_sweep,
    build_problem,
    build_reference,
    cost_report,
    solve_brute_force,
    solve_exact,
)
from tinymm.graph import sensitivity_table

graph = build_reference("covid")
report = cost_report(graph)

# sensitivity scores straight from the model's weights, each tensor at the
# scale the quantized plan gives it
table = sensitivity_table(graph)

problem = build_problem(report, table)
all4 = sum(min(l.size_bits) for l in problem.layers)
all8 = sum(max(l.size_bits) for l in problem.layers)
print(f"payload range: {all4 / 8 / 1024:.1f} KiB (all 4-bit) .. "
      f"{all8 / 8 / 1024:.1f} KiB (all 8-bit)\n")

# ---------------------------------------------------------------------------
# Budget sweep: tighter budgets force more layers down to 4 bits
# ---------------------------------------------------------------------------
budgets = [all4 + (all8 - all4) * i // 4 for i in range(5)]
for budget, assn in budget_sweep(problem, budgets):
    marks = "".join("8" if assn.bits[l.name] == 8 else "4" for l in problem.layers)
    print(f"budget {budget / 8 / 1024:7.1f} KiB -> bits per layer [{marks}] "
          f"objective {assn.objective:10.5f} achieved {assn.size_bits / 8 / 1024:7.1f} KiB")
print()

# ---------------------------------------------------------------------------
# The solver is exact: cross-check one point against full enumeration
# ---------------------------------------------------------------------------
from tinymm.allocate import AllocatorProblem

mid = AllocatorProblem(problem.layers, budgets[2], None)
fast = solve_exact(mid)
slow = solve_brute_force(mid)
assert fast.bits == slow.bits and fast.objective == slow.objective
print(f"branch-and-bound == enumeration over 2^{len(problem.layers)} assignments: "
      f"objective {fast.objective:.5f}")
print("chosen bits:", fast.bits)
