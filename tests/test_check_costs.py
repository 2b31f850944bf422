"""What the precondition checks cost on the benchmark's small_ops entries.

`GeneratorSet` tests invertibility by rank, `refine_series` tests that a
generator normalizes a member by residues, and a transvection's
displacement reads the projection V -> V/U off its solver: so a refine
entry builds no inverse and no span of an image, and a comm_check or
engel entry solves nothing inside `projection_matrix`.
"""

import importlib.util
from pathlib import Path

from flagstab.linalg import LinearSolver, Mat, QuotientMap, Subspace

SEED = 1107


def small_ops_entries(kinds, per_class=4):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = [x for x in workloads.WORKLOADS["small_ops"].entries(SEED, per_class) if x.kind in kinds]
    return workloads.small_op, items


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_refine_entries_build_no_inverse_and_no_image_span(monkeypatch):
    small_op, items = small_ops_entries({"refine"})
    calls = []
    for owner, name in [(Mat, "_inverse_columns"), (Subspace, "apply"),
                        (Mat, "is_invertible"), (Subspace, "_is_invariant")]:
        counting(monkeypatch, owner, name, calls)
    assert items
    for item in items:
        del calls[:]
        small_op(item)
        # six generators over the three sets, each checked for invertibility
        assert calls.count("is_invertible") == 6 and "_is_invariant" in calls
        assert calls.count("_inverse_columns") == calls.count("apply") == 0


def test_projection_matrix_solves_nothing(monkeypatch):
    small_op, items = small_ops_entries({"comm_check", "engel"})
    calls, inside = [], []
    projection_matrix = QuotientMap.projection_matrix

    def traced(self):
        inside.append(self)
        try:
            return projection_matrix(self)
        finally:
            inside.pop()

    monkeypatch.setattr(QuotientMap, "projection_matrix", traced)
    solve = LinearSolver.solve

    def counted(self, target):
        calls.append("solve in projection_matrix" if inside else "solve")
        return solve(self, target)

    monkeypatch.setattr(LinearSolver, "solve", counted)
    counting(monkeypatch, QuotientMap, "projection_matrix", calls)
    assert {item.kind for item in items} == {"comm_check", "engel"}
    for item in items:
        del calls[:]
        small_op(item)
        assert "projection_matrix" in calls
        assert "solve in projection_matrix" not in calls
