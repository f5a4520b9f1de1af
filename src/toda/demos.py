"""Worked examples for the rank-3 symplectic and rank-2 odd-orthogonal cases.

Each example fixes the weights used throughout the documentation, lists the
closed-form expressions of the dependent unipotent entries in terms of the
free coordinates, and exposes a checker that compares the constraint
solver's output against those closed forms at a given coordinate
assignment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .exact import ExactScalar
from .groups import UnipotentCoords, unipotent_from_coords
from .jsonio import coords_to_json, fractions_to_json, scalar_to_json
from .lie import Algebra, coordinate_map, format_root_table, slot_name
from .solutions import reduced_unknowns

F = Fraction

C3_GAMMA = (F(-1, 2), F(1, 4), F(1))
B2_GAMMA = (F(-1, 2), F(1, 4))

Formula = tuple[tuple[int, int], str, Callable]

HALF = ExactScalar.of(F(1, 2))


C3_DEPENDENT: tuple[Formula, ...] = (
    (
        (5, 1),
        "c51 = c10*c41 - c20*c31 + c30*c21 - c40",
        lambda c: c(1, 0) * c(4, 1) - c(2, 0) * c(3, 1) + c(3, 0) * c(2, 1) - c(4, 0),
    ),
    ((4, 2), "c42 = c21*c32 - c31", lambda c: c(2, 1) * c(3, 2) - c(3, 1)),
    (
        (5, 2),
        "c52 = c10*c21*c32 - c10*c31 - c20*c32 + c30",
        lambda c: c(1, 0) * c(2, 1) * c(3, 2) - c(1, 0) * c(3, 1) - c(2, 0) * c(3, 2) + c(3, 0),
    ),
    ((4, 3), "c43 = c21", lambda c: c(2, 1)),
    ((5, 3), "c53 = c10*c21 - c20", lambda c: c(1, 0) * c(2, 1) - c(2, 0)),
    ((5, 4), "c54 = c10", lambda c: c(1, 0)),
)

B2_DEPENDENT: tuple[Formula, ...] = (
    (
        (4, 0),
        "c40 = c10*c30 - (1/2)*c20^2",
        lambda c: c(1, 0) * c(3, 0) - HALF * c(2, 0) * c(2, 0),
    ),
    ((3, 1), "c31 = (1/2)*c21^2", lambda c: HALF * c(2, 1) * c(2, 1)),
    (
        (4, 1),
        "c41 = (1/2)*c10*c21^2 - c20*c21 + c30",
        lambda c: HALF * c(1, 0) * c(2, 1) * c(2, 1) - c(2, 0) * c(2, 1) + c(3, 0),
    ),
    ((3, 2), "c32 = c21", lambda c: c(2, 1)),
    ((4, 2), "c42 = c10*c21 - c20", lambda c: c(1, 0) * c(2, 1) - c(2, 0)),
    ((4, 3), "c43 = c10", lambda c: c(1, 0)),
)


def dependent_formulas(algebra: Algebra) -> tuple[Formula, ...]:
    if algebra == Algebra("C", 3):
        return C3_DEPENDENT
    if algebra == Algebra("B", 2):
        return B2_DEPENDENT
    raise ValueError(f"no worked example for {algebra}")


def check_dependent_formulas(algebra: Algebra, coords: UnipotentCoords) -> list[dict]:
    """Compare solved dependent entries against the closed forms, exactly."""
    solved = unipotent_from_coords(algebra, coords)
    rows = []
    for (i, j), label, fn in dependent_formulas(algebra):
        expected = fn(coords.get)
        got = solved.entries[i][j]
        rows.append(
            {
                "slot": slot_name(i, j),
                "formula": label,
                "value": scalar_to_json(got),
                "matches": got == expected,
            }
        )
    return rows


def _demo_assignment(algebra: Algebra) -> UnipotentCoords:
    # Fixed, slightly "generic" free values so no dependent entry collapses.
    values: dict[tuple[int, int], ExactScalar] = {}
    for idx, slot in enumerate(coordinate_map(algebra), start=2):
        values[(slot.row, slot.col)] = ExactScalar(F(idx, 3), F(1, idx))
    return UnipotentCoords(algebra, values)


def build_demo(target: str) -> dict:
    """Assemble the machine-readable demo report for "c3" or "b2"."""
    if target == "c3":
        algebra, gamma = Algebra("C", 3), C3_GAMMA
    elif target == "b2":
        algebra, gamma = Algebra("B", 2), B2_GAMMA
    else:
        raise ValueError(f"unknown demo target {target!r} (expected c3 or b2)")

    from .config import TodaConfig
    from .lie import cartan

    cfg = TodaConfig(algebra, gamma)
    coords = _demo_assignment(algebra)
    formula_rows = check_dependent_formulas(algebra, coords)
    slot_rows = [
        {"slot": r["slot"], "root": r["root_str"], "value": r["value"], "allowed": r["integral"]}
        for r in format_root_table(algebra, gamma)
    ]
    report = {
        "target": target,
        "family": algebra.family,
        "rank": algebra.rank,
        "gamma": fractions_to_json(gamma),
        "inverse_cartan": [fractions_to_json(row) for row in cartan(algebra).inverse],
        "alpha": fractions_to_json(cfg.alpha),
        "free_coordinates": [s.name for s in coordinate_map(algebra)],
        "sample_assignment": coords_to_json(coords),
        "dependent_entries": formula_rows,
        "monodromy_exponents": fractions_to_json(cfg.shifts),
        "coordinate_table": slot_rows,
        "nonzero_coordinates": [r["slot"] for r in slot_rows if r["allowed"]],
        "dimension_of_unipotent_group": len(coordinate_map(algebra)),
    }
    if algebra.family == "B":
        reduced = reduced_unknowns(cfg)
        report["ln2_offsets"] = fractions_to_json([r.ln2_coefficient for r in reduced])
        report["density_multipliers"] = fractions_to_json([r.multiplier for r in reduced])
    report["all_formulas_match"] = all(r["matches"] for r in formula_rows)
    return report
