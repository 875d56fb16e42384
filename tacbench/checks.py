"""Output checks of the benchmark workloads.

Each check takes outputs (and, where needed, independently computed
reference values) and returns a list of failure messages; an empty list
means the outputs pass.  The checks compare against independent
computations or against properties the method must have, never against a
stored copy of earlier output.  ``test_checks.py`` feeds each one a
perturbed output to show that it can fail.
"""

from __future__ import annotations

import csv
import math

# tolerances of the identities, as certified by tacnode.verify
ALGEBRAIC_TOL = 1e-9  # 2 v = u^2 - q^2
HAMILTONIAN_TOL = 1e-8  # u = (p - q u)^2 - sigma q^2 - q^4
RIGHT_TAIL_FROM = 4.5  # shifts where Ai^2 < 1.1e-7, so q - Ai = O(Ai^3) is sharp
TAIL_RATIO_TOL = 1e-10  # |q / Ai - 1| on [8, 14], where Ai^2 < 3e-16
EQUIVALENCE_TOL = 1e-5  # resolvent form against the RH form
TIME_SYMMETRY_TOL = 1e-10  # K(u, v; t1, t2) = K(v, u; -t2, -t1)


def read_csv_cells(path) -> tuple[list[str], list[list[str]]]:
    """Header and data cells of a tacnode CSV file, as text, banner skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, rows


def check_csv_roundtrip(cells: list[list[str]], parsed_rows) -> list[str]:
    """Every numeric cell is a 17-digit rendering that parses back to itself,
    and ``parsed_rows`` (as read by the program) holds exactly those floats."""
    errors = []
    if len(cells) != len(parsed_rows):
        return [f"csv: {len(cells)} rows on disk, {len(parsed_rows)} read back"]
    for i, (text_row, row) in enumerate(zip(cells, parsed_rows)):
        for text, value in zip(text_row, row):
            x = float(text)
            if format(x, ".16e") != text:
                errors.append(f"csv row {i}: cell {text!r} does not round-trip")
            if not (x == value or (math.isnan(x) and math.isnan(value))):
                errors.append(f"csv row {i}: cell {text!r} read back as {value!r}")
    return errors[:5]


def check_rows_equal(label: str, got, expected) -> list[str]:
    """Bit-identity of two sequences of floats."""
    got, expected = list(got), list(expected)
    if len(got) != len(expected):
        return [f"{label}: {len(got)} values, expected {len(expected)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    return [f"{label}: {len(bad)} values differ, first at {bad[0]}: {got[bad[0]]!r} != {expected[bad[0]]!r}"] if bad else []


def check_tw_identities(rows) -> list[str]:
    """Painleve II relations of each ``(sigma, q, p, u, v, det)`` row."""
    errors = []
    for sigma, q, p, u, v, det in rows:
        alg = 2 * v - (u * u - q * q)
        if not abs(alg) <= ALGEBRAIC_TOL:
            errors.append(f"sigma={sigma:.6g}: 2v - (u^2 - q^2) = {alg:.3e}")
        dq = p - q * u
        ham = u - (dq * dq - sigma * q * q - q**4)
        if not abs(ham) <= HAMILTONIAN_TOL:
            errors.append(f"sigma={sigma:.6g}: Hamiltonian residual {ham:.3e}")
    return errors


def check_tw_distribution(rows) -> list[str]:
    """``det`` is a distribution function: inside (0, 1) and increasing in sigma."""
    errors = [f"sigma={r[0]:.6g}: det = {r[5]!r} not in (0, 1)" for r in rows if not 0.0 < r[5] < 1.0]
    for a, b in zip(rows, rows[1:]):
        if not (a[0] < b[0] and a[5] < b[5]):
            errors.append(f"det does not increase from sigma={a[0]:.6g} to {b[0]:.6g}: {a[5]!r}, {b[5]!r}")
    return errors


def check_right_tail(rows, airy_ai) -> list[str]:
    """For sigma >= 4.5: 0 < q - Ai(sigma) <= Ai(sigma)^3 (the correction is ~0.05 Ai^3).

    ``airy_ai`` is an independent Airy function (mpmath in the benchmark).
    """
    errors = []
    for sigma, q, *_ in rows:
        if sigma < RIGHT_TAIL_FROM:
            continue
        ai = airy_ai(sigma)
        if not 0.0 < q - ai <= ai**3:
            errors.append(f"sigma={sigma:.6g}: q - Ai = {q - ai:.3e}, Ai^3 = {ai**3:.3e}")
    return errors


def check_tail_ratio(rows, airy_ai) -> list[str]:
    """Deep in the right tail q equals Ai to ``TAIL_RATIO_TOL`` relative."""
    errors = []
    for sigma, q, *_ in rows:
        ratio = q / airy_ai(sigma) - 1.0
        if not abs(ratio) <= TAIL_RATIO_TOL:
            errors.append(f"sigma={sigma:.6g}: q / Ai - 1 = {ratio:.3e}")
    return errors


def check_same_bytes(label: str, first: bytes, second: bytes) -> list[str]:
    if first == second:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, second)) if a != b), min(len(first), len(second)))
    return [f"{label}: files differ from byte {at} ({len(first)} and {len(second)} bytes)"]


def check_equivalence(samples) -> list[str]:
    """``(u, v, resolvent-form value, RH-form value)``: agreement to 1e-5 relative."""
    errors = []
    for u, v, lval, kval in samples:
        resid = (lval - kval) / max(1.0, abs(lval))
        if not abs(resid) <= EQUIVALENCE_TOL:
            errors.append(f"K({u:.4g}, {v:.4g}): resolvent {lval!r} vs RH {kval!r}")
    return errors


def check_time_symmetry(samples) -> list[str]:
    """``(u, v, K(u, v; t1, t2), K(v, u; -t2, -t1))`` agree to 1e-10."""
    return [
        f"K({u:.4g}, {v:.4g}) = {k!r} but mirrored {km!r}"
        for u, v, k, km in samples
        if not abs(k - km) <= TIME_SYMMETRY_TOL
    ]


def check_gap(gap: float, wider_gap: float) -> list[str]:
    """A gap probability lies in (0, 1) and shrinks when its interval widens."""
    errors = []
    if not 0.0 < gap < 1.0:
        errors.append(f"gap probability {gap!r} not in (0, 1)")
    if not wider_gap < gap:
        errors.append(f"gap {gap!r} does not shrink on a wider interval ({wider_gap!r})")
    return errors


def check_reports(reports, expected: int) -> list[str]:
    """Every certification report passes at its stated tolerance."""
    errors = []
    if len(reports) != expected:
        errors.append(f"{len(reports)} reports, expected {expected}")
    for r in reports:
        if not (r.passed and math.isfinite(r.max_residual) and r.max_residual <= r.tolerance):
            errors.append(f"{r.name}: residual {r.max_residual:.3e} against tolerance {r.tolerance:.1e}")
    return errors
