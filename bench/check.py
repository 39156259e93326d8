"""Output check of one run: exit status, verdicts, and the recorded reference.

Every run must exit 0, report ``certified: true`` in ``summary.txt`` and
have every ``pass`` column true.  A run at the reference seed must also
match ``reference/<workload>/``: the same files, headers and row counts,
every non-numeric cell (verdicts, names) equal, and every number within
``ABS_TOL + REL_TOL * |reference|``.  The tolerance is loose enough for
changes of roundoff order (summation order, another factorisation) and
tight enough to catch a wrong bound or error.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-6
ABS_TOL = 1e-9


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def _compare_cell(got, want, where, problems):
    if isinstance(want, bool) or isinstance(got, bool):
        if got is not want:
            problems.append(f"{where}: {got!r} != reference {want!r}")
        return
    g = got if isinstance(got, (int, float)) else _number(str(got))
    w = want if isinstance(want, (int, float)) else _number(str(want))
    if g is not None and w is not None:
        if not _close(g, w):
            problems.append(f"{where}: {got} not within tolerance of reference {want}")
    elif got != want:
        problems.append(f"{where}: {got!r} != reference {want!r}")


def _compare_json(got, want, where, problems):
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            problems.append(f"{where}: keys {sorted(got)} != reference {sorted(want)}")
            return
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            problems.append(f"{where}: length {len(got)} != reference {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]", problems)
    else:
        _compare_cell(got, want, where, problems)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _compare_csv(got_rows, want_rows, name, problems):
    if not got_rows or got_rows[0] != want_rows[0]:
        problems.append(f"{name}: header differs from reference")
        return
    if len(got_rows) != len(want_rows):
        problems.append(f"{name}: {len(got_rows) - 1} rows, reference has {len(want_rows) - 1}")
        return
    header = want_rows[0]
    for r, (got, want) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        for column, g, w in zip(header, got, want):
            _compare_cell(g, w, f"{name} row {r} {column}", problems)


def check_run(exit_code: int, out_dir, reference_dir=None) -> list:
    """Problems found in one run's outputs; an empty list means correct."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    problems = []
    summary_path = os.path.join(out_dir, "summary.txt")
    try:
        with open(summary_path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"summary.txt unreadable: {exc}"]
    if summary.get("certified") is not True:
        problems.append("summary.txt does not say certified: true")
    tables = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
    for name in tables:
        rows = _read_csv(os.path.join(out_dir, name))
        if "pass" in rows[0]:
            column = rows[0].index("pass")
            failing = sum(row[column] != "true" for row in rows[1:])
            if failing:
                problems.append(f"{name}: {failing} rows with pass != true")
    if reference_dir is None:
        return problems

    with open(os.path.join(reference_dir, "summary.txt")) as fh:
        _compare_json(summary, json.load(fh), "summary", problems)
    want_tables = sorted(f for f in os.listdir(reference_dir) if f.endswith(".csv"))
    if tables != want_tables:
        problems.append(f"tables {tables} != reference {want_tables}")
        return problems
    for name in tables:
        _compare_csv(
            _read_csv(os.path.join(out_dir, name)),
            _read_csv(os.path.join(reference_dir, name)),
            name, problems,
        )
    return problems
