"""Correctness gate: a study.csv against stored reference values.

``nodes`` and ``level`` must match exactly.  Every other column must match
to a relative tolerance of ``RTOL``, and an empty cell (nan) must stay
empty.  ``RTOL`` sits between the two changes the gate has to tell apart:

* swapping the iterative Poisson solver for an exact one changes the
  fields by about 1e-12 relative, and the difference seminorms, rates,
  coefficients and gaps derived from them by far less than 1e-6;
* a wrong answer, such as another formulation on the same meshes or a
  rate changed in its 4th significant digit, moves some value by 1e-4
  relative or more.
"""

import csv
import io
import json
import math
import os

RTOL = 1e-6
EXACT_COLUMNS = ("level", "nodes")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_references():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def parse_csv(text):
    """Header and rows of a study.csv; empty cells become None."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    header, body = rows[0], rows[1:]
    return header, [[float(c) if c != "" else None for c in row]
                    for row in body]


def check(text, reference):
    """List of mismatches between a study.csv text and a reference entry;
    empty when the table passes."""
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable table: {exc}"]
    problems = []
    if header != reference["columns"]:
        return [f"columns {header} != {reference['columns']}"]
    if len(rows) != len(reference["rows"]):
        return [f"{len(rows)} rows != {len(reference['rows'])}"]
    for row, ref_row in zip(rows, reference["rows"]):
        for col, got, want in zip(header, row, ref_row):
            where = f"level {ref_row[0]:g} {col}"
            if want is None or got is None:
                if want is not got:
                    problems.append(f"{where}: {got} != {want}")
            elif col in EXACT_COLUMNS:
                if got != want:
                    problems.append(f"{where}: {got:g} != {want:g}")
            elif not math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
                problems.append(f"{where}: {got!r} != {want!r} "
                                f"(rel {abs(got - want) / abs(want):.1e})")
    return problems


def write_csv(header, rows):
    """study.csv text for a header and rows (None -> empty cell)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) for v in row])
    return out.getvalue()


def perturb_rate(text, digit=4):
    """Change the first rate_u value in its ``digit``-th significant digit."""
    header, rows = parse_csv(text)
    col = header.index("rate_u")
    row = next(r for r in rows if r[col] is not None)
    step = 10.0 ** (math.floor(math.log10(abs(row[col]))) - (digit - 1))
    row[col] += step
    return write_csv(header, rows)
