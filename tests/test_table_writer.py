"""``VerdictReport.to_csv`` formats a column at a time; its bytes must be
those of the per-cell writer it replaced, which formats each cell with
``optima._fmt`` (None for a missing key) and writes one line per row."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.optima import VerdictReport, _fmt

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
MISSING = object()   # a cell whose key the row leaves out

FLOATS = st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf, -0.0, 0.0])
KINDS = {
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "np.float32": st.floats(width=32, allow_nan=False).map(np.float32),
    "int": st.integers(),
    "np.int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "str": st.text(st.characters(codec="ascii", exclude_characters=",\r\n")),
    "None": st.none(),
    "missing": st.just(MISSING),
}
KINDS["mixed"] = st.one_of(*KINDS.values())


def _ref_to_csv(rep: VerdictReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(rep.columns) + "\n")
        for r in rep.rows:
            fh.write(",".join(_fmt(r.get(c)) for c in rep.columns) + "\n")


def _assert_same_bytes(rep: VerdictReport, tmp_path) -> None:
    rep.to_csv(tmp_path / "got.csv")
    _ref_to_csv(rep, tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@st.composite
def reports(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=5))
    columns = [f"{kind}_{j}" for j, kind in enumerate(kinds)]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = {c: draw(KINDS[kind]) for c, kind in zip(columns, kinds)}
        rows.append({c: v for c, v in cells.items() if v is not MISSING})
    return VerdictReport(columns, rows)


@SETTINGS
@given(rep=reports())
def test_the_columns_write_the_bytes_of_the_per_cell_writer(rep, tmp_path_factory):
    _assert_same_bytes(rep, tmp_path_factory.mktemp("csv"))


def test_every_column_type_and_the_empty_tables(tmp_path):
    values = {
        "float": [1.5, math.inf, -math.inf, -0.0, 0.1 + 0.2],
        "np.float64": [np.float64(v) for v in (1.5, math.inf, -0.0, 1e-300, 2.0 ** 60)],
        "np.float32": [np.float32(v) for v in (0.1, -math.inf, -0.0, 3.0, 1e30)],
        "int": [0, -7, 2 ** 70, 3, 1],
        "np.int64": [np.int64(v) for v in (0, -7, 2 ** 62, 3, 1)],
        "bool": [True, False, True, True, False],
        "np.bool_": [np.bool_(v) for v in (True, False, True, True, False)],
        "str": ["pass", "fail", "", "skipped", "exact"],
        "None": [None] * 5,
        "mixed": [1.5, 2, "x", np.float64(-0.0), True],
    }
    columns = [*values, "missing"]
    rows = [{c: v[i] for c, v in values.items()} for i in range(5)]
    for rep in (VerdictReport(columns, rows), VerdictReport(columns, []),
                VerdictReport([], rows), VerdictReport([], [])):
        _assert_same_bytes(rep, tmp_path)
    VerdictReport([], rows[:2]).to_csv(tmp_path / "no_columns.csv")
    assert (tmp_path / "no_columns.csv").read_bytes() == b"\n\n\n"
    VerdictReport(["a", "b"], []).to_csv(tmp_path / "no_rows.csv")
    assert (tmp_path / "no_rows.csv").read_bytes() == b"a,b\n"
