import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqss.serialize import config_hash, csv_text, fmt_float, json_text, write_text


def reference_csv_text(header, rows):
    """csv.writer with floats through fmt_float: the bytes csv_text must give."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324]),
    st.floats().map(np.float64),
)
TEXTS = st.text(alphabet='ab ,"\r\n\t', max_size=5)
CELLS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), TEXTS)
# floats that compare equal but print apart (0.0, -0.0), equal values of two
# types, and NaNs that are separate objects
REPEATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5]),
    st.sampled_from([0.0, -0.0, 0.5]).map(np.float64),
    st.builds(float, st.just("nan")),
    FLOATS,
)


def pooled(cells):
    """Cells drawn from a pool of at most four, so a column repeats values."""
    return st.lists(cells, min_size=1, max_size=4).flatmap(st.sampled_from)


COLUMNS = [FLOATS, TEXTS, CELLS, pooled(REPEATS), pooled(TEXTS),
           pooled(st.one_of(st.integers(-2, 2), st.booleans())), pooled(CELLS)]


@st.composite
def tables(draw):
    """A header and rectangular rows whose columns are all floats, all text,
    all int or bool, or mixed, some of them drawn from a small pool."""
    width = draw(st.integers(0, 4))
    n_rows = draw(st.integers(0, 8))
    columns = [draw(st.lists(draw(st.sampled_from(COLUMNS)), min_size=n_rows, max_size=n_rows))
               for _ in range(width)]
    rows = [list(row) for row in zip(*columns)] if width else [[] for _ in range(n_rows)]
    return draw(st.lists(TEXTS, min_size=width, max_size=width)), rows


def test_fmt_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 5.0, 0.30000000000000004):
        assert float(fmt_float(x)) == x


def test_csv_text_shape_and_quoting():
    text = csv_text(["a", "b"], [[1, 0.5], ["x,y", 2.0]])
    lines = text.split("\r\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert lines[2] == '"x,y",2'
    assert lines[3] == ""
    assert "\n" not in text.replace("\r\n", "")


@given(tables())
def test_csv_text_matches_csv_writer(table):
    header, rows = table
    assert csv_text(header, rows) == reference_csv_text(header, rows)


def test_csv_text_bounds_shaped_table():
    # a 21 x 21 grid in bounds' layout: x1 and x2 repeat 21 values, and lhs
    # is -0.0 at x1 = 0 and 0.0 at x1 = 1: equal values that print apart
    xs = np.linspace(0.0, 1.0, 21)
    x1, x2 = np.repeat(xs, 21), np.tile(xs, 21)
    lhs = (x1 - 0.5) * x1 * (1.0 - x1) * x2
    rhs = 0.25 * (x1 + x2)
    holds = np.where(lhs <= rhs, "true", "false").tolist()
    rows = list(zip(x1.tolist(), x2.tolist(), lhs.tolist(), rhs.tolist(), holds))
    text = csv_text(["x1", "x2", "lhs", "rhs", "holds"], rows)
    assert text == reference_csv_text(["x1", "x2", "lhs", "rhs", "holds"], rows)
    assert {line.split(",")[2] for line in text.split("\r\n")[1:22]} == {"-0"}
    assert {line.split(",")[2] for line in text.split("\r\n")[-22:-1]} == {"0"}


def test_csv_text_one_field_rows_and_ragged_rows():
    rows = [[""], [None], [1.5], ['a"b']]
    assert csv_text([""], rows) == '""\r\n""\r\n""\r\n1.5\r\n"a""b"\r\n'
    assert csv_text([""], rows) == reference_csv_text([""], rows)
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [[1, 2], [3]])  # columns need rows of one length


def test_json_text_canonical():
    a = json_text({"b": 2, "a": [1.5, None, True]})
    assert a == json_text({"a": [1.5, None, True], "b": 2})
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.5, None, True], "b": 2}
    with pytest.raises(ValueError):
        json_text({"x": math.nan})


def test_write_text_preserves_bytes(tmp_path):
    path = tmp_path / "out.csv"
    text = csv_text(["a"], [[1.5]])
    write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


def test_config_hash_stability():
    h1 = config_hash({"n": 8, "q": 0.5})
    h2 = config_hash({"q": 0.5, "n": 8})
    assert h1 == h2
    assert len(h1) == 12
    assert h1 != config_hash({"n": 9, "q": 0.5})
