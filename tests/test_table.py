import io
from itertools import zip_longest

import numpy as np
import pytest

from sfode.table import _BLOCK_ROWS, write_table


def per_cell_table(meta, header, columns) -> str:
    """The table as one format call per cell would write it."""
    lines = [f"# {key}={meta[key]}\n" for key in sorted(meta)] + [",".join(header) + "\n"]
    cells = [[format(v, ".17g") for v in np.asarray(c).tolist()] for c in columns]
    lines += [",".join(row) + "\n" for row in zip_longest(*cells, fillvalue="")]
    return "".join(lines)


def special_floats(rows: int, seed: int) -> np.ndarray:
    """±0.0, ±inf, nan and floats over the whole exponent range, in random order."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    values[rng.integers(0, rows, rows // 4)] = rng.choice(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308], rows // 4)
    return values


@pytest.mark.parametrize("rows", [0, 1, 7, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 5])
@pytest.mark.parametrize("short", [0, 1, 3], ids=["equal", "one-short", "three-short"])
def test_block_format_matches_per_cell_format(rows, short):
    # an int range, Python ints past 2**53, an int array and floats with
    # every special value; the last column short by `short` rows, as the
    # b_j column of `sfode weights` is by one
    rng = np.random.default_rng(rows + 10 * short)
    columns = [range(rows), [2**60 + 3 * i for i in range(rows)],
               rng.integers(-10**6, 10**6, rows), special_floats(rows, rows),
               special_floats(max(rows - short, 0), rows + 1)]
    meta, header = {"b": 0.1, "a": "x"}, ["j", "big", "int", "y1", "y2"]
    out = io.StringIO()
    write_table(out, meta, header, columns)
    assert out.getvalue() == per_cell_table(meta, header, columns)


def test_one_column_of_negative_zero_and_nan():
    columns = [np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf])]
    out = io.StringIO()
    write_table(out, {}, ["y"], columns)
    assert out.getvalue() == "y\n-0\n0\nnan\nnan\ninf\n-inf\n"
    assert out.getvalue() == per_cell_table({}, ["y"], columns)
