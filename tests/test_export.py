import math

import numpy as np

from catsim.export import fields, write_rows


def test_fields_equal_per_element_repr():
    values = np.array(
        [1.5, -0.0, 0.0, 1.5, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 0.1 + 0.2,
         -0.0, 0.30000000000000004, 5e-324, 1.5, -math.nan]
    )
    assert fields(values) == [repr(float(v)) for v in values]
    assert fields(values.reshape(3, 5)) == [repr(float(v)) for v in values]
    assert fields(values[::-2]) == [repr(float(v)) for v in values[::-2]]


def test_fields_of_an_empty_column():
    assert fields(np.array([])) == []


def test_fields_of_a_grid_with_few_distinct_values():
    grid = np.add.outer(np.arange(40.0), np.arange(40.0)) / 3.0
    assert fields(grid) == [repr(float(v)) for v in grid.ravel()]


def test_write_rows_repeats_a_single_field(tmp_path):
    write_rows(tmp_path / "t.csv", ["a,b"], [("x", fields([1.0, -0.0]))])
    assert (tmp_path / "t.csv").read_text() == "a,b\nx,1.0\nx,-0.0\n"
