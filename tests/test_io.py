import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from musielak import DomainError, GridDomain, GridFunction
from musielak.io import function_from_csv, function_from_json, function_to_csv, function_to_json


@st.composite
def grid_functions(draw):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(3, 6), min_size=dim, max_size=dim)))
    spacing = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)))
    origin = tuple(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    return GridFunction(GridDomain(shape, spacing, origin), values)


def _assert_same(got, ref):
    assert (got.domain.shape, got.domain.spacing, got.domain.origin) == (
        ref.domain.shape, ref.domain.spacing, ref.domain.origin)
    assert np.array_equal(got.values, ref.values)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(u=grid_functions())
def test_csv_round_trip(tmp_path, u):
    path = tmp_path / "u.csv"
    function_to_csv(u, path)
    _assert_same(function_from_csv(path), u)


@settings(max_examples=60, deadline=None)
@given(u=grid_functions())
def test_json_round_trip(u):
    _assert_same(function_from_json(json.loads(json.dumps(function_to_json(u)))), u)


@pytest.mark.parametrize("drop", ["# shape=", "# spacing="])
def test_csv_without_shape_or_spacing_is_a_domain_error(tmp_path, drop):
    path = tmp_path / "u.csv"
    function_to_csv(GridFunction.constant(GridDomain.box((3, 4)), 1.5), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(drop)))
    with pytest.raises(DomainError, match=drop.strip("# =")):
        function_from_csv(path)


def test_csv_without_column_header_keeps_its_first_row(tmp_path):
    u = GridFunction(GridDomain.box((3, 4)), np.arange(12.0).reshape(3, 4))
    path = tmp_path / "u.csv"
    function_to_csv(u, path)
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if not line.startswith("x0")))
    _assert_same(function_from_csv(path), u)
