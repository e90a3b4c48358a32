import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from musielak import DomainError, ExponentField, GridDomain, GridFunction
from musielak.io import (array_from_json, field_from_json, function_from_csv, function_from_json, function_to_csv,
                         grid_from_json, number_from_json)
from conftest import function_json, grid_json


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
    _assert_same(function_from_json(json.loads(json.dumps(function_json(u)))), u)


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


EDGE_VALUES = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0, -2.5e-7, 123456789.0]


@pytest.mark.parametrize("shape", [(9,), (3, 5), (3, 4, 3)])
def test_csv_bytes_match_savetxt(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    values = rng.normal(0.0, 1e3, shape).ravel()
    values[:len(EDGE_VALUES)] = EDGE_VALUES
    dim = len(shape)
    u = GridFunction(GridDomain(shape, (0.25,) * dim, (-1e300,) + (0.0,) * (dim - 1)), values.reshape(shape))
    path = tmp_path / "u.csv"
    function_to_csv(u, path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8") as fh:
        # the three metadata lines and the column header, then savetxt's rows
        fh.write("".join(path.read_text().splitlines(keepends=True)[:4]))
        data = np.column_stack([c.ravel() for c in u.domain.coordinates] + [u.values.ravel()])
        np.savetxt(fh, data, delimiter=",")
    assert path.read_bytes() == ref.read_bytes()


@st.composite
def exponent_fields(draw):
    """(field, domain): scalar or node-varying, with or without a domain and
    a Lipschitz bound."""
    N = draw(st.integers(2, 6))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    domain = None
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        shape = tuple(draw(st.lists(st.integers(3, 4), min_size=dim, max_size=dim)))
        spacing = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)))
        domain = GridDomain(shape, spacing, (0.0,) * dim)
    if draw(st.booleans()):
        shape = domain.shape if domain is not None else tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
        p, q, mu = (draw(hnp.arrays(np.float64, shape, elements=finite)) for _ in range(3))
    else:
        p, q, mu = (draw(finite) for _ in range(3))
    lipschitz = draw(st.none() | st.floats(0.0, 1e3))
    kw = {"spacing": domain.spacing} if domain is not None else {}
    return ExponentField(N, p, q, mu, lipschitz_bound=lipschitz, **kw), domain


def field_json(field):
    """The JSON object of a field."""
    out = {k: getattr(field, k).tolist() for k in ("p", "q", "mu")}
    out.update(N=field.N, lipschitz_bound=field.lipschitz_bound)
    return out


@settings(max_examples=80, deadline=None)
@given(case=exponent_fields())
def test_exponent_field_json_round_trip(case):
    field, domain = case
    back_domain = None if domain is None else grid_from_json(json.loads(json.dumps(grid_json(domain))))
    back = field_from_json(json.loads(json.dumps(field_json(field))), back_domain)
    assert (back.N, back.lipschitz_bound, back.spacing) == (field.N, field.lipschitz_bound, field.spacing)
    assert back_domain == domain
    # A scalar field read with a domain comes back broadcast to the grid.
    nodes = list(np.ndindex(domain.shape if domain is not None else field.shape)) or [None]
    assert back.shape == (domain.shape if domain is not None else field.shape)
    for x in nodes:
        assert back.at(x) == field.at(x if field.shape else None)


class TestFunctionValueShapes:
    GRID = GridDomain.box((5, 3))
    VALUES = np.arange(15.0).reshape(5, 3)

    @pytest.mark.parametrize("values", [VALUES.tolist(), VALUES.ravel().tolist()])
    def test_grid_shape_or_flat_list_is_read(self, values):
        u = function_from_json({"values": values}, self.GRID)
        assert np.array_equal(u.values, self.VALUES)

    @pytest.mark.parametrize("values", [
        VALUES.reshape(3, 5).tolist(),  # the right size, transposed shape
        VALUES.reshape(15, 1).tolist(),
        VALUES.reshape(5, 3, 1).tolist(),
        VALUES.ravel()[:-1].tolist(),
        7.0,
    ])
    def test_any_other_shape_is_a_domain_error(self, values):
        with pytest.raises(DomainError, match="shape"):
            function_from_json({"values": values}, self.GRID)


@pytest.mark.parametrize("value,integer,want", [(3, True, 3), (3.0, True, 3), (-2, False, -2.0), (1e308, False, 1e308)])
def test_number_reader_accepts(value, integer, want):
    got = number_from_json(value, "x", integer)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value,integer", [
    (3.7, True), (None, True), (True, True), ("3", True), ([3], True), (10**400, True),
    (None, False), (False, False), ("1.5", False), ([1.0], False), (float("nan"), False), (float("inf"), False),
])
def test_number_reader_rejects(value, integer):
    with pytest.raises(DomainError, match="'x' must be a finite"):
        number_from_json(value, "x", integer)


@pytest.mark.parametrize("value", [{}, [1.0, "x"], [[1.0], [1.0, 2.0]], 10**400, True, False,
                                   [[True, 1.5]], [1.0, False], [[[1.0], [2.0]], [[3.0], [True]]]])
def test_array_reader_rejects_what_is_not_numbers(value):
    with pytest.raises(DomainError, match="'p' must be a number or nested lists of numbers"):
        array_from_json(value, "p")


@pytest.mark.parametrize("grid", [
    {"shape": [9.5, 9]}, {"shape": None}, {"shape": [True, 9]}, {"shape": [9, 9], "lengths": None},
    {"shape": [9, 9], "origin": [None, 0]}, {"shape": [9, 9], "spacing": [0.1, "0.1"]},
])
def test_grid_reader_rejects_what_is_not_numbers(grid):
    with pytest.raises(DomainError, match="'(shape|lengths|origin|spacing)' must be a"):
        grid_from_json(grid)


def test_field_with_a_domain_is_broadcast_with_its_spacing():
    domain = GridDomain.box((5, 4), (2.0, 3.0))
    field = field_from_json({"N": 3, "p": 1.5, "q": [1.8, 1.9, 2.0, 2.1], "mu": 0.5, "lipschitz_bound": 2}, domain)
    assert field.shape == (5, 4) and field.spacing == domain.spacing
    assert field.lipschitz_bound == 2.0 and np.array_equal(field.q[3], [1.8, 1.9, 2.0, 2.1])
