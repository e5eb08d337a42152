import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheston import (MeasureKind, approx_kernel, dyadic_chain, frac_kernel,
                        measure_for_atoms)
from fracheston.cli import _write_csv, cmd_quantize
from fracheston.quantize import (atom_count, cell_barycenter, cell_weight,
                                 make_partition, quantize, refine)


@given(lo=st.floats(1e-6, 10.0), width1=st.floats(1e-6, 10.0),
       width2=st.floats(1e-6, 10.0), alpha=st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_weight_additivity_mu(lo, width1, width2, alpha):
    mid, hi = lo + width1, lo + width1 + width2
    whole = cell_weight(lo, hi, alpha, MeasureKind.MU)
    parts = (cell_weight(lo, mid, alpha, MeasureKind.MU)
             + cell_weight(mid, hi, alpha, MeasureKind.MU))
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-300)


@given(lo=st.floats(1e-6, 10.0), width1=st.floats(1e-6, 10.0),
       width2=st.floats(1e-6, 10.0), alpha=st.floats(-0.95, -0.55))
@settings(max_examples=100, deadline=None)
def test_weight_additivity_mu_tilde(lo, width1, width2, alpha):
    mid, hi = lo + width1, lo + width1 + width2
    whole = cell_weight(lo, hi, alpha, MeasureKind.MU_TILDE)
    parts = (cell_weight(lo, mid, alpha, MeasureKind.MU_TILDE)
             + cell_weight(mid, hi, alpha, MeasureKind.MU_TILDE))
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-300)


@given(lo=st.floats(1e-5, 5.0), width=st.floats(1e-5, 20.0),
       alpha=st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_barycenter_strictly_inside(lo, width, alpha):
    hi = lo + width
    b = cell_barycenter(lo, hi, alpha, MeasureKind.MU)
    assert lo < b < hi


def test_cell_validation():
    with pytest.raises(ValueError):
        cell_weight(0.0, 1.0, 0.5, MeasureKind.MU)
    with pytest.raises(ValueError):
        cell_weight(2.0, 1.0, 0.5, MeasureKind.MU)
    with pytest.raises(ValueError):
        cell_barycenter(1.0, 2.0, -0.75, MeasureKind.MU)  # wrong kind for alpha


def test_make_partition_shape():
    pts = make_partition(8, 0.5, MeasureKind.MU)
    assert pts.shape == (9,)
    assert np.all(np.diff(pts) > 0)
    assert pts[-1] == pytest.approx(64.0)


def test_partition_near_alpha_one_raises_value_error():
    # 16^(-2/(1 - alpha)) is 0.0 here: the documented error, not a division by zero
    with pytest.raises(ValueError,
                       match=r"^the lower endpoint .* 16-cell .* not a positive normal"):
        make_partition(16, 0.995)


def test_refine_is_superset():
    p = make_partition(6, 0.5, MeasureKind.MU)
    r = refine(p)
    assert set(p).issubset(set(r))
    assert np.all(np.diff(r) > 0)
    with pytest.raises(ValueError):
        refine(p, low_shrink=1.0)


@pytest.mark.parametrize("points, match", [
    ([1.0], "at least two points"),
    ([0.0, 1.0, 2.0], "positive and strictly increasing"),
    ([-1.0, 1.0], "positive and strictly increasing"),
    ([1.0, 2.0, 2.0], "positive and strictly increasing"),
    ([1.0, 3.0, 2.0], "positive and strictly increasing"),
])
def test_quantize_rejects_bad_points(points, match):
    with pytest.raises(ValueError, match=match):
        quantize(np.array(points), 0.5, MeasureKind.MU)


def test_quantize_structure():
    qm = quantize(make_partition(10, 0.3, MeasureKind.MU), 0.3, MeasureKind.MU)
    assert qm.n_atoms == 10
    assert np.all(qm.weights > 0)
    assert np.all(np.diff(qm.nodes) > 0)
    pts = qm.points
    assert np.all(qm.nodes > pts[:-1]) and np.all(qm.nodes < pts[1:])


def test_total_mass_matches_closed_form():
    alpha = 0.6
    qm = quantize(make_partition(50, alpha, MeasureKind.MU), alpha, MeasureKind.MU)
    pts = qm.points
    expected = cell_weight(pts[0], pts[-1], alpha, MeasureKind.MU)
    assert qm.weights.sum() == pytest.approx(expected, rel=1e-12)


def test_dyadic_chain_nesting_and_monotone_kernel():
    chain = dyadic_chain(16, 0.5, MeasureKind.MU, 5)
    for a, b in zip(chain, chain[1:]):
        assert set(a.points).issubset(set(b.points))
    for t in (0.1, 0.5, 1.0):
        vals = [approx_kernel(t, qm) for qm in chain]
        assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))
        # the quantized transform stays below the true kernel (Jensen)
        assert vals[-1] <= frac_kernel(t, 0.5) + 1e-14


def test_rough_kernel_convergence():
    alpha = -0.75
    chain = dyadic_chain(16, alpha, MeasureKind.MU_TILDE, 6)
    t = 1.0
    exact = (alpha + 1.0) * t ** (-alpha - 2.0) / math.gamma(-alpha)
    vals = [approx_kernel(t, qm) for qm in chain]
    assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(exact, rel=1e-3)


def test_measure_for_atoms():
    qm = measure_for_atoms(200, 0.75, MeasureKind.MU)
    assert qm.n_atoms >= 200
    with pytest.raises(ValueError):
        measure_for_atoms(16, 0.75, MeasureKind.MU_TILDE)


@pytest.mark.parametrize("alpha, kind", [(0.75, MeasureKind.MU), (0.1, MeasureKind.MU),
                                         (-0.75, MeasureKind.MU_TILDE)])
def test_atom_count_is_measure_for_atoms_size(alpha, kind):
    for level in (1, 2, 3, 15, 16, 17, 34, 35, 64, 65, 70, 71, 128, 143, 256, 300):
        assert atom_count(level) == measure_for_atoms(level, alpha, kind).n_atoms


def test_approx_kernel_validation():
    qm = measure_for_atoms(16, 0.75, MeasureKind.MU)
    with pytest.raises(ValueError):
        approx_kernel(0.0, qm)


def test_to_csv(tmp_path):
    # the quantize command returns one table per measure for the CLI writer
    qm = measure_for_atoms(16, 0.75, MeasureKind.MU)
    name = f"quantized_a0.75_n{qm.n_atoms}.csv"
    (table_name, header, rows), = cmd_quantize({(0.75, 16): qm})
    assert table_name == name
    _write_csv(tmp_path / name, header, rows)
    lines = (tmp_path / name).read_text().strip().splitlines()
    assert lines[0] == "index,xi_lo,xi_hi,node,weight"
    assert len(lines) == qm.n_atoms + 1
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(qm.nodes[0])

