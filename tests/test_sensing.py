import numpy as np
import pytest

from stringshape.modal import ModalBasis, identity_basis
from stringshape.routing import (ConstantPitch, Helical, Mount, StringSpec, Tabulated,
                                 path_velocity, tangential_margin)
from stringshape.rodsim import synthetic_spatial_truth
from stringshape.sensing import (STAGNATION_TOL, Composite, NotRealizableError, Reference,
                                 SensorArray, SingularDesignError, StringTable, aleph_gram,
                                 aleph_sv, body_jacobian, body_jacobian_multi, config_jacobian,
                                 forward_kinematics, full_rank, lengths, linear_model,
                                 solve_shape)
from stringshape.sensitivity import noise_amp
from stringshape import liegroup as lg
from stringshape import sensing, studies


def planar_basis(L=1.0):
    return ModalBasis(y=(0, 1, 2), length=L)


def planar_array(radii, anchors, L=1.0):
    specs = tuple(StringSpec(ConstantPitch(r, 0.0), a * L) for r, a in zip(radii, anchors))
    return SensorArray(strings=specs)


def helical_array(L=0.293):
    specs = tuple(
        StringSpec(Helical(r_s=0.035, omega=6.7, alpha=np.deg2rad(a)), s_anchor=k * L / 10)
        for a, k in zip((45, 135, 225, 315), (9, 7, 10, 8))
    ) + tuple(
        StringSpec(ConstantPitch(0.0375 * np.cos(t), 0.0375 * np.sin(t)), s_anchor=k * L / 10)
        for t, k in zip(np.deg2rad([0, 90, 180, 270]), (10, 10, 7, 7))
    )
    return SensorArray(strings=specs)


def spatial_basis(L=0.293):
    return ModalBasis(x=(0, 1, 2), y=(0, 1, 2), z=(0, 1), length=L)


def string_length(spec, basis, c):
    """Absolute length of one string, as the only channel of its array."""
    return lengths(SensorArray((spec,)), basis, c, Reference.ABSOLUTE)[0]


def velocity(path, basis, c, s):
    """w' of a path on arc lengths s at configuration c."""
    return path_velocity(path.radial(s), path.radial_deriv(s), basis.matrix(s) @ c)


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def test_straight_string_length():
    basis = planar_basis()
    spec = StringSpec(ConstantPitch(0.1, 0.0), s_anchor=0.2)
    assert string_length(spec, basis, np.zeros(3)) == pytest.approx(0.2, abs=1e-14)


def test_planar_constant_curvature_closed_form():
    basis = planar_basis()
    kappa, r_x, s_a = 2.5, 0.08, 0.7
    spec = StringSpec(ConstantPitch(r_x, 0.0), s_anchor=s_a)
    val = string_length(spec, basis, [kappa, 0, 0])
    assert val == pytest.approx(s_a * (1 - r_x * kappa), rel=1e-12)


def test_helix_straight_backbone_length():
    basis = spatial_basis()
    omega, r_s, s_a = 8.0, 0.03, 0.25
    spec = StringSpec(Helical(r_s=r_s, omega=omega, alpha=0.3), s_anchor=s_a)
    expect = s_a * np.sqrt(1 + (r_s * omega) ** 2)
    got = string_length(spec, basis, np.zeros(8))
    assert got == pytest.approx(expect, rel=1e-9)


def test_not_realizable_raises_with_margin():
    basis = planar_basis()
    spec = StringSpec(ConstantPitch(0.2, 0.0), s_anchor=1.0)
    with pytest.raises(NotRealizableError) as err:
        string_length(spec, basis, [6.0, 0, 0])
    assert err.value.margin <= 0
    assert err.value.string_index == 0


def test_stiff_worst_configuration_raises_in_lengths_only():
    # stiff_workspace(200) does not impose realizability: 39 of its
    # configurations leave design (1, 2, 3, 4) with a cusp, worst at sample
    # 187, where string 3 reaches a tangential rate of -0.60.  config_jacobian
    # serves the search over such workspaces and does not check; lengths does.
    space = studies.stiff_design_space()
    array = space.array_for((1, 2, 3, 4), 0)
    c = studies.stiff_workspace(200, seed=424242).configs[187]
    assert config_jacobian(array, space.basis, c).shape == (6, space.basis.m)
    with pytest.raises(NotRealizableError) as err:
        lengths(array, space.basis, c)
    assert err.value.string_index == 3
    assert err.value.margin == pytest.approx(-0.5996, abs=1e-4)
    lo, hi = array.strings[3].span(space.basis.length)
    s = np.linspace(lo, hi, 80)
    assert err.value.margin == tangential_margin(array.strings[3].path.radial(s),
                                                 space.basis.matrix(s) @ c).min()


def test_lengths_delta_reference_zero_at_straight():
    basis = planar_basis()
    array = planar_array([0.1, -0.1, 0.25], [0.3, 0.7, 1.0])
    np.testing.assert_allclose(
        lengths(array, basis, np.zeros(3), Reference.DELTA_FROM_STRAIGHT),
        np.zeros(3), atol=1e-15)


def test_antagonistic_composite_cancels():
    # two opposite-radius strings anchored together: summed delta vanishes
    basis = planar_basis()
    r = 0.07
    specs = (StringSpec(ConstantPitch(r, 0.0), 0.6),
             StringSpec(ConstantPitch(-r, 0.0), 0.6))
    array = SensorArray(strings=specs, composites=(Composite((0, 1), (1, 1)),))
    assert array.p == 1
    vals = lengths(array, basis, [2.0, 0.5, -0.3], Reference.DELTA_FROM_STRAIGHT)
    np.testing.assert_allclose(vals, [0.0], atol=1e-12)


def test_array_lengths_match_one_string_arrays():
    # each channel of an array is the length its string gives alone, for the
    # panel rule (torsion basis) and the exact rows (planar basis) alike
    for basis, array in ((spatial_basis(), helical_array()),
                         (planar_basis(), planar_array([0.12, -0.1], [0.5, 0.8]))):
        c = np.random.default_rng(3).uniform(-1.0, 1.0, basis.m)
        got = lengths(array, basis, c, Reference.ABSOLUTE)
        alone = [string_length(spec, basis, c) for spec in array.strings]
        np.testing.assert_array_equal(got, alone)


def test_tip_mount_length():
    basis = planar_basis()
    spec = StringSpec(ConstantPitch(0.1, 0.0), s_anchor=0.4, mount=Mount.TIP)
    assert string_length(spec, basis, np.zeros(3)) == pytest.approx(0.6, abs=1e-14)


# ---------------------------------------------------------------------------
# configuration-space Jacobian
# ---------------------------------------------------------------------------

def test_planar_jacobian_closed_form():
    basis = planar_basis()
    r_x = 0.13
    array = planar_array([r_x], [1.0])
    jac = config_jacobian(array, basis, np.zeros(3))
    np.testing.assert_allclose(jac, [[-r_x * 1.0, 0.0, r_x / 3.0]], atol=1e-14)


def test_identity_basis_jacobian_row():
    basis = identity_basis(0.4)
    spec = StringSpec(ConstantPitch(0.1, 0.0), s_anchor=0.4)
    array = SensorArray(strings=(spec,))
    jac = config_jacobian(array, basis, np.zeros(3))
    np.testing.assert_allclose(jac, [[0.0, -0.1 * 0.4, 0.0]], atol=1e-12)


def test_span_rows_at_off_grid_bounds_match_one_bound_rows():
    # Bounds off the L/10 panel grid are panel edges for the bounds above
    # them, so those rows and lengths differ from the ones config_jacobian and
    # lengths give by quadrature error only: at worst over ten seeds, 1.4e-9
    # relative for the rows and 3.7e-11 for the lengths.  The first bound has
    # no bound below it and gives the same sums.
    basis = spatial_basis()
    c = np.random.default_rng(1).uniform(-3.0, 3.0, basis.m)
    path = Helical(r_s=0.035, omega=6.7, alpha=0.8)
    bounds = [0.037, 0.1234, 0.2, 0.2871]
    ells, rows = StringTable([(path, 0.0, bounds)], basis).integrals(c)
    assert ells.shape == (4,) and rows.shape == (4, basis.m)
    arrays = [SensorArray((StringSpec(path, b),)) for b in bounds]
    one = np.array([config_jacobian(a, basis, c)[0] for a in arrays])
    one_ell = np.array([lengths(a, basis, c, Reference.ABSOLUTE)[0] for a in arrays])
    assert np.array_equal(rows[0], one[0]) and ells[0] == one_ell[0]
    np.testing.assert_allclose(rows, one, rtol=0, atol=1e-8 * np.abs(one).max())
    np.testing.assert_allclose(ells, one_ell, rtol=1e-10, atol=0)


@pytest.mark.parametrize("basis", [spatial_basis(), ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.293)],
                         ids=["torsion", "torsion-free"])
@pytest.mark.parametrize("path", [Helical(r_s=0.035, omega=6.7, alpha=0.8), ConstantPitch(0.03, 0.01)])
def test_span_integrals_of_a_stack_match_one_call_per_configuration(basis, path):
    # panel sums (either path on the torsion basis, the helix on both) and
    # exact rows (constant pitch on the torsion-free basis): every row of a
    # (k, m) stack reads the table's own (m,) call bit for bit
    configs = np.random.default_rng(3).uniform(-2.0, 2.0, (4, basis.m))
    table = StringTable([(path, 0.02, [0.037, 0.1234, 0.2, 0.2871])], basis)
    ells, rows = table.integrals(configs)
    assert ells.shape == (4, 4) and rows.shape == (4, 4, basis.m)
    for c, ell, row in zip(configs, ells, rows):
        one_ell, one_row = table.integrals(c)
        assert np.array_equal(ell, one_ell) and np.array_equal(row, one_row)


@pytest.mark.parametrize("path", [Helical(r_s=0.035, omega=6.7), ConstantPitch(0.03, 0.01)])
@pytest.mark.parametrize("lo, bounds", [(0.1, [0.05]), (0.0, [np.nan])])
def test_span_rows_rejects_bounds_below_lo(path, lo, bounds):
    # the panel rule and the exact row (torsion-free basis) refuse alike when
    # the table is built; the panel rule also needs the bounds in order
    basis = ModalBasis(x=(0, 1), y=(0, 1), length=0.3)
    with pytest.raises(ValueError):
        StringTable([(path, lo, bounds)], basis)
    if isinstance(path, Helical):
        with pytest.raises(ValueError, match="must not decrease"):
            StringTable([(path, 0.0, [0.2, 0.1])], basis)


@pytest.mark.parametrize("basis", [spatial_basis(), ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.293)],
                         ids=["torsion", "torsion-free"])
def test_table_of_many_spans_matches_one_span_tables(basis):
    # one table over spans of every kind gives each span the values of a
    # table of that span alone, bit for bit, at c (m,) and at every row of a
    # stack: exact rows (constant pitch on the torsion-free basis) and panel
    # sums, base spans over the disk edges, tip spans from an anchor to L, an
    # empty span, bounds off the panel grid and on a Tabulated path's
    # breakpoints
    L = basis.length
    tab = Tabulated((0.0, 0.04, 0.11, 0.2, L), (0.03, 0.036, 0.028, 0.034, 0.03),
                    (0.0, 0.012, 0.02, -0.01, 0.004))
    edges = np.arange(11) * L / 10
    spans = [(ConstantPitch(0.03, 0.01), 0.0, edges),
             (Helical(r_s=0.035, omega=6.7, alpha=0.4), 0.0, edges),
             (tab, 0.0, edges),
             (ConstantPitch(-0.02, 0.03), 0.1, L),
             (Helical(r_s=0.03, omega=-4.0, alpha=2.0), 0.05, [0.0871, 0.2, L]),
             (tab, 0.0871, [0.11, 0.1234, 0.2, L]),
             (ConstantPitch(0.0, -0.035), 0.0, [0.0]),
             (Helical(r_s=0.035, omega=6.7, alpha=3.5), 0.037, [0.037, 0.1234, 0.2871]),
             (tab, 0.0, 0.15)]
    configs = np.random.default_rng(6).uniform(-1.0, 1.0, (4, basis.m))
    table = StringTable(spans, basis)
    starts = np.cumsum([0] + [np.size(bounds) for _, _, bounds in spans])
    for c in (configs[0], configs):
        ells, rows = table.integrals(c)
        assert ells.shape == c.shape[:-1] + (starts[-1],)
        for span, lo, hi in zip(spans, starts[:-1], starts[1:]):
            one_ell, one_row = StringTable([span], basis).integrals(c)
            assert ells[..., lo:hi].tobytes() == one_ell.tobytes()
            assert rows[..., lo:hi, :].tobytes() == one_row.tobytes()


def _string_by_string(array, basis, c):
    """Absolute channel lengths (p,) and J_lc (p, m) at c (m,), one
    one-span StringTable per string: the reference of the array's table."""
    ells, rows = [], []
    for spec in array.strings:
        ell, row = StringTable([(spec.path, *spec.span(basis.length))], basis).integrals(c)
        ells.append(ell[0])
        rows.append(row[0])
    return array.reduce(ells), array.reduce(rows)


def mixed_array(L=0.293):
    """Every path kind at base and tip mounts, a base anchor at s = 0 (an
    empty span) and two composites."""
    tab = Tabulated((0.0, 0.04, 0.11, 0.2, L), (0.03, 0.036, 0.028, 0.034, 0.03),
                    (0.0, 0.012, 0.02, -0.01, 0.004))
    specs = (StringSpec(ConstantPitch(0.03, 0.01), L),
             StringSpec(ConstantPitch(-0.02, 0.03), 0.1, Mount.TIP),
             StringSpec(ConstantPitch(0.0, -0.035), 0.0),
             StringSpec(Helical(r_s=0.035, omega=6.7, alpha=0.4), 0.2),
             StringSpec(Helical(r_s=0.03, omega=-4.0, alpha=2.0), 0.05, Mount.TIP),
             StringSpec(tab, 0.15),
             StringSpec(tab, 0.0871, Mount.TIP),
             StringSpec(Helical(r_s=0.035, omega=6.7, alpha=3.5), L))
    return SensorArray(strings=specs, composites=(Composite((1, 6), (1, -1)),
                                                  Composite((3, 7), (-1, -1))))


@pytest.mark.parametrize("basis", [spatial_basis(), ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.293)],
                         ids=["torsion", "torsion-free"])
def test_string_table_matches_span_integrals(basis):
    # lengths and config_jacobian read one table over all strings, constant-
    # pitch strings taking exact rows on the torsion-free basis; each channel
    # equals one-span tables string by string, for c (m,) and for every row
    # of a stack (k, m)
    array = mixed_array()
    configs = np.random.default_rng(2).uniform(-1.0, 1.0, (5, basis.m))
    stack_ell = lengths(array, basis, configs, Reference.ABSOLUTE)
    stack_jac = config_jacobian(array, basis, configs)
    stack_delta = lengths(array, basis, configs)
    assert stack_ell.shape == (5, array.p) and stack_jac.shape == (5, array.p, basis.m)
    for c, ell_k, jac_k, delta_k in zip(configs, stack_ell, stack_jac, stack_delta):
        ell, jac = _string_by_string(array, basis, c)
        assert np.array_equal(lengths(array, basis, c, Reference.ABSOLUTE), ell)
        assert np.array_equal(config_jacobian(array, basis, c), jac)
        assert np.array_equal(ell_k, ell) and np.array_equal(jac_k, jac)
        assert np.array_equal(lengths(array, basis, c), delta_k)


def test_stacked_lengths_name_first_failing_row_and_string():
    # tangential rates 1 - r_x u_y with u_y = c_0: row 1 has a cusp on
    # string 1 only, row 2 on string 2, row 3 on strings 0 and 1
    basis = planar_basis()
    array = planar_array([0.05, 0.2, -0.2], [1.0, 1.0, 1.0])
    configs = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-6.0, 0.0, 0.0], [30.0, 0.0, 0.0]])
    with pytest.raises(NotRealizableError) as stacked:
        lengths(array, basis, configs)
    with pytest.raises(NotRealizableError) as single:
        lengths(array, basis, configs[2])
    assert (stacked.value.row, stacked.value.string_index) == (2, 2)
    assert (single.value.row, single.value.string_index) == (None, 2)
    assert stacked.value.margin == single.value.margin < 0
    assert str(stacked.value) == str(single.value)
    config_jacobian(array, basis, configs)   # no cusp check


def test_tabulated_panel_rule_against_piecewise_reference():
    # The knots of a tabulated path inside a span are panel edges and r' is
    # the exact slope of each piece, so lengths and rows meet the panel
    # rule's tolerances of test_panel_rule_against_richardson_reference
    # against a Richardson-extrapolated trapezoid on each piece with that
    # slope.  Worst of these nine: lengths 1.4e-10, rows 5.2e-9; a
    # centered-difference r' across unmarked knots gave 1.4e-3 and 4.6e-3.
    basis = studies.soft_basis()
    L = basis.length
    s_k = np.array([0.0, 0.031, 0.07, 0.118, 0.15, 0.2032, 0.251, L])
    angle = np.linspace(0.2, 2.9, 8)
    radius = np.array([0.035, 0.04, 0.03, 0.038, 0.033, 0.041, 0.036, 0.034])
    r_k = np.stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(8)], axis=1)
    path = Tabulated(tuple(s_k), tuple(r_k[:, 0]), tuple(r_k[:, 1]))
    slopes = np.diff(r_k, axis=0) / np.diff(s_k)[:, None]
    rng = np.random.default_rng(5)
    for spec in (StringSpec(path, L), StringSpec(path, 0.16), StringSpec(path, 0.09, Mount.TIP)):
        lo, hi = spec.span(L)
        edges = np.unique(np.clip(s_k, lo, hi))
        for c in rng.uniform(-3.0, 3.0, (3, basis.m)):
            ref_ell, ref_row = 0.0, 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                slope = slopes[np.searchsorted(s_k, a, side="right") - 1]

                def velocity_on_piece(s, slope=slope):
                    return path_velocity(path.radial(s), slope, basis.matrix(s) @ c)

                def row(s):
                    w = velocity_on_piece(s)
                    wn = w / np.linalg.norm(w, axis=1, keepdims=True)
                    return np.einsum("ni,nij->nj", np.cross(path.radial(s), wn), basis.matrix(s))

                ref_ell += _richardson(lambda s: np.linalg.norm(velocity_on_piece(s), axis=1), a, b)
                ref_row += _richardson(row, a, b)
            got_row = config_jacobian(SensorArray((spec,)), basis, c)[0]
            assert np.abs(got_row - ref_row).max() <= 1e-8 * np.abs(ref_row).max()
            assert string_length(spec, basis, c) == pytest.approx(ref_ell, rel=1e-9)


def test_solve_shape_tabulates_once_whatever_its_iterations(monkeypatch):
    # one string table per solve that builds it: Phi is evaluated as often by
    # a 4-iteration solve as by a 6-iteration one, not once more per
    # residual, and not at all by a solve that finds the table built
    space = studies.soft_design_space()
    basis = space.basis
    array = space.array_for((4, 3, 9, 4), 1)
    c = studies.soft_workspace(1, seed=7).configs[0]
    measured = [lengths(array, basis, scale * c) for scale in (0.1, 1.0)]
    matrix, calls = ModalBasis.matrix, []
    monkeypatch.setattr(ModalBasis, "matrix", lambda self, s: calls.append(s) or matrix(self, s))
    counts, iterations = [], []
    for meas in measured:
        sensing._string_table.cache_clear()
        calls.clear()
        iterations.append(solve_shape(array, basis, meas).iterations)
        counts.append(len(calls))
    assert iterations == [4, 6]
    assert counts[0] == counts[1] > 0
    calls.clear()
    solve_shape(array, basis, measured[0])
    assert not calls


def test_linear_model_against_brute_quadrature():
    basis = ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.3)
    specs = tuple(
        StringSpec(ConstantPitch(0.06 * np.cos(t), 0.06 * np.sin(t)), s_anchor=a,
                   mount=m)
        for t, a, m in zip(np.deg2rad([45, 135, 225, 315, 10, 100]),
                           (0.3, 0.24, 0.18, 0.12, 0.3, 0.3),
                           [Mount.TIP] * 4 + [Mount.BASE] * 2)
    )
    array = SensorArray(strings=specs)
    base, jac = linear_model(array, basis)
    np.testing.assert_allclose(config_jacobian(array, basis, np.zeros(6)), jac,
                               atol=1e-14)
    # independent oracle: dense trapezoid of |w'| along a bent configuration
    rng = np.random.default_rng(0)
    c = rng.uniform(-2, 2, 6)
    got = lengths(array, basis, c, Reference.ABSOLUTE)
    for k, spec in enumerate(specs):
        lo, hi = spec.span(0.3)
        s = np.linspace(lo, hi, 20001)
        w = velocity(spec.path, basis, c, s)
        brute = np.trapezoid(np.linalg.norm(w, axis=1), s)
        assert got[k] == pytest.approx(brute, rel=1e-9)
    np.testing.assert_allclose(got, base + jac @ c, rtol=1e-12)


def test_config_jacobian_constant_for_linear_class():
    basis = ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.3)
    array = SensorArray(strings=tuple(
        StringSpec(ConstantPitch(0.05 * np.cos(t), 0.05 * np.sin(t)), s_anchor=a)
        for t, a in zip(np.deg2rad([0, 60, 140, 200, 260, 320]),
                        (0.3, 0.25, 0.2, 0.15, 0.1, 0.05))))
    rng = np.random.default_rng(4)
    j0 = config_jacobian(array, basis, np.zeros(6))
    for _ in range(4):
        c = rng.uniform(-3, 3, 6)
        jc = config_jacobian(array, basis, c)
        np.testing.assert_allclose(jc, j0, atol=1e-12)


def test_config_jacobian_matches_finite_difference_helical():
    basis = spatial_basis()
    array = helical_array()
    rng = np.random.default_rng(8)
    c = rng.uniform(-2.0, 2.0, 8)
    jac = config_jacobian(array, basis, c)
    eps = 1e-7
    fd = np.empty_like(jac)
    for i in range(8):
        dp = c.copy()
        dp[i] += eps
        dm = c.copy()
        dm[i] -= eps
        fd[:, i] = (lengths(array, basis, dp, Reference.ABSOLUTE)
                    - lengths(array, basis, dm, Reference.ABSOLUTE)) / (2 * eps)
    assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-5


# ---------------------------------------------------------------------------
# body Jacobian
# ---------------------------------------------------------------------------

def test_body_jacobian_zero_column_for_unsupported_coefficient():
    # querying at s where a later-only basis column vanishes on [0, s] is not
    # possible for global polynomials, so check the trivial zero-config case:
    # column for the torsion coefficient produces pure angular-z response
    basis = ModalBasis(y=(0,), z=(0,), length=1.0)
    jac = body_jacobian(basis, np.zeros(2), 1.0, n_steps=50)
    np.testing.assert_allclose(jac[:, 1][3:], 0.0, atol=1e-12)
    assert jac[2, 1] == pytest.approx(1.0, rel=1e-10)


def test_body_jacobian_straight_constant_curvature_lever():
    # identity-basis column for u_y at straight config: tip x-velocity = L^2/2
    basis = identity_basis(1.0)
    jac = body_jacobian(basis, np.zeros(3), 1.0, n_steps=100)
    assert jac[1, 1] == pytest.approx(1.0, rel=1e-10)       # tip rotation per kappa
    assert jac[3, 1] == pytest.approx(0.5, rel=1e-8)        # tip x shift per kappa


def _fd_body_jacobian(basis, c, s, eps=1e-6, n_steps=200):
    base = forward_kinematics(basis, c, [s], n_steps=n_steps)[0]
    fd = np.empty((6, basis.m))
    for i in range(basis.m):
        cp, cm = c.copy(), c.copy()
        cp[i] += eps
        cm[i] -= eps
        tp = forward_kinematics(basis, cp, [s], n_steps=n_steps)[0]
        tm = forward_kinematics(basis, cm, [s], n_steps=n_steps)[0]
        d = lg.inv_pose(base) @ (tp - tm) / (2 * eps)   # se(3) matrix: read its twist
        fd[:, i] = [d[2, 1], d[0, 2], d[1, 0], d[0, 3], d[1, 3], d[2, 3]]
    return fd


def test_body_jacobian_matches_finite_difference():
    basis = spatial_basis()
    rng = np.random.default_rng(12)
    for _ in range(3):
        c = rng.uniform(-2.5, 2.5, 8)
        jac = body_jacobian(basis, c, basis.length, n_steps=200)
        fd = _fd_body_jacobian(basis, c, basis.length)
        assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-5


def test_body_jacobian_matches_finite_difference_mid_arc():
    basis = spatial_basis()
    rng = np.random.default_rng(13)
    c = rng.uniform(-2.5, 2.5, 8)
    s_mid = 0.4 * basis.length
    jac = body_jacobian(basis, c, s_mid, n_steps=200)
    fd = _fd_body_jacobian(basis, c, s_mid)
    assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-5


def test_body_jacobian_multi_consistent():
    basis = spatial_basis()
    rng = np.random.default_rng(3)
    c = rng.uniform(-2, 2, 8)
    L = basis.length
    multi = body_jacobian_multi(basis, c, [0.4 * L, L], n_steps=100)
    single = body_jacobian(basis, c, 0.4 * L, n_steps=100)
    np.testing.assert_array_equal(multi[0], single)


def test_body_jacobian_off_grid_matches_finite_difference():
    # an arc length between nodes gets a step of its own, not a snap to a node
    basis = spatial_basis()
    c = np.random.default_rng(14).uniform(-2.5, 2.5, 8)
    s_off = 0.4 * basis.length + 0.3 * basis.length / 200
    jac = body_jacobian(basis, c, s_off, n_steps=200)
    fd = _fd_body_jacobian(basis, c, s_off, n_steps=200)
    assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-5


def test_queries_outside_the_segment_raise():
    basis = spatial_basis()
    L = basis.length
    with pytest.raises(ValueError, match="outside"):
        body_jacobian_multi(basis, np.zeros(8), [L + L / 100], n_steps=100)
    with pytest.raises(ValueError, match="outside"):
        forward_kinematics(basis, np.zeros(8), [0.5 * L, -L / 100])
    with pytest.raises(ValueError, match="outside"):
        forward_kinematics(basis, np.zeros(8), [np.nan])
    with pytest.raises(ValueError, match="outside"):
        body_jacobian(basis, np.zeros(8), np.nan)


def test_off_grid_query_leaves_on_grid_results_unchanged():
    basis = spatial_basis()
    c = np.random.default_rng(15).uniform(-2, 2, 8)
    L = basis.length
    on_grid = [0.4 * L, L, 0.0, 0.61 * L]
    extra = [0.4 * L + 0.003 * L, 0.6123 * L, 0.9999 * L]
    mixed = [on_grid[0], extra[0], on_grid[1], extra[1], on_grid[2], extra[2], on_grid[3]]
    on_idx = [0, 2, 4, 6]
    jac = body_jacobian_multi(basis, c, on_grid)
    np.testing.assert_array_equal(body_jacobian_multi(basis, c, mixed)[on_idx], jac)
    poses = forward_kinematics(basis, c, on_grid)
    np.testing.assert_array_equal(forward_kinematics(basis, c, mixed)[on_idx], poses)


def test_empty_query():
    basis = spatial_basis()
    assert forward_kinematics(basis, np.zeros(8), []).shape == (0, 4, 4)
    assert body_jacobian_multi(basis, np.zeros(8), []).shape == (0, 6, 8)
    stack = np.zeros((3, 8))
    assert forward_kinematics(basis, stack, []).shape == (3, 0, 4, 4)
    assert body_jacobian_multi(basis, stack, []).shape == (3, 0, 6, 8)
    assert forward_kinematics(basis, np.zeros((0, 8)), [0.1]).shape == (0, 1, 4, 4)
    assert body_jacobian_multi(basis, np.zeros((0, 8)), [0.1]).shape == (0, 1, 6, 8)


def _stack_cases():
    truth = ModalBasis(x=(0, 1, 2, 3), y=(0, 1, 2, 3), z=(0, 1, 2), length=studies.SOFT_LENGTH)
    return {
        "stiff": (studies.stiff_basis(), studies.stiff_workspace(6, 3).configs),
        "soft": (studies.soft_basis(), studies.soft_workspace(6, 7).configs),   # torsion column
        "planar": (planar_basis(), studies.planar_workspace(6).configs),
        "truth": (truth, np.random.default_rng(16).uniform(-3.0, 3.0, (6, truth.m))),
    }


@pytest.mark.parametrize("case", ["stiff", "soft", "planar", "truth"])
def test_stacked_poses_and_jacobians_match_row_by_row(case):
    # one Magnus pass for a stack (S, m) gives each row's (m,) result, at
    # grid nodes and at arc lengths between them
    basis, configs = _stack_cases()[case]
    L = basis.length
    s_query = [0.0, 0.4 * L, 0.4037 * L, 0.61 * L, 0.9999 * L, L]
    poses = forward_kinematics(basis, configs, s_query)
    jac = body_jacobian_multi(basis, configs, s_query)
    assert poses.shape == (6, 6, 4, 4) and jac.shape == (6, 6, 6, basis.m)
    for k, c in enumerate(configs):
        np.testing.assert_array_equal(poses[k], forward_kinematics(basis, c, s_query))
        np.testing.assert_array_equal(jac[k], body_jacobian_multi(basis, c, s_query))
    np.testing.assert_array_equal(body_jacobian(basis, configs, 0.4037 * L), jac[:, 2])


def test_malformed_stacks_raise():
    basis = spatial_basis()
    bad_row = np.zeros((2, 8))
    bad_row[1, 3] = np.nan
    for c in (np.zeros((2, 7)), np.zeros((2, 2, 8)), bad_row):
        with pytest.raises(ValueError, match="coefficients"):
            forward_kinematics(basis, c, [0.1])
        with pytest.raises(ValueError, match="coefficients"):
            body_jacobian_multi(basis, c, [0.1])


# ---------------------------------------------------------------------------
# The sensing context: one _SensingContext, the array's StringTable, per (array, basis)
# ---------------------------------------------------------------------------

def _context_cases():
    """(array, basis, c) of every path kind: helical strings and constant-
    pitch tendons on a torsion basis, a linear-class constant-pitch array, a
    Tabulated array built from numpy arrays, and mixed_array's composites."""
    L = 0.293
    rng = np.random.default_rng(11)
    s_k = np.linspace(0.0, L, 6)
    tabs = []
    for k, angle in enumerate(np.linspace(0.3, 5.0, 4)):
        radius = 0.03 + 0.004 * rng.uniform(-1.0, 1.0, 6)
        phase = angle + 0.4 * np.sin(3.0 * s_k / L + k)
        tabs.append(StringSpec(Tabulated(s_k, radius * np.cos(phase), radius * np.sin(phase)),
                               (0.6 + 0.1 * k) * L))
    small = ModalBasis(x=(0, 1), y=(0, 1), z=(0,), length=L)
    return [(helical_array(), spatial_basis(), np.array([1.2, -0.4, 0.3, -0.8, 0.5, 0.2, 0.6, -0.3])),
            (planar_array([0.1, -0.1, 0.25], [0.204, 0.772, 1.0]), planar_basis(),
             np.array([0.8, -0.5, 0.3])),
            (SensorArray(tuple(tabs)), ModalBasis(x=(0, 1), y=(0, 1), length=L),
             np.array([0.9, -0.6, -0.7, 0.4])),
            (mixed_array(), small, np.array([0.7, 0.3, -0.5, 0.4, 0.6]))]


def _context_values(array, basis, c, solve):
    """Everything the context serves: lengths on both references, J_lc,
    linear_model where the array is linear-class, and the solve of the
    lengths at c with its fields, by solve(array, basis, measured)."""
    delta = lengths(array, basis, c)
    out = [delta, lengths(array, basis, c, Reference.ABSOLUTE), config_jacobian(array, basis, c)]
    if array.is_linear_class(basis):
        out += linear_model(array, basis)
    sol = solve(array, basis, delta)
    return out + [sol.c, sol.iterations, sol.residual_norm, sol.aleph_config, sol.status]


def _bitwise_equal(new, ref):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() and np.shape(a) == np.shape(b)
               for a, b in zip(new, ref, strict=True))


def test_string_table_context_matches_fresh_tables():
    # every value read through the cached context equals one from a freshly
    # built _SensingContext bit for bit: lengths, J_lc and linear_model against
    # the table's own measure, solve_shape against a solve that builds its
    # table.  The four arrays, more than the cache holds, interleave, so that
    # their tables are both found and rebuilt.
    cases = _context_cases()

    def fresh_solve(array, basis, measured):
        sensing._string_table.cache_clear()
        return solve_shape(array, basis, measured)

    refs = []
    for array, basis, c in cases:
        table = sensing._SensingContext(array, basis)
        ell, jac = table.measure(c)
        straight = table.measure(np.zeros(basis.m))
        ref = [ell - straight[0], ell, jac]
        if array.is_linear_class(basis):
            ref += straight
        refs.append(ref + _context_values(array, basis, c, fresh_solve)[len(ref):])
        assert _bitwise_equal(_context_values(array, basis, c, fresh_solve), refs[-1])
    assert sensing._string_table.cache_info().maxsize < len(cases)
    sensing._string_table.cache_clear()
    for k in (0, 1, 0, 2, 3, 1, 1, 2, 0, 3, 3):
        assert _bitwise_equal(_context_values(*cases[k], solve_shape), refs[k])
    info = sensing._string_table.cache_info()
    assert info.hits > 0 and info.misses > len(cases)


def test_context_returns_arrays_it_does_not_share():
    # writing into a returned lengths array, J_lc or linear model leaves the
    # next call unchanged, and the table's own arrays are read-only
    for array, basis, c in _context_cases()[:2]:
        for out in (lambda: lengths(array, basis, c),
                    lambda: lengths(array, basis, c, Reference.ABSOLUTE),
                    lambda: config_jacobian(array, basis, c)):
            first = out()
            expected = first.copy()
            first[...] = 1e3
            assert np.array_equal(out(), expected)
        table = sensing._string_table(array, basis)
        frozen = [*table.straight, *table.cusp_grid]
        frozen += [a for a in vars(table).values() if isinstance(a, np.ndarray)]
        assert len(frozen) >= 8 and not any(a.flags.writeable for a in frozen)
    array, basis = _context_cases()[1][:2]
    base, jac = linear_model(array, basis)
    expected = base.copy(), jac.copy()
    base[...], jac[...] = 1e3, 1e3
    assert _bitwise_equal(linear_model(array, basis), expected)


def test_string_table_built_once_across_frames(monkeypatch):
    # a stream of frames on one array and basis builds one table, whatever
    # lengths and solves read it
    space = studies.soft_design_space()
    basis = space.basis
    array = space.array_for((4, 3, 9, 4), 1)
    c = studies.soft_workspace(1, seed=7).configs[0]
    init, built = sensing._SensingContext.__init__, []
    monkeypatch.setattr(sensing._SensingContext, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    sensing._string_table.cache_clear()
    measured = lengths(array, basis, np.outer([0.1, 0.4, 0.7, 1.0], c))
    for meas in measured:
        solve_shape(array, basis, meas)
    assert built == [(array, basis)]


def test_reduce_along_an_axis_matches_moveaxis():
    # folding strings along any axis equals moving them to the front,
    # folding them string by string, and moving the channels back, bit for bit
    array = mixed_array()
    n = len(array.strings)
    rng = np.random.default_rng(4)
    for shape, axis in (((n,), 0), ((n, 3, 5), 0), ((3, n, 5), 1), ((3, 5, n), -1),
                        ((3, n, 5), -2), ((2, 3, n, 4), 2)):
        x = rng.normal(size=shape)
        front = np.moveaxis(x, axis, 0)
        folded = ([front[i] for i in array.direct_indices]
                  + [sum(sgn * front[i] for sgn, i in zip(comp.signs, comp.members))
                     for comp in array.composites])
        ref = np.moveaxis(np.array(folded), 0, axis)
        got = array.reduce(x, axis=axis)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# solve_shape
# ---------------------------------------------------------------------------

def test_linear_round_trip_exact():
    basis = planar_basis()
    array = planar_array([0.1, -0.1, 0.25], [0.204, 0.772, 1.0])
    rng = np.random.default_rng(9)
    for _ in range(5):
        c_true = rng.uniform(-2, 2, 3)
        meas = lengths(array, basis, c_true, Reference.DELTA_FROM_STRAIGHT)
        sol = solve_shape(array, basis, meas)
        assert sol.linear and sol.iterations == 1
        assert np.linalg.norm(sol.c - c_true) <= 1e-8


def test_zero_measurement_gives_straight():
    basis = planar_basis()
    array = planar_array([0.1, -0.1, 0.25], [0.3, 0.7, 1.0])
    sol = solve_shape(array, basis, np.zeros(3))
    np.testing.assert_allclose(sol.c, np.zeros(3), atol=1e-12)


def test_gauss_newton_round_trip_helical():
    basis = spatial_basis()
    array = helical_array()
    rng = np.random.default_rng(21)
    for _ in range(3):
        c_true = rng.uniform(-1.5, 1.5, 8)
        meas = lengths(array, basis, c_true, Reference.DELTA_FROM_STRAIGHT)
        sol = solve_shape(array, basis, meas)
        assert not sol.linear
        assert np.linalg.norm(sol.c - c_true) <= 1e-6


def test_round_off_no_descent_exit_is_converged():
    # Started at the truth the residual is 0, so no step lowers it and the run
    # leaves through the no-descent exit at round-off.
    basis = spatial_basis()
    array = helical_array()
    c_true = np.random.default_rng(21).uniform(-1.5, 1.5, 8)
    meas = lengths(array, basis, c_true, Reference.DELTA_FROM_STRAIGHT)
    sol = solve_shape(array, basis, meas, initial=c_true)
    assert sol.status == "converged"
    assert sol.residual_norm <= STAGNATION_TOL * basis.length


def test_stagnation_is_reported():
    # Case 32 of the spatial-study set-up (soft preset, anchors [4, 3, 9, 4],
    # n_omega 1, richer truth basis, seed 20): Gauss-Newton finds no descent
    # at a residual of about 2e-3 m.
    space = studies.soft_design_space()
    basis = studies.soft_basis()
    truth_basis = ModalBasis(x=(0, 1, 2, 3), y=(0, 1, 2, 3), z=(0, 1, 2), length=basis.length)
    array = space.array_for([4, 3, 9, 4], 1)
    _, meas = synthetic_spatial_truth(truth_basis, array, studies.soft_constraints(), 33, 20)[32]
    sol = solve_shape(array, basis, meas)
    assert sol.status == "stagnated"
    assert sol.residual_norm > 1e-3


def test_three_strings_one_disk_singular():
    basis = ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=0.3)
    angles = np.deg2rad([0, 90, 200, 45, 160, 300])
    anchors = (0.18, 0.18, 0.18, 0.3, 0.3, 0.24)   # three strings on one disk
    array = SensorArray(strings=tuple(
        StringSpec(ConstantPitch(0.05 * np.cos(t), 0.05 * np.sin(t)), a)
        for t, a in zip(angles, anchors)))
    with pytest.raises(SingularDesignError):
        solve_shape(array, basis, np.zeros(6))


def test_full_rank_fails_zero_and_nan_singular_values():
    np.testing.assert_array_equal(full_rank([[2.0, 1.0], [2.0, 1e-13], [0.0, 0.0],
                                             [np.nan, np.nan]]), [True, False, False, False])


def test_all_zero_jacobian_is_singular():
    # strings on the axis (r = 0) do not change length: J_lc is 0, which
    # fails the rank test, so no c = 0 is reported as a solution
    basis = ModalBasis(x=(0,), y=(0,), length=0.3)
    array = SensorArray(strings=(StringSpec(ConstantPitch(0.0, 0.0), 0.3),
                                 StringSpec(ConstantPitch(0.0, 0.0), 0.15)))
    assert not config_jacobian(array, basis, np.zeros(2)).any()
    with pytest.raises(SingularDesignError, match="singular"):
        solve_shape(array, basis, np.array([0.01, -0.02]))


def test_underdetermined_rejected():
    basis = planar_basis()
    array = planar_array([0.1, -0.1], [0.3, 0.7])
    with pytest.raises(ValueError, match="underdetermined"):
        solve_shape(array, basis, np.zeros(2))


def test_forward_kinematics_wrapper():
    basis = planar_basis(L=0.3)
    poses = forward_kinematics(basis, np.zeros(3), [0.0, 0.15, 0.3])
    np.testing.assert_allclose(poses[2][:3, 3], [0, 0, 0.3], atol=1e-14)
    kappa = 4.0
    poses = forward_kinematics(identity_basis(0.3), [0, kappa, 0], [0.3], n_steps=100)
    expect = [(1 - np.cos(kappa * 0.3)) / kappa, 0, np.sin(kappa * 0.3) / kappa]
    np.testing.assert_allclose(poses[0][:3, 3], expect, atol=1e-10)


def test_forward_kinematics_matches_integrate_backbone_on_grid():
    # on nodes of the uniform grid forward_kinematics must reproduce the
    # reference product-of-exponentials integration
    basis = spatial_basis()
    c = np.random.default_rng(4).uniform(-2, 2, 8)
    L = basis.length
    ref = lg.integrate_backbone(lambda s: basis.matrix(s) @ c, L, 100)
    nodes = [100, 0, 37, 60, 61]
    poses = forward_kinematics(basis, c, [k * L / 100 for k in nodes], n_steps=100)
    np.testing.assert_allclose(poses, ref[nodes], rtol=0, atol=1e-12)


def test_batched_noise_amp_helpers_match_noise_amp():
    rng = np.random.default_rng(11)
    mats = rng.normal(size=(6, 5, 3))
    mats[0] = 0.0  # zero matrix
    mats[1, :, 2] = mats[1, :, 0] - 2.0 * mats[1, :, 1]  # rank 2
    expect = np.array([noise_amp(a) for a in mats])
    assert expect[0] == 0.0 and expect[1] < 1e-14
    np.testing.assert_array_equal(aleph_sv(np.linalg.svd(mats, compute_uv=False)), expect)
    lam = np.linalg.eigvalsh(np.swapaxes(mats, -1, -2) @ mats)
    got = aleph_gram(lam)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-14)


def test_modal_direction_shape_families():
    # pi/(2L) steps in each planar coefficient give distinct deflection families:
    # the constant term bends the tip angle, the linear term keeps the tip
    # orientation fixed (its integral vanishes), families are well separated
    basis = planar_basis(L=1.0)
    step = np.pi / 2
    tips = []
    for i in range(3):
        c = np.zeros(3)
        c[i] = step
        pose = forward_kinematics(basis, c, [1.0], n_steps=100)[0]
        tips.append(pose)
    ang0 = np.arctan2(tips[0][0, 2], tips[0][2, 2])
    assert ang0 == pytest.approx(np.pi / 2, abs=1e-9)          # theta = int T0 = kappa L
    ang1 = np.arctan2(tips[1][0, 2], tips[1][2, 2])
    assert abs(ang1) <= 1e-9                                   # int T1 = 0
    pos = np.stack([t[:3, 3] for t in tips])
    ang = np.array([np.arctan2(t[0, 2], t[2, 2]) for t in tips])
    for i in range(3):
        for j in range(i + 1, 3):
            sep = max(np.linalg.norm(pos[i] - pos[j]), abs(ang[i] - ang[j]))
            assert sep > 0.1


def _richardson(integrand, lo, hi, n=20_001):
    """Dense trapezoid rule at n and 2n - 1 points, extrapolated in h^2."""
    def trap(k):
        s = np.linspace(lo, hi, k)
        return np.trapezoid(integrand(s), s, axis=0)
    return (4.0 * trap(2 * n - 1) - trap(n)) / 3.0


def test_panel_rule_against_richardson_reference():
    # Soft preset: helical strings at four anchors and both twist rates, plus
    # the four tendons, which have no exact row on the torsion basis.  Rows
    # within 1e-8 and lengths within 1e-9 of a Richardson-extrapolated dense
    # trapezoid.
    space = studies.soft_design_space()
    basis = space.basis
    strings = [spec for n_omega in (0, 1)
               for spec in space.array_for((3, 6, 9, 10), n_omega).strings[:4]]
    strings += list(space.fixed)
    for c in studies.soft_workspace(3, seed=777).configs:
        for spec in strings:
            lo, hi = spec.span(basis.length)

            def speed(s, path=spec.path):
                return np.linalg.norm(velocity(path, basis, c, s), axis=1)

            def row(s, path=spec.path):
                w = velocity(path, basis, c, s)
                wn = w / np.linalg.norm(w, axis=1, keepdims=True)
                return np.einsum("ni,nij->nj", np.cross(path.radial(s), wn), basis.matrix(s))

            ref_row = _richardson(row, lo, hi)
            got_row = config_jacobian(SensorArray(strings=(spec,)), basis, c)[0]
            assert np.abs(got_row - ref_row).max() <= 1e-8 * np.abs(ref_row).max()
            assert string_length(spec, basis, c) == pytest.approx(_richardson(speed, lo, hi),
                                                                  rel=1e-9)


def test_array_validation():
    spec = StringSpec(ConstantPitch(0.1, 0.0), 0.5)
    with pytest.raises(ValueError):
        SensorArray(strings=(spec,), composites=(Composite((0, 0), (1, 1)),))
    with pytest.raises(ValueError):
        Composite((0, 1), (1, 2))
    with pytest.raises(ValueError):
        SensorArray(strings=(spec, spec), composites=(Composite((0, 1), (1, 1)),
                                                      Composite((1,), (1,))))
