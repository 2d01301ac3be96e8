"""Flavor layer: Gell-Mann bases, isounits, expectations, intervals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclifford import flavor
from isoclifford.dirac import build_dirac_rep
from isoclifford.flavor import (
    FlavorIsoUnit,
    MassDomainError,
    MassFormatError,
    MassInputError,
    QuarkMassBounds,
    common_iso_mass,
    dressed_masses,
    equal_mass_params,
    param_intervals,
    param_value,
)
from isoclifford.flavor_matrices import (
    IsoState,
    decompose_mass,
    decomposition_basis,
    gell_mann,
    iso_expectation,
    iso_lift_operator,
    iso_mass_operator,
    iso_states,
    iso_tensor,
    isounit_inverse,
    isounit_matrix,
    mass_operator,
    structure_constants_f,
    su6_quoted_coefficients,
)

CENTRAL3 = (2.25, 5.0, 90.0)


@pytest.fixture(scope="module")
def bounds():
    return QuarkMassBounds.reference()


# -- bases -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 6])
def test_gell_mann_count(n):
    assert len(gell_mann(n)) == n * n - 1


def test_su3_matrices_match_standard():
    lams = gell_mann(3)
    assert np.array_equal(lams[2], np.diag([1, -1, 0]).astype(complex))
    want8 = np.diag([1, 1, -2]).astype(complex) / math.sqrt(3)
    assert np.abs(lams[7] - want8).max() < 1e-15


@pytest.mark.parametrize("group", ["su3", "su6"])
def test_diagonal_generator_index(group):
    lams = gell_mann(flavor.GROUP_DIM[group])
    diagonal = tuple(i + 1 for i, lam in enumerate(lams)
                     if np.array_equal(lam, np.diag(np.diag(lam))))
    assert flavor.DIAGONAL_GENERATOR_INDEX[group] == diagonal


def test_structure_constants_list():
    f = structure_constants_f(3)
    expected = {
        (1, 2, 3): 1.0, (1, 4, 7): 0.5, (1, 5, 6): -0.5, (2, 4, 6): 0.5,
        (2, 5, 7): 0.5, (3, 4, 5): 0.5, (3, 6, 7): -0.5,
        (4, 5, 8): math.sqrt(3) / 2, (6, 7, 8): math.sqrt(3) / 2,
    }
    for (a, b, c), val in expected.items():
        assert abs(f[a - 1, b - 1, c - 1] - val) < 1e-12


# -- isounits --------------------------------------------------------------------


def test_isounit_determinant_automatic():
    z3 = FlavorIsoUnit.from_params("su3", (0.3, 0.8))
    assert z3.det_residual() < 1e-12
    z6 = FlavorIsoUnit.from_params("su6", (0.3, 0.8, 1.2, 2.0, 5.0))
    assert z6.det_residual() < 1e-12
    # the last entry is the product taken left to right
    assert z6.diagonal[5] == 0.3 * 0.8 * 1.2 * 2.0 * 5.0


def test_isounit_validation():
    with pytest.raises(ValueError):
        FlavorIsoUnit.from_params("su3", (-1.0, 2.0))
    with pytest.raises(ValueError):
        FlavorIsoUnit.from_params("su4", (1.0, 2.0))
    with pytest.raises(ValueError):
        FlavorIsoUnit("su3", (1.0,) * 4)
    with pytest.raises(ValueError):
        FlavorIsoUnit("su3", (1.0,) * 3, delta=0.0)
    # non-finite input (an infinite delta would make every lift all zero)
    for make in (
        lambda: FlavorIsoUnit("su3", (2.0, 0.5, 1.0), delta=math.inf),
        lambda: FlavorIsoUnit("su3", (2.0, 0.5, 1.0), delta=math.nan),
        lambda: FlavorIsoUnit("su3", (2.0, math.nan, 1.0)),
        lambda: FlavorIsoUnit("su3", (2.0, math.inf, 1.0)),
        lambda: FlavorIsoUnit.from_params("su3", (math.nan, 1.0)),
        lambda: FlavorIsoUnit.from_params("su3", (math.inf, 1.0)),
        # finite parameters whose product overflows the last entry
        lambda: FlavorIsoUnit.from_params("su3", (1e200, 1e200)),
        # an isounit is positive definite: no zero, negative or complex entry
        lambda: FlavorIsoUnit("su3", (2.0, -1.0, -0.5)),
        lambda: FlavorIsoUnit("su3", (2.0, 0.0, 1.0)),
        lambda: FlavorIsoUnit("su3", (2.0, 1j, -0.5j)),
        lambda: FlavorIsoUnit("su3", np.array([2.0, 0.5, 1.0], dtype=complex)),
        lambda: FlavorIsoUnit.from_params("su3", (1e-200, 1e-200)),
        # the parameters are checked as the diagonal is, before any float()
        lambda: FlavorIsoUnit.from_params("su3", (True, 2.0)),
        lambda: FlavorIsoUnit.from_params("su3", ("0.5", "2")),
        # delta is validated as the diagonal is, and a bool is not a number here
        lambda: FlavorIsoUnit("su3", (1.0, 1.0, 1.0), delta=1j),
        lambda: FlavorIsoUnit("su3", (1.0, 1.0, 1.0), delta="2"),
        lambda: FlavorIsoUnit("su3", (1.0, 1.0, 1.0), delta=True),
        lambda: FlavorIsoUnit("su3", (True, True, True)),
        lambda: FlavorIsoUnit("su3", (1.0, 1.0, 1.0), delta=10 ** 400),
    ):
        with pytest.raises(ValueError):
            make()


_SPAN = st.floats(1e-150, 1e150)


@st.composite
def _diagonal_and_masses(draw):
    group = draw(st.sampled_from(["su3", "su6"]))
    n = flavor.GROUP_DIM[group]
    return (group, tuple(draw(st.lists(_SPAN, min_size=n, max_size=n))),
            tuple(draw(st.lists(_SPAN, min_size=n, max_size=n))))


@given(_diagonal_and_masses())
@settings(max_examples=200, deadline=None)
def test_scalar_isounit_arithmetic_is_numpy_bit_for_bit(case):
    group, diag, masses = case
    zeta = FlavorIsoUnit(group, diag)
    with np.errstate(over="ignore", invalid="ignore"):  # a determinant past the float range
        det = np.linalg.det(np.diag(np.array(diag, dtype=complex)))
    assert zeta.det_residual() == abs(det - 1.0)
    product = isounit_matrix(zeta) @ mass_operator(masses, zeta.group)
    assert dressed_masses(zeta, masses) == tuple(np.diag(product).real)


def test_iso_lift_matches_row_scaling():
    zeta = FlavorIsoUnit("su3", (2.0, 3.0, 1.0 / 6.0))
    lam1 = gell_mann(3)[0]
    lifted = iso_lift_operator(zeta, lam1)
    want = np.array([[0, 2, 0], [3, 0, 0], [0, 0, 0]], dtype=complex)
    assert np.abs(lifted - want).max() < 1e-12
    ident = FlavorIsoUnit.identity("su3")
    assert np.abs(iso_lift_operator(ident, lam1) - lam1).max() == 0.0


# -- mass operators -----------------------------------------------------------------


def test_mass_operator_and_decomposition_su3():
    m = mass_operator(CENTRAL3, "su3")
    assert np.array_equal(np.diag(m), np.array(CENTRAL3, dtype=complex))
    co = decompose_mass(CENTRAL3, "su3")
    # frozen closed-form values for these masses
    assert abs(co[0] - 97.25 / 3.0) < 1e-9
    assert abs(co[1] - (-1.375)) < 1e-9
    assert abs(co[2] - (math.sqrt(3) / 6.0) * (2.25 + 5.0 - 180.0)) < 1e-9


def test_equal_masses_decompose_to_identity_only():
    co = decompose_mass((5.0, 5.0, 5.0), "su3")
    assert abs(co[0] - 5.0) < 1e-12
    assert np.abs(co[1:]).max() < 1e-12


def test_su6_quoted_coefficients_do_not_rebuild(bounds):
    m6 = bounds.centrals("su6")
    quoted = su6_quoted_coefficients(m6)
    wrong = sum(c * b for c, b in zip(quoted, decomposition_basis("su6")))
    assert np.abs(wrong - mass_operator(m6, "su6")).max() > 1.0


def test_iso_mass_operator_scaling():
    zeta = FlavorIsoUnit.from_params("su3", (0.5, 1.0))
    got = iso_mass_operator(zeta, CENTRAL3)
    assert abs(got[0, 0] - 2 * CENTRAL3[0]) < 1e-12
    ident = FlavorIsoUnit.identity("su3")
    assert np.abs(iso_mass_operator(ident, CENTRAL3)
                  - mass_operator(CENTRAL3, "su3")).max() == 0.0
    with pytest.raises(MassInputError):
        iso_mass_operator(zeta, (1.0, -2.0, 3.0))


# -- exact symmetry -------------------------------------------------------------------


def test_equal_mass_params_su3_frozen_values():
    zeta = equal_mass_params(CENTRAL3, "su3")
    alpha, beta = zeta.params
    assert abs(alpha - (2.25 ** 2 / (90.0 * 5.0)) ** (1 / 3)) < 1e-12
    assert abs(beta - (5.0 ** 2 / (90.0 * 2.25)) ** (1 / 3)) < 1e-12
    assert abs(beta - 0.49793) < 1e-4
    assert abs(common_iso_mass(CENTRAL3, "su3") - 1012.5 ** (1 / 3)) < 1e-9


def test_equal_mass_params_trivial_fixed_point():
    zeta = equal_mass_params((7.0, 7.0, 7.0), "su3")
    assert np.abs(np.array(zeta.params) - 1.0).max() < 1e-12


@given(st.lists(st.floats(0.5, 500.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_equal_mass_fixed_point_property(masses):
    zeta = equal_mass_params(masses, "su3")
    gm = common_iso_mass(masses, "su3")
    diag = np.diag(iso_mass_operator(zeta, masses))
    assert np.abs(diag - gm).max() / gm < 1e-10


@pytest.mark.parametrize("which", [-1, -2, 2, 5, True, 0.0, "0"])
def test_param_value_takes_only_a_parameter_index(which):
    """A negative index once picked its own mass from the end but the
    others from a slice that repeats masses; an index past the names
    raised ``IndexError``, or returned a value no parameter has."""
    with pytest.raises(ValueError, match="su3 has no parameter"):
        param_value("su3", which, (1.0, 2.0, 3.0))


@pytest.mark.parametrize("call", [
    lambda: param_value("su4", 0, CENTRAL3),
    lambda: equal_mass_params(CENTRAL3, "su4"),
    lambda: common_iso_mass(CENTRAL3, "su4"),
    lambda: param_intervals(QuarkMassBounds.reference(), "su4"),
    lambda: QuarkMassBounds.reference().centrals("su4"),
    lambda: FlavorIsoUnit.identity("su4"),
    lambda: mass_operator(CENTRAL3, "su4"),
    lambda: decompose_mass(CENTRAL3, "su4"),
    lambda: decomposition_basis("su4"),
], ids=["param_value", "equal_mass_params", "common_iso_mass", "param_intervals", "centrals",
        "identity", "mass_operator", "decompose_mass", "decomposition_basis"])
def test_an_unknown_group_raises_value_error(call):
    with pytest.raises(ValueError, match="^unknown group 'su4'$"):
        call()


# -- states and expectations ----------------------------------------------------------


def test_iso_states_and_normalization():
    zeta = equal_mass_params(CENTRAL3, "su3")
    states = iso_states(zeta)
    assert len(states) == 3
    for i, s in enumerate(states):
        for j, other in enumerate(states):
            overlap = other.vector.conj() @ isounit_inverse(zeta) @ s.vector
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-12
    alpha = zeta.params[0]
    assert abs(states[0].vector[0] - alpha ** -0.5) < 1e-12
    ident = FlavorIsoUnit.identity("su3")
    for i, s in enumerate(iso_states(ident)):
        want = np.zeros(3)
        want[i] = 1.0
        assert np.abs(s.vector - want).max() < 1e-12


def test_su6_mass_expectations(bounds):
    m6 = bounds.centrals("su6")
    zeta = equal_mass_params(m6, "su6")
    mz = iso_mass_operator(zeta, m6)
    for s, m in zip(iso_states(zeta), m6):
        assert abs(iso_expectation(s, mz) - m) / m < 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        IsoState(np.ones(4), FlavorIsoUnit.identity("su3"))


# -- intervals ---------------------------------------------------------------------------


def test_param_intervals_su3(bounds):
    iv = param_intervals(bounds, "su3")
    lo, hi = iv["alpha"]["rigorous"]
    assert abs(lo - (1.5 ** 2 / (7.0 * 110.0)) ** (1 / 3)) < 1e-12
    assert abs(hi - (3.0 ** 2 / (3.0 * 70.0)) ** (1 / 3)) < 1e-12
    assert iv["alpha"]["reference"] == [0.2204, 0.2638]
    ref_lo, ref_hi = iv["alpha"]["reference"]
    assert lo <= ref_lo and ref_hi <= hi
    assert iv["beta"]["reference"] == [0.2768, 0.3057]
    # the quoted lower end of the second parameter sits below the corner bound
    assert iv["beta"]["rigorous"][0] > iv["beta"]["reference"][0]


def test_param_intervals_su6(bounds):
    iv = param_intervals(bounds, "su6")
    assert set(iv) == {"alpha", "beta", "omega", "kappa", "tau"}
    # four of five reference intervals follow the joint-endpoint convention
    assert iv["beta"]["matches_joint"]
    assert iv["omega"]["matches_joint"]
    assert iv["kappa"]["matches_joint"]
    assert not iv["tau"]["matches_joint"]
    assert iv["tau"]["reference"] == [486.938, 677.379]
    lo, hi = iv["tau"]["rigorous"]
    assert hi < 486.938  # quoted interval is entirely outside the rigorous one


def test_degenerate_bounds_collapse():
    point = {fl: {"min": c, "max": c}
             for fl, c in zip(flavor.FLAVORS, (2.0, 4.0, 80.0, 1200.0, 4200.0, 171000.0))}
    b = QuarkMassBounds.from_mapping(point)
    iv = param_intervals(b, "su6")
    for which, name in enumerate(flavor.PARAM_NAMES["su6"]):
        val = param_value("su6", which, b.centrals("su6"))
        assert abs(iv[name]["rigorous"][0] - val) < 1e-12
        assert abs(iv[name]["rigorous"][1] - val) < 1e-12
        assert abs(iv[name]["joint_endpoint"][0] - val) < 1e-12


# -- composite states ---------------------------------------------------------------------


def test_iso_tensor_dressing():
    d = build_dirac_rep()
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    from isoclifford.multivector import Signature, reversion
    sig = Signature(1, 3)
    z = d.rep(sig.scalar(1.0) + 0.4 * sig.e(0, 1))
    # undoing both dressings recovers the undressed product a (x) (b g0):
    # reversion is an antiautomorphism, so the right dressing factors as
    # g0 times the conjugated reversion image of the inverse isounit
    zinv = np.linalg.inv(z)
    got = iso_tensor(z, a, b)
    rev_zinv = d.rep(reversion(d.rep_inverse(zinv))).conj()
    undone = np.kron(z, np.eye(4)) @ got @ np.kron(np.eye(4), np.linalg.inv(rev_zinv))
    assert np.abs(undone - np.kron(a, b @ d.gamma[0])).max() < 1e-10


# -- input handling -------------------------------------------------------------------


def test_mass_input_errors_are_typed():
    def entries(**override):
        table = {fl: {"min": 1.0, "max": 2.0} for fl in flavor.FLAVORS}
        table.update(override)
        return table

    format_errors = [
        lambda: QuarkMassBounds.from_json("not json"),
        lambda: QuarkMassBounds.from_json("[1, 2]"),
        lambda: QuarkMassBounds.from_mapping({"u": {"min": 1, "max": 2}}),
        lambda: QuarkMassBounds.from_mapping(entries(u={"max": 2.0})),
        lambda: QuarkMassBounds.from_mapping(entries(u={"min": True, "max": 2.0})),
        lambda: QuarkMassBounds.from_mapping(entries(d={"min": 1.0, "max": 2.0,
                                                       "central": True})),
        lambda: QuarkMassBounds.from_mapping(entries(s={"min": "1", "max": 2.0})),
        lambda: QuarkMassBounds.from_mapping(entries(b=None)),
    ]
    domain_errors = [
        lambda: QuarkMassBounds.from_mapping(entries(c={"min": 3.0, "max": 1.0})),
        lambda: QuarkMassBounds.from_mapping(
            {fl: {"min": 3.0, "max": 1.0} for fl in flavor.FLAVORS}),
        lambda: QuarkMassBounds.from_mapping(entries(t={"min": 1.0, "max": math.inf})),
        lambda: QuarkMassBounds.from_mapping(entries(t={"min": -math.inf, "max": 1.0})),
        lambda: QuarkMassBounds.from_mapping(entries(u={"min": 1.0, "max": 2.0,
                                                       "central": math.nan})),
        lambda: QuarkMassBounds.from_mapping(entries(u={"min": 1, "max": 10 ** 400})),
        lambda: QuarkMassBounds.from_json(
            '{"u": {"min": 1, "max": Infinity}, "d": {"min": 1, "max": 2}, '
            '"s": {"min": 1, "max": 2}, "c": {"min": 1, "max": 2}, '
            '"b": {"min": 1, "max": 2}, "t": {"min": 1, "max": 2}}'),
        lambda: equal_mass_params((1.0, 0.0, 2.0), "su3"),
        # non-finite masses reach the library directly, not only through from_mapping
        lambda: common_iso_mass((math.nan, 1.0, 1.0), "su3"),
        lambda: decompose_mass((math.nan, 1.0, 1.0), "su3"),
        lambda: mass_operator((math.inf, 1.0, 1.0), "su3"),
        # finite positive masses whose parameters under- or overflow
        lambda: equal_mass_params((1e-300, 1.0, 1.0), "su3"),
        lambda: equal_mass_params((1e300, 1.0, 1.0, 1.0, 1.0, 1.0), "su6"),
        lambda: param_intervals(QuarkMassBounds.from_mapping(
            entries(u={"min": 1e-200, "max": 1e-100})), "su3"),
    ]
    for make in format_errors:
        with pytest.raises(MassFormatError):
            make()
    for make in domain_errors:
        with pytest.raises(MassDomainError):
            make()
    assert issubclass(MassFormatError, MassInputError)
    assert issubclass(MassDomainError, MassInputError)
    # integer and numpy values are numbers; the central value defaults to the midpoint
    b = QuarkMassBounds.from_mapping(entries(u={"min": 1, "max": np.float32(3.0)}))
    assert b.central["u"] == 2.0
    assert QuarkMassBounds.reference().centrals("su3") == CENTRAL3
