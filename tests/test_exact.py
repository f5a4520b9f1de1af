import cmath
import copy
import importlib
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_factors, diff_z, diff_zbar, random_params, zbar_pow
from toda.exact import (
    BranchCutError,
    ExactScalar,
    Monomial,
    OriginError,
    Record,
    ZExpr,
    _float_sum,
    _power_table,
    format_scalar,
    sqrt_fraction,
    NotASquareError,
)


def z(e=1):
    return ZExpr.z_pow(F(e))


def zb(e=1):
    return zbar_pow(F(e))


# -- scalars ------------------------------------------------------------


def test_scalar_field_ops():
    a = ExactScalar.of(F(1, 2), F(3, 4))
    b = ExactScalar.of(F(-2), F(1, 3))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


def test_scalar_division_exact():
    a = ExactScalar.of(1, 1)
    assert a / a == ExactScalar.of(1)
    with pytest.raises(ZeroDivisionError):
        a / ExactScalar.of(0)


def test_scalar_format():
    assert format_scalar(ExactScalar.of(F(1, 2), F(3, 4))) == "1/2+3i/4"
    assert format_scalar(ExactScalar.of(0, -1)) == "-i"
    assert format_scalar(ExactScalar.of(2)) == "2"
    assert format_scalar(ExactScalar.of(0)) == "0"


def test_sqrt_fraction():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    with pytest.raises(NotASquareError):
        sqrt_fraction(F(2))
    with pytest.raises(NotASquareError):
        sqrt_fraction(F(-1))


# -- expressions ---------------------------------------------------------


def test_add_cancellation():
    assert (z() + (-z())).is_zero


def test_add_mixed_terms():
    e = ZExpr.one() + z() * zb()
    assert len(e.terms) == 2


def test_add_like_terms_merge():
    half = ZExpr.monomial(F(1, 2), F(1, 2))
    assert half + half == ZExpr.z_pow(F(1, 2))


def test_mul_fractional_exponents():
    assert ZExpr.z_pow(F(1, 2)) * ZExpr.z_pow(F(1, 2)) == z()


def test_mul_distributes():
    one = ZExpr.one()
    assert (one + z()) * (one - z()) == one - z(2)


def test_mul_conjugate_pair():
    mu = F(3, 5)
    prod = ZExpr.z_pow(mu) * zbar_pow(mu)
    t = prod.single_monomial()
    assert t.exp_z == mu and t.exp_zbar == mu


def test_conjugate_examples():
    e = ZExpr.monomial(ExactScalar.of(0, 1), 2)
    assert e.conjugate() == ZExpr.monomial(ExactScalar.of(0, -1), 0, 2)
    real = ZExpr.one() + z() * zb()
    assert real.conjugate() == real


def test_diff_examples():
    assert diff_z(ZExpr.z_pow(F(3, 2))) == ZExpr.monomial(F(3, 2), F(1, 2))
    assert diff_zbar(z(2)).is_zero
    assert diff_z(diff_zbar(z() * zb())) == ZExpr.one()


def test_eval_basic():
    assert ZExpr.z_pow(F(1, 2)).evaluate(1) == pytest.approx(1)
    e = ZExpr.one() + z() * zb()
    assert e.evaluate(2j) == pytest.approx(5)


def test_eval_branch_cut():
    with pytest.raises(BranchCutError):
        ZExpr.z_pow(F(1, 2)).evaluate(-1)
    # Integer exponents are fine on the cut.
    assert z(2).evaluate(-1) == pytest.approx(1)


def test_eval_origin():
    with pytest.raises(OriginError):
        ZExpr.z_pow(F(-1)).evaluate(0)
    assert (ZExpr.one() + z()).evaluate(0) == pytest.approx(1)


def test_eval_conj_branch():
    p = 0.7 + 1.3j
    e = zbar_pow(F(1, 3))
    assert e.evaluate(p) == pytest.approx(p.conjugate() ** (1 / 3))


# -- first-order factors (the test oracle of the Cauchy-Euler operator) ----------


def test_apply_indicial():
    # (d + 2/z)(d - 2/z) = d^2 - 2/z^2 annihilates z^2: the exponent solves b(b-1) = 2.
    assert apply_factors((F(-2), F(2)), z(2)).is_zero
    assert apply_factors((F(-2), F(2)), z(3)) == ZExpr.monomial(4, 1)


def test_apply_constant_and_power_rule():
    assert apply_factors((F(0),), ZExpr.const(5)).is_zero
    b = F(7, 2)
    expect = ZExpr.monomial(b * (b - 1) * (b - 2), b - 3)
    assert apply_factors((F(0),) * 3, ZExpr.z_pow(b)) == expect
    assert diff_z(diff_z(diff_z(ZExpr.z_pow(b)))) == expect


# -- property tests --------------------------------------------------------

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.builds(ExactScalar, fractions, fractions)
exponents = st.fractions(min_value=-3, max_value=3, max_denominator=4)
monomials = st.builds(Monomial, scalars, exponents, exponents)
exprs = st.lists(monomials, max_size=4).map(ZExpr.from_terms)


@given(exprs, exprs, exprs)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(a):
    assert diff_zbar(diff_z(a)) == diff_z(diff_zbar(a))


@given(exprs, exprs)
@settings(max_examples=40, deadline=None)
def test_eval_is_ring_homomorphism(a, b):
    pt = 0.8 + 0.6j
    lhs = (a * b).evaluate(pt)
    rhs = a.evaluate(pt) * b.evaluate(pt)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
    lhs2 = (a + b).evaluate(pt)
    rhs2 = a.evaluate(pt) + b.evaluate(pt)
    assert cmath.isclose(lhs2, rhs2, rel_tol=1e-12, abs_tol=1e-12)


# -- the float routine ----------------------------------------------------

_plan_exponent = st.one_of(
    st.integers(-4, 4).map(F), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)
_plan_coefficient = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
_plan_point = st.one_of(
    st.sampled_from([0j, complex(-1.5, 0.0), complex(-0.5, -0.0), complex(2.0, 0.0), -1j]),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    # Magnitudes 1e-300 to 1e300: a power out of float range reads as NaN,
    # never raises.
    st.builds(cmath.rect, st.floats(-300, 300).map(lambda e: 10.0**e), st.floats(-cmath.pi, cmath.pi)),
)


@st.composite
def _float_plans(draw):
    """Exponents and two term lists (c, index of a, index of b) over them."""
    exponents = draw(st.lists(_plan_exponent, min_size=1, max_size=6, unique=True))
    term = st.tuples(
        _plan_coefficient, st.integers(0, len(exponents) - 1), st.integers(0, len(exponents) - 1)
    )
    return exponents, draw(st.lists(term, max_size=10)), draw(st.lists(term, max_size=10))


def _outcome(fn, *args):
    # repr keeps the sign of a zero part, so equal outcomes are bit-identical.
    try:
        return repr(fn(*args))
    except (OriginError, BranchCutError) as err:
        return type(err).__name__, str(err)


@settings(max_examples=300, deadline=None)
@given(_float_plans(), _plan_point)
def test_float_routine_matches_the_term_by_term_oracle(plan, z):
    # Two sums read one power table, as the PDE plans do; each value read
    # through the table's conjugates equals the term-by-term sum of
    # c * z**a * conj(z**b) by repr.  The origin and branch-cut rules hold
    # for the whole table, whichever exponents a sum reads: at 0 only the
    # constant terms count and any negative exponent of the table raises,
    # and on the cut any fractional one raises.  Each power in range is
    # z**n or exp(a log z) bit for bit; one out of range (0 to a negative
    # power, an overflow) is NaN + NaN i.
    exponents, *term_lists = plan

    def power(a):
        if z == 0:
            return 0j if a else 1 + 0j
        try:
            return z ** a.numerator if a.denominator == 1 else cmath.exp(float(a) * cmath.log(z))
        except (ZeroDivisionError, OverflowError):
            return complex(cmath.nan, cmath.nan)

    def oracle(terms):
        if z == 0:
            if any(e < 0 for e in exponents):
                raise OriginError("negative exponent at the origin")
            total = 0j
            for c, a, b in terms:
                if exponents[a] == 0 and exponents[b] == 0:
                    total += c
            return total
        if z.imag == 0 and z.real < 0 and any(e.denominator != 1 for e in exponents):
            raise BranchCutError(f"{z} lies on the branch cut")
        total = 0j
        for c, a, b in terms:
            total += c * power(exponents[a]) * power(exponents[b]).conjugate()
        return total

    def routine(terms):
        return _float_sum(terms, _power_table(z, exponents))

    try:
        powers, conj = _power_table(z, exponents)
    except (OriginError, BranchCutError):
        pass  # the oracle raises it too, checked below
    else:
        assert [repr(p) for p in powers] == [repr(power(a)) for a in exponents]
        assert [repr(p) for p in conj] == [repr(p.conjugate()) for p in powers]
    for terms in term_lists:
        assert _outcome(routine, terms) == _outcome(oracle, terms)


# -- Record, the base of the package's value classes -----------------------

_SLOTTED = {"ExactScalar", "Monomial", "Algebra", "Root", "CoordinateSlot"}


def _record_classes() -> list[type]:
    """Every Record subclass defined in the package."""
    for name in ("lie", "config", "basis", "groups", "solutions"):
        importlib.import_module(f"toda.{name}")
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("toda."):
                found.append(sub)
                todo.append(sub)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


@pytest.fixture(scope="module")
def record_samples() -> dict[type, Record]:
    """One instance of each Record class, built through the public API."""
    from toda.config import make_config
    from toda.groups import check_minor_identity
    from toda.lie import MonodromyElement, cartan, coordinate_map, positive_roots
    from toda.solutions import (
        a_case_form,
        annulus_points,
        assemble,
        characteristic_data,
        reduced_unknowns,
        verify,
        verify_integrability,
        verify_monodromy,
        verify_pde,
        verify_symmetry,
    )

    c2 = make_config("C", 2, [0, 0])
    a2 = make_config("A", 2, [0, 0])
    params = random_params(c2, random.Random(0))
    bundle = assemble(c2, params)
    integrability = verify_integrability(bundle)
    verdict = verify(bundle, count=2, tol=1e-9, seed=0)
    samples = [
        ExactScalar.of(1, F(-2, 3)),
        Monomial(ExactScalar.of(2), F(1, 2), F(-1)),
        c2.algebra,
        cartan(c2.algebra),
        positive_roots(c2.algebra)[-1],
        coordinate_map(c2.algebra)[0],
        MonodromyElement(make_config("C", 2, [F(1, 2), 0]).shifts),
        c2,
        bundle.wronskian.nu,
        bundle.wronskian,
        bundle.H,
        check_minor_identity(bundle.H),
        params,
        bundle.forms[0],
        reduced_unknowns(c2)[0],
        bundle,
        verify_symmetry(bundle),
        verify_monodromy(bundle),
        characteristic_data(c2),
        verify_pde(bundle, annulus_points(2, 7), tol=1e-9),
        integrability.rows[0],
        integrability,
        a_case_form(assemble(a2, random_params(a2, random.Random(0)))),
        verdict.rows[0],
        verdict,
    ]
    return {type(x): x for x in samples}


def _bare_copy(x: Record, changes: dict) -> Record:
    # A copy with fields replaced and no __post_init__, to compare field by field.
    y = object.__new__(type(x))
    for name in x._fields:
        object.__setattr__(y, name, changes.get(name, getattr(x, name)))
    return y


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__name__)
def test_record_contract(record_samples, cls):
    x = record_samples[cls]
    fields = cls._fields
    values = tuple(getattr(x, name) for name in fields)
    assert fields and fields == tuple(cls.__annotations__)
    # Construction by position and by keyword gives an equal instance.
    assert cls(*values) == x
    assert cls(**dict(zip(fields, values))) == x
    # Equality reads the class and every field; another type is NotImplemented.
    assert x == _bare_copy(x, {}) and not x != _bare_copy(x, {})
    for name in fields:
        assert x != _bare_copy(x, {name: object()})
    assert x.__eq__(values) is NotImplemented and x != values
    # The hash is the hash of the field tuple, or unhashable with it.
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected == hash(cls(*values))
    # Frozen: no assignment, no deletion, no new attribute.
    with pytest.raises(AttributeError):
        setattr(x, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, fields[0])
    with pytest.raises(AttributeError):
        x.no_such_field = 1
    # The slotted classes have no instance dict; the others keep one for cached_property.
    assert hasattr(x, "__dict__") == (cls.__name__ not in _SLOTTED)
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_record_repr_is_name_and_fields():
    from toda.config import make_config
    from toda.solutions import PdeReport

    report = PdeReport(True, 1e-12, (2, 0.5 + 1j), 20, False)
    assert repr(report) == (
        "PdeReport(passed=True, max_residual=1e-12, worst=(2, (0.5+1j)), "
        "points_checked=20, reduced_checked=False)"
    )
    # The derived weights of a config are plain attributes, not fields.
    cfg = make_config("C", 2, [0, F(1, 2)])
    assert repr(cfg) == (
        "TodaConfig(algebra=Algebra(family='C', rank=2), gamma=(Fraction(0, 1), Fraction(1, 2)))"
    )
    assert type(cfg)._fields == ("algebra", "gamma") and len(cfg.shifts) == 4 and sum(cfg.shifts) == 0


class _Point(Record):
    x: int
    y: int = 0

    def __post_init__(self):
        if self.x < 0:
            object.__setattr__(self, "x", -self.x)


def test_record_defaults_keywords_and_argument_errors():
    assert _Point(1) == _Point(1, 0) == _Point(x=1) == _Point(y=0, x=-1) == _Point(-1, y=0)
    assert _Point(1, 2) != _Point(1) and _Point(1) != (1, 0)
    assert repr(_Point(2, 3)) == "_Point(x=2, y=3)"
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"z": 2}), ((1,), {"x": 1})]:
        with pytest.raises(TypeError):
            _Point(*args, **kwargs)
    # The slotted scalars write their own constructors, with the same defaults.
    assert ExactScalar() == ExactScalar(F(0), F(0)) == ExactScalar(im=F(0))
    c = ExactScalar.of(3)
    assert Monomial(c) == Monomial(c, F(0), F(0)) == Monomial(coeff=c, exp_zbar=F(0))
