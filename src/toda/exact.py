"""Exact arithmetic for finite sums of monomials in z and conj(z).

An expression is a finite sum of terms ``c * z**a * zb**b`` where the
coefficient ``c`` is a complex number with rational real and imaginary parts
and the exponents ``a``, ``b`` are rationals (``zb`` stands for the complex
conjugate of ``z``).  All ring operations and conjugation are exact;
equality is structural.  The only floating-point path is two private
functions: ``_power_table`` gives one point's principal-branch powers
``z**a`` over an exponent table, with their conjugates, and applies the
origin and branch-cut rules once for the whole table; ``_float_sum`` sums
terms ``(complex c, index of a, index of b)`` as ``c * z**a * conj(z**b)``
read from it.  :meth:`ZExpr.evaluate` runs them on a single expression; the
PDE check runs them on the integer forms of F_m and its derivatives, with
one power table per point.

Terms are keyed by the exponent pair ``(a, b)``.  Normalization merges like
terms, drops zero coefficients and sorts terms by exponent pair, so two
expressions are equal iff their term tuples are equal.

Also here: the integer form (d, re, im) of a matrix A of ExactScalars,
d*A = re + i*im with re and im int matrices (scale_to_gaussian, the stored
form of a group element), and its packing into one int per entry for the
minor tables of group elements (pack, unpack).

Also here: Record, the base of the package's immutable value classes (the
scalars and monomials here, Cartan data, roots, group elements, configs,
solution bundles and check reports).  A subclass's fields are its own
annotated names, in order.  Its constructor takes them by position or
keyword, with the class-level defaults, then calls __post_init__, which may
normalize a field through object.__setattr__.  Instances refuse assignment
and deletion (FrozenInstanceError, an AttributeError).  Two instances are
equal iff they are of the same class with equal fields; another type
compares as NotImplemented.  The hash is hash() of the field tuple, and repr
is Name(field=value, ...) unless the class defines its own; copy and pickle
rebuild an instance through the constructor.  Record has empty __slots__: a
subclass that declares __slots__ has no instance __dict__ (and so no
class-level defaults: it writes its own __init__), and one that does not
keeps the __dict__ that functools.cached_property writes to.  A subclass
costs one attrgetter at class creation; no code is generated.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import isqrt, lcm
from operator import attrgetter
from typing import Iterable, Sequence, Union

RatLike = Union[int, Fraction]
# (z**a for each exponent a, conj(z**a) for each), from _power_table
PowerTable = tuple[list[complex], list[complex]]
# The value of a power out of float range in a power table.
_NONFINITE = complex(cmath.nan, cmath.nan)


class CheckFailed(ValueError):
    """Base class of the errors that report a failed check, not a bad input.

    The ``toda`` command exits 1 on it and 2 on any other ValueError; it
    subclasses ValueError so that existing ``except ValueError`` callers
    keep working.
    """


class BranchCutError(CheckFailed):
    """Evaluation point lies on the cut (-inf, 0] and a fractional exponent occurs."""


class OriginError(CheckFailed):
    """Evaluation at the origin with a negative exponent."""


class NotASquareError(ValueError):
    """Exact square root requested of a rational that is not a perfect square."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a Record."""


_object_setattr = object.__setattr__


class Record:
    """Immutable value with named fields; the contract is in the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = fields
        cls._defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__ and n not in slots}
        get = attrgetter(*fields)
        # The field tuple, also for one field, where attrgetter gives the bare value.
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _object_setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords, defaults or a wrong count."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments: {', '.join(kwargs)}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values(self)


def as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def sqrt_fraction(q: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or NotASquareError."""
    if q < 0:
        raise NotASquareError(f"negative radicand {q}")
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise NotASquareError(f"{q} is not the square of a rational")
    return Fraction(rn, rd)


_FRACTION_ZERO = Fraction(0)


class ExactScalar(Record):
    """Complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")
    re: Fraction
    im: Fraction

    def __init__(self, re: Fraction = _FRACTION_ZERO, im: Fraction = _FRACTION_ZERO):
        _object_setattr(self, "re", re)
        _object_setattr(self, "im", im)

    @staticmethod
    def of(re: RatLike, im: RatLike = 0) -> ExactScalar:
        return ExactScalar(as_fraction(re), as_fraction(im))

    def __add__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> ExactScalar:
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> ExactScalar:
        return ExactScalar(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"ExactScalar({self.re!r}, {self.im!r})"


SCALAR_ZERO = ExactScalar()
SCALAR_ONE = ExactScalar(Fraction(1))


# A matrix of ints as a tuple of rows: the real or the imaginary part of an integer form.
IntRows = tuple[tuple[int, ...], ...]


def scale_to_ints(xs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """The pair (d, d*xs) of a rational vector: d is the lcm of its denominators."""
    d = lcm(*(x.denominator for x in xs))
    return d, tuple(x.numerator * (d // x.denominator) for x in xs)


def scale_to_gaussian(rows: Sequence[Sequence[ExactScalar]]) -> tuple[int, IntRows, IntRows]:
    """The integer form (d, re, im) of a matrix: d*rows = re + i*im, d the lcm of every denominator.

    re and im are int matrices; a minor of size m of the original matrix is
    the same minor of re + i*im divided by d**m.
    """
    d = lcm(*(x.denominator for row in rows for s in row for x in (s.re, s.im)))
    re = tuple(tuple(s.re.numerator * (d // s.re.denominator) for s in row) for row in rows)
    im = tuple(tuple(s.im.numerator * (d // s.im.denominator) for s in row) for row in rows)
    return d, re, im


def scalar_over(re: int, im: int, den: int) -> ExactScalar:
    """The ExactScalar (re + im*i) / den of two ints and a positive int."""
    return ExactScalar(Fraction(re, den), Fraction(im, den))


def pack(d: int, re: IntRows, im: IntRows) -> tuple[int, IntRows]:
    """(w, packed rows): each entry a + b*i of the integer form (d, re + i*im) as one int.

    The map a + b*i -> a + b*2^w is a ring homomorphism from the Gaussian
    integers to Z/n, n = 2^(2w) + 1, since (2^w)^2 = -1 mod n; packed
    entries are its balanced residues, in (-n/2, n/2], so that an entry or
    a minor with small parts stays a short int.  The width comes from
    Hadamard's inequality: a size-m minor M of the k x k matrix re + i*im
    has |M| <= prod r_i over its m rows, where the length r_i of row i is
    below isqrt(sum_j re[i][j]^2 + im[i][j]^2) + 1.  So
    H = prod_i max(d, isqrt(sum_j re[i][j]^2 + im[i][j]^2) + 1) bounds |re|
    and |im| of d^(k-m) * M, the factor d standing in for each row left
    out.  That covers the determinant, every minor, both sides
    d^(k-m) * M and d^m * M' of a minor identity, and both sides
    d^(k-1) * (an entry) and d * (size k-1 minor) of the minor
    classification.  With w = H.bit_length() + 2, a difference of two such
    values has parts below 2^(w-1) in absolute value: it is 0 mod n only if
    it is 0, and unpack recovers any of them from its residue.  An entry's
    parts are at most its row's length, so at most H < 2^(w-2): a + b*2^w
    is below 2^(2w-1) < n/2 in absolute value, its own balanced residue.
    """
    h = 1
    for a, b in zip(re, im):
        h *= max(d, isqrt(sum(x * x for x in a) + sum(y * y for y in b)) + 1)
    w = h.bit_length() + 2
    return w, tuple(tuple(x + (y << w) for x, y in zip(a, b)) for a, b in zip(re, im))


def packing_modulus(w: int) -> int:
    """n = 2^(2w) + 1, the modulus of the ints packed at width w; see pack."""
    return (1 << 2 * w) + 1


def unpack(v: int, w: int) -> tuple[int, int]:
    """The parts (a, b) of the Gaussian integer a + b*i, |a|, |b| < 2^(w-1), packed as v.

    Takes the balanced residue of v mod n = 2^(2w) + 1, in (-n/2, n/2], and
    splits it as a + b*2^w with a in [-2^(w-1), 2^(w-1)); see pack.  v may
    be any residue of the class, balanced (as the minor tables store them)
    or not.
    """
    n = packing_modulus(w)
    v %= n
    if v > n >> 1:
        v -= n
    im = (v + (1 << (w - 1))) >> w
    return v - (im << w), im


def _coerce_scalar(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(as_fraction(x))
    return NotImplemented


def format_fraction(q: Fraction) -> str:
    """Render a rational as "p" or "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s: ExactScalar) -> str:
    """Render like "1/2+3i/4", "-i", "2"."""
    if s.is_zero:
        return "0"
    parts = []
    if s.re != 0:
        parts.append(format_fraction(s.re))
    if s.im != 0:
        num, den = s.im.numerator, s.im.denominator
        sign = "-" if num < 0 else ("+" if parts else "")
        mag = abs(num)
        body = "i" if mag == 1 else f"{mag}i"
        if den != 1:
            body += f"/{den}"
        parts.append(sign + body)
    return "".join(parts)


class Monomial(Record):
    """One term c * z**exp_z * zb**exp_zbar."""

    __slots__ = ("coeff", "exp_z", "exp_zbar")
    coeff: ExactScalar
    exp_z: Fraction
    exp_zbar: Fraction

    def __init__(self, coeff: ExactScalar, exp_z: Fraction = _FRACTION_ZERO,
                 exp_zbar: Fraction = _FRACTION_ZERO):
        _object_setattr(self, "coeff", coeff)
        _object_setattr(self, "exp_z", exp_z)
        _object_setattr(self, "exp_zbar", exp_zbar)


class ZExpr:
    """Finite sum of monomials in z and conj(z) with rational exponents.

    Immutable; supports +, -, *, unary -, scalar multiplication and exact
    division by a nonzero scalar.  Construct through the factory class
    methods or arithmetic rather than the raw constructor.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Monomial, ...]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("ZExpr is immutable")

    # -- construction -------------------------------------------------

    @staticmethod
    def from_terms(terms: Iterable[Monomial]) -> ZExpr:
        acc: dict[tuple[Fraction, Fraction], ExactScalar] = {}
        for t in terms:
            key = (t.exp_z, t.exp_zbar)
            cur = acc.get(key)
            acc[key] = t.coeff if cur is None else cur + t.coeff
        return ZExpr._from_dict(acc)

    @staticmethod
    def _from_dict(acc: dict[tuple[Fraction, Fraction], ExactScalar]) -> ZExpr:
        items = [
            Monomial(c, a, b) for (a, b), c in acc.items() if not c.is_zero
        ]
        items.sort(key=lambda t: (t.exp_z, t.exp_zbar))
        return ZExpr(tuple(items))

    @staticmethod
    def zero() -> ZExpr:
        return _ZERO

    @staticmethod
    def one() -> ZExpr:
        return _ONE

    @staticmethod
    def const(value) -> ZExpr:
        c = _coerce_scalar(value)
        if c is NotImplemented:
            raise TypeError(f"cannot build constant from {type(value).__name__}")
        if c.is_zero:
            return _ZERO
        return ZExpr((Monomial(c),))

    @staticmethod
    def monomial(coeff, exp_z: RatLike = 0, exp_zbar: RatLike = 0) -> ZExpr:
        c = _coerce_scalar(coeff)
        if c is NotImplemented:
            raise TypeError(f"bad coefficient {coeff!r}")
        if c.is_zero:
            return _ZERO
        return ZExpr((Monomial(c, as_fraction(exp_z), as_fraction(exp_zbar)),))

    @staticmethod
    def z_pow(exp: RatLike) -> ZExpr:
        return ZExpr.monomial(1, exp, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        acc = {(t.exp_z, t.exp_zbar): t.coeff for t in self.terms}
        for t in other.terms:
            key = (t.exp_z, t.exp_zbar)
            cur = acc.get(key)
            acc[key] = t.coeff if cur is None else cur + t.coeff
        return ZExpr._from_dict(acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> ZExpr:
        return ZExpr(tuple(Monomial(-t.coeff, t.exp_z, t.exp_zbar) for t in self.terms))

    def __mul__(self, other):
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[tuple[Fraction, Fraction], ExactScalar] = {}
        for s in self.terms:
            for t in other.terms:
                key = (s.exp_z + t.exp_z, s.exp_zbar + t.exp_zbar)
                c = s.coeff * t.coeff
                cur = acc.get(key)
                acc[key] = c if cur is None else cur + c
        return ZExpr._from_dict(acc)

    __rmul__ = __mul__

    def scale_div(self, divisor) -> ZExpr:
        """Exact division by a nonzero scalar."""
        d = _coerce_scalar(divisor)
        if d is NotImplemented:
            raise TypeError(f"bad divisor {divisor!r}")
        if d.is_zero:
            raise ZeroDivisionError("division of ZExpr by zero scalar")
        return ZExpr(tuple(Monomial(t.coeff / d, t.exp_z, t.exp_zbar) for t in self.terms))

    # -- structure ----------------------------------------------------

    def conjugate(self) -> ZExpr:
        """Swap z and conj(z) and conjugate coefficients; an involution."""
        return ZExpr.from_terms(
            Monomial(t.coeff.conjugate(), t.exp_zbar, t.exp_z) for t in self.terms
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_real(self) -> bool:
        """True iff the expression equals its own conjugate."""
        return self == self.conjugate()

    def single_monomial(self) -> Monomial:
        """The unique term of a one-term expression (zero not allowed)."""
        if len(self.terms) != 1:
            raise ValueError(f"expected a single monomial, got {len(self.terms)} terms")
        return self.terms[0]

    def constant_value(self) -> ExactScalar:
        """Value of a constant expression (zero or a single degree-0 term)."""
        if self.is_zero:
            return SCALAR_ZERO
        t = self.single_monomial()
        if t.exp_z != 0 or t.exp_zbar != 0:
            raise ValueError(f"not a constant: {self}")
        return t.coeff

    # -- numeric evaluation -------------------------------------------

    def evaluate(self, point: complex) -> complex:
        """Principal-branch value at ``point``.

        Raises BranchCutError on the cut (-inf, 0] when a fractional
        exponent occurs, and OriginError at 0 with a negative exponent.
        """
        index: dict[Fraction, int] = {}
        terms = [
            (complex(t.coeff), index.setdefault(t.exp_z, len(index)),
             index.setdefault(t.exp_zbar, len(index)))
            for t in self.terms
        ]
        return _float_sum(terms, _power_table(complex(point), index))

    # -- comparison / display -----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ZExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for t in self.terms:
            factors = []
            if t.exp_z != 0:
                factors.append(f"z^({format_fraction(t.exp_z)})")
            if t.exp_zbar != 0:
                factors.append(f"zb^({format_fraction(t.exp_zbar)})")
            coeff = format_scalar(t.coeff)
            if factors and coeff == "1":
                bits.append("*".join(factors))
            elif factors:
                bits.append(f"({coeff})*" + "*".join(factors))
            else:
                bits.append(f"({coeff})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"ZExpr({self})"


_ZERO = ZExpr(())
_ONE = ZExpr((Monomial(SCALAR_ONE),))


def _power_table(z: complex, exponents: Iterable[Fraction]) -> PowerTable:
    """(powers, conjugates): principal-branch z**a for each exponent a, in order,
    and the conjugate of each.

    This is where the origin and branch-cut rules live, once per point.  At
    z = 0, z**0 is 1 and z**a is 0 for a > 0; a negative exponent raises
    OriginError.  Elsewhere on the cut (-inf, 0] a fractional exponent
    raises BranchCutError.  Integer exponents use z**n, fractional ones
    exp(a * log z).  A power out of float range (z**n raises
    ZeroDivisionError when z**|n| underflows for n < 0, and OverflowError
    on overflow, as exp does) is the non-finite NaN + NaN i, so a sum that
    reads it is not finite and a check on it fails instead of raising.
    Each power is conjugated once here, for every sum that reads the table.
    """
    origin, log, table = z == 0, None, []
    for a in exponents:
        if origin:
            if a < 0:
                raise OriginError("negative exponent at the origin")
            table.append(0j if a else 1 + 0j)
            continue
        try:
            if a.denominator == 1:
                table.append(z ** a.numerator)
            else:
                if log is None:
                    if z.imag == 0 and z.real < 0:
                        raise BranchCutError(f"{z} lies on the branch cut")
                    log = cmath.log(z)
                table.append(cmath.exp(float(a) * log))
        except (ZeroDivisionError, OverflowError):
            table.append(_NONFINITE)
    return table, [p.conjugate() for p in table]


def _float_sum(terms: Iterable[tuple[complex, int, int]], table: PowerTable) -> complex:
    """The sum of c * z**a * conj(z**b) over the terms (c, index of a, index of b).

    ``table`` is the point's _power_table over the exponents the indices
    point into; the terms are summed in order.
    """
    powers, conj = table
    total = 0j
    for c, a, b in terms:
        total += c * powers[a] * conj[b]
    return total


def _coerce_expr(x):
    if isinstance(x, ZExpr):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return ZExpr.const(x)
    return NotImplemented
