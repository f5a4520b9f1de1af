"""Parsing and JSON-friendly rendering of the exact data types.

Wire formats: rationals are strings "p" or "p/q"; complex scalars are
compact strings like "1/2+3i/4" (object form {"re": "p/q", "im": "p/q"} is
also accepted); expressions are arrays of monomial records; matrices are
row-major arrays of scalar strings; coordinates are {"c10": "1+i", ...}.

An unknown F_m is written from its integer form (form_to_json), with the
same records as zexpr_to_json of its ZExpr, so no report builds a ZExpr.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Mapping, Sequence

from .config import TodaConfig, make_config
from .exact import ExactScalar, Monomial, ZExpr, format_fraction, format_scalar
from .groups import GroupElement, UnipotentCoords
from .lie import Algebra, slot_name

if TYPE_CHECKING:
    from .solutions import UnknownForm


def parse_fraction(text: str) -> Fraction:
    """Parse "p", "p/q" (or a decimal); an empty field or zero denominator is a ValueError."""
    s = str(text).strip()
    if not s:
        raise ValueError("empty field where a rational is expected")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# A real part, an imaginary part, or both; the imaginary part needs its sign
# when a real part precedes it.
_SCALAR = re.compile(
    r"(?P<re>[+-]?(?:\d+(?:/\d+)?|\d*\.\d+))?"
    r"(?:\s*(?P<sign>(?(re)[+-]|[+-]?))\s*(?P<num>\d*)i(?:/(?P<den>\d+))?)?"
)


def parse_scalar(text) -> ExactScalar:
    """Parse "1/2+3i/4", "-i", "2", "i/3" or an {"re","im"} object.

    Any other string, such as "1+" or "1 2", a boolean and an object with
    any key but "re" and "im" are ValueErrors.
    """
    if isinstance(text, bool):
        raise ValueError(f"a boolean is not a scalar: {text!r}")
    if isinstance(text, Mapping):
        unknown = [key for key in text if key not in ("re", "im")]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in a scalar object (keys: re, im)")
        return ExactScalar(parse_fraction(text.get("re", "0")), parse_fraction(text.get("im", "0")))
    if isinstance(text, ExactScalar):
        return text
    if isinstance(text, (int, Fraction)):
        return ExactScalar.of(text)
    s = str(text).strip()
    if not s:
        raise ValueError("empty scalar")
    m = _SCALAR.fullmatch(s)
    if not m:
        raise ValueError(f"malformed scalar {text!r}")
    re_part = parse_fraction(m["re"]) if m["re"] else Fraction(0)
    if m["num"] is None:
        return ExactScalar(re_part, Fraction(0))
    num, den = int(m["sign"] + (m["num"] or "1")), int(m["den"] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return ExactScalar(re_part, Fraction(num, den))


def scalar_to_json(s: ExactScalar) -> str:
    return format_scalar(s)


def scalar_to_object(s: ExactScalar) -> dict:
    return {"re": format_fraction(s.re), "im": format_fraction(s.im)}


def zexpr_to_json(e: ZExpr) -> list[dict]:
    return [
        {
            "coeff": scalar_to_object(t.coeff),
            "exp_z": format_fraction(t.exp_z),
            "exp_zbar": format_fraction(t.exp_zbar),
        }
        for t in e.terms
    ]


def form_to_json(form: UnknownForm) -> list[dict]:
    """The records of zexpr_to_json(form.expr), read off the integer form.

    The entries are nonzero, distinct and in (e_i, e_j) order, the term
    order of the ZExpr, and each coefficient part is one ratio over den.
    """
    exps = [format_fraction(e) for e in form.exponents]
    den = form.den
    return [
        {
            "coeff": {"re": _ratio_text(re, den), "im": _ratio_text(im, den)},
            "exp_z": exps[i],
            "exp_zbar": exps[j],
        }
        for i, j, re, im in form.entries
    ]


def _ratio_text(num: int, den: int) -> str:
    """format_fraction(Fraction(num, den)) for den > 0."""
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def zexpr_from_json(records: Sequence[Mapping]) -> ZExpr:
    return ZExpr.from_terms(
        Monomial(
            parse_scalar(r["coeff"]),
            parse_fraction(r["exp_z"]),
            parse_fraction(r["exp_zbar"]),
        )
        for r in records
    )


def matrix_to_json(g: GroupElement) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in g.entries]


def fractions_to_json(xs: Sequence[Fraction]) -> list[str]:
    return [format_fraction(x) for x in xs]


_COORD_KEY = re.compile(r"c(?:(\d+)_(\d+)|(\d+?)(\d))")


def parse_coords(algebra: Algebra, obj: Mapping[str, object]) -> UnipotentCoords:
    """Parse {"c30": "1+i", ...}; multi-digit rows use an optional underscore
    separator ("c12_3" is row 12, column 3).  Anything but an object is a ValueError."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"coordinates must be a JSON object, got {type(obj).__name__}")
    values = {}
    keys = {}
    for key, raw in obj.items():
        name = str(key)
        m = _COORD_KEY.fullmatch(name)
        if not m:
            raise ValueError(f"bad coordinate name {name!r}")
        i, j = (int(m[1]), int(m[2])) if m[1] else (int(m[3]), int(m[4]))
        if (i, j) in keys:
            raise ValueError(f"coordinate names {keys[i, j]!r} and {name!r} both set slot ({i}, {j})")
        keys[i, j] = name
        values[(i, j)] = parse_scalar(raw)
    return UnipotentCoords(algebra, values)


def coords_to_json(coords: UnipotentCoords) -> dict:
    return {slot_name(i, j): format_scalar(v) for (i, j), v in coords.items()}


def config_from_json(obj: Mapping) -> TodaConfig:
    gamma = [parse_fraction(x) for x in obj["gamma"]]
    return make_config(str(obj["family"]), int(obj["rank"]), gamma)


def solution_input_from_json(obj: Mapping):
    """Parse a full problem description:
    {"family":"B","rank":2,"gamma":["-1/2","1/4"],"lambda":["1","2"],
     "coords":{"c30":"1+i"}}.

    Returns (config, params); lambda defaults to all ones, coords to empty.
    """
    from .solutions import SolutionParams, default_lambdas

    config = config_from_json(obj)
    coords = parse_coords(config.algebra, obj.get("coords", {}))
    raw_lams = obj.get("lambda")
    lams = default_lambdas(config) if raw_lams is None else [parse_fraction(x) for x in raw_lams]
    return config, SolutionParams.of(lams, coords)


def config_to_json(config: TodaConfig) -> dict:
    return {
        "family": config.family,
        "rank": config.rank,
        "gamma": fractions_to_json(config.gamma),
    }
