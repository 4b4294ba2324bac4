"""JSON solution files, JSON reports, and CSV point evaluation.

Solution files carry every term of the space-time body as a row
{exponents, n, lambda, blades}, with each scalar encoded as an [re, im]
pair whose entries are ints, floats, or "p/q" rational strings, so the
exact backend round-trips without loss.  All files carry
"schema_version": 1 at top level.  CSV evaluation tables have a
mandatory header row: coordinates x1..xm, t, then one _re/_im column
pair per blade appearing in the solution; each row is one line of float
reprs joined by commas, as csv.writer would write it.

Writing.  A solution or report file is one string equal to
json.dumps(d, indent=1) of d = solution_to_dict(sol) or
residual_report_to_dict(rep).  The writer is handed the body itself in
the "terms" slot and formats each term row straight from the body's
keys() and coeffs(key), terms and blades sorted, so no per-term dict is
made; every other value is nested as the json encoder nests it.
solution_to_dict and residual_report_to_dict expand that slot into one
dict per term, the JSON values that the text stands for.

Reading.  load_solution decodes the rows in one pass, each row into one
Multivector of its nonzero values, and the body is made from them by the
SpaceTimeFunction constructor; a repeated label adds its value to the
first, and a repeated key is added to its first row with Multivector +.
Every value goes through decode_scalar, which takes an [int, 0] pair or
a finite [float, 0] pair, most of a file, as its real part before any
other check; every other value, and every field, meets the checks it
always met, so a damaged file is refused with the message it always was.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import json
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from .algebra import AlgebraContext, Multivector
from .builders import ALL_MODES, SeriesSolution
from .scalars import GaussianRational, Scalar, parse_rational, to_float
from .timefn import SpaceTimeFunction
from .verify import CheckReport, ResidualReport
from .zeta import ZetaElement

SCHEMA_VERSION = 1
# largest spatial dimension a solution file may declare; it is checked
# before an algebra context is built for it
MAX_M = 64
# a residual report lists the residual's terms only up to this many
MAX_REPORT_TERMS = 500


# -- scalar encoding ----------------------------------------------------------


def _encode_part(v) -> Union[int, float, str]:
    if isinstance(v, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return v
    raise TypeError(f"cannot encode scalar part {v!r}")


def encode_scalar(v: Scalar) -> List[Union[int, float, str]]:
    """Any supported scalar -> [re, im] with exact parts as "p/q" strings."""
    if isinstance(v, GaussianRational):
        return [_encode_part(v.re), _encode_part(v.im)]
    if isinstance(v, complex):
        return [v.real, v.imag]
    return [_encode_part(v), 0]


def _decode_part(raw) -> Scalar:
    if isinstance(raw, str):
        return parse_rational(raw)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return raw
    raise ValueError(f"bad scalar part {raw!r}")


def decode_scalar(pair) -> Scalar:
    if type(pair) is list and len(pair) == 2 and type(pair[1]) is int \
            and pair[1] == 0:
        # an [int, 0] or finite [float, 0] pair, most of a file, is its real part
        re = pair[0]
        if type(re) is int or type(re) is float and re - re == 0:
            return re
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"scalar must be an [re, im] pair, got {pair!r}")
    re, im = pair
    # a plain int or float part is taken as it is
    if type(re) not in (int, float):
        re = _decode_part(re)
    if type(im) not in (int, float):
        im = _decode_part(im)
    # a float imaginary part, 0.0 included, makes a complex, as encoded
    if isinstance(re, float) or isinstance(im, float):
        v = (complex(to_float(re), to_float(im))
             if isinstance(im, float) or im != 0 else to_float(re))
        if not cmath.isfinite(v):
            raise ValueError(f"scalar {pair!r} is not finite")
        return v
    return re if im == 0 else GaussianRational(re, im)


# -- solution files ---------------------------------------------------------


def _encode_zeta(z: Optional[ZetaElement]):
    if z is None:
        return None
    return {"a": encode_scalar(z.a), "b": encode_scalar(z.b),
            "c": encode_scalar(z.c), "d": encode_scalar(z.d)}


def _decode_zeta(raw) -> Optional[ZetaElement]:
    if raw is None:
        return None
    return ZetaElement(*(decode_scalar(_get(raw, part, (list,), "zeta"))
                         for part in "abcd"))


def _term_order(key) -> tuple:
    exps, n, lam = key
    c = complex(lam)
    return exps, n, c.real, c.imag


def _term_dicts(F: SpaceTimeFunction) -> List[dict]:
    """One {exponents, n, lambda, blades} row per term, terms and blades
    sorted: the JSON values that the writer formats straight from F."""
    label = F.ctx.blade_label
    return [{"exponents": list(key[0]), "n": key[1],
             "lambda": encode_scalar(key[2]),
             "blades": [[label(mask), encode_scalar(val)]
                        for mask, val in sorted(F.coeffs(key).items())]}
            for key in sorted(F.keys(), key=_term_order)]


def _solution_fields(sol: SeriesSolution) -> dict:
    """The solution file's fields, with the body itself as "terms"."""
    extra = {}
    for key, val in sol.extra.items():
        if isinstance(val, (complex, GaussianRational, Fraction)):
            extra[key] = encode_scalar(val)
        else:
            extra[key] = val
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "solution",
        "mode": sol.mode,
        "m": sol.m,
        "k": list(sol.k) if isinstance(sol.k, tuple) else sol.k,
        "L": sol.L,
        "exact": sol.exact,
        "zeta": _encode_zeta(sol.zeta),
        "extra": extra,
        "terms": sol.body,
    }


def solution_to_dict(sol: SeriesSolution) -> dict:
    """The solution file as JSON values, one dict per term."""
    data = _solution_fields(sol)
    data["terms"] = _term_dicts(sol.body)
    return data


def _get(data: dict, key: str, kinds, where: str = "solution"):
    """data[key], which must exist and be an instance of kinds (never bool)."""
    if key not in data:
        raise ValueError(f"{where} has no {key!r}")
    val = data[key]
    if isinstance(val, bool) and bool not in kinds or not isinstance(val, kinds):
        raise ValueError(f"{where} field {key!r} has the wrong type: {val!r}")
    return val


def _int_list(raw, what: str) -> Tuple[int, ...]:
    if not isinstance(raw, list) or any(
            isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in raw):
        raise ValueError(f"{what} must be a list of nonnegative integers")
    return tuple(raw)


def _repeat_sum(a: Scalar, b: Scalar) -> Scalar:
    """a + b of two entries of one coefficient, a repeated blade label or
    term key: a sum beyond the float range is refused."""
    try:
        s = a + b
    except OverflowError:       # an exact value met a float: float() overflowed
        raise ValueError("a repeated coefficient sums beyond the float range") from None
    if type(s) in (float, complex) and not cmath.isfinite(s):
        raise ValueError("a repeated coefficient sums beyond the float range")
    return s


def solution_from_dict(data: dict) -> SeriesSolution:
    if not isinstance(data, dict):
        raise ValueError("a solution file holds one JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {data.get('schema_version')!r}")
    if data.get("kind") != "solution":
        raise ValueError(f"not a solution file (kind={data.get('kind')!r})")
    m = _get(data, "m", (int,))
    if not 1 <= m <= MAX_M:
        raise ValueError(f"spatial dimension m={m} outside 1..{MAX_M}")
    ctx = AlgebraContext(m)
    rows: Dict[tuple, Dict[int, Scalar]] = {}
    masks: Dict[str, int] = {}      # blade label -> mask, each parsed once
    for row in _get(data, "terms", (list,)):
        if not isinstance(row, dict):
            raise ValueError(f"term row must be an object, got {row!r}")
        exps = _int_list(_get(row, "exponents", (list,), "term row"), "exponents")
        if len(exps) != ctx.m:
            raise ValueError("exponent tuple length does not match m")
        n = _get(row, "n", (int,), "term row")
        if n < 0:
            raise ValueError(f"t exponent n={n} is negative")
        lam = decode_scalar(_get(row, "lambda", (list,), "term row"))
        to_float(lam)           # a lambda beyond the float range: ValueError
        vals = {}
        for blade in _get(row, "blades", (list,), "term row"):
            if not (isinstance(blade, list) and len(blade) == 2
                    and isinstance(blade[0], str)):
                raise ValueError(f"blade entry must be [label, [re, im]], got {blade!r}")
            mask = masks.get(blade[0])
            if mask is None:
                mask = masks[blade[0]] = ctx.blade_from_label(blade[0])
            v = decode_scalar(blade[1])
            # a repeated label adds its value, as a repeated key adds its row
            vals[mask] = _repeat_sum(vals[mask], v) if mask in vals else v
        if not all(vals.values()):
            vals = {mask: v for mask, v in vals.items() if v}
        if vals:
            # a repeated key adds its row; one that cancels keeps its place
            key = (exps, n, lam)
            prev = rows.get(key)
            if prev is None:
                rows[key] = vals
            else:
                for mask, v in vals.items():
                    s = _repeat_sum(prev[mask], v) if mask in prev else v
                    if s:
                        prev[mask] = s
                    else:
                        del prev[mask]
    body = SpaceTimeFunction(ctx, {key: Multivector(ctx, vals)
                                   for key, vals in rows.items()})
    mode = _get(data, "mode", (str,))
    if mode not in ALL_MODES:
        raise ValueError(f"solution field 'mode' is {mode!r}, not one of {ALL_MODES}")
    k = _get(data, "k", (int, list))
    if k == []:
        raise ValueError("solution field 'k' is an empty list")
    ks = _int_list(k if isinstance(k, list) else [k], "k")
    if isinstance(k, list) and mode.startswith("parabolic"):
        raise ValueError(f"solution field 'k' of a {mode} solution must be "
                         f"one integer, got {k!r}")
    k = ks if isinstance(k, list) else ks[0]
    zeta = data.get("zeta")
    if zeta is not None and not isinstance(zeta, dict):
        raise ValueError("zeta must be an object or null")
    extra = data.get("extra") or {}
    if not isinstance(extra, dict):
        raise ValueError("extra must be an object")
    L = _get(data, "L", (int,))
    if L < 0:
        raise ValueError(f"truncation L={L} is negative")
    _check_series_degrees(body, mode, ks, L)
    return SeriesSolution(body=body, mode=mode, m=ctx.m,
                          k=k, L=L,
                          exact=_get(data, "exact", (bool,)),
                          zeta=_decode_zeta(zeta), extra=dict(extra))


def _check_series_degrees(body: SpaceTimeFunction, mode: str,
                          ks: Tuple[int, ...], L: int) -> None:
    """A series body starts at its lowest head degree, min(k), and ends by
    2L+max(k)+1 (2L+max(k) for helmholtz); the residual reads its top
    degrees, or a parabolic one its pass floor 2L+k, from k and L, so a
    file that breaks either is refused.  A parabolic body with no lambda
    terminates on its own whatever L says, so its top is left unchecked."""
    degrees = {sum(key[0]) for key in body.keys()}
    if not degrees:
        return
    if min(degrees) != min(ks):
        raise ValueError(f"solution field 'k' gives lowest head degree {min(ks)}, "
                         f"but the body's lowest spatial degree is {min(degrees)}")
    top = 2 * L + max(ks) + (mode != "helmholtz")
    cut = not mode.startswith("parabolic") or any(key[2] for key in body.keys())
    if cut and max(degrees) > top:
        raise ValueError(f"the body has a term of spatial degree {max(degrees)}, "
                         f"above 2L+max(k){'+1' * (mode != 'helmholtz')} = {top}")


def save_solution(sol: SeriesSolution, path: str) -> None:
    save_report(_solution_fields(sol), path)


def load_solution(path: str) -> SeriesSolution:
    with open(path) as fh:
        return solution_from_dict(parse_json(fh.read(), f"solution file {path}"))


def parse_json(text: str, what: str):
    """json.loads(text); JSON nested deeper than the parser can follow is
    a ValueError naming what."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


# -- reports -------------------------------------------------------------


def _residual_report_fields(rep: ResidualReport) -> dict:
    """The report's fields, with the residual body itself as its "terms"
    (when it has 1 to MAX_REPORT_TERMS terms); save_report writes it.
    Schema 1 keeps the keys of the sampled report, with the constants
    that nothing sampled writes: no sup-norms, no estimated order, seed 0."""
    residual = None
    if rep.residual_poly is not None:
        R = rep.residual_poly
        residual = {"is_zero": R.is_zero(), "n_terms": len(R.keys())}
        if 0 < len(R.keys()) <= MAX_REPORT_TERMS:
            residual["terms"] = R
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "residual_report",
        "mode": rep.mode,
        "exact_zero": rep.exact_zero,
        "passed": rep.passed,
        "sup_norm_by_radius": [],
        "estimated_order": None,
        "expected_order": rep.expected_order,
        "support_degrees": list(rep.support_degrees or ()) or None,
        "seed": 0,
        "residual_poly": residual,
    }


def residual_report_to_dict(rep: ResidualReport) -> dict:
    """The report as JSON values, one dict per residual term."""
    data = _residual_report_fields(rep)
    residual = data["residual_poly"]
    if residual is not None and "terms" in residual:
        residual["terms"] = _term_dicts(residual["terms"])
    return data


def check_report_to_dict(rep: CheckReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "name": rep.name,
        "passed": rep.passed,
        "detail": rep.detail,
    }


def save_report(report_dict: dict, path: str) -> None:
    text = _dumps(report_dict, "") + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# -- JSON text -----------------------------------------------------------

def _dumps(o, ind: str) -> str:
    """o as json.dumps(o, indent=1) writes it, nested at indentation ind;
    a body as json.dumps writes its _term_dicts."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is float and o - o == 0:   # finite
        return float.__repr__(o)
    if t is list:
        i = ind + " "
        if len(o) == 2:     # [re, im] and [label, [re, im]], most of a file
            return f"[\n{i}{_dumps(o[0], i)},\n{i}{_dumps(o[1], i)}\n{ind}]"
        return _nest("[", [_dumps(v, i) for v in o], ind, "]")
    if t is dict and all(type(k) is str for k in o):
        return _nest("{", [encode_basestring_ascii(k) + ": " + _dumps(v, ind + " ")
                           for k, v in o.items()], ind, "}")
    if isinstance(o, SpaceTimeFunction):
        return _body_rows(o, ind)
    # null, true, NaN, a tuple, a subclass, other keys: as json writes them
    # (a JSON string holds no raw newline, so this indents them exactly)
    return json.dumps(o, indent=1).replace("\n", "\n" + ind)


def _nest(open_: str, items: List[str], ind: str, close: str) -> str:
    if not items:
        return open_ + close
    inner = "\n" + ind + " "
    return open_ + inner + ("," + inner).join(items) + "\n" + ind + close


def _parts(v) -> Tuple[str, str]:
    """The JSON text of the two parts of encode_scalar(v)."""
    t = type(v)
    if t is int:
        return int.__repr__(v), "0"
    if t is float and v - v == 0:
        return float.__repr__(v), "0"
    if t is Fraction and v.denominator != 1:
        return f'"{v.numerator}/{v.denominator}"', "0"
    re, im = encode_scalar(v)
    return _dumps(re, ""), _dumps(im, "")


def _body_rows(F: SpaceTimeFunction, ind: str) -> str:
    """The term rows of F, each formatted from one key and its coeffs."""
    if not F.keys():
        return "[]"
    i1, i2, i3, i4, i5 = (ind + " " * j for j in range(1, 6))
    label = F.ctx.blade_label
    heads: Dict[int, str] = {}      # blade -> its entry up to the real part
    mid, end = f",\n{i5}", f"\n{i4}]\n{i3}]"
    rows = []
    for key in sorted(F.keys(), key=_term_order):
        exps, n, lam = key
        blades = []
        for mask, v in sorted(F.coeffs(key).items()):
            head = heads.get(mask)
            if head is None:
                head = heads[mask] = (f"[\n{i4}{encode_basestring_ascii(label(mask))}"
                                      f",\n{i4}[\n{i5}")
            re, im = _parts(v)
            blades.append(f"{head}{re}{mid}{im}{end}")
        re, im = _parts(lam)
        rows.append(f'{{\n{i2}"exponents": [\n{i3}'
                    + f",\n{i3}".join(map(int.__repr__, exps))
                    + f'\n{i2}],\n{i2}"n": {int.__repr__(n)},\n{i2}"lambda": [\n{i3}'
                    f'{re},\n{i3}{im}\n{i2}],\n{i2}"blades": [\n{i3}'
                    + f",\n{i3}".join(blades) + f"\n{i2}]\n{i1}}}")
    return f"[\n{i1}" + f",\n{i1}".join(rows) + f"\n{ind}]"


# -- CSV point tables ----------------------------------------------------


def read_points_csv(path: str, m: int) -> List[Tuple[Tuple[float, ...], float]]:
    """Rows of x1..xm plus optional t column (default 0).  Header required."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("points file is empty; header row required")
            header = [h.strip() for h in header]
            want = [f"x{i}" for i in range(1, m + 1)]
            if header[: m] != want:
                raise ValueError(f"points header must start with {','.join(want)}")
            has_t = len(header) > m and header[m] == "t"
            points = []
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < m:
                    raise ValueError(f"points row {reader.line_num} has {len(row)} "
                                     f"cells, fewer than the {m} coordinates")
                if has_t and len(row) == m:
                    raise ValueError(f"points row {reader.line_num} has no t cell, "
                                     "which the header declares")
                xs = tuple(float(row[i]) for i in range(m))
                t = float(row[m]) if has_t else 0.0
                if not all(map(math.isfinite, (*xs, t))):
                    raise ValueError(f"points row {reader.line_num} has a "
                                     "non-finite value")
                points.append((xs, t))
    except csv.Error as exc:     # such as a cell longer than csv.field_size_limit()
        raise ValueError(f"points file {path}: {exc}") from None
    return points


def write_eval_csv(sol: SeriesSolution,
                   points: Sequence[Tuple[Sequence[float], float]],
                   out: Union[str, TextIO]) -> List[str]:
    """Evaluate the solution at each point and write one row per point.

    The points are evaluated in one batch, and each row is written as soon
    as its value is computed.  A file that a failing point leaves half
    written is removed before the error propagates.

    out is a file path or an open text stream such as sys.stdout.
    Columns: x1..xm, t, then <blade>_re,<blade>_im for every blade that
    appears in the solution body (sorted canonically).  Returns the header.
    """
    ctx, body = sol.ctx, sol.body
    masks = sorted(body.blades()) or [0]
    labels = [ctx.blade_label(mask) for mask in masks]
    header = [f"x{i}" for i in range(1, ctx.m + 1)] + ["t"]
    for lab in labels:
        header += [f"{lab}_re", f"{lab}_im"]
    # rows end in "\n", which a file opened with newline="\r\n" turns into
    # CSV's "\r\n" and a text stream into the platform line ending
    with (open(out, "w", newline="\r\n") if isinstance(out, str)
          else contextlib.nullcontext(out)) as fh:
        try:
            fh.write(",".join(header) + "\n")
            for (point, t), mv in zip(points, body.evaluate_many(points)):
                row = [repr(float(c)) for c in point] + [repr(float(t))]
                for mask in masks:
                    val = mv.terms.get(mask, 0)
                    if type(val) is float:
                        row += [repr(val), "0.0"]
                    else:
                        val = complex(val)
                        row += [repr(val.real), repr(val.imag)]
                fh.write(",".join(row) + "\n")
        except BaseException:
            if fh is not out:           # the file this call opened
                fh.close()
                os.remove(out)
            raise
    return header
