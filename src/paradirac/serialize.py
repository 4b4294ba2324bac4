"""JSON solution files, JSON reports, and CSV point evaluation.

Solution files carry every term of the space-time body as
{exponents, n, lambda, blades}, with each scalar encoded as an [re, im]
pair whose entries are ints, floats, or "p/q" rational strings, so the
exact backend round-trips without loss.  All files carry
"schema_version": 1 at top level.  CSV evaluation tables have a
mandatory header row: coordinates x1..xm, t, then one _re/_im column
pair per blade appearing in the solution.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from .algebra import AlgebraContext, Multivector
from .builders import SeriesSolution
from .scalars import GaussianRational, Scalar, parse_rational
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
    if isinstance(raw, (int, float)):
        return raw
    raise ValueError(f"bad scalar part {raw!r}")


def decode_scalar(pair) -> Scalar:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"scalar must be an [re, im] pair, got {pair!r}")
    re, im = (_decode_part(p) for p in pair)
    exact = not (isinstance(re, float) or isinstance(im, float))
    if exact:
        if im == 0:
            return re
        return GaussianRational(re, im)
    if im == 0:
        return float(re)
    return complex(re, im)


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


def _term_rows(F: SpaceTimeFunction) -> List[dict]:
    """One {exponents, n, lambda, blades} row per term, terms and blades sorted.

    Each term's values are made when its row is written, so the rows are
    never held beside a second copy of the whole body.
    """
    label = F.ctx.blade_label
    return [{"exponents": list(key[0]), "n": key[1],
             "lambda": encode_scalar(key[2]),
             "blades": [[label(mask), encode_scalar(val)]
                        for mask, val in sorted(F._coeffs(key).items())]}
            for key in sorted(F._nums, key=_term_order)]


def solution_to_dict(sol: SeriesSolution) -> dict:
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
        "terms": _term_rows(sol.body),
    }


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
    terms: Dict[tuple, Multivector] = {}
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
        coeffs = {}
        for blade in _get(row, "blades", (list,), "term row"):
            if not (isinstance(blade, list) and len(blade) == 2
                    and isinstance(blade[0], str)):
                raise ValueError(f"blade entry must be [label, [re, im]], got {blade!r}")
            coeffs[ctx.blade_from_label(blade[0])] = decode_scalar(blade[1])
        mv = Multivector(ctx, {m_: v for m_, v in coeffs.items() if v != 0})
        if not mv.is_zero():
            key = (exps, n, lam)
            prev = terms.get(key)
            terms[key] = mv if prev is None else prev + mv
    body = SpaceTimeFunction(ctx, terms)
    k = _get(data, "k", (int, list))
    ks = _int_list(k if isinstance(k, list) else [k], "k")
    k = ks if isinstance(k, list) else ks[0]
    zeta = data.get("zeta")
    if zeta is not None and not isinstance(zeta, dict):
        raise ValueError("zeta must be an object or null")
    extra = data.get("extra") or {}
    if not isinstance(extra, dict):
        raise ValueError("extra must be an object")
    return SeriesSolution(body=body, mode=_get(data, "mode", (str,)), m=ctx.m,
                          k=k, L=_get(data, "L", (int,)),
                          exact=_get(data, "exact", (bool,)),
                          zeta=_decode_zeta(zeta), extra=dict(extra))


def save_solution(sol: SeriesSolution, path: str) -> None:
    save_report(solution_to_dict(sol), path)


def load_solution(path: str) -> SeriesSolution:
    with open(path) as fh:
        return solution_from_dict(json.load(fh))


# -- reports -------------------------------------------------------------


def residual_report_to_dict(rep: ResidualReport) -> dict:
    residual = None
    if rep.residual_poly is not None:
        R = rep.residual_poly
        residual = {"is_zero": R.is_zero(), "n_terms": len(R._nums)}
        if 0 < len(R._nums) <= MAX_REPORT_TERMS:
            residual["terms"] = _term_rows(R)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "residual_report",
        "mode": rep.mode,
        "exact_zero": rep.exact_zero,
        "passed": rep.passed,
        "sup_norm_by_radius": [[r, v] for r, v in rep.sup_norm_by_radius],
        "estimated_order": rep.estimated_order,
        "expected_order": rep.expected_order,
        "support_degrees": list(rep.support_degrees or ()) or None,
        "seed": rep.seed,
        "residual_poly": residual,
    }


def check_report_to_dict(rep: CheckReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "name": rep.name,
        "passed": rep.passed,
        "detail": rep.detail,
    }


def save_report(report_dict: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report_dict, fh, indent=1)
        fh.write("\n")


# -- CSV point tables ----------------------------------------------------


def read_points_csv(path: str, m: int) -> List[Tuple[Tuple[float, ...], float]]:
    """Rows of x1..xm plus optional t column (default 0).  Header required."""
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
            xs = tuple(float(row[i]) for i in range(m))
            t = float(row[m]) if has_t and len(row) > m else 0.0
            if not all(map(math.isfinite, (*xs, t))):
                raise ValueError(f"points row {reader.line_num} has a "
                                 "non-finite value")
            points.append((xs, t))
    return points


def write_eval_csv(sol: SeriesSolution,
                   points: Sequence[Tuple[Sequence[float], float]],
                   out: Union[str, TextIO]) -> List[str]:
    """Evaluate the solution at each point and write one row per point.

    The points are evaluated in one batch, and each row is written as soon
    as its value is computed.

    out is a file path or an open text stream such as sys.stdout.
    Columns: x1..xm, t, then <blade>_re,<blade>_im for every blade that
    appears in the solution body (sorted canonically).  Returns the header.
    """
    ctx = sol.ctx
    masks = sorted({mask for mv in sol.body.terms.values()
                    for mask in mv.terms})
    if not masks:
        masks = [0]
    labels = [ctx.blade_label(mask) for mask in masks]
    header = [f"x{i}" for i in range(1, ctx.m + 1)] + ["t"]
    for lab in labels:
        header += [f"{lab}_re", f"{lab}_im"]
    # rows end in "\n", which a file opened with newline="\r\n" turns into
    # CSV's "\r\n" and a text stream into the platform line ending
    with (open(out, "w", newline="\r\n") if isinstance(out, str)
          else contextlib.nullcontext(out)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for (point, t), mv in zip(points, sol.body.evaluate_many(points)):
            row = [repr(float(c)) for c in point] + [repr(float(t))]
            for mask in masks:
                val = complex(mv.terms.get(mask, 0))
                row += [repr(val.real), repr(val.imag)]
            writer.writerow(row)
    return header
