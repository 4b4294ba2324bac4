"""Slow reference helpers shared by several test modules.

They are independent of the fast paths the package uses: direct power
series next to the spectral (Sylvester) evaluation, the radial weights
by the ZetaElement recurrence next to the builders' integer one, a
residual sampled at every (direction, t) pair over spheres of shrinking
radius and the decay order fitted to those sup-norms (verify judges a
residual by its support alone, so the acceptance tests that state an
order fit it here), the spatial degrees read straight off a body's
keys, and the sparse term engine's operators computed term by term on
Multivector coefficients instead of stored integer numerators, every series body summed as a
chain of Sum stages on the powers rho^{2l} M instead of expanded from
its levels (the stage constructions), the parabolic levels by the
recurrence's F0..F3 rule table next to the builders' ladder
(rule_table_levels), the parabolic levels summed by one Sum product per
seed derivative (ladder_body), D, the heat operator and the split
conditions as chains of Sum stages next to their one-pass kernels
(sum_parabolic_dirac, sum_heat_residual, sum_conditions), the
exponential-profile parabolic
solution recovered from the generalized series (parabolic_from_generalized),
a mutant made by splitting a body and assembling it again, and a solution
file read row by row into Multivectors and summed by the body constructor.
"""

import cmath
import math
import random
from fractions import Fraction

from paradirac.algebra import AlgebraContext, Multivector, split, witt_basis
from paradirac.builders import ALL_MODES, SeriesSolution, build_generalized
from paradirac.poly import (SpaceTimeFunction, Sum, TimeFunction,
                           radial_series, rho_squared, vector_variable)
from paradirac.scalars import GaussianRational, to_float
from paradirac.serialize import (MAX_M, SCHEMA_VERSION, _check_series_degrees,
                                 _decode_part, _decode_zeta, _get, _int_list)
from paradirac.timefn import assemble_split, derivatives
from paradirac.zeta import PowerSeries, ZetaElement, sylvester_eval


def exp_series(n_terms=60):
    """Taylor coefficients of exp(w) up to w^n_terms."""
    coeffs = [Fraction(1)]
    for n in range(1, n_terms + 1):
        coeffs.append(coeffs[-1] / n)
    return PowerSeries(coeffs)


def hyp0f1_series(gamma, n_terms=60):
    """0F1(gamma; w) = sum w^n / (n! (gamma)_n) up to w^n_terms."""
    coeffs = [Fraction(1)]
    g = Fraction(gamma) if isinstance(gamma, int) else gamma
    for n in range(1, n_terms + 1):
        coeffs.append(coeffs[-1] / (n * (g + n - 1)))
    return PowerSeries(coeffs)


def series_eval(psi, z, L):
    """sum_{n<=L} psi_n (zeta* zeta)^n by direct Cl(1,1) powers."""
    w = z.star_zeta()
    power = ZetaElement.identity()
    total = ZetaElement.zero()
    for n, cn in enumerate(psi.coeffs[: L + 1]):
        if n:
            power = power * w
        if cn:
            total = total + power.scale(cn)
    return total


def weight_recurrence(s, gamma, L, ctx):
    """The radial weights w_n = (-s/4)^n / (n! (gamma)_n), n = 0..L, as
    Multivectors: the ZetaElement recurrence on Fraction and
    GaussianRational (or float) entries, each level through to_multivector."""
    w = ZetaElement.identity()
    out = [w.to_multivector(ctx)]
    for n in range(L):
        w = (w * s).scale(Fraction(-1, 4) / ((n + 1) * (gamma + n)))
        out.append(w.to_multivector(ctx))
    return out


# sup-norms below this are treated as zero when fitting an order
UNDERFLOW_GUARD = 1e-14
T_SAMPLES = (0.0, 0.5)
# seeded gaussian directions sampled beside the axes and the diagonal
N_RANDOM = 6


def unit_directions(m, seed=0):
    """Axis directions, the diagonal, and N_RANDOM seeded gaussian directions."""
    dirs = []
    for i in range(m):
        for sign in (1.0, -1.0):
            axis = [0.0] * m
            axis[i] = sign
            dirs.append(tuple(axis))
    dirs.append(tuple(1.0 / math.sqrt(m) for _ in range(m)))
    rng = random.Random(seed)
    while len(dirs) < 2 * m + 1 + N_RANDOM:
        v = [rng.gauss(0.0, 1.0) for _ in range(m)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-6:
            dirs.append(tuple(c / norm for c in v))
    return dirs


def estimate_order(sup_by_radius):
    """Mean log-ratio slope over consecutive radii, skipping underflowed ones."""
    pts = sorted(sup_by_radius, key=lambda rv: -rv[0])
    slopes = [math.log(s1 / s2) / math.log(r1 / r2)
              for (r1, s1), (r2, s2) in zip(pts, pts[1:])
              if s1 >= UNDERFLOW_GUARD and s2 >= UNDERFLOW_GUARD]
    return sum(slopes) / len(slopes) if slopes else None


def sampled_sup_norms(R, radii, seed):
    """(radius, sup-norm) of R over every (direction, t) pair, each point
    evaluated on its own."""
    dirs = unit_directions(R.ctx.m, seed=seed)
    sups = []
    for r in radii:
        sup = 0.0
        for d in dirs:
            for t in T_SAMPLES:
                val = R.evaluate(tuple(r * c for c in d), t).max_abs()
                if val > sup:
                    sup = val
        sups.append((float(r), sup))
    return sups


def sampled_order(R, radii, seed):
    """The decay order estimate_order fits to sampled_sup_norms(R), each
    sup-norm divided by R's largest coefficient, so that the underflow
    guard is relative to R's own scale."""
    scale = R.max_abs()
    sups = sampled_sup_norms(R, radii, seed)
    return estimate_order([(r, s / scale) for r, s in sups])


def spatial_degrees(F):
    """Sorted total spatial degrees of the terms of a space-time function."""
    return sorted({sum(exps) for exps, _, _ in F.terms})


# -- per-term Multivector oracles for the sparse term engine ---------------------
#
# Each takes and returns a {(exps, n, lambda): Multivector} mapping, the .terms
# of a body, and computes with plain Multivector and Fraction arithmetic term
# by term.  Blade sums run in the order the engine's loops use, so that float
# values come out bit for bit alike.


def spatial(ctx, terms):
    """The body of polynomial terms {exps: Multivector}, keyed (exps, 0, 0)."""
    return SpaceTimeFunction(ctx, {(exps, 0, 0): mv for exps, mv in terms.items()})


def termwise(contributions):
    """Sum (key, Multivector) pairs with Multivector additions, dropping zero sums."""
    out = {}
    for key, mv in contributions:
        out[key] = out[key] + mv if key in out else mv
    return {k: mv for k, mv in out.items() if not mv.is_zero()}


def _lowered(exps, i, by):
    return exps[:i] + (exps[i] - by,) + exps[i + 1:]


def o_add(a, b):
    return termwise([*a.items(), *b.items()])


def o_neg(a):
    return {key: -mv for key, mv in a.items()}


def o_scale(a, c):
    return termwise((key, mv * c) for key, mv in a.items())


def o_div(a, c):
    return termwise((key, mv / c) for key, mv in a.items())


def o_lmul(a, c):
    return termwise((key, c * mv) for key, mv in a.items())


def o_rmul(a, c):
    return termwise((key, mv * c) for key, mv in a.items())


def o_mul(ctx, a, b):
    """Product: every pair of terms, blade products summed one at a time."""
    acc = {}
    for (ea, na, la), ca in a.items():
        for (eb, nb, lb), cb in b.items():
            key = (tuple(x + y for x, y in zip(ea, eb)), na + nb,
                   la + lb if la + lb else 0)
            out = acc.setdefault(key, {})
            for ma, va in ca.terms.items():
                for mb, vb in cb.terms.items():
                    mask, sign = ctx.blade_mul(ma, mb)
                    v = vb * va if sign > 0 else -(vb * va)
                    s = out.get(mask, 0) + v
                    if s:
                        out[mask] = s
                    else:
                        out.pop(mask, None)
    return {key: Multivector(ctx, t) for key, t in acc.items() if t}


def o_partial(a, i):
    return termwise(((_lowered(exps, i, 1), n, lam), mv * exps[i])
                    for (exps, n, lam), mv in a.items() if exps[i])


def o_dirac(ctx, a):
    return termwise(((_lowered(exps, i, 1), n, lam), ctx.e(i + 1) * (mv * exps[i]))
                    for (exps, n, lam), mv in a.items()
                    for i in range(ctx.m) if exps[i])


def o_laplacian(ctx, a):
    return termwise(((_lowered(exps, i, 2), n, lam), mv * (exps[i] * (exps[i] - 1)))
                    for (exps, n, lam), mv in a.items()
                    for i in range(ctx.m) if exps[i] > 1)


def o_d_dt(a):
    contributions = []
    for (exps, n, lam), mv in a.items():
        if n:
            contributions.append(((exps, n - 1, lam), mv * n))
        if lam != 0:
            contributions.append(((exps, n, lam), mv * lam))
    return termwise(contributions)


def o_split(a):
    """The four component mappings, algebra.split applied term by term."""
    outs = ({}, {}, {}, {})
    for key, mv in a.items():
        parts = split(mv)
        for out, comp in zip(outs, (parts.f0, parts.f1, parts.f2, parts.f3)):
            if not comp.is_zero():
                out[key] = comp
    return outs


def o_evaluate(ctx, a, point, t):
    """Value of the lambda = 0 terms at an exact point: sum of c * x^exps * t^n."""
    total = ctx.zero()
    for (exps, n, lam), mv in a.items():
        if lam == 0:
            w = Fraction(1)
            for x, e in zip(point, exps):
                w *= Fraction(x) ** e
            total = total + mv * (w * Fraction(t) ** n)
    return total


EXACT_TYPES = (int, Fraction, GaussianRational)


def exact_values(*maps):
    """Every coefficient value of the given term mappings is exact."""
    return all(type(v) in EXACT_TYPES for terms in maps
               for mv in terms.values() for v in mv.terms.values())


def canonical(v):
    """v as the body storage hands an exact value out: an int when
    integral, a Fraction when rational and a GaussianRational only when
    its imaginary part is nonzero.  Any other value as it is."""
    if type(v) is GaussianRational and not v.im:
        v = v.re
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def assert_matches(got, want, exact):
    """got (a {key: Multivector} mapping) equals the oracle's want.

    Exact operands: equal values, each of the type canonical gives the
    oracle's value.  Inexact operands: the same type and repr per blade,
    bit for bit, after canonical.  Either way no key is empty and no
    stored value is zero.
    """
    for mv in got.values():
        assert mv.terms and all(v != 0 for v in mv.terms.values())
    if not exact:
        assert typed(got) == typed(want)
        return
    assert got == want
    for key, mv in got.items():
        for mask, v in mv.terms.items():
            assert type(v) in EXACT_TYPES
            assert type(v) is type(canonical(want[key].terms[mask]))


def typed(terms):
    """Per key and blade, (type name, repr) of the canonical coefficient."""
    return {key: {b: _typed(canonical(v)) for b, v in mv.terms.items()}
            for key, mv in terms.items()}


def _typed(v):
    return type(v).__name__, repr(v)


# -- stage constructions of the series builds ------------------------------------
#
# The builders expand each level's small body under the integer shifts of
# rho^{2l}.  These sum the same series one Sum stage per level on the full
# powers rho^{2l} p, with one Multivector weight per level, and apply each
# form's operators (d_x, zeta^-1, truncation) to whole series, as the
# builders once did for float input.  On exact input they give the exact
# builds' values; on float input they are the reference of the accuracy
# bound.


def rho_powers(p):
    """p, rho^2 p, rho^4 p, ...; each power is computed only when asked for."""
    rho2 = rho_squared(p.ctx)
    while True:
        yield p
        p = Sum(p.ctx).product(rho2, p).value()


def radial_stages(total, P, levels):
    """Record sum_n w_n rho^{2n} P on the Sum total, one constant product
    stage per Multivector weight w_n; returns total."""
    for w, power in zip(levels, rho_powers(P)):
        total.lmul(w, power)
    return total


def radial_levels(z, gamma, L, radial, ctx):
    """The Multivector weights w_n = (-1/4 zeta* zeta)^n / (n! (gamma)_n),
    n = 0..L: by the ZetaElement recurrence ("direct") or by
    sylvester_eval of each power series term ("sylvester")."""
    if radial == "direct":
        return weight_recurrence(z.star_zeta(), gamma, L, ctx)
    out = []
    coeff = 1.0
    for n in range(L + 1):
        if n:
            coeff *= -0.25 / (n * float(gamma + n - 1))
        psi = PowerSeries([0.0] * n + [coeff])
        out.append(sylvester_eval(psi, z).to_multivector(ctx))
    return out


def stage_helmholtz(heads, z, L, radial="direct"):
    """The Helmholtz body of the heads, each head's series summed level by
    level."""
    ctx = heads[0].poly.ctx
    total = Sum(ctx)
    for h in heads:
        gamma = Fraction(2 * h.degree + ctx.m, 2)
        radial_stages(total, h.poly, radial_levels(z, gamma, L, radial, ctx))
    return total.value()


def stage_generalized(heads, z, L, form):
    """The generalized body of the heads: the form's operators applied to
    series summed level by level."""
    ctx = heads[0].poly.ctx
    x = vector_variable(ctx)
    # within a head the stages' terms have distinct spatial degrees, so
    # adding them one by one to the sum adds the head's whole series
    total = Sum(ctx)
    for head in heads:
        k = head.degree
        two_g = 2 * k + ctx.m
        gamma = Fraction(two_g, 2)
        if form == "monogenic":
            sz = z.star_zeta()
            radial_stages(total, head.poly, weight_recurrence(sz, gamma, L, ctx))
            b_head = (x * head.poly.lmul(z.to_multivector(ctx))).scale(
                Fraction(1, two_g))
            radial_stages(total, b_head, weight_recurrence(sz, gamma + 1, L, ctx))
        elif form == "factored":
            levels = weight_recurrence(z * z.involution(), gamma + 1, L, ctx)
            inner = radial_stages(Sum(ctx), (x * head.poly).scale(
                Fraction(1, two_g)), levels).value()
            total.lmul(z.involution().to_multivector(ctx), inner)
            total.dirac(inner, -1)
        else:
            levels = weight_recurrence(z.star_zeta(), gamma, L + 1, ctx)
            inner = radial_stages(Sum(ctx), head.poly, levels).value()
            total.add(inner.truncate_degree(2 * L + k + 1))
            total.lmul(z.invert().to_multivector(ctx), inner.dirac(), -1)
    return total.value()


# The parabolic bodies summed one Sum product stage per level on the full
# powers rho^{2l} M and rho^{2l} x M.  A polynomial profile ends the series
# on its own; any other is truncated at L.


def chain_0F1(gamma, base, a, L=None):
    """sum_l rho^{2l} base a^(l) / (4^l l! (gamma)_l), one product stage
    per level on rho_powers(base)."""
    total = Sum(base.ctx)
    weight, deriv = Fraction(1), a
    last = a.max_n() if a.is_polynomial() else L
    for l, power in zip(range(last + 1), rho_powers(base)):
        if deriv.is_zero():
            break
        if l:
            weight = weight / (4 * l * (gamma + l - 1))
        total.product(power, deriv, weight)
        deriv = deriv.d_dt()
    return total.value()


def chain_parabolic_closed(M, a, L=None):
    """The closed-form body 0F1(g)[M]a + 0F1(g+1)[x fdag M / (2k+m)]a
    + 0F1(g+1)[x f M / (2k+m)]a'."""
    ctx, k = M.poly.ctx, M.degree
    gamma = Fraction(2 * k + ctx.m, 2)
    f, fdag = witt_basis(ctx)
    x = vector_variable(ctx)
    scale = Fraction(1, 2 * k + ctx.m)
    return Sum(ctx).add(chain_0F1(gamma, M.poly, a, L)).add(
        chain_0F1(gamma + 1, (x * M.poly.lmul(fdag)).scale(scale), a, L)).add(
        chain_0F1(gamma + 1, (x * M.poly.lmul(f)).scale(scale), a.d_dt(), L)
    ).value()


def chain_parabolic_recurrence(M, seeds, L=None):
    """The recurrence body G0 + f G1 + fdag G2 + f fdag G3 of the seeds
    ({"a0", "b0", "a2", "b2"} -> profile, missing for zero), each G_i
    summed over the levels as rho^{2l} M alpha + rho^{2l} x M beta."""
    ctx, k = M.poly.ctx, M.degree
    gamma = Fraction(2 * k + ctx.m, 2)
    zero = TimeFunction.zero(ctx)
    a0, b0, a2, b2 = (seeds.get(name, zero) for name in ("a0", "b0", "a2", "b2"))
    if all(p.is_polynomial() for p in (a0, b0, a2, b2)):
        stop = max(0, *(p.max_n() for p in (a0, b0, a2, b2)))
    else:
        stop = L
    x = vector_variable(ctx)
    Gs = [Sum(ctx) for _ in range(4)]
    for l, P, Q in zip(range(stop + 1), rho_powers(M.poly),
                       rho_powers(x * M.poly)):
        t, u = 2 * l + 2 * k + ctx.m, 2 * (l + 1)
        na0 = a0.d_dt().scale(1 / (4 * (l + 1) * (gamma + l)))
        na2 = a2.d_dt().scale(1 / (4 * (l + 1) * (gamma + l)))
        for G, alpha, beta in zip(Gs, (a0, b0.scale(t), a2, b2.scale(-t) - a0),
                                  (b0, na0.scale(-u), b2, na2.scale(u) - b0)):
            G.product(P, alpha).product(Q, beta)
        a0, a2 = na0, na2
        b0 = b0.d_dt().scale(1 / (4 * (l + 1) * (gamma + 1 + l)))
        b2 = b2.d_dt().scale(1 / (4 * (l + 1) * (gamma + 1 + l)))
    return assemble_split(*(G.value() for G in Gs))


def rule_table_levels(k, m, chains, count):
    """The parabolic levels l < count by the F0..F3 rule table of the
    recurrence, on the seeds c s given as chains, name -> (c, [s, s', ...])
    (a missing name or order is zero): with a_j = c w_j(g) s^(j) for
    a-seeds, b_j = c w_j(g+1) s^(j) for b-seeds and
    w_j(g) = 1 / (4^j j! (g)_j), each level is eight slots, the entries
    0..3 (1, f, fdag, f fdag) of P_l (even slot 2i) and Q_l (odd slot
    2i+1), each a list of (c, s^(j)), the terms on one derivative object
    merged by their coefficient sum and zero ones dropped."""
    terms = {}
    for name, (c, chain) in chains.items():
        two_g = 2 * k + m + 2 * (name[0] == "b")
        terms[name], w = [], Fraction(c)
        for j, d in enumerate(chain):
            terms[name].append((w, d))
            w /= 2 * (j + 1) * (two_g + 2 * j)     # 4(j+1)(g+j)
    levels = []
    for l in range(count):
        t, u = 2 * l + 2 * k + m, 2 * (l + 1)
        # (slot, j - l, factor): factor seed_j is in slot
        rules = {"a0": ((0, 0, 1), (3, 1, -u), (6, 0, -1)),
                 "b0": ((1, 0, 1), (2, 0, t), (7, 0, -1)),
                 "a2": ((4, 0, 1), (7, 1, u)), "b2": ((5, 0, 1), (6, 0, -t))}
        slots = [{} for _ in range(8)]      # id of s^(j) -> [c, s^(j)]
        for name, rule in rules.items():
            seed = terms.get(name, ())
            for slot, dj, factor in rule:
                if l + dj < len(seed):
                    w, d = seed[l + dj]
                    slots[slot].setdefault(id(d), [0, d])[0] += factor * w
        levels.append([[(c, d) for c, d in slot.values() if c] for slot in slots])
    return levels


def rule_table_body(M, levels, first=None):
    """sum_l rho^{2l} sum_i c_i (M alpha_i,l + x M beta_i,l) over the
    rule-table levels, c = 1, f, fdag, f fdag, one Sum of product stages
    per level in slot order; first, a closed form's M block, stands for
    the P_l M."""
    ctx = M.poly.ctx
    f, fdag = witt_basis(ctx)
    units = (None, f, fdag, f * fdag)
    bases = (M.poly, vector_variable(ctx) * M.poly)
    blocks = []
    for l, slots in enumerate(levels):
        level = Sum(ctx)
        for slot, part in enumerate(slots):
            unit, base = units[slot // 2], bases[slot % 2]
            for c, d in () if first is not None and slot % 2 == 0 else part:
                level.product(base if unit is None else base.lmul(unit), d, c)
        blocks.append((l, level.value()))
    body = radial_series(ctx, [blocks])
    return body if first is None else first + body


def ladder_body(M, P, Q, chains, first=None):
    """sum_l rho^{2l} sum_i c_i (M alpha_i,l + x M beta_i,l) over the
    ProfileWeight levels P and Q of a parabolic form on its chains, one
    Sum product stage per seed derivative, entries in (seed, order) order,
    and first + body for a closed form's M block first: the Sum chain the
    builders ran before each level became one product of integer rows."""
    ctx = M.poly.ctx
    f, fdag = witt_basis(ctx)
    units = (None, f, fdag, f * fdag)
    bases = (M.poly, vector_variable(ctx) * M.poly)
    blocks = []
    for l, (p, q) in enumerate(zip(P, Q)):
        level = Sum(ctx)
        for i in range(4):
            for b, w in enumerate((p, q)):
                if b == 0 and first is not None:
                    continue
                head = bases[b] if i == 0 else bases[b].lmul(units[i])
                for (s, j), c in sorted(w.parts[i].items()):
                    level.product(head, chains[s][j], c)
        blocks.append((l, level.value()))
    body = radial_series(ctx, [blocks])
    return body if first is None else first + body


# -- the Sum chains of the one-pass parabolic kernels --------------------------
#
# D and the split conditions as chains of Sum stages on the Witt
# Multivectors f and fdag and on the split component bodies: what timefn
# and verify ran on every body before an exact one was read in one pass
# (poly.parabolic_rows, condition_rows), and still run on raw values.


def sum_parabolic_dirac(F):
    """D F = d_x F + f d_t F + fdag F, one Sum."""
    f, fdag = witt_basis(F.ctx)
    return Sum(F.ctx).dirac(F).lmul(f, F.d_dt()).lmul(fdag, F).value()


def sum_heat_residual(F):
    """(Laplacian - d_t) F, one Sum."""
    return Sum(F.ctx).laplacian(F).d_dt(F, -1).value()


def sum_conditions(F):
    """F1 + d_x F0, F3 - d_x F2 + F0, (Laplacian - d_t) F0 and
    (Laplacian - d_t) F2, from the split component bodies."""
    f0, f1, f2, f3 = F.split()
    ctx = F.ctx
    return [Sum(ctx).add(f1).dirac(f0).value(),
            Sum(ctx).add(f3).dirac(f2, -1).add(f0).value(),
            sum_heat_residual(f0), sum_heat_residual(f2)]


def form_chains(sol, profiles):
    """The chains [s, s', ...] that sol's parabolic radial form is written
    on, made again from its profiles (the seeds in SEEDS order, None for
    a missing one, or the closed build's a) to the form's lengths."""
    ((_, _, P, _),) = sol._radial
    lengths = P[0].lengths if P else ()
    return [derivatives(p, n - 1) if n else [] for p, n in zip(profiles, lengths)]


def weight_profiles(ctx, w, chains):
    """The four entries of a ProfileWeight as profiles, each
    sum c s_i^(j) over its (i, j): c on the chains."""
    return tuple(sum((chains[i][j].scale(c) for (i, j), c in part.items()),
                     TimeFunction.zero(ctx)) for part in w.parts)


def parabolic_from_generalized(M, lam, L=12):
    """The parabolic solution of the profile exp(lam t), recovered from the
    generalized machinery: zeta = lam f + fdag turns d_x + f d_t + fdag
    acting on exp(lam t) g into exp(lam t) (d_x + zeta) g, so it is the
    generalized monogenic series of that zeta times exp(lam t), flagged
    inexact and keeping no form."""
    ctx = M.poly.ctx
    z = ZetaElement(0, lam, 1, 0)
    gen = build_generalized(M, z, L, form="monogenic")
    body = gen.body * TimeFunction.term(ctx, 1, n=0, lam=lam)
    return SeriesSolution(body=body, mode="parabolic-closed", m=ctx.m,
                          k=M.degree, L=L, exact=False, zeta=z,
                          extra={"lambda": lam, "via": "generalized"})


# -- the accuracy bound of float builds ---------------------------------------------
#
# A float is a dyadic rational, so the input of a float build converts to an
# exact input exactly; the exact build of it is the value that the float
# build approximates.


EPS = 2.0 ** -52


def dyadic(v):
    """A float or complex value as the exact value it is; any other value
    as it is."""
    if type(v) is float:
        return Fraction(v)
    if type(v) is complex:
        re, im = Fraction(v.real), Fraction(v.imag)
        return GaussianRational(re, im) if im else re
    return v


def dyadic_zeta(z):
    return ZetaElement(*(dyadic(v) for v in z.entries()))


def dyadic_body(F):
    """F with every value and lambda read as the exact value it is."""
    return type(F)(F.ctx, {
        (key[0], key[1], dyadic(key[2])) if type(key[0]) is tuple else key:
        Multivector(F.ctx, {b: dyadic(v) for b, v in F.coeffs(key).items()})
        for key in F.keys()})


def max_error(got, exact):
    """The largest |got - exact| over every term and blade of either body,
    each difference taken exactly; a float key and an exact key of equal
    value are one key."""
    worst = 0.0
    for key in set(got.keys()) | set(exact.keys()):
        have = got.coeffs(key) if key in got.keys() else {}
        want = exact.coeffs(key) if key in exact.keys() else {}
        for b in set(have) | set(want):
            d = dyadic(have.get(b, 0)) - want.get(b, 0)
            worst = max(worst, abs(complex(d)))
    return worst


def scale_of(exact):
    """The coefficient scale of an exact body: its largest |coefficient|."""
    return max((abs(complex(v)) for key in exact.keys()
                for v in exact.coeffs(key).values()), default=0.0)


def split_perturbed(body, slot, delta):
    """body with delta added to its split component slot (0..3): the body
    split into F0..F3 and assembled again."""
    parts = list(body.split())
    parts[slot] = parts[slot] + delta
    return assemble_split(*parts)


def decode_scalar_reference(pair):
    """An [re, im] pair read as decode_scalar read it before its fast path
    for [int, 0] and finite [float, 0] pairs."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"scalar must be an [re, im] pair, got {pair!r}")
    re, im = pair
    if type(re) not in (int, float):
        re = _decode_part(re)
    if type(im) not in (int, float):
        im = _decode_part(im)
    if isinstance(re, float) or isinstance(im, float):
        v = (complex(to_float(re), to_float(im))
             if isinstance(im, float) or im != 0 else to_float(re))
        if not cmath.isfinite(v):
            raise ValueError(f"scalar {pair!r} is not finite")
        return v
    return re if im == 0 else GaussianRational(re, im)


def _finite(add):
    """add(), a sum of repeated entries, refused as the loader refuses one
    beyond the float range (an exact value and a float whose sum
    overflows, or floats whose sum is not finite)."""
    message = "a repeated coefficient sums beyond the float range"
    try:
        s = add()
    except OverflowError:
        raise ValueError(message) from None
    values = s.terms.values() if isinstance(s, Multivector) else (s,)
    if any(isinstance(v, (float, complex)) and not cmath.isfinite(v) for v in values):
        raise ValueError(message)
    return s


def solution_from_dict_reference(data):
    """A solution dict read as the loader read it before its fast paths:
    every value through decode_scalar_reference, one Multivector per row, a
    repeated label added with +, a repeated key added with Multivector +
    (either refused when the sum is beyond the float range), and the terms
    made a body by the SpaceTimeFunction constructor."""
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
    terms = {}
    masks = {}
    for row in _get(data, "terms", (list,)):
        if not isinstance(row, dict):
            raise ValueError(f"term row must be an object, got {row!r}")
        exps = _int_list(_get(row, "exponents", (list,), "term row"), "exponents")
        if len(exps) != ctx.m:
            raise ValueError("exponent tuple length does not match m")
        n = _get(row, "n", (int,), "term row")
        if n < 0:
            raise ValueError(f"t exponent n={n} is negative")
        lam = decode_scalar_reference(_get(row, "lambda", (list,), "term row"))
        coeffs = {}
        for blade in _get(row, "blades", (list,), "term row"):
            if not (isinstance(blade, list) and len(blade) == 2
                    and isinstance(blade[0], str)):
                raise ValueError(f"blade entry must be [label, [re, im]], got {blade!r}")
            mask = masks.get(blade[0])
            if mask is None:
                mask = masks[blade[0]] = ctx.blade_from_label(blade[0])
            v = decode_scalar_reference(blade[1])
            coeffs[mask] = _finite(lambda: coeffs[mask] + v) if mask in coeffs else v
        mv = Multivector(ctx, {m_: v for m_, v in coeffs.items() if v != 0})
        if not mv.is_zero():
            key = (exps, n, lam)
            prev = terms.get(key)
            terms[key] = mv if prev is None else _finite(lambda: prev + mv)
    body = SpaceTimeFunction(ctx, terms)
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
