"""Null-solution constructions for d_x + f d_t + fdag and d_x + zeta.

Parabolic solutions F = F0 + f F1 + fdag F2 + f fdag F3 built from a
monogenic head M_k of degree k, either by the first-order coefficient
recurrence (four seed time-profiles a0, b0, a2, b2) or from the 0F1
closed form driven by a single profile a(t).  Generalized solutions for
d_x + zeta come in three equivalent shapes: the direct two-block series
(monogenic), the factored form (zeta* - d_x) applied to one series, and
the invertible form (1 - zeta^-1 d_x) applied to the other.  The
Helmholtz-side builder sums radial Cl(1,1) weights against rho^{2n} H_k.

Every generalized and Helmholtz series is sum_l rho^{2l} (P_l M + Q_l x M)
over its heads M, with Cl(1,1) coefficients P_l, Q_l built from the
radial weights w_n = (-1/4 zeta* zeta)^n / (n! (g)_n).  A build reads
zeta once as Z: zeta.IntMatrix.of(zeta), integer numerators over one
denominator, when zeta and the heads are exact, and the ZetaElement
itself otherwise.  It computes every P_l and Q_l from Z^ Z, Z Z^, Z^ and
Z^-1 by the operations both types share; the three generalized forms
differ only in that step, and a Sylvester Helmholtz build takes its
weights from zeta.sylvester_eval instead.  The body is expanded from
them by poly.radial_series, and an exact "direct" build keeps them as
its radial form, which verify checks the build's residual by.

All series are truncated at the requested order L; the parabolic builds
terminate on their own when every seed profile is a polynomial in t, in
which case the result is an exact null-solution (flagged exact when the
coefficient arithmetic is exact too).  The parabolic operator is d_x +
zeta with zeta = f d/dt + fdag, so a parabolic build has the same radial
form with timefn.ProfileWeight coefficients
P_l = sum_i c_i alpha_{i,l} and Q_l = sum_i c_i beta_{i,l}, c = 1, f,
fdag, f fdag, the profiles right of M.  _parabolic_body expands it one
small level body per level by poly.radial_series: every level of the
recurrence, and the two x M blocks of the closed form, whose first block
apply_0F1 sums.  An exact one keeps that form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .algebra import AlgebraContext, witt_basis
from .harmonics import HarmonicPoly, MonogenicPoly
from .poly import (CliffordPoly, Sum, radial_product, radial_series,
                   vector_variable)
from .timefn import ProfileWeight, SpaceTimeFunction, TimeFunction, apply_0F1
from .zeta import (IntMatrix, NotInvertibleError, PowerSeries, ZetaElement,
                   sylvester_eval)

PARABOLIC_MODES = ("parabolic-recurrence", "parabolic-closed")
GENERALIZED_MODES = ("gen-monogenic", "gen-factored", "gen-invertible")
ALL_MODES = PARABOLIC_MODES + ("helmholtz",) + GENERALIZED_MODES


class RadialForm(NamedTuple):
    """The radial form of an exact build, sum_l rho^{2l} (P_l M + Q_l x M)
    over each head M of degree k.

    heads holds (k, M, P, Q) per head, M the head's CliffordPoly and P and
    Q tuples of L+1 IntMatrix values; a Helmholtz build has P_l = w_l and
    Q None.  A parabolic build's zeta is None and its P and Q hold one
    ProfileWeight per level, every level past the last zero.  mode, k, L
    and zeta are the build's, so a form is read only for its solution.
    """

    mode: str
    k: Union[int, Tuple[int, ...]]
    L: int
    zeta: Optional[ZetaElement]
    heads: Tuple[Tuple[int, CliffordPoly, tuple, Optional[tuple]], ...]


@dataclass
class SeriesSolution:
    """A built solution plus the metadata needed to verify and serialize it.

    A solution remembers D F of its body for the parabolic operator D, so
    dirac_residual followed by check_component_conditions applies D once.
    The memo is (body, D body, by_ladder), read only while body is that
    same object; it takes no part in ==, repr or serialization.  An exact
    build keeps its RadialForm the same way, as (body, form) in _radial;
    verify checks it by the radial ladder, which for a parabolic build
    stands in for D F and the component conditions.
    """

    body: SpaceTimeFunction
    mode: str
    m: int
    k: Union[int, Tuple[int, ...]]
    L: int
    exact: bool
    zeta: Optional[ZetaElement] = None
    extra: Dict[str, object] = field(default_factory=dict)
    _dirac: Optional[Tuple[SpaceTimeFunction, SpaceTimeFunction, bool]] = field(
        default=None, init=False, repr=False, compare=False)
    _radial: Optional[Tuple[SpaceTimeFunction, RadialForm]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def ctx(self) -> AlgebraContext:
        return self.body.ctx


def _as_list(heads, kind, L: int) -> list:
    """The heads as a list; ValueError for bad heads or a negative order L."""
    if L < 0:
        raise ValueError(f"truncation order L={L} is negative")
    items = list(heads) if isinstance(heads, (list, tuple)) else [heads]
    if not items:
        raise ValueError("need at least one head polynomial")
    for h in items:
        if not isinstance(h, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(h).__name__}")
    ctx = items[0].poly.ctx
    if any(h.poly.ctx != ctx for h in items):
        raise ValueError("all heads must share one algebra context")
    return items


def build_parabolic_closed(M: MonogenicPoly, a: TimeFunction,
                           L: int = 12) -> SeriesSolution:
    """F = 0F1(g)[M]a + 0F1(g+1)[x fdag M / (2k+m)]a + 0F1(g+1)[x f M / (2k+m)]a'.

    g = k + m/2.  The fdag block and the f block share the series order
    but the f block is driven by a'(t); together they reproduce the
    recurrence solution seeded with a0 = a, b2 = -a/(2k+m).

    The first block is summed by one apply_0F1 call, and the profiles of
    the other two are read off the derivatives a^(l) it records: since
    x fdag M = -fdag x M, x f M = -f x M and
    w_l(g+1) / (2k+m) = w_l(g) / t_l with t_l = 2l+2k+m, they are
    Q_l = -w_l(g) (f a^(l+1) + fdag a^(l)) / t_l, expanded by
    _parabolic_body.  A truncated series takes a^(L+1) for its top f
    level.  With P_l = w_l(g) a^(l) they are its radial form.
    """
    (M,) = _as_list(M, MonogenicPoly, L)
    ctx = M.poly.ctx
    k = M.degree
    gamma = Fraction(2 * k + ctx.m, 2)
    chain = []
    first = apply_0F1(gamma, M.poly, a, L, chain)
    # a^(l+1) per level: None past a polynomial's last derivative
    top = chain[-1][1].d_dt() if chain and not a.is_polynomial() else None
    nexts = [d for _, d in chain[1:]] + [top]
    P = tuple(ProfileWeight.of([d], w) for w, d in chain)
    # -w_l(g+1) / (2k+m) = -w_l(g) / t_l
    Q = tuple(ProfileWeight.of([None, nxt, d], -w / (2 * l + 2 * k + ctx.m))
              for l, ((w, d), nxt) in enumerate(zip(chain, nexts)))
    body = first + _parabolic_body(M, (ProfileWeight.of([]),) * len(Q), Q)
    exact = a.is_polynomial() and a.is_exact() and M.poly.is_exact()
    return _parabolic_solution(body, "parabolic-closed", M, L, exact, P, Q)


def build_parabolic_recurrence(M: MonogenicPoly,
                               seeds: Dict[str, Optional[TimeFunction]],
                               L: int = 12) -> SeriesSolution:
    """Iterate the coefficient recurrence from four seed profiles.

    seeds maps "a0", "b0", "a2", "b2" to time profiles (missing or None
    means zero).  Writing g = k + m/2 and P_l = rho^{2l} M, Q_l = rho^{2l} x M:

        F0 = sum P_l a0_l + Q_l b0_l
        F1 = sum P_l 2(l+g) b0_l - Q_l 2(l+1) a0_{l+1}
        F2 = sum P_l a2_l + Q_l b2_l
        F3 = sum -P_l (2(l+g) b2_l + a0_l) + Q_l (2(l+1) a2_{l+1} - b0_l)

    with a_{l+1} = a_l' / (4(l+1)(l+g)) and b_{l+1} = b_l' / (4(l+1)(l+g+1)).
    Polynomial seeds terminate the sum on their own; otherwise it stops at L.
    Each level's alphas and betas are the ProfileWeight coefficients P_l
    and Q_l of its radial form, which _parabolic_body expands and an
    exact build keeps.
    """
    (M,) = _as_list(M, MonogenicPoly, L)
    ctx = M.poly.ctx
    k = M.degree
    gamma = Fraction(2 * k + ctx.m, 2)

    unknown = set(seeds) - {"a0", "b0", "a2", "b2"}
    if unknown:
        raise ValueError(f"unknown seed keys: {sorted(unknown)}")
    zero_tf = TimeFunction.zero(ctx)

    def seed(name: str) -> TimeFunction:
        tf = seeds.get(name)
        if tf is None:
            return zero_tf
        if tf.ctx != ctx:
            raise ValueError("seed profile context mismatch")
        return tf

    a0, b0, a2, b2 = seed("a0"), seed("b0"), seed("a2"), seed("b2")
    polynomial = all(tf.is_polynomial() for tf in (a0, b0, a2, b2))
    if polynomial:
        stop = max(tf.max_n() for tf in (a0, b0, a2, b2))
        stop = max(stop, 0)
    else:
        stop = L

    levels = []
    for l in range(stop + 1):
        two_lg = 2 * l + 2 * k + ctx.m          # 2(l + g), an integer
        div_a = 4 * (l + 1) * (gamma + l)
        div_b = 4 * (l + 1) * (gamma + 1 + l)
        a0_next = a0.d_dt().scale(1 / div_a) if not a0.is_zero() else zero_tf
        a2_next = a2.d_dt().scale(1 / div_a) if not a2.is_zero() else zero_tf
        # (alpha, beta) of F0, F1, F2, F3
        levels.append((a0, b0, b0.scale(two_lg), a0_next.scale(-2 * (l + 1)),
                       a2, b2, b2.scale(-two_lg) - a0,
                       a2_next.scale(2 * (l + 1)) - b0))
        a0, a2 = a0_next, a2_next
        b0 = b0.d_dt().scale(1 / div_b) if not b0.is_zero() else zero_tf
        b2 = b2.d_dt().scale(1 / div_b) if not b2.is_zero() else zero_tf

    exact = polynomial and M.poly.is_exact() and all(
        seed(n).is_exact() for n in ("a0", "b0", "a2", "b2"))
    P = tuple(ProfileWeight.of(profiles[0::2]) for profiles in levels)
    Q = tuple(ProfileWeight.of(profiles[1::2]) for profiles in levels)
    return _parabolic_solution(_parabolic_body(M, P, Q),
                               "parabolic-recurrence", M, stop, exact, P, Q)


def _parabolic_solution(body: SpaceTimeFunction, mode: str, M: MonogenicPoly,
                        L: int, exact: bool, P=(), Q=()) -> SeriesSolution:
    """The SeriesSolution of a parabolic build.  An exact one keeps the
    radial form of its weights P and Q unless a profile depends on x: the
    ladder takes every profile for a function of t, which d_x leaves."""
    k = M.degree
    sol = SeriesSolution(body=body, mode=mode, m=M.poly.ctx.m, k=k, L=L,
                         exact=exact)
    if exact and not any(any(exps) for w in P + Q for part in w.parts
                         for _, p, _ in part for exps, _, _ in p.keys()):
        sol._radial = (body, RadialForm(mode, k, L, None, ((k, M.poly, P, Q),)))
    return sol


def _parabolic_body(M: MonogenicPoly, P: tuple, Q: tuple) -> SpaceTimeFunction:
    """The parabolic body sum_l rho^{2l} (P_l M + Q_l x M) of
    ProfileWeight levels: sum_i c_i (M alpha_i,l + x M beta_i,l) over the
    entries of P_l and Q_l, c = 1, f, fdag, f fdag, is made once per level
    and expanded under the shifts of rho^{2l} by radial_series."""
    ctx = M.poly.ctx
    f, fdag = witt_basis(ctx)
    units = (None, f, fdag, f * fdag)
    bases = (M.poly, vector_variable(ctx) * M.poly)
    heads, blocks = {}, []      # c_i M and c_i x M, made for the slots in use
    for l, (Pl, Ql) in enumerate(zip(P, Q)):
        level = Sum(SpaceTimeFunction, ctx)
        # slot 2i + j holds entry i of P_l (j = 0) or of Q_l (j = 1)
        slots = (part for pair in zip(Pl.parts, Ql.parts) for part in pair)
        for slot, part in enumerate(slots):
            for c, p, _ in part:
                if slot not in heads:
                    u, base = units[slot // 2], bases[slot % 2]
                    heads[slot] = SpaceTimeFunction.from_poly(
                        base if u is None else base.lmul(u))
                level.product(heads[slot], p, c)
        blocks.append((l, level.value()))
    return radial_series(SpaceTimeFunction, ctx, [blocks])


def _radial_solution(mode: str, heads: list, L: int, z: ZetaElement,
                     weights: list, keep: bool, **extra) -> SeriesSolution:
    """The SeriesSolution of a series build from its radial form: weights
    holds (P, Q) per head, Q None for Helmholtz, and the body is
    sum_l rho^{2l} (P_l M + Q_l x M) over the heads M.  keep: the build
    keeps the form."""
    ctx = heads[0].poly.ctx
    x = vector_variable(ctx)
    body = radial_series(CliffordPoly, ctx, [
        [(l, radial_product(w, p)) for p, levels in
         [(h.poly, P)] + ([] if Q is None else [(x * h.poly, Q)])
         for l, w in enumerate(levels)]
        for h, (P, Q) in zip(heads, weights)])
    degrees = tuple(h.degree for h in heads)
    sol = SeriesSolution(body=SpaceTimeFunction.from_poly(body), mode=mode,
                         m=ctx.m, k=degrees if len(degrees) > 1 else degrees[0],
                         L=L, exact=False, zeta=z, extra=extra)
    if keep:
        sol._radial = (sol.body, RadialForm(mode, sol.k, L, z, tuple(
            (h.degree, h.poly, P, Q) for h, (P, Q) in zip(heads, weights))))
    return sol


def _exact(z: ZetaElement, heads: list) -> bool:
    return z.is_exact() and all(h.poly.is_exact() for h in heads)


def build_helmholtz(H, z: ZetaElement, L: int = 12,
                    radial: str = "direct") -> SeriesSolution:
    """g = sum_{n<=L} (-1/4 zeta* zeta)^n rho^{2n} H_k / (n! (g)_n) per head.

    Solves (Laplacian + zeta* zeta) g = 0 up to the truncation tail; the
    heads are harmonic, not necessarily monogenic.  radial chooses how the
    Cl(1,1) weights are computed ("direct" powers, exact for exact input,
    or "sylvester" the spectral formula; they agree to rounding).  An
    exact "direct" build keeps its weights w_l as its radial form.
    """
    heads = _as_list(H, HarmonicPoly, L)
    if radial not in ("direct", "sylvester"):
        raise ValueError(f"unknown radial evaluation {radial!r}")
    exact = _exact(z, heads)
    Z = IntMatrix.of(z) if exact else z
    m = heads[0].poly.ctx.m
    weights = [(tuple(_helmholtz_weights(Z, z, Fraction(2 * h.degree + m, 2),
                                         L, radial)), None) for h in heads]
    return _radial_solution("helmholtz", heads, L, z, weights,
                            exact and radial == "direct", radial=radial)


def _helmholtz_weights(Z, z: ZetaElement, gamma: Fraction, L: int,
                       radial: str) -> list:
    """w_n = (-1/4 zeta* zeta)^n / (n! (gamma)_n), n = 0..L: Z^ Z's
    radial_weights, or psi_n(zeta* zeta) by zeta.sylvester_eval."""
    if radial == "direct":
        return (Z.hat() * Z).radial_weights(gamma, L)
    out = []
    coeff = 1.0
    for n in range(L + 1):
        if n:
            coeff *= -0.25 / (n * float(gamma + n - 1))
        out.append(sylvester_eval(PowerSeries([0.0] * n + [coeff]), z))
    return out


def _generalized_weights(form: str, Z, k: int, m: int, L: int) -> tuple:
    """(P, Q), the Cl(1,1) coefficients of the series
    sum_l rho^{2l} (P_l M + Q_l x M) that the given form builds on a head M
    of degree k, for Z the IntMatrix of an exact zeta or a ZetaElement
    (x c = c^ x for c in Cl(1,1)); zeta* zeta is Z^ Z and zeta zeta* is
    Z Z^.
    """
    two_g = 2 * k + m
    gamma = Fraction(two_g, 2)
    Zh = Z.hat()
    if form == "monogenic":
        # P_l = w_l(gamma) and Q_l = w_l(gamma+1) zeta^ / (2k+m)
        s = Zh * Z
        return (tuple(s.radial_weights(gamma, L)),
                tuple(wl.scale(1, two_g) * Zh
                      for wl in s.radial_weights(gamma + 1, L)))
    if form == "factored":
        # g = (zeta* - d_x) applied to the inner series with the starred
        # weights I_l over (2k+m): P_l = (2l+2k+m) I_l^ and Q_l = zeta^ I_l
        inner = [wl.scale(1, two_g)
                 for wl in (Z * Zh).radial_weights(gamma + 1, L)]
        return (tuple(il.hat().scale(2 * l + two_g)
                      for l, il in enumerate(inner)),
                tuple(Zh * il for il in inner))
    # g = (1 - zeta^-1 d_x) applied to the series carried one order further
    # and cut back to degree 2L+k+1, which keeps all of d_x of it; so
    # P_l = w_l and Q_l = -2(l+1) zeta^-1 w_{l+1}^
    w = (Zh * Z).radial_weights(gamma, L + 1)
    zinv = Z.inverse()
    return (tuple(w[:L + 1]),
            tuple(zinv * w[l + 1].hat().scale(-2 * (l + 1))
                  for l in range(L + 1)))


def build_generalized(M, z: ZetaElement, L: int = 12,
                      form: str = "monogenic") -> SeriesSolution:
    """Null-solution of d_x + zeta from monogenic heads, three equivalent forms.

    With g = k + m/2 and B_head = x zeta M / (m+2k) the two blocks are

        A-block: sum_n (-1/4 zeta* zeta)^n rho^{2n} M / (n! (g)_n)
        B-block: sum_n (-1/4 zeta* zeta)^n rho^{2n} B_head / (n! (g+1)_n)

    monogenic   A-block + B-block summed directly.
    factored    (zeta* - d_x) applied to the B-side series built from
                zeta zeta* radial weights; identical term-by-term.
    invertible  (1 - zeta^-1 d_x) applied to the A-block carried one
                order further, then cut back to spatial degree 2L+k+1.
                Requires det(zeta) != 0.

    Every form truncates to A_L + B_L at the top, so the residual of
    (d_x + zeta) is exactly zeta B_L.  Each form computes the Cl(1,1)
    coefficients P_l, Q_l of its series sum_l rho^{2l} (P_l M + Q_l x M)
    per head (_generalized_weights) and expands the body from them; the
    forms differ only in those coefficients.  An exact build keeps them as
    its radial form.
    """
    heads = _as_list(M, MonogenicPoly, L)
    if form not in ("monogenic", "factored", "invertible"):
        raise ValueError(f"unknown generalized form {form!r}")
    if form == "invertible" and not z.is_invertible():
        raise NotInvertibleError("invertible form needs det(zeta) != 0")
    exact = _exact(z, heads)
    Z, m = (IntMatrix.of(z) if exact else z), heads[0].poly.ctx.m
    return _radial_solution(f"gen-{form}", heads, L, z, [
        _generalized_weights(form, Z, h.degree, m, L) for h in heads], exact)


def parabolic_from_generalized(M: MonogenicPoly, lam: Union[int, float, complex],
                               L: int = 12) -> SeriesSolution:
    """Recover a parabolic null-solution from the generalized machinery.

    For a pure exponential profile exp(lam t), the substitution
    zeta = lam f + fdag turns d_x + f d_t + fdag acting on exp(lam t) g
    into exp(lam t) (d_x + zeta) g.  Builds the generalized monogenic
    series for that zeta and multiplies the exponential back on.
    """
    (M,) = _as_list(M, MonogenicPoly, L)
    ctx = M.poly.ctx
    z = ZetaElement(0, lam, 1, 0)
    gen = build_generalized(M, z, L, form="monogenic")
    profile = TimeFunction.term(ctx, 1, n=0, lam=lam)
    body = gen.body * profile
    exact = False
    return SeriesSolution(body=body, mode="parabolic-closed", m=ctx.m,
                          k=M.degree, L=L, exact=exact, zeta=z,
                          extra={"lambda": lam, "via": "generalized"})
