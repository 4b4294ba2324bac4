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
them by poly.radial_series, and an exact "direct" build owns them as
its radial form, with each head M and x M, which verify checks the
build's residual by.  A SeriesSolution is immutable, so its form is
always that of its body and metadata.

All series are truncated at the requested order L; the parabolic builds
terminate on their own when every seed profile is a polynomial in t, in
which case the result is an exact null-solution (flagged exact when the
coefficient arithmetic is exact too).  The parabolic operator is d_x +
zeta with zeta = f d/dt + fdag, so a parabolic build has the same radial
form with timefn.ProfileWeight coefficients
P_l = sum_i c_i alpha_{i,l} and Q_l = sum_i c_i beta_{i,l}, c = 1, f,
fdag, f fdag, the profiles right of M.  One function, _parabolic_solution,
makes the levels of both parabolic builds by the ladder that verify
checks, from the recurrence's P_0 or from every P_l of the closed form
(the recurrence seeded with a0 = a and b2 = -a/(2k+m)), its apply_0F1
weights, and expands them by poly.radial_series, one small body per
level: on exact input one poly.products of the heads' rows and integer
time rows, on raw values one Sum product per seed derivative.  An exact
build owns that form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Tuple, Union

from .algebra import AlgebraContext, witt_basis
from .harmonics import HarmonicPoly, MonogenicPoly
from .poly import (Sum, products, radial_product, radial_series,
                   vector_variable)
from .timefn import (PARABOLIC_ZETA, ProfileWeight, SpaceTimeFunction,
                     TimeFunction, apply_0F1, derivatives)
from .zeta import (IntMatrix, NotInvertibleError, PowerSeries, ZetaElement,
                   radial_weights, sylvester_eval)

PARABOLIC_MODES = ("parabolic-recurrence", "parabolic-closed")
GENERALIZED_MODES = ("gen-monogenic", "gen-factored", "gen-invertible")
ALL_MODES = PARABOLIC_MODES + ("helmholtz",) + GENERALIZED_MODES
SEEDS = ("a0", "b0", "a2", "b2")        # the recurrence's, in chain order


@dataclass(frozen=True)
class SeriesSolution:
    """A built solution plus the metadata needed to verify and serialize it.

    A solution is an immutable value: no field can be assigned, and
    dataclasses.replace makes a copy with neither cache below.  An exact
    build owns its radial form, sum_l rho^{2l} (P_l M + Q_l x M) over each
    head M, in _radial: one (M, x M, P, Q) per head, P and Q tuples of L+1
    IntMatrix values; a Helmholtz build has P_l = w_l and x M and Q None.
    A parabolic build's P and Q hold one ProfileWeight per level, every
    level past the last zero.  The form's k, L and zeta are the
    solution's.  verify keeps the residual of the mode's operator in
    _residual, as (R, by_ladder), made once; for a parabolic build that is
    D F.  Neither cache takes part in ==, repr or serialization.
    """

    body: SpaceTimeFunction
    mode: str
    m: int
    k: Union[int, Tuple[int, ...]]
    L: int
    exact: bool
    zeta: Optional[ZetaElement] = None
    extra: Dict[str, object] = field(default_factory=dict)
    _radial: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)
    _residual: Optional[Tuple[SpaceTimeFunction, bool]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def ctx(self) -> AlgebraContext:
        return self.body.ctx


def _with_form(sol: SeriesSolution, heads: Optional[tuple]) -> SeriesSolution:
    """sol, owning heads as its radial form (None: no form)."""
    object.__setattr__(sol, "_radial", heads)
    return sol


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

    g = k + m/2.  This is the recurrence solution seeded with a0 = a and
    b2 = -a/(2k+m), on the one chain a^(l) that the apply_0F1 call summing
    the first block records (and a^(L+1) for the top f level of a
    truncated series).  Its P levels are that call's own weights, so the
    ladder that makes its Q levels from them also checks them.
    """
    (M,) = _as_list(M, MonogenicPoly, L)
    m, k = M.poly.ctx.m, M.degree
    chain = []
    first = apply_0F1(Fraction(2 * k + m, 2), M.poly, a, L, chain)
    derivs = [d for _, d in chain]
    if derivs and not a.is_polynomial():
        derivs += derivatives(derivs[-1], 1)[1:]
    P = [ProfileWeight._of(({(0, l): w.numerator}, {}, {}, {}), w.denominator,
                           (len(derivs),)) for l, (w, _) in enumerate(chain)]
    return _parabolic_solution("parabolic-closed", M, L, len(chain), [derivs],
                               P, [a], first)


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
    The level-0 weight P_0 = a0 + f (2k+m) b0 + fdag a2 - f fdag
    ((2k+m) b2 + a0) is written from the seeds, and the ladder makes
    every later level (_parabolic_solution).
    """
    (M,) = _as_list(M, MonogenicPoly, L)
    unknown = set(seeds) - set(SEEDS)
    if unknown:
        raise ValueError(f"unknown seed keys: {sorted(unknown)}")
    given = {name: tf for name, tf in seeds.items() if tf is not None}
    if any(tf.ctx != M.poly.ctx for tf in given.values()):
        raise ValueError("seed profile context mismatch")
    polynomial = all(tf.is_polynomial() for tf in given.values())
    stop = max([0] + [tf.max_n() for tf in given.values()]) if polynomial else L
    # level l reads an a-seed's order l+1 and a b-seed's order l
    chains = [derivatives(given[name], stop + (name[0] == "a"))
              if name in given else [] for name in SEEDS]
    g2 = 2 * M.degree + M.poly.ctx.m
    P0 = ProfileWeight(({(i, 0): Fraction(c) for i, c in terms if chains[i]} for terms
                        in (((0, 1),), ((1, g2),), ((2, 1),), ((3, -g2), (0, -1)))),
                       map(len, chains))
    return _parabolic_solution("parabolic-recurrence", M, stop, stop + 1,
                               chains, [P0], given.values())


def _parabolic_solution(mode: str, M: MonogenicPoly, L: int, count: int, chains: list,
                        given: list, seeds, first=None) -> SeriesSolution:
    """The parabolic build of the levels l < count from the given P_l on
    the seed chains [s_i, s_i', ...] (timefn.ProfileWeight): the ladder
    identities of d_x + zeta, zeta = f d/dt + fdag, make
    Q_l = (zeta P_l)^ / (2l+2k+m) and the later P_{l+1} = -(zeta Q_l)^ / (2(l+1)).
    Each level sum_i c_i (M alpha_i,l + x M beta_i,l), c = 1, f, fdag,
    f fdag, is one poly.products of the head rows c_i M and c_i x M,
    made once per build, and the levels' integer time rows; on raw values
    it is one Sum product per entry, in (seed, order) order.  The levels
    are expanded by radial_series; first, the closed form's M block,
    stands for the P_l M and is given up to radial_series, which adds the
    other blocks into its rows.  The build is exact when M and the seeds
    are exact and the seeds polynomial, and then owns the levels as its
    radial form unless a seed depends on x: the ladder takes each for a
    function of t.
    """
    ctx, k = M.poly.ctx, M.degree
    two_g = 2 * k + ctx.m
    f, fdag = witt_basis(ctx)
    units = (None, f, fdag, f * fdag)
    bases = (M.poly, vector_variable(ctx) * M.poly)
    levels, heads, blocks = [], {}, []  # heads: c_i M and c_i x M, when used

    def head(i, b):
        if (i, b) not in heads:
            heads[i, b] = bases[b] if i == 0 else bases[b].lmul(units[i])
        return heads[i, b]

    for l in range(count):
        P = given[l] if l < len(given) else (
            PARABOLIC_ZETA * Q).hat().scale(-1, 2 * l).reduced()
        Q = (PARABOLIC_ZETA * P).hat().scale(1, 2 * l + two_g).reduced()
        levels.append((P, Q))
        used = [(i, b, w) for i in range(4) for b, w in enumerate((P, Q))
                if w.nums[i] and (b or first is None)]
        q = lcm(P.q, Q.q)
        level = products(ctx, [(head(i, b), [(n * (q // w.q), chains[s][j])
                                             for (s, j), n in w.nums[i].items()])
                               for i, b, w in used], q)
        if level is None:       # raw values: one Sum product per entry
            level = Sum(ctx)
            for i, b, w in used:
                for (s, j), c in sorted(w.parts[i].items()):
                    level.product(head(i, b), chains[s][j], c)
            level = level.value()
        blocks.append((l, level))
    body = radial_series(ctx, [blocks], first)
    exact = M.poly.is_exact() and all(tf.is_polynomial() and tf.is_exact()
                                      for tf in seeds)
    sol = SeriesSolution(body=body, mode=mode, m=ctx.m, k=k, L=L, exact=exact)
    if exact and not any(any(exps) for tf in seeds for exps, _, _ in tf.keys()):
        return _with_form(sol, ((*bases, *(tuple(w[b] for w in levels)
                                          for b in (0, 1))),))
    return sol


def _radial_solution(mode: str, heads: list, L: int, z: ZetaElement,
                     weights: list, keep: bool, **extra) -> SeriesSolution:
    """The SeriesSolution of a series build from its radial form: weights
    holds (P, Q) per head, Q None for Helmholtz, and the body is
    sum_l rho^{2l} (P_l M + Q_l x M) over the heads M.  keep: the build
    keeps the form."""
    ctx = heads[0].poly.ctx
    x = vector_variable(ctx)
    form = tuple((h.poly, None if Q is None else x * h.poly, P, Q)
                 for h, (P, Q) in zip(heads, weights))
    body = radial_series(ctx, [
        [(l, radial_product(w, p)) for p, levels in ((M, P), (xM, Q))
         if levels is not None for l, w in enumerate(levels)]
        for M, xM, P, Q in form])
    degrees = tuple(h.degree for h in heads)
    return _with_form(SeriesSolution(
        body=body, mode=mode, m=ctx.m, k=degrees if len(degrees) > 1 else degrees[0],
        L=L, exact=False, zeta=z, extra=extra), form if keep else None)


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
    """w_n = (-1/4 zeta* zeta)^n / (n! (gamma)_n), n = 0..L: the
    radial_weights of Z^ Z, or psi_n(zeta* zeta) by zeta.sylvester_eval."""
    if radial == "direct":
        return radial_weights(Z.hat() * Z, gamma, L)
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
        return (tuple(radial_weights(s, gamma, L)),
                tuple(wl.scale(1, two_g) * Zh
                      for wl in radial_weights(s, gamma + 1, L)))
    if form == "factored":
        # g = (zeta* - d_x) applied to the inner series with the starred
        # weights I_l over (2k+m): P_l = (2l+2k+m) I_l^ and Q_l = zeta^ I_l
        inner = [wl.scale(1, two_g)
                 for wl in radial_weights(Z * Zh, gamma + 1, L)]
        return (tuple(il.hat().scale(2 * l + two_g)
                      for l, il in enumerate(inner)),
                tuple(Zh * il for il in inner))
    # g = (1 - zeta^-1 d_x) applied to the series carried one order further
    # and cut back to degree 2L+k+1, which keeps all of d_x of it; so
    # P_l = w_l and Q_l = -2(l+1) zeta^-1 w_{l+1}^
    w = radial_weights(Zh * Z, gamma, L + 1)
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

