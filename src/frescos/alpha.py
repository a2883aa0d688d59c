"""Classification layer: rank-2 classes, the alpha invariant, splitting.

The central quantity is a single rational alpha attached to a
presentation whose p-steps p_j = l_{j+1} - l_j + 1 are all positive
integers.  Rank 2 reads it straight off the first unit; higher ranks
shrink by one through a reduction that trades the last two factors for
one factor (l_k + 1, 1), at the price of solving one resonant ODE in b.
The reduction is read off the chain relation
(a - l_j b) f_j = S_(j-1) f_(j-1) of the basis f_j = S_j^-1 e_j, one
unit per stage, with no module model.  The module is semi-simple
exactly when alpha and all the nested alphas vanish.

Alpha, semi-simplicity and the maximal sub and quotient theme classes
all come from reduction chains.  The chain of factors i..j is the chain
of 1..j read on its factors >= i, so an Analysis grows one chain per
right end j, each step at most once, reads each interval's alpha at most
once, and derives every answer from them; classify_rank2 and
is_semisimple are views of an Analysis.
"""

from fractions import Fraction

from .errors import (
    AlphaZero,
    CoefficientBeyondOrder,
    EngineError,
    NotInF0,
    NotPrimitive,
    PValueZero,
    ResonantObstruction,
    SemanticError,
    WrongRank,
)
from .fresco import Presentation, _drift, _model_order, sub_quotient
from .series import SeriesB, rat, solve_resonant_ode


class Rank2Class:
    """Isomorphism class of a rank-2 fresco: exponents, step, alpha."""

    __slots__ = ("lam1", "lam2", "p", "alpha", "theme")

    def __init__(self, lam1, lam2, p, alpha, theme):
        self.lam1 = lam1
        self.lam2 = lam2
        self.p = p
        self.alpha = alpha
        self.theme = theme

    def __eq__(self, other):
        if not isinstance(other, Rank2Class):
            return NotImplemented
        return (self.lam1, self.lam2, self.p, self.alpha, self.theme) == \
            (other.lam1, other.lam2, other.p, other.alpha, other.theme)

    def __repr__(self):
        kind = "theme" if self.theme else "semi-simple"
        return "Rank2Class(%s, %s, p=%s, alpha=%s, %s)" % (
            self.lam1, self.lam2, self.p, self.alpha, kind)


class ThemeClass:
    """A rank-2 theme up to isomorphism: two exponents and a parameter.

    The exponents always satisfy high = low + p - 1.
    """

    __slots__ = ("low", "high", "p", "parameter")

    def __init__(self, low, high, p, parameter):
        low, high, p = rat(low), rat(high), rat(p)
        if high != low + p - 1:
            raise SemanticError(
                "theme exponents must satisfy high = low + p - 1"
            )
        self.low = low
        self.high = high
        self.p = p
        self.parameter = rat(parameter)

    def __eq__(self, other):
        if not isinstance(other, ThemeClass):
            return NotImplemented
        return (self.low, self.high, self.p, self.parameter) == \
            (other.low, other.high, other.p, other.parameter)

    def __repr__(self):
        return "ThemeClass(low=%s, high=%s, p=%s, parameter=%s)" % (
            self.low, self.high, self.p, self.parameter)


def _require_primitive(p):
    if not p.is_primitive():
        raise NotPrimitive("exponents differ by non integers")


def _require_positive_steps(p):
    _require_primitive(p)
    for j, pj in enumerate(p._p_values, start=1):
        if pj < 0:
            raise SemanticError(
                "p_%d = %s: factors are not in principal order" % (j, pj)
            )
        if pj == 0:
            raise PValueZero("p_%d = 0" % j)


def _chain_order(p):
    """p(E) + k - 2, the order the alpha chain of p works at."""
    return sum(p._p_values) + p.rank - 2


def _step_coeff(p, i, j, t, tower, q):
    """Numerator of b^(p_q) of S_q in tower, the alpha chain of p's factors
    i..j after t reduction steps.  Each step loses one order and the last
    rank-2 step is p(E), so every such read has room once each unit of p
    is known to _chain_order(p), the order the chain works at."""
    unit, step = tower.factors[q - 1][1], tower._p_values[q - 1]
    if step > unit.order:
        need = _chain_order(p)
        raise CoefficientBeyondOrder(
            "alpha of factors %d..%d reads b^%s of S_%d after %d reduction "
            "step(s), known to order %d; every alpha read has room with "
            "units known to order %d (--order %d for a literal)"
            % (i, j, step, q, t, unit.order, need, need))
    return unit.nums[step]


def classify_rank2(p):
    """Full isomorphism class of a rank-2 presentation.

    After normalizing the second unit to 1 (same module, generator
    S_2^-1 e) the class is decided by the b^p coefficient of S_1, the
    alpha of an Analysis: nonzero gives the theme with that parameter,
    zero splits.  The borderline p = 0 has a single class, a theme by
    convention written with parameter 1.
    """
    if p.rank != 2:
        raise WrongRank("rank-2 classification got rank %d" % p.rank)
    return Rank2Class(*p.lambdas, p.p_values()[0], *Analysis(p).shown_alpha())


def alpha_reduce_step(p):
    """Trade rank k >= 3 for rank k-1 without moving alpha.

    Read off the chain relation (a - l_j b) f_j = S_(j-1) f_(j-1) of
    f_j = S_j^-1 e_j.  X solves b X' - (p_(k-1) - 1) X = (1 - S_(k-1))/b,
    so S_(k-1) + b^2 X' - (p_(k-1) - 1) b X = 1, and the generator
    f_k + X f_(k-1) of the same module has

        (a - l_k b)(f_k + X f_(k-1)) = f_(k-1) + Y f_(k-2),  Y = X S_(k-2).

    Each stage m = k-2, ..., 1 then has
    (a - l_(m+1) b)(f_(m+1) + Y f_m) = Sigma_m f_m + Y S_(m-1) f_(m-1)
    with the unit Sigma_m = S_m + b^2 Y' - (p_m - 1) b Y, and for m > 1
    sets Y <- Y S_(m-1) / Sigma_m: k - 3 divisions.  The reduced
    fresco is (l_1 | Sigma_1) ... (l_(k-2) | Sigma_(k-2)) (l_k + 1 | 1),
    all known to one below the step's working order, the least of
    _chain_order(p) and the units' orders.  X is unique up to
    tau b^(p_(k-1)-1); alpha does not depend on tau precisely on the
    class where it is defined.
    """
    k = p.rank
    if k < 3:
        raise WrongRank("reduction needs rank >= 3, got %d" % k)
    _require_positive_steps(p)
    order = _model_order(min(_chain_order(p), min(u.order for u in p.units)))
    n = order - 1
    units = [u.truncate(order) for u in p.units[: k - 1]]
    steps = p._p_values
    s = units[k - 2]
    try:
        x = solve_resonant_ode(steps[k - 2] - 1, SeriesB._lowest(
            [-c for c in s.nums[1:]], s.den, n))
    except ResonantObstruction as exc:
        raise NotInF0(
            "unit S_%d obstructs the reduction: %s" % (k - 1, exc)
        ) from exc
    if _drift(x, 1 - steps[k - 2], n, s) != SeriesB.one(n):
        raise AssertionError(
            "S_%d + b^2 X' - (p_%d - 1) b X should be 1" % (k - 1, k - 1)
        )
    y = x * units[k - 3]
    sigmas = [None] * (k - 2)
    for m in range(k - 2, 0, -1):
        sigmas[m - 1] = _drift(y, 1 - steps[m - 1], n, units[m - 1])
        if m > 1:
            y = y * units[m - 2] / sigmas[m - 1]
    lam = p.lambdas
    return Presentation(
        list(zip(lam, sigmas)) + [(lam[k - 1] + 1, SeriesB.one(n))]
    )


def rank3_alpha_formula(p):
    """Closed form for alpha in rank 3, bypassing the reduction.

    Normalizing S_3 to 1, solve b T' - p_2 T = -p_2 S_2 for V with
    V(0) = 1 and read off the b^(p_1+p_2) coefficient of V S_1.  The
    resonance of the ODE at p_2 is the S_2 obstruction; the S_1
    obstruction is checked separately since this route never trips
    over it.
    """
    if p.rank != 3:
        raise WrongRank("closed formula is rank 3 only, got %d" % p.rank)
    _require_positive_steps(p)
    p1, p2 = p._p_values
    s1, s2 = p.units[0], p.units[1]
    if s1.coeff(p1) != 0:
        raise ResonantObstruction(
            "unit S_1 has a nonzero b^%d coefficient" % p1
        )
    v = solve_resonant_ode(p2, -p2 * s2)
    return (v * s1).coeff(p1 + p2)


class Analysis:
    """Every alpha-derived answer about one presentation.

    Tower j is the reduction chain of the cut sub_quotient(p, 1, j),
    grown a step at a time as intervals ask.  Read on its factors >= i,
    its step t is step t of the chain of i..j: the module of i..j is
    F_j / F_(i-1), and a step reads Sigma_m off S_m, p_m and the Y of
    the stage above (the ODE is on S_(j-1), Y starts as X S_(j-2), the
    stages walk down from the top).  Alpha is tower k read at i = 1,
    computed at once; its value, or the EngineError it raised, is kept,
    and the rank-2 class, semi-simplicity and the theme classes read it.
    """

    def __init__(self, p):
        self.presentation = p
        self._steps = {(p.rank, 0): p}
        self._splits = {}
        try:
            if p.rank < 2:
                raise WrongRank("alpha needs rank >= 2, got %d" % p.rank)
            _require_positive_steps(p)
            self._alpha = self._interval_alpha(1, p.rank)
        except EngineError as exc:
            self._alpha = exc

    def _reduced(self, j, t):
        """Tower j after t steps; raises the error of a step that failed."""
        if (j, t) not in self._steps:
            try:
                self._steps[j, t] = (
                    alpha_reduce_step(self._reduced(j, t - 1)) if t
                    else sub_quotient(self.presentation, 1, j))
            except EngineError as exc:
                self._steps[j, t] = exc
        if isinstance(self._steps[j, t], EngineError):
            raise self._steps[j, t].with_traceback(None)
        return self._steps[j, t]

    def _interval_alpha(self, i, j):
        """alpha of factors i..j, whose steps are positive, off tower j.

        The nested rank-2 sub-quotients must split for the value to be a
        true invariant, so that is checked before each step (and
        alpha_reduce_step fails with NotInF0 outside the class where
        alpha is defined).  After t steps, factor q < j - t of tower j is
        input factor q, and its last one stands for input factors
        j - t..j; the NotInF0 message names them.
        """
        p = self.presentation
        for t in range(j - i - 1):
            tower = self._reduced(j, t)
            steps = tower._p_values
            for q in range(i, j - t):
                if _step_coeff(p, i, j, t, tower, q):
                    raise NotInF0(
                        "adjacent sub-quotient %d does not split after %d "
                        "reduction step(s): the reduced S_%d has a nonzero "
                        "b^%s coefficient; the pair stands for input "
                        "factors %d..%d" % (q, t, q, steps[q - 1], q,
                                            q + 1 if q + 1 < j - t else j))
        tower = self._reduced(j, j - i - 1)
        return Fraction(_step_coeff(p, i, j, j - i - 1, tower, i),
                        tower.factors[i - 1][1].den)

    def alpha(self):
        """The alpha invariant; raises what the reduction chain raised."""
        if isinstance(self._alpha, EngineError):
            raise self._alpha.with_traceback(None)
        return self._alpha

    def shown_alpha(self):
        """The alpha a report shows, and the rank-2 theme flag (else None).

        At rank 2 that is the classify_rank2 class, whose alpha is 1 at
        p_1 = 0 where alpha() raises PValueZero.
        """
        p = self.presentation
        if p.rank != 2:
            return self.alpha(), None
        if p._p_values[0] == 0:
            return Fraction(1), True
        a = self.alpha()
        return a, a != 0

    def semisimple(self):
        """Whether the module splits into rank-1 pieces.

        Rank at most 1 always does.  A zero p-step pins a rank-2 theme
        inside, so the answer is no.  Otherwise the module is
        semi-simple exactly when alpha vanishes and both rank k-1 edges
        are semi-simple; NotInF0 already certifies a non-split
        sub-quotient.
        """
        p = self.presentation
        _require_primitive(p)
        if not p.is_principal():
            raise SemanticError("semi-simplicity test needs principal order")
        return 0 not in p._p_values and self._split(1, p.rank)

    def _split(self, i, j):
        """Whether the sub-quotient of factors i..j splits, once per i..j;
        1..k reads the alpha that __init__ kept."""
        if (i, j) not in self._splits:
            try:
                self._splits[i, j] = i == j or (
                    (self.alpha() if j - i == self.presentation.rank - 1
                     else self._interval_alpha(i, j)) == 0
                    and self._split(i, j - 1) and self._split(i + 1, j))
            except NotInF0:
                self._splits[i, j] = False
        return self._splits[i, j]

    def _theme_alpha(self, theme):
        if self.presentation.rank < 2:
            raise WrongRank("%s needs rank >= 2, got %d"
                            % (theme, self.presentation.rank))
        a = self.alpha()
        if a == 0:
            raise AlphaZero("alpha vanishes, no %s of full step" % theme)
        return a

    def subtheme(self):
        """Class of the maximal subtheme pinned by a nonzero alpha.

        Its exponents are l_1 and l_k + k - 2, its step is the total
        p(E) = sum p_j, and its parameter is alpha itself.
        """
        a = self._theme_alpha("subtheme")
        p = self.presentation
        total = sum(p._p_values)
        return ThemeClass(p.lambdas[0], p.lambdas[-1] + p.rank - 2, total, a)

    def quotient_theme(self):
        """Class of the maximal quotient theme; parameter scaled from alpha.

        The scale is (-1)^k times the ratio of the two cumulative p
        products, prefix over suffix; for k = 2 it is alpha itself.
        """
        a = self._theme_alpha("quotient theme")
        p = self.presentation
        k = p.rank
        steps = p._p_values
        num = den = 1
        for i in range(k - 2):
            num *= sum(steps[: i + 1])
            den *= sum(steps[i + 1:])
        beta = (-1) ** k * a * num / den
        return ThemeClass(p.lambdas[0] - k + 2, p.lambdas[-1], sum(steps), beta)


def is_semisimple(p):
    """Whether the module splits into rank-1 pieces."""
    return Analysis(p).semisimple()


def dual_twist_rank2(t, delta):
    """Image of a rank-2 theme class under the twisted duality at delta.

    Exponents reflect through delta and swap; the parameter flips sign.
    """
    if not isinstance(t, ThemeClass):
        raise TypeError("expected a ThemeClass")
    d = rat(delta)
    return ThemeClass(d - t.high, d - t.low, t.p, -t.parameter)
