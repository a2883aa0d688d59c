"""Exact linear algebra over the rationals: the one elimination kernel.

Sparse vectors are dicts from positions to nonzero rationals, ints or
Fractions.  A position is a non-negative int and int order is the one
pivot order, so a caller maps its own order to ints once, at the
boundary.  The Echelon is fraction-free: it clears the denominators of
a vector once on entry, then a reduction step cross-multiplies by the
two leads over their gcd and divides out the content (Bareiss, Math.
Comp. 22, 1968), so the pivot set is that of the rational span.  The
Solver runs on it and returns integer numerators over one positive
scale, so Fractions appear only at the callers' edges; closure builds a
module's span under its operators, and certified_rank reads its rank
off the pivot levels; solve_levels and normal_order solve an
annihilator where b is the shift, every level past the first without
an elimination, on the sparse taps of the base block's integer inverse.
The oracle and xi both use it, and it imports nothing else from the
package, so the oracle shares no engine code.
"""

from collections import Counter
from math import comb, gcd, lcm
from operator import mul


def axpy(dst, f, src):
    """dst += f * src in place, dropping entries that cancel; returns dst."""
    for r, y in src.items():
        w = dst.get(r, 0) + f * y
        if w:
            dst[r] = w
        elif r in dst:
            del dst[r]
    return dst


def matvec(cols, vec):
    """The matrix of sparse columns cols, a zero one left out, times vec."""
    out = {}
    for i, x in vec.items():
        col = cols.get(i)
        if col:
            axpy(out, x, col)
    return out


def coordinates(w, k, v, M):
    """The k coordinate series of a vector of valuation >= v, with
    position m k + j at level m: coordinate j as its levels v .. M - 1."""
    cs = [[0] * (M - v) for _ in range(k)]
    for r, y in w.items():
        m, j = divmod(r, k)
        if m < M:
            cs[j][m - v] = y
    return cs


def integral(vec):
    """(ints, den): a new dict, vec times den, the lcm of its
    denominators, with int values; an all-int vec is copied as it is."""
    if all(type(x) is int for x in vec.values()):
        return dict(vec), 1
    den = lcm(*(x.denominator for x in vec.values()))
    return {r: x.numerator * (den // x.denominator)
            for r, x in vec.items()}, den


class Echelon:
    """Semi-reduced echelon span of sparse vectors.

    pivots maps each lead position (the least one) to a stored row: a
    primitive integer vector (content 1) with a positive entry there;
    later pivots are not eliminated from earlier rows.  The set of
    pivots is the set of leads of the span, so it depends on the span
    alone, not on the insertion order, on how far the rows are reduced,
    or on their scale.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def reduce(self, vec):
        """Residual of vec up to a nonzero scale: a new integer dict
        whose lead, if any, is no pivot."""
        return self._reduce(vec)[0]

    def _reduce(self, vec):
        """(residual, primitive): primitive once a step has run, as each
        step divides out the content."""
        vec, _ = integral(vec)
        pivots = self.pivots
        primitive = False
        while vec:
            lead = min(vec)
            row = pivots.get(lead)
            if row is None:
                break
            c = vec[lead]
            p = row[lead]
            g = gcd(c, p)
            if p != g:
                p //= g
                for r in vec:
                    vec[r] *= p
            axpy(vec, -(c // g), row)
            g = gcd(*vec.values())
            if g > 1:
                vec = {r: x // g for r, x in vec.items()}
            primitive = True
        return vec, primitive

    def insert(self, vec):
        """Reduce and insert; returns the new pivot position or None."""
        return self._store(*self._reduce(vec))

    def _store(self, vec, primitive):
        """Insert a residual of _reduce without reducing it again; its
        content is taken only if no step made it primitive."""
        if not vec:
            return None
        lead = min(vec)
        g = 1 if primitive else gcd(*vec.values())
        if vec[lead] < 0:
            g = -g
        if g != 1:
            vec = {r: x // g for r, x in vec.items()}
        self.pivots[lead] = vec
        return lead


class Solver:
    """Solve sum_j z_j cols[j] = rhs over the rationals, for many rhs.

    cols and each rhs are sparse vectors over the positions range(size);
    any other position would be read as a tag, so it is refused with
    ValueError.  Column j carries a unit tag at size + j, after every
    position, so a pivot row records the column combination that made
    it; each column is reduced once, and one whose positions reduce to
    zero never enters.  pivots lists the independent columns in order.
    """

    def __init__(self, cols, size):
        self.size, self.ncols = size, len(cols)
        self.echelon = ech = Echelon()
        self.pivots = []
        for j, col in enumerate(cols):
            vec, primitive = ech._reduce({**self._inside(col), size + j: 1})
            if min(vec) < size:
                ech._store(vec, primitive)
                self.pivots.append(j)

    def _inside(self, vec):
        if vec and (min(vec) < 0 or max(vec) >= self.size):
            raise ValueError("position outside range(%d)" % self.size)
        return vec

    def __call__(self, rhs):
        """z as (nums, scale), z_j = nums[j] / scale in lowest terms with
        scale > 0 and every free unknown 0, or None if inconsistent.

        rhs carries a tag after the column tags: reducing it leaves
        s (rhs - sum_j z_j cols[j]) on the positions, s on that tag and
        -s z on the column tags."""
        size, tag = self.size, self.size + self.ncols
        res = self.echelon.reduce({**self._inside(rhs), tag: 1})
        s = -res.pop(tag)
        if res and min(res) < size:
            return None
        g = gcd(s, *res.values())
        if s < 0:
            g = -g
        nums = [0] * self.ncols
        for t, x in res.items():
            nums[t - size] = x // g
        return nums, s // g


def closure(gens, images):
    """Echelon of the span of gens closed under the maps images lists:
    each new pivot row offers its nonzero images, the last one first."""
    ech = Echelon()
    queue = list(gens)
    while queue:
        lead = ech.insert(queue.pop())
        if lead is not None:
            queue += filter(None, images(ech.pivots[lead]))
    return ech


def certified_rank(levels, depth):
    """(rank, last, need) read off the levels of a module span's pivots
    in a window of depth levels.

    rank is the pivot count at the top level and last the highest level
    at which the count grows.  need is 0 when the growth stopped early
    enough (last <= depth - rank - 2) that a chain starting later would
    still show, else last + rank + 2, the least window that could
    certify the rank; no pivots need nothing.  The count never
    decreases: the module is stable under the level raising operator,
    which maps a lead at level m to the same position one level up.
    So the last rise over the level below is the last rise of the
    running maximum.
    """
    count = Counter(levels)
    last = max((m for m in count if m and count[m] > count[m - 1]),
               default=0)
    need = last + count[depth - 1] + 2
    return count[depth - 1], last, need if need > depth else 0


def solve_levels(block, series, ordc):
    """(z, s): C_(m,t) = z[m][t] / s, t <= ordc, solve sum_m C_m(b) W_m
    = -W_d on integers, or None if inconsistent.

    series[m] holds the coordinates of W_m, each as its levels from one
    base up, and block the Solver of the full-rank base block B of W_m,
    m < d.  As b is the shift, level t reads B z_t = -(s W_d[t] +
    sum_(i >= 1) W_m[i] z_m[t - i]), with the same B at every level.
    Level 0 runs through block, so a wrong degree fails there at once.
    Then, once: on the block's lead rows R, adj = delta B_R^-1 on
    integers maps the right side to delta z_t, and each other row j
    gives delta e_j - B_j adj, which vanishes on it exactly when level t
    is consistent.  Each of these functionals is folded into its drive,
    its values on W_d, and its nonzero taps w on z_m[t - i], so a later
    level costs its taps and one gcd with delta.  The scale of its
    solution joins the running scale s, the lcm so far.
    """
    d, k = len(series) - 1, len(series[0])
    sol = block({j: -top[0] for j, top in enumerate(series[d]) if top[0]})
    if sol is None:
        return None
    z, s = sol
    # column i of adj solves B_R against the unit vector at lead[i]
    lead = sorted(block.echelon.pivots)
    base = Solver([{i: W[r][0] for i, r in enumerate(lead) if W[r][0]}
                   for W in series[:d]], d)
    inv = [base({i: 1}) for i in range(d)]
    delta = lcm(*(scale for _, scale in inv))
    funcs = [[0] * k for _ in range(d)]
    for r, (nums, scale) in zip(lead, inv):
        for f, x in zip(funcs, nums):
            f[r] = x * (delta // scale)
    for j in sorted(set(range(k)) - set(lead)):
        f = [delta if r == j else 0 for r in range(k)]
        for W, u in zip(series, funcs[:d]):
            f = [x - W[j][0] * y for x, y in zip(f, u)]
        funcs.append(f)
    # the nonzero levels 1..ordc of each W_m
    cols = [[(i, c) for i, c in enumerate(zip(*W)) if 0 < i <= ordc
             and any(c)] for W in series]
    # z is level-major: z_m[t - i] sits at t d - (i d - m)
    drives = [[0] * len(funcs) for _ in range(ordc + 1)]
    taps = []
    for h, f in enumerate(funcs):
        for i, c in cols[d]:
            drives[i][h] = sum(map(mul, f, c))
        taps += [(i * d - m, h, w) for m, W in enumerate(cols[:d])
                 for i, c in W if (w := sum(map(mul, f, c)))]
    taps.sort()
    for t in range(1, ordc + 1):
        n = t * d
        accs = [s * x for x in drives[t]]
        for o, h, w in taps:
            if o > n:
                break
            accs[h] += w * z[n - o]
        if any(accs[d:]):
            return None
        g = gcd(delta, *accs[:d])
        if delta > g:
            s *= delta // g
            z = [y * (delta // g) for y in z]
        z += [-acc // g for acc in accs[:d]]
    return [z[m::d] for m in range(d)], s


def normal_order(z, s, D, ordc):
    """(rows, den): c_j = rows[j] / den to b^ordc in the normal order
    a^d + sum_j a^j c_j(b) of a^d + sum_m C_m(b) a^m, C_m = z_m D^m /
    (s D^d).  C a^m = sum_i (-1)^i C(m,i) a^(m-i) delta^i(C), delta =
    b^2 d/db, gives c_j = sum_(m >= j) (-1)^(m-j) C(m,j) delta^(m-j)(C_m)
    on integers, exact to b^ordc as delta only raises the order.
    """
    d = len(z)
    out = [[0] * (ordc + 1) for _ in range(d)]
    for m, zm in enumerate(z):
        p = D ** m
        y = [c * p for c in zm]
        for i in range(m + 1):
            if i:
                y = [0] + [t * c for t, c in enumerate(y[:-1])]
            f = (-1) ** i * comb(m, i)
            out[m - i] = [o + f * c for o, c in zip(out[m - i], y)]
    return out, s * D ** d
