"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's solver paths: BFS uses
only multiplication and equality, the distance-chain Green values come
from a dense solve of a birth-death reduction, step distributions are
enumerated path by path, and taboo values come from the walk killed on
leaving a ball, built from the ball's step tables alone.

The taboo kernels (``first_passage_set``, ``last_exit``) solve the walk
absorbed on a taboo set over a finite cut-closed domain, with the
branches beyond it folded in as exact self-loops from the exact engine,
so they carry certified enclosures; the ball values bound them from
below.

The ball oracles live here too: restricted Green tables from the sparse
solver of the walk killed on leaving a ball (``hypwalk._solver``, on the
BFS balls of ``hypwalk.groups.Ball``), n-step distributions by
restricted convolution, the four-point delta of a ball, and the
semigroup check of nondegeneracy on B(e, 2).  Restricted values increase
with the ball to the full-group values, so they bound the exact engine
from below.

The first-passage fixed point on the walk's letter values, iterated from
0 and certified by Newton's method and a supersolution, is kept here as
the reference that the exact engine's solution in one unknown must
enclose, and that checks its spectral bound; the Martin kernel over
every word of one length is grouped by departure cone as the reference
for the cone table of ``hoelder_probe``, and the symmetry orbits found
by enumerating the alphabet maps are the reference for the orbit keys of
``classify``.  The verdict from one ratio invariant per orbit of the
products s^i t^j is the reference for ``classify``'s verdict from one
generator per syllable class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hypwalk import _exact
from hypwalk._exact import _EPS, factors, kernel
from hypwalk._solver import RestrictedSolver
from hypwalk.classify import _verdict, generators
from hypwalk.errors import DivergenceError, SolverError, ValidationError
from hypwalk.green import GreenEstimate
from hypwalk.groups import FREE, Ball, GroupElement, GroupModel, ball, words_by_length
from hypwalk.martin import ratio_invariant
from hypwalk.walks import WalkSpec, require_valid, reversed_walk


def bfs_distances(model, radius: int) -> dict:
    """Word-metric distances from e by plain BFS over generator products."""
    gens = model.generators()
    dist = {model.identity(): 0}
    frontier = [model.identity()]
    for layer in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y not in dist:
                    dist[y] = layer
                    nxt.append(y)
        frontier = nxt
    return dist


def brute_conjugacy_classes(model, maxlen: int) -> list:
    """(representative, finite order) per nontrivial conjugacy class that
    meets B(e, maxlen): the cyclic reduction of every word of the ball,
    spelled by its least letter rotation, in the order in which the
    classes first meet ``words_by_length``."""
    classes = {}
    for g in words_by_length(model, maxlen)[1:]:
        core = g.cyclic_reduction()[1]
        letters = core.letters()
        least = min(letters[i:] + letters[:i] for i in range(len(letters)))
        classes.setdefault(least, core.has_finite_order())
    return [(model.from_letters(w), finite) for w, finite in classes.items()]


def free_ball_size(n_rank: int, radius: int) -> int:
    """1 + 2N((2N-1)^r - 1)/(2N-2) closed form for the free group."""
    if radius == 0:
        return 1
    q = 2 * n_rank - 1
    return 1 + 2 * n_rank * (q**radius - 1) // (q - 1)


def distance_chain_green(n_rank: int, radius: int) -> np.ndarray:
    """Restricted Green values for the simple walk on F_N via the distance
    chain: expected visits to each sphere before leaving B(e, radius),
    divided by sphere sizes.

    The distance process is a birth-death chain: from 0 the walk moves to
    1; from k >= 1 it moves out with probability (2N-1)/2N and in with
    1/2N.  Returns per-element values G_B(e, y) indexed by |y|.
    """
    q = 2 * n_rank
    up, down = (q - 1) / q, 1.0 / q
    m = radius + 1
    P = np.zeros((m, m))
    P[0, 1] = 1.0
    for k in range(1, m):
        if k + 1 < m:
            P[k, k + 1] = up
        P[k, k - 1] = down
    visits = np.linalg.solve(np.eye(m) - P.T, np.eye(m)[0])
    sphere = np.array([1] + [2 * n_rank * (2 * n_rank - 1) ** (k - 1) for k in range(1, m)])
    return visits / sphere


def brute_step_distribution(model, support, n: int) -> dict:
    """Exact n-step distribution by enumerating all |support|^n paths."""
    out = {}
    for combo in itertools.product(range(len(support)), repeat=n):
        g = model.identity()
        p = 1.0
        for i in combo:
            g = g * support[i][0]
            p *= support[i][1]
        out[g] = out.get(g, 0.0) + p
    return out


def cone_measure(n_rank: int, depth: int) -> float:
    """Harmonic measure of the cone below a reduced word of given length,
    for the simple walk on F_N.

    At any vertex the exit ray picks each of the 2N branch classes with
    equal probability (vertex-fixing automorphisms permute them), and
    reaching the cone root first costs the known first-passage value
    (2N-1)^(-depth); the cone collects the 2N-1 forward branches.
    """
    q = 2 * n_rank
    return (q - 1) / q * (q - 1) ** (-depth)


def free_first_passage(walk, sweeps: int = 5000) -> dict:
    """F(e, x) for each letter x of a nearest-neighbour walk on F_N.

    Reaching x means stepping to x, or stepping to another letter y,
    coming back to e (probability F(e, y^-1)) and trying again:
    F_x = mu(x) / (1 - sum_{y != x} mu(y) F_{y^-1}), iterated up from 0.
    """
    mu = {g.letters()[0]: p for g, p in walk.support}
    F = {x: 0.0 for x in mu}
    for _ in range(sweeps):
        F = {x: mu[x] / (1.0 - sum(mu[y] * F.get(-y, 0.0) for y in mu if y != x)) for x in mu}
    return F


def free_cone_mass(F: dict, letters) -> float:
    """Harmonic measure of the cone of rays beginning with a reduced word
    x_1 ... x_n on F_N: reach the word, then never come back through its
    last edge, F(e, w) (1 - F(x_n^-1)) / (1 - F(x_n) F(x_n^-1))."""
    reach = float(np.prod([F[x] for x in letters]))
    last = letters[-1]
    return reach * (1.0 - F[-last]) / (1.0 - F[last] * F[-last])


def binomial_band(p: float, n: int, sigmas: float = 4.0) -> float:
    return sigmas * np.sqrt(p * (1 - p) / n)


def ball_taboo(walk, radius: int, lam, x) -> list:
    """First-passage probabilities on ``lam`` from x for the walk absorbed
    on lam and killed on leaving B(e, radius), in the order of lam.

    With Q the transitions among the other ball states and R those into
    lam, the answer is row x of (I - Q)^-1 R.  Values increase with the
    radius to the full-group taboo kernel.
    """
    b = ball(walk.model, radius)
    n = len(b)
    rows, cols, data = [], [], []
    for g, p in walk.support:
        step = b.step_tables()[g.letters()[0]]
        inside = np.nonzero(step >= 0)[0]
        rows.append(inside)
        cols.append(step[inside])
        data.append(np.full(len(inside), p))
    P = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    taboo = np.array([b.index_of(y) for y in lam])
    free = np.setdiff1d(np.arange(n), taboo)
    Q = P[free][:, free]
    R = P[free][:, taboo]
    source = np.zeros(len(free))
    source[np.searchsorted(free, b.index_of(x))] = 1.0
    visits = spla.spsolve((sp.identity(len(free)) - Q).T.tocsc(), source)
    return list(R.T @ visits)


def first_passage_set(
    walk: WalkSpec, lam: Iterable[GroupElement], x: GroupElement
) -> dict[GroupElement, GreenEstimate]:
    """First-passage distribution on a taboo set: y -> F(x, y; first hit of lam).

    The walk is absorbed on lam over D_k, the elements with at most k
    cut-vertex factors (``groups.factors``: letters on F_N, syllables on
    Z/m*Z/n), k the largest count over lam and x.  A step v -> vs that
    leaves D_k enters a branch attached only at v, which the walk leaves
    through v with probability F(e, s^-1): the step becomes a self-loop
    at v of weight mu(s) F(e, s^-1).  Only states reachable from x
    without hitting lam enter the sparse LU solve.

    The absorbed chain is monotone in its loop weights, so the lower and
    upper ends of the F enclosure give the bracket ends.  Each is widened
    by the residual of its solve: the error of the solution is the
    residual weighted by hitting probabilities, which are at most 1.
    """
    require_valid(walk, nondegenerate=False)
    lam = list(dict.fromkeys(lam))
    if not lam:
        raise ValidationError("taboo set is empty")
    if x in lam:
        return {y: GreenEstimate(*[float(y == x)] * 3) for y in lam}
    k = max(len(factors(g)) for g in [x, *lam])
    taboo = {y: j for j, y in enumerate(lam)}
    # per step s: mu(s) times the (value, lower, upper) ends of F(e, s^-1)
    steps = [
        (s, p, p * np.array(_exact.first_passage(walk, s.inverse()))) for s, p in walk.support
    ]
    states, index, loops = [x], {x: 0}, []
    q_rows, q_cols, q_data, r_rows, r_cols, r_data = [], [], [], [], [], []
    for i, v in enumerate(states):  # grows while it is walked: a BFS
        loop = np.zeros(3)
        for s, p, folded in steps:
            w = v * s
            if w in taboo:
                r_rows.append(i)
                r_cols.append(taboo[w])
                r_data.append(p)
            elif len(factors(w)) > k:
                loop += folded
            else:
                if w not in index:
                    index[w] = len(states)
                    states.append(w)
                q_rows.append(i)
                q_cols.append(index[w])
                q_data.append(-p)
        loops.append(loop)
    n = len(states)
    R = sp.csr_matrix((r_data, (r_rows, r_cols)), shape=(n, len(lam)))
    hit = np.diff(R.tocsc().indptr) > 0  # targets some reachable state steps into
    source = np.zeros(n)
    source[0] = 1.0
    rounding = (len(steps) + 3) * np.finfo(float).eps  # first-order, per matrix row
    brackets = []
    for end, sign in ((0, 0.0), (1, -1.0), (2, 1.0)):
        diag = [1.0 - loop[end] * (1.0 + sign * rounding) for loop in loops]
        A = sp.csc_matrix(
            (diag + q_data, (list(range(n)) + q_rows, list(range(n)) + q_cols)), shape=(n, n)
        )
        try:
            u = spla.splu(A).solve(source, trans="T")  # expected visits from x
        except RuntimeError as exc:
            raise SolverError(f"taboo solve failed: {exc}") from exc
        err = np.abs(source - A.T @ u).sum() + rounding * (abs(A).T @ np.abs(u)).sum()
        brackets.append((R.T @ u) * (1.0 + sign * rounding) + sign * err)
    value, lower, upper = brackets
    out = {}
    for j, y in enumerate(lam):
        lo, hi = (max(float(lower[j]), 0.0), float(upper[j])) if hit[j] else (0.0, 0.0)
        out[y] = GreenEstimate(min(max(float(value[j]), lo), hi), lo, hi)
    return out


def last_exit(
    walk: WalkSpec, lam: Iterable[GroupElement] | None, x: GroupElement, y: GroupElement
) -> GreenEstimate:
    """Last-exit kernel L(x, y) relative to a taboo set containing x.

    Computed through the reversed walk: L(x, y) equals the reversed-walk
    first-passage probability from y to the set, at x.
    """
    lam = [x] if lam is None else list(lam)
    if x not in lam:
        raise ValidationError("last_exit needs x inside the taboo set")
    return first_passage_set(reversed_walk(walk), lam, y)[x]


def scalar_boundary_prefix(spec, stream: int, margin=10, patience=20, max_steps=20_000):
    """Boundary sampling one walk at a time, with plain-list word stacks.

    The stopping rule of ``hypwalk.walks.sample_boundary_prefixes``, driven by
    numpy's own ``Philox`` generator keyed (seed, stream).  Returns the
    stabilized prefix letters (None on a timeout) and the steps used.
    """
    mask = (1 << 64) - 1
    key = np.array([spec.seed & mask, stream & mask], dtype=np.uint64)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(max_steps)
    cdf = np.cumsum([p for _, p in spec.support])
    cdf[-1] = 1.0
    letters = [g.letters()[0] for g, _ in spec.support]
    orders = spec.model.orders if spec.model.kind == "free_product" else None
    word = []  # F_N: the reduced word; Z/m*Z/n: [letter id, exponent] syllables
    lens = []  # Z/m*Z/n: spelled length of each syllable
    last_touch = []
    L, dirty_max = margin, 0
    for step in range(1, max_steps + 1):
        x = letters[int(np.searchsorted(cdf, uniforms[step - 1], side="right"))]
        if orders is None:
            if word and word[-1] == -x:
                word.pop()
                d = len(word)
            else:
                d = len(word)
                word.append(x)
            length = len(word)
        else:
            lid, order = abs(x), orders[abs(x) - 1]
            if word and word[-1][0] == lid:
                exp = (word[-1][1] + (1 if x > 0 else -1)) % order
                d = sum(lens) - lens[-1]
                word.pop()
                lens.pop()
            else:
                exp = (1 if x > 0 else -1) % order
                d = sum(lens)
            if exp:
                word.append([lid, exp])
                lens.append(min(exp, order - exp))
            length = sum(lens)
        while len(last_touch) <= d:
            last_touch.append(0)
        last_touch[d] = step
        if d < L:
            dirty_max = step
        if length >= L + margin + patience:
            if L < len(last_touch):
                dirty_max = max(dirty_max, last_touch[L])
            L += 1
        if length >= L + margin and step - dirty_max >= patience:
            if orders is None:
                return tuple(word[:L]), step
            spelled = []
            for (lid, exp), n in zip(word, lens):
                sign = 1 if exp <= orders[lid - 1] - exp else -1
                spelled.extend([sign * lid] * n)
            return tuple(spelled[:L]), step
    return None, max_steps


def prefix_pairs(drawn) -> list:
    """The arrays of ``hypwalk.walks.sample_boundary_prefixes`` as one
    (prefix letters or None, steps used) pair per stream, the form of
    :func:`scalar_boundary_prefix`."""
    letters, lengths, steps = drawn
    return [
        (tuple(row[:k]) if k >= 0 else None, used)
        for row, k, used in zip(letters.tolist(), lengths.tolist(), steps.tolist())
    ]


def prefix_tuples(prefixes) -> list:
    """The rows of a zero-padded prefix matrix as letter tuples (no letter
    is 0)."""
    return [tuple(filter(None, row)) for row in prefixes.tolist()]


def class_key(letters, width: int, refs, model) -> tuple:
    """``measure._class_keys`` for one row, read letter by letter: the
    first of ``refs`` that the row's first ``width`` letters follow
    longest, the number of letters shared with it, the letter after them
    (0 past the window) and, for a letter of a finite factor, the length
    of its run from there within the window."""
    head = tuple(letters[:width])
    shared = []
    for ref in refs:
        k = 0
        while k < min(len(head), len(ref)) and head[k] == ref[k]:
            k += 1
        shared.append(k)
    best = shared.index(max(shared))
    k = shared[best]
    x = head[k] if k < len(head) else 0
    run = 0
    if x and model.letter_order(abs(x)):
        while k + run < len(head) and head[k + run] == x:
            run += 1
    return best, k, x, run


def per_sample_gibbs_hits(prefixes, xi, radii, model) -> list:
    """Hits per radius of the ``gibbs_ratio`` sample loop, one product per
    sample at the deepest radius, decided at every radius sample by sample."""
    from hypwalk.martin import _prefix_product
    from hypwalk.measure import Cylinder, _decide

    depth = Cylinder.around(xi, max(radii)).depth
    ray = xi.prefix_letters(depth)
    products = [_prefix_product(model, letters[:depth], ray) for letters in prefixes]
    return [sum(_decide(value, exact, R) for value, exact in products) for R in radii]


def per_sample_rn_check(walk, g, cyl, prefixes, depth: int):
    """The ``radon_nikodym_check`` sample loop: both memberships and, in U,
    one kernel value at ``letters[:depth]`` for every sample.  Returns the
    pulled hits and the kernel values in sample order (0 off U)."""
    from hypwalk.martin import martin_kernel_at
    from hypwalk.measure import _prefix_membership, _translated_membership

    model = walk.model
    pulled_hits = 0
    kernel_vals = []
    for letters in prefixes:
        if _prefix_membership(letters, cyl, model):
            y = model.from_letters(letters[:depth])
            kernel_vals.append(martin_kernel_at(walk, g, y).value)
        else:
            kernel_vals.append(0.0)
        pulled_hits += _translated_membership(g, letters, cyl, model)
    return pulled_hits, np.asarray(kernel_vals)


_SPECTRAL_GAP = 1e-4  # relative width of the last bisection step towards 1/rho


def plain_spectral_upper(spec) -> float:
    """A certified upper bound on rho found without the free-product
    minimum, with every probe a full ``_Solution`` of the syllable-keyed
    reference below: the plain and the biased iteration of the
    first-passage map from 0, an upper certificate and the G(e, e | z)
    check, at each point of a doubling and bisection in z.  Certified, so
    at least rho, and within ``_SPECTRAL_GAP`` of it; it shares no code
    with ``_exact``'s solution in t."""

    def certified(z):
        try:
            _Solution(spec, z)
        except SolverError:
            return False
        return True

    return _bisect_spectral(certified)


def _bisect_spectral(certified) -> float:
    """1/z for the largest certified z of a doubling from z = 1 and a
    bisection down to a relative gap of ``_SPECTRAL_GAP``."""
    lo, hi = 1.0, 2.0
    while certified(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > _SPECTRAL_GAP * lo:
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return (1.0 / lo) * (1.0 + _EPS)


# ---------------------------------------------------------------------------
# the syllable-keyed first-passage engine: the reference that the solution
# in one unknown of ``hypwalk._exact`` must enclose.  Phi is iterated on the
# letter values from 0, plainly for the value and rounded down for the lower
# end; a supersolution above the fixed point gives the upper end, and
# ``_certified`` reaches the fixed point by Newton's method.  The tests read
# its ``_Solution`` and call its ``_certified``.

_MAX_SWEEPS = 20_000
_MAX_DOUBLINGS = 200
_MAX_NEWTON = 100
# A Newton step falling by more than this, relative, finds no fixed point
# above the iterate.  Below 1/rho the exact Jacobian's steps fall only by
# rounding; past 1/rho the first falling step drops by 1e-4 or more
# already at 1e-7 beyond it.
_FALL = 2.0 ** -26
_MAX_DIRECTION = 1e12  # |(I - J)^-1 1| beyond this: Jacobian at eigenvalue 1


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """x with a x = b, by Gaussian elimination with partial pivoting.

    Plain Python floats, so the result is bitwise the same in every
    process.  A zero pivot raises DivergenceError: a is singular.
    """
    rows = [row[:] + [v] for row, v in zip(a, b)]
    n = len(rows)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        if not rows[p][c] != 0.0:
            raise DivergenceError("singular Jacobian: z is at or past 1/rho")
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / pivot[c]
            if f:
                rows[r][c:] = [x - f * y for x, y in zip(rows[r][c:], pivot[c:])]
    x = [0.0] * n
    for c in range(n - 1, -1, -1):
        row = rows[c]
        x[c] = (row[n] - sum(row[j] * x[j] for j in range(c + 1, n))) / row[c]
    return x


class _Letters:
    """The monotone map Phi of one walk and weight z, on the alphabet.

    Letters are keyed by their one-syllable normal form (letter id,
    exponent).  ``sweep`` returns Phi on the letters, the table of every
    one-syllable value, and a relative rounding bound of that evaluation.
    """

    def __init__(self, spec: WalkSpec, z: float):
        model = spec.model
        self.model = model
        self.free = model.kind == FREE
        self.keys = [g.syllables[0] for g in model.generators()]
        zmu = {k: 0.0 for k in self.keys}
        for g, p in spec.support:
            zmu[g.syllables[0]] += z * p
        self.zmu = zmu

    def inverse(self, key: tuple[int, int]) -> tuple[int, int]:
        lid, exp = key
        return (lid, -exp) if self.free else (lid, self.model.letter_order(lid) - exp)

    def sweep(self, F: dict) -> tuple[list[float], dict, float]:
        table, rounding = self._free(F) if self.free else self._product(F)
        return [table[k] for k in self.keys], table, rounding

    def _den(self, F: dict, x: tuple[int, int]) -> float:
        """F_N: 1 - z sum_{y != x} mu(y) F_{y^-1}, the denominator of Phi_x."""
        return 1.0 - sum(self.zmu[y] * F[self.inverse(y)] for y in self.keys if y != x)

    def _free(self, F: dict) -> tuple[dict, float]:
        keys, zmu = self.keys, self.zmu
        table = {}
        den_min = 1.0
        for x in keys:
            den = self._den(F, x)
            if not den > 0.0:
                raise DivergenceError("first-passage fixed point diverges: z is past 1/rho")
            table[x] = zmu[x] / den
            den_min = min(den_min, den)
        return table, (len(keys) + 4) * _EPS / den_min

    def _product(self, F: dict) -> tuple[dict, float]:
        table = {}
        den_min = 1.0
        terms = len(self.keys)
        for lid in (1, 2):
            m = self.model.letter_order(lid)
            rest = 1.0 - sum(self.zmu[y] * F[self.inverse(y)] for y in self.keys if y[0] != lid)
            if not rest > 0.0:
                raise DivergenceError("first-passage fixed point diverges: z is past 1/rho")
            forward = self.zmu[(lid, 1)] / rest
            backward = self.zmu[(lid, m - 1)] / rest if m > 2 else 0.0
            hits, pivot_min = _cycle_hits(m, forward, backward)
            for k in range(1, m):
                table[(lid, k)] = hits[m - k - 1]
            den_min = min(den_min, rest, pivot_min)
            terms += 4 * m
        return table, (terms + 8) * _EPS / den_min

    def jacobian(self, F: dict) -> list[list[float]]:
        """Rows of d Phi_x / d F_y, in the order of ``keys``."""
        return self._free_jacobian(F) if self.free else self._product_jacobian(F)

    def _free_jacobian(self, F: dict) -> list[list[float]]:
        # d Phi_x / d F_{y^-1} = z mu(x) z mu(y) / den_x^2 for y != x
        keys, zmu = self.keys, self.zmu
        index = {k: j for j, k in enumerate(keys)}
        rows = []
        for x in keys:
            den = self._den(F, x)
            scale = zmu[x] / (den * den)
            row = [0.0] * len(keys)
            for y in keys:
                if y != x:
                    row[index[self.inverse(y)]] = scale * zmu[y]
            rows.append(row)
        return rows

    def _product_jacobian(self, F: dict) -> list[list[float]]:
        # The hits of factor lid solve A h = r with A - I and r linear in
        # (phi, beta) = (forward, backward) / rest, so d h / d F_{y^-1} =
        # (z mu(y) / rest) A^-1 h for y off the factor; one state: h = phi.
        keys, zmu = self.keys, self.zmu
        index = {k: j for j, k in enumerate(keys)}
        rows = {}
        for lid in (1, 2):
            m = self.model.letter_order(lid)
            rest = 1.0 - sum(zmu[y] * F[self.inverse(y)] for y in keys if y[0] != lid)
            if m == 2:
                scales = [zmu[(lid, 1)] / (rest * rest)]
            else:
                forward, backward = zmu[(lid, 1)] / rest, zmu[(lid, m - 1)] / rest
                hits, _ = _cycle_hits(m, forward, backward)
                scales = [v / rest for v in _path_solve(forward, backward, hits)[0]]
            for k in range(1, m):
                row = [0.0] * len(keys)
                for y in keys:
                    if y[0] != lid:
                        row[index[self.inverse(y)]] = scales[m - k - 1] * zmu[y]
                rows[(lid, k)] = row
        return [rows[k] for k in keys]


def _cycle_hits(m: int, forward: float, backward: float) -> tuple[list[float], float]:
    """Hitting probabilities of 0 on the killed walk on Z/m.

    Entry d - 1 is the probability of reaching 0 from d (1 <= d < m)
    with steps +1 and -1 of weights ``forward`` and ``backward``; 0 is
    absorbing from both sides, so this is a path of m - 1 states
    solved by one tridiagonal elimination.  Returns the values and the
    smallest pivot.
    """
    size = m - 1
    rhs = [0.0] * size
    rhs[0] += backward
    rhs[-1] += forward
    return _path_solve(forward, backward, rhs)


def _path_solve(forward: float, backward: float, rhs: list[float]) -> tuple[list[float], float]:
    """x with x_d - forward x_(d+1) - backward x_(d-1) = rhs_d on a path
    of len(rhs) states, and the smallest pivot of the elimination."""
    size = len(rhs)
    pivots = [1.0] * size
    acc = [rhs[0]] + [0.0] * (size - 1)
    for i in range(1, size):
        pivots[i] = 1.0 - forward * backward / pivots[i - 1]
        if not pivots[i] > 0.0:
            raise DivergenceError("first-passage fixed point diverges: z is past 1/rho")
        acc[i] = rhs[i] + backward * acc[i - 1] / pivots[i - 1]
    x = [0.0] * size
    x[-1] = acc[-1] / pivots[-1]
    for i in range(size - 2, -1, -1):
        x[i] = (acc[i] + forward * x[i + 1]) / pivots[i]
    return x, min(pivots)


def _iterate(phi: _Letters, bias: bool) -> dict:
    """Phi iterated up from 0 until no letter increases.

    With ``bias`` each step is rounded down by its rounding bound, so
    every iterate stays below the exact one and the limit is a lower
    bound of the minimal fixed point.
    """
    F = {k: 0.0 for k in phi.keys}
    for _ in range(_MAX_SWEEPS):
        values, _, rounding = phi.sweep(F)
        if bias:
            values = [v * (1.0 - rounding) for v in values]
        new = dict(zip(phi.keys, values))
        if all(new[k] <= F[k] for k in phi.keys):
            return F
        F = new
    raise SolverError(f"first-passage fixed point not reached in {_MAX_SWEEPS} sweeps")


def _resolvent(phi: _Letters, F: dict, b: list[float]) -> list[float]:
    """(I - J)^-1 b for the Jacobian J of Phi at F."""
    jac = phi.jacobian(F)
    a = [[(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(jac)]
    return _solve(a, b)


def _newton(phi: _Letters) -> dict:
    """The minimal fixed point of Phi by Newton's method from 0.

    Each component of Phi is a power series in the letter values with
    nonnegative coefficients, so Phi is monotone and convex, and the
    Newton iterates F + (I - J(F))^-1 (Phi(F) - F) rise monotonically to
    the minimal fixed point whenever one exists (Etessami and
    Yannakakis, J. ACM 56, 2009; Esparza, Kiefer and Luttenberger, SIAM
    J. Comput. 39, 2010).  Stops once the residual Phi(F) - F lies within
    the sweep's rounding bound.  Below a fixed point every step is
    nonnegative, so a step with a component falling by more than
    ``_FALL`` relative to Phi(F) finds none above F, that is z is past
    1/rho, and raises DivergenceError, as does a diverging sweep or a
    singular I - J; ``_MAX_NEWTON`` steps without convergence raise
    SolverError.
    """
    keys = phi.keys
    F = dict.fromkeys(keys, 0.0)
    for _ in range(_MAX_NEWTON):
        values, _, rounding = phi.sweep(F)
        residual = [v - F[k] for k, v in zip(keys, values)]
        if all(abs(r) <= rounding * v for r, v in zip(residual, values)):
            return F
        step = _resolvent(phi, F, residual)
        if not all(s >= -_FALL * v for s, v in zip(step, values)):
            raise DivergenceError("Newton step falls: z is past 1/rho")
        F = {k: F[k] + s for k, s in zip(keys, step)}
    raise SolverError(f"Newton's method did not converge in {_MAX_NEWTON} steps")


def _upper(phi: _Letters, F: dict) -> dict:
    """A vector U >= F with Phi(U) <= U, certified with rounding.

    U = F + t d with d = (I - J)^-1 1 for the Jacobian J of Phi at F:
    along d, Phi(F + t d) - (F + t d) ~ Phi(F) - F - t, so t is doubled
    from the current excess until the check passes.  For J >= 0 a
    positive solution d exists exactly when the spectral radius of J is
    below 1, that is when the fixed point is stable and z < 1/rho.
    """
    keys = phi.keys
    base, _, rounding = phi.sweep(F)
    d = _resolvent(phi, F, [1.0] * len(keys))
    if not all(0.0 < dk <= _MAX_DIRECTION for dk in d):
        raise DivergenceError("first-passage fixed point is not stable: z is at or past 1/rho")
    excess = max(b * (1.0 + rounding) - F[k] for k, b in zip(keys, base))
    t = max(excess, rounding * max(F.values()), 1e-300)
    for _ in range(_MAX_DOUBLINGS):
        U = {k: F[k] + t * dk for k, dk in zip(keys, d)}
        try:
            image, _, bound = phi.sweep(U)
        except DivergenceError:
            image = None
        if image is not None and all(v * (1.0 + bound) <= U[k] for k, v in zip(keys, image)):
            return U
        t *= 2.0
    raise SolverError("no upper bound certified for the first-passage fixed point")


def _ceiling(phi: _Letters, U: dict) -> tuple[dict, float]:
    """Upper ends of every one-syllable value from a supersolution U, and
    of the return sum z sum_y mu(y) F(e, y^-1 | z).  Every one-syllable
    value is monotone in the letter values, so one sweep at U bounds them
    all.  Raises DivergenceError unless the sum is below 1, that is
    unless G(e, e | z) is certified finite."""
    _, high, r_high = phi.sweep(U)
    high = {k: v * (1.0 + r_high) for k, v in high.items()}
    loop = sum(phi.zmu[y] * high[phi.inverse(y)] for y in phi.keys)
    if not loop < 1.0:
        raise DivergenceError("Green function diverges: z is past 1/rho")
    return high, loop


class _Solution:
    """One-syllable first-passage enclosures and G(e, e | z) of a walk."""

    def __init__(self, spec: WalkSpec, z: float):
        phi = _Letters(spec, z)
        point = _iterate(phi, bias=False)
        lower = _iterate(phi, bias=True)
        high, loop = _ceiling(phi, _upper(phi, point))
        # Every one-syllable value is monotone in the letter values, so one
        # more sweep at the point and at the lower end fills the table.
        _, mid, _ = phi.sweep(point)
        _, low, r_low = phi.sweep(lower)
        self.table = {}
        for k, v in mid.items():
            lo, hi = low[k] * (1.0 - r_low), high[k]
            self.table[k] = (min(max(v, lo), hi), lo, hi)
        sums = [sum(phi.zmu[y] * self.table[phi.inverse(y)][i] for y in phi.keys) for i in (0, 1)]
        slack = (len(phi.keys) + 4) * _EPS / (1.0 - loop)
        self.base = (
            1.0 / (1.0 - sums[0]),
            (1.0 - slack) / (1.0 - sums[1]),
            (1.0 + slack) / (1.0 - loop),
        )


def _certified(spec: WalkSpec, z: float) -> bool:
    """Whether G(e, e | z) is certified finite: a supersolution above the
    Newton fixed point, and a return sum below 1 under it."""
    phi = _Letters(spec, z)
    try:
        _ceiling(phi, _upper(phi, _newton(phi)))
    except SolverError:  # DivergenceError included
        return False
    return True


# ---------------------------------------------------------------------------
# symmetry orbits of the ratio-set generators by enumerating the maps


def orbit_keys_by_maps(walk: WalkSpec, gens) -> list[tuple]:
    """A key per element of ``gens``, each a single syllable or one of
    ``hypwalk.classify.generators``, equal for elements in one orbit of
    the mu-preserving alphabet maps.

    F_N: a signed letter permutation sending x to y preserves mu iff
    (mu(x), mu(x^-1)) = (mu(y), mu(y^-1)).  Z/m*Z/n: the group of at most
    8 maps that invert either factor and, when m = n, swap them, each
    kept when it fixes mu; the image of s^i t^j is read off its pair of
    syllables, r being a class function.
    """
    mu = dict(walk.support)
    model = walk.model
    if model.kind == FREE:
        return [(mu.get(g, 0.0), mu.get(g.inverse(), 0.0)) for g in gens]

    def act(f, syllables):  # f: (invert factor 1, invert factor 2, swap)
        orders = model.orders
        return tuple(
            (3 - lid if f[2] else lid, orders[lid - 1] - exp if f[lid - 1] else exp)
            for lid, exp in syllables
        )

    swaps = (False, True) if model.orders[0] == model.orders[1] else (False,)
    maps = [
        f for f in itertools.product((False, True), (False, True), swaps)
        if {GroupElement(model, act(f, g.syllables)): p for g, p in mu.items()} == mu
    ]
    return [min(tuple(sorted(act(f, g.syllables))) for f in maps) for g in gens]


def classify_by_products(walk: WalkSpec):
    """The ratio-set verdict from the (m - 1)(n - 1) products s^i t^j of
    ``hypwalk.classify.generators`` (the letters on F_N): one
    ``ratio_invariant`` per orbit of ``orbit_keys_by_maps``, all fed to
    the verdict, as ``classify`` did before it read one generator per
    syllable class.  Its ``values`` are left empty."""
    gens = generators(walk.model)
    orbits = {}
    for g, key in zip(gens, orbit_keys_by_maps(walk, gens)):
        orbits.setdefault(key, g)
    return _verdict(walk.model, (), [ratio_invariant(walk, g) for g in orbits.values()])


# ---------------------------------------------------------------------------
# departure cones by brute force


def brute_cone_kernels(spec: WalkSpec, g: GroupElement, depth: int) -> dict:
    """Kernel enclosures K(g, w) over every word w of length ``depth``,
    grouped by the head of w's departure cone: w's factors up to and
    including the first that differs from g's, or g itself when w's
    factors begin with all of g's."""
    model = g.model
    gf = factors(g)
    out: dict = {}
    for w in words_by_length(model, depth):
        if w.word_length() != depth:
            continue
        wf = factors(w)
        j = 0
        while j < len(gf) and j < len(wf) and gf[j] == wf[j]:
            j += 1
        head = g
        if j < len(gf):
            head = model.identity()
            for key in wf[: j + 1]:
                head = head * GroupElement(model, (key,))
        out.setdefault(head, set()).add(kernel(spec, g, w))
    return out


# ---------------------------------------------------------------------------
# ball oracles: restricted-ball Green values, n-step distributions, the
# four-point delta and the semigroup check of nondegeneracy


def estimate_delta(model: GroupModel, radius: int, max_states: int = 4000) -> Fraction:
    """Least delta making the four-point condition hold on B(e, radius).

    Scans all triples in the ball, so it is meant for small radii; the
    state budget guards the cubic cost.  Monotone nondecreasing in the
    radius by construction.
    """
    b = ball(model, radius, max_states=max_states)
    n = len(b)
    elements = [b.element(i) for i in range(n)]
    lengths = b.lengths.astype(np.int64)
    # 2*(x|y) stays integral; work in doubled units to avoid fractions.
    dist = np.zeros((n, n), dtype=np.int64)
    for i, x in enumerate(elements):
        xi = x.inverse()
        for j in range(i + 1, n):
            d = (xi * elements[j]).word_length()
            dist[i, j] = dist[j, i] = d
    prod2 = lengths[:, None] + lengths[None, :] - dist
    worst = 0
    for k in range(n):
        col = prod2[:, k]
        gap = np.minimum(col[:, None], col[None, :]) - prod2
        m = int(gap.max())
        if m > worst:
            worst = m
    return Fraction(max(worst, 0), 2)


def semigroup_covers_b2(spec: WalkSpec) -> bool:
    """Whether semigroup products of the support cover B(e, 2), which
    decides nondegeneracy on these models: a BFS over products of the
    support that stay within a detour of the longest syllable."""
    model = spec.model
    targets = {model.from_letters(ltrs).letters() for ltrs in _b2_words(model)}
    if model.kind == FREE:
        detour = 1
    else:
        detour = max(model.orders) // 2
    cap = 2 + max(detour, max(g.word_length() for g, _ in spec.support))
    steps = spec.elements()
    frontier = [g for g in steps if g.word_length() <= cap]
    reach = {g.letters() for g in frontier}
    while frontier:
        nxt = []
        for x in frontier:
            for s in steps:
                y = x * s
                if y.word_length() > cap:
                    continue
                key = y.letters()
                if key not in reach:
                    reach.add(key)
                    nxt.append(y)
        frontier = nxt
    return targets <= reach


def _b2_words(model: GroupModel):
    b2 = ball(model, 2, max_states=10_000)
    return [b2.element(i).letters() for i in range(len(b2))]


def n_step_distributions(spec: WalkSpec, n: int, max_states: int = 3_000_000):
    """Exact distributions of x_0..x_n on B(e, n), by restricted convolution.

    Exact because an n-step nearest-neighbour path cannot leave B(e, n).
    Returns the ball and the list of distribution vectors.
    """
    require_valid(spec, nondegenerate=False)
    b = ball(spec.model, n, max_states=max_states)
    tables = b.step_tables()
    cols = []
    for g, p in spec.support:
        letter = g.letters()[0]
        cols.append((tables[letter], p))
    u = np.zeros(len(b))
    u[0] = 1.0
    out = [u.copy()]
    for _ in range(n):
        nxt = np.zeros(len(b))
        for col, p in cols:
            valid = col >= 0
            np.add.at(nxt, col[valid], p * u[valid])
        u = nxt
        out.append(u.copy())
    return b, out


@lru_cache(maxsize=8)
def _solver(spec: WalkSpec, radius: int, z: float, rtol: float, max_states: int) -> RestrictedSolver:
    return RestrictedSolver(spec, radius, z=z, rtol=rtol, max_states=max_states)


@dataclass(frozen=True)
class GreenTable:
    """Restricted Green values G_D(x, .) on an indexed ball domain."""

    domain: Ball
    radius: int
    walk: WalkSpec
    z: float
    rows: dict
    residuals: dict
    solver: RestrictedSolver = field(repr=False, compare=False)

    def value(self, x: GroupElement, y: GroupElement) -> float:
        i = self.domain.index_of(x)
        if i not in self.rows:
            raise KeyError(f"no computed row for source {x}")
        return float(self.rows[i][self.domain.index_of(y)])

    def row(self, x: GroupElement) -> np.ndarray:
        return self.rows[self.domain.index_of(x)]

    def column(self, y: GroupElement) -> np.ndarray:
        return self.solver.col(self.domain.index_of(y))


def restricted_green(
    walk: WalkSpec,
    radius: int,
    sources: Iterable[GroupElement] = (),
    *,
    z: float = 1.0,
    rtol: float = 1e-12,
    max_states: int = 3_000_000,
) -> GreenTable:
    """Solve the walk restricted to B(e, radius) for the given source rows.

    The base row at e is always included.  Sources must lie inside the
    domain; anything outside is a hard error.
    """
    require_valid(walk, nondegenerate=False)
    solver = _solver(walk, radius, z, rtol, max_states)
    b = solver.ball
    rows = {}
    residuals = {}
    wanted = [walk.model.identity()]
    wanted.extend(sources)
    for x in wanted:
        i = b.index_of(x)
        if i not in rows:
            rows[i] = solver.row(i)
            residuals[i] = solver.row_residual(i)
    return GreenTable(
        domain=b, radius=radius, walk=walk, z=z, rows=rows, residuals=residuals, solver=solver
    )
