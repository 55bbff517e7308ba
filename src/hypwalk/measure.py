"""Boundary cylinders, Monte Carlo harmonic measure, the measure-to-
first-passage ratio series, and the change-of-variables check.

Cylinder membership is exact: it reads one Gromov product of two letter
prefixes (see :func:`hypwalk.martin._prefix_product`), and every sampled
prefix is long enough for that product to be decided.  Monte Carlo
estimates read a :class:`SampleSet`: stabilized prefixes drawn over
counter-based streams keyed by a purpose tag, aggregated in a fixed
order, and always reported with a 3-sigma binomial band.

The readers (:func:`estimate_measure`, :func:`gibbs_ratio` and
:func:`radon_nikodym_check`) draw nothing.  Each takes a set drawn by its
caller, states the margin it needs (:func:`measure_margin`,
:func:`gibbs_margin`, :func:`rn_check_margin`) and refuses a shallower
set, so one set drawn at the largest need serves them all: a run draws at
most one set, under one tag, and hands it to every reader.

Classes.  A reader reads a window of each sample's first L letters and
compares it with its references: xi's ray for membership of U(xi, R),
and for rn-check also the letters of g and of g^-1 and the ray of
g^-1 xi, each ray to L letters.  A sample eta's class is the first
reference it follows longest, the number K of letters shared with it,
its letter x at K (none if K = L) and, for x of a finite factor, the
length of x's run from K in the window.  A decision made on one head per
class holds for every sample of the class:

Let u be eta's vertex at the end of the one-factor key (a letter of Z, a
syllable of Z/m) that holds letter K.  The class fixes eta's letters up
to u, so the whole window when |u| >= L.  Else no reference meets u:
prefixes of canonical words are canonical, so a reference through u
would share u's |u| > K letters with eta.  u is a cut vertex, so eta
past u lies in a branch B at u that holds no point of a reference, nor
of a geodesic between two (it would pass u twice), such as g^-1 times
xi's ray.  So for eta_d in B, with the geodesics from it to e, g, g^-1
and the rays all through u:

* (eta_d | xi_d) = (u | xi_d), and the products deciding eta in U are fixed;
* g eta_d = (g u)(u^-1 eta_d) with lengths adding, and g B meets neither
  e nor xi's ray, so (g eta_d | xi_d) = (g u | xi_d) decides g eta in U;
* F(e, g^-1 eta_d) and F(e, eta_d) share their factors past u, which
  cancel before any arithmetic (``_exact.kernel``): K(g, eta_d) is
  K(g, u) bit for bit.

Sample sets are numpy arrays from the sampler; the functions that read
them import numpy when they are called, so loading this module costs no
numpy import.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from ._record import record
from .errors import BoundaryTimeout, IndeterminateMembership, ValidationError
from .green import first_passage
from .groups import GroupElement, GroupModel
from .martin import BoundaryPoint, _prefix_product, martin_kernel_at
from .walks import WalkSpec, require_valid, sample_boundary_prefixes

if TYPE_CHECKING:
    import numpy as np


@record
class Cylinder:
    """The boundary cylinder U(xi, R): points whose rays have limiting
    Gromov product with xi's ray above R.

    On F_N, R = 0 gives the first-letter cones used by cone calculus; on
    Z/m*Z/n rays that start round one cycle in opposite directions can
    have product above 0 (3/2 for t^2 and t^3 = T^2 on a 5-cycle), so
    those cylinders overlap.  The measure-ratio series is probed for
    R >= 1.  The first ``depth`` = R + s + 1 letters of a ray decide
    membership (s = ``GroupModel.split_span``).
    """

    base: BoundaryPoint
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValidationError("cylinder radius must be nonnegative")

    @staticmethod
    def around(base: BoundaryPoint, radius: int) -> "Cylinder":
        return Cylinder(base=base, radius=radius)

    @property
    def depth(self) -> int:
        return self.radius + self.base.model.split_span + 1


def _decide(value: Fraction, exact: bool, radius: int) -> bool:
    if value > radius:
        return True  # the product only grows with depth
    if exact:
        return False
    raise IndeterminateMembership(f"prefixes too short to decide product {value} > {radius}")


# ---------------------------------------------------------------------------
# shared boundary sampling


_RETRY_CAP = 20


def boundary_sample_set(
    spec: WalkSpec, n_samples: int, margin: int, patience: int, max_steps: int, purpose: str
) -> tuple[np.ndarray, int, int]:
    """n stabilized prefix words, deterministic in (spec.seed, purpose),
    for :meth:`SampleSet.draw`.

    Sample i uses stream base+i; its k-th retry uses stream
    base + n + i * _RETRY_CAP + k, so each sample is a pure function of its
    index.  All samples are drawn as one batch and the timed-out ones are
    retried together.  Returns the prefixes, row i sample i's letters in
    an int8 matrix padded with zeros (no letter is 0); the total retry
    count; and the walk steps taken over every attempt, timed-out ones
    included.

    No stream stops before step max(margin + patience, 2 margin): the
    accepted prefix length L is at least ``margin``, the word must reach
    length L + margin, and the step that first brings it to length L
    edits a depth below L, after which ``patience`` quiet steps are due.
    A smaller ``max_steps`` raises :class:`BoundaryTimeout` before any
    drawing.
    """
    import numpy as np

    base = zlib.crc32(purpose.encode()) << 32
    least = max(margin + patience, 2 * margin)
    if max_steps < least:
        raise BoundaryTimeout(
            f"budgets.boundary_max_steps {max_steps} is below {least}, the least step at which "
            f"a boundary sample can stabilize (margin {margin}, patience {patience})",
            steps=max_steps, stream=base,
        )
    prefixes, lengths, used = sample_boundary_prefixes(
        spec, range(base, base + n_samples), margin, patience, max_steps
    )
    steps = int(used.sum())
    pending = np.flatnonzero(lengths < 0)
    retries = 0
    for attempt in range(1, _RETRY_CAP):
        if not len(pending):
            break
        streams = [base + n_samples + i * _RETRY_CAP + attempt for i in pending.tolist()]
        drawn, lengths, used = sample_boundary_prefixes(spec, streams, margin, patience, max_steps)
        steps += int(used.sum())
        ok = lengths >= 0
        width = drawn.shape[1]
        if width > prefixes.shape[1]:
            prefixes = np.pad(prefixes, ((0, 0), (0, width - prefixes.shape[1])))
        prefixes[pending[ok], :width] = drawn[ok]
        retries += attempt * int(np.count_nonzero(ok))
        pending = pending[~ok]
    if len(pending):
        stream = base + int(pending[0])
        raise BoundaryTimeout(f"sample stream {stream} failed {_RETRY_CAP} times", stream=stream)
    return prefixes, retries, steps


@record
class SampleSet:
    """A drawn boundary sample set, as its readers take it.

    Row i of ``prefixes`` holds sample i's letters, at least ``margin`` of
    them, padded with zeros; ``n_retries`` and ``n_steps`` are the draw's
    retry count and walk steps (see :func:`boundary_sample_set`).
    """

    prefixes: np.ndarray
    margin: int
    n_retries: int
    n_steps: int

    @property
    def n_samples(self) -> int:
        return len(self.prefixes)

    @staticmethod
    def draw(
        spec: WalkSpec, n_samples: int, margin: int, patience: int, max_steps: int, purpose: str
    ) -> SampleSet:
        prefixes, retries, steps = boundary_sample_set(
            spec, n_samples, margin, patience, max_steps, purpose
        )
        return SampleSet(prefixes=prefixes, margin=margin, n_retries=retries, n_steps=steps)


def _require_margin(samples: SampleSet, need: int, reader: str) -> None:
    if samples.margin < need:
        raise ValidationError(
            f"{reader} needs a sample set of margin {need}, got margin {samples.margin}"
        )


def _classes(prefixes: np.ndarray, width: int, refs: Sequence[Sequence[int]], model: GroupModel):
    """The classes of the rows of ``prefixes`` against ``refs``, each at
    most ``width`` letters long (module docstring): each class's head, the
    first ``width`` letters of its first row, and its row count.  K is
    found column by column on the rows that still follow some reference,
    each with a bit per reference; a row that stops at a letter of a
    finite factor then adds one to its key per further copy of it."""
    import numpy as np

    rank = model.rank
    n_letters, n_runs = 2 * rank + 1, model.split_span + 1  # x is coded x + rank, 0 included
    block = (width + 1) * n_letters * n_runs  # the codes of one reference
    dtype = np.min_scalar_type(len(refs) * block - 1)
    # From a row's bits, the first reference it follows, times the block.
    lowest = [max(m & -m, 1).bit_length() - 1 for m in range(1 << len(refs))]
    first = np.array([block * j for j in lowest], dtype)
    finite = np.array([x != 0 and model.letter_order(abs(x)) > 0 for x in range(-rank, rank + 1)])
    keys = np.zeros(len(prefixes), dtype=dtype)
    rows = np.arange(len(prefixes), dtype=np.int32)
    follows = np.full(len(prefixes), (1 << len(refs)) - 1, dtype=np.uint8)
    running, marks = rows[:0], prefixes[:0, 0]
    for c in range(width):
        on = prefixes[running, c] == marks
        running, marks = running[on], marks[on]
        keys[running] += 1
        column = prefixes[rows, c]
        still = np.zeros(len(rows), dtype=np.uint8)
        for j, ref in enumerate(refs):
            if c < len(ref):
                still |= (column == ref[c]).view(np.uint8) << j
        still &= follows
        stop = still == 0
        out, x = rows[stop], column[stop]
        keys[out] = first[follows[stop]] + ((x + rank).astype(dtype) + c * n_letters) * n_runs
        run = finite[x + rank]
        running, marks = np.concatenate((running, out[run])), np.concatenate((marks, x[run]))
        keys[out[run]] += 1
        rows, follows = rows[~stop], still[~stop]
    keys[rows] = first[follows] + (width * n_letters + rank) * n_runs
    _, rows, counts = np.unique(keys, return_index=True, return_counts=True)
    return [tuple(filter(None, row)) for row in prefixes[rows, :width].tolist()], counts.tolist()


def _prefix_membership(letters: tuple[int, ...], cyl: Cylinder, model: GroupModel) -> bool:
    """Decide membership of the ray whose canonical letters begin
    ``letters``, from its first R + s + 1: past R shared letters the
    product exceeds R, else it is exact there.  Fewer letters can leave it
    undecided, which raises :class:`IndeterminateMembership`."""
    ray = cyl.base.prefix_letters(cyl.depth)
    return _decide(*_prefix_product(model, letters[:cyl.depth], ray), cyl.radius)


def _hits(model: GroupModel, xi: BoundaryPoint, radii: Sequence[int], prefixes) -> tuple[list, int]:
    """The rows in U(xi, R) per radius R, and the number of classes: one
    product per class of the first R_max + s + 1 letters decides every R,
    as an exact product does not change with depth, and an inexact one is
    at least the number of shared letters, past R_max."""
    ray = xi.prefix_letters(max(radii) + model.split_span + 1)
    heads, counts = _classes(prefixes, len(ray), [ray], model)
    products = [_prefix_product(model, head, ray) for head in heads]
    return [sum(k for p, k in zip(products, counts) if _decide(*p, R)) for R in radii], len(heads)


@record
class MeasureEstimate:
    """Monte Carlo cylinder mass with its 3-sigma binomial half-width."""

    value: float
    n_samples: int
    half_width: float
    n_retries: int


def _estimate(hits: int, n: int, retries: int) -> MeasureEstimate:
    nu = hits / n if n else 0.0
    half = 3.0 * math.sqrt(nu * (1.0 - nu) / n) if n else 1.0
    return MeasureEstimate(value=nu, n_samples=n, half_width=float(half), n_retries=retries)


def measure_margin(cyl: Cylinder) -> int:
    """The sample-set margin :func:`estimate_measure` needs for ``cyl``."""
    return max(10, cyl.depth + 2)


def estimate_measure(walk: WalkSpec, cyl: Cylinder, samples: SampleSet) -> MeasureEstimate:
    """Harmonic measure of a cylinder from a set of stabilized boundary
    samples, decided once per class (:func:`_hits`)."""
    require_valid(walk)
    _require_margin(samples, measure_margin(cyl), "estimate_measure")
    (hits,), _ = _hits(walk.model, cyl.base, [cyl.radius], samples.prefixes)
    return _estimate(hits, samples.n_samples, samples.n_retries)


# ---------------------------------------------------------------------------
# measure-to-first-passage ratio series


@record
class GibbsRow:
    radius: int
    nu: float
    nu_half: float
    f_value: float
    f_lower: float
    f_upper: float
    ratio: float
    ratio_lower: float
    ratio_upper: float


@record
class GibbsReport:
    """nu(U(xi, R)) / F(e, x(R)) over a radius list, with error bands.

    ``n_samples``, ``margin``, ``n_retries`` and ``n_steps`` describe the
    sample set read, which a run shares with ``rn-check``."""

    rows: tuple[GibbsRow, ...]
    ratio_min: float
    ratio_max: float
    n_samples: int
    margin: int
    n_retries: int
    n_classes: int
    n_steps: int


def gibbs_margin(xi: BoundaryPoint, radii: Sequence[int]) -> int:
    """The sample-set margin :func:`gibbs_ratio` needs: R_max + s + 3,
    at least 10."""
    return measure_margin(Cylinder.around(xi, max(radii)))


def gibbs_ratio(
    walk: WalkSpec, xi: BoundaryPoint, radii: Sequence[int], samples: SampleSet
) -> GibbsReport:
    """Ratio series over R from one sample set, each radius's mass decided
    once per class (:func:`_hits`); ``n_classes`` counts the products."""
    require_valid(walk)
    if not radii or min(radii) < 1:
        raise ValidationError("gibbs radii must be positive")
    _require_margin(samples, gibbs_margin(xi, radii), "gibbs_ratio")
    hits, n_classes = _hits(walk.model, xi, radii, samples.prefixes)
    e = walk.model.identity()
    rows = []
    for R, k in zip(radii, hits):
        est = _estimate(k, samples.n_samples, samples.n_retries)
        f = first_passage(walk, e, xi.prefix(R))
        lo = max(est.value - est.half_width, 0.0) / f.upper
        hi = (est.value + est.half_width) / max(f.lower, 1e-300)
        rows.append(GibbsRow(
            radius=R, nu=est.value, nu_half=est.half_width,
            f_value=f.value, f_lower=f.lower, f_upper=f.upper,
            ratio=est.value / f.value, ratio_lower=lo, ratio_upper=hi,
        ))
    ratios = [r.ratio for r in rows]
    return GibbsReport(
        rows=tuple(rows),
        ratio_min=min(ratios),
        ratio_max=max(ratios),
        n_samples=samples.n_samples,
        margin=samples.margin,
        n_retries=samples.n_retries,
        n_classes=n_classes,
        n_steps=samples.n_steps,
    )


# ---------------------------------------------------------------------------
# change of variables


def _translated_membership(
    g: GroupElement, letters: tuple[int, ...], cyl: Cylinder, model: GroupModel
) -> bool:
    """Decide g . eta in cyl for a sampled prefix of eta.

    Past |g| + s letters the last syllable of the prefix is out of reach
    of g, so the letters of g * eta(n) begin the ray of g . eta; taking
    n = R + s + |g| + 3 leaves at least R + s + 3 of them.
    """
    depth = cyl.depth + g.word_length() + 2
    if len(letters) < depth:
        raise IndeterminateMembership(f"translating by {g} needs {depth} letters")
    z = g * model.from_letters(letters[:depth])
    return _prefix_membership(z.letters(), cyl, model)


@record
class RadonNikodymReport:
    """Two-sided change-of-variables comparison.

    ``pulled_mass`` is the sampled measure of g^-1 U; ``kernel_integral``
    is the Monte Carlo integral of the kernel over U, judged against the
    combined bands.  ``n_samples``, ``margin``, ``n_retries`` and ``n_steps``
    describe the sample set read, which a run shares with ``gibbs``.
    """

    pulled_mass: float
    pulled_half: float
    kernel_integral: float
    kernel_half: float
    agree: bool
    n_samples: int
    margin: int
    n_retries: int
    n_classes: int
    n_steps: int


def _rn_references(g: GroupElement, cyl: Cylinder) -> tuple[int, list[tuple[int, ...]]]:
    """rn-check's window, L = cyl.depth + |g| + 2 letters, and its
    references: xi's ray, the letters of g and g^-1, and g^-1 xi's ray,
    whose first L letters are those of g^-1 times xi's first 2L, as g^-1
    reaches at most |g| + s < L letters into them."""
    width = cyl.depth + g.word_length() + 2
    pulled = (g.inverse() * cyl.base.prefix(2 * width)).letters()[:width]
    return width, [cyl.base.prefix_letters(width), g.letters(), g.inverse().letters(), pulled]


def _rn_samples(walk: WalkSpec, g: GroupElement, cyl: Cylinder, prefixes):
    """The pulled hits, and per class against :func:`_rn_references` its
    kernel value at its head (0 off U) and its count, in class order."""
    model = walk.model
    width, refs = _rn_references(g, cyl)
    heads, counts = _classes(prefixes, width, refs, model)
    hits = sum(k for head, k in zip(heads, counts) if _translated_membership(g, head, cyl, model))
    kernel = [
        martin_kernel_at(walk, g, model.from_letters(head)).value
        if _prefix_membership(head, cyl, model) else 0.0
        for head in heads
    ]
    return hits, kernel, counts


def rn_check_margin(g: GroupElement, cyl: Cylinder) -> int:
    """The sample-set margin :func:`radon_nikodym_check` needs:
    depth(U) + |g| + 4, at least 10."""
    return max(10, cyl.depth + g.word_length() + 4)


def radon_nikodym_check(
    walk: WalkSpec, g: GroupElement, cyl: Cylinder, samples: SampleSet
) -> RadonNikodymReport:
    """Compare nu(g^-1 U) with the integral of K(g, .) over U.

    Both memberships and the kernel are decided once per class against
    :func:`_rn_references`.  The integral is the correctly rounded mean of
    the samples' kernel values: the sum over classes, weighted by their
    counts, is exact as a Fraction and rounded once.  The sample variance
    sums count times squared deviation over classes with ``math.fsum``.
    """
    require_valid(walk)
    n = samples.n_samples
    if n < 2:
        raise ValidationError(f"rn-check needs at least 2 samples, got {n}")
    _require_margin(samples, rn_check_margin(g, cyl), "radon_nikodym_check")
    pulled_hits, kernel, counts = _rn_samples(walk, g, cyl, samples.prefixes)
    pulled = pulled_hits / n
    pulled_half = 3.0 * math.sqrt(pulled * (1 - pulled) / n)
    integral = float(sum(Fraction(k) * c for k, c in zip(kernel, counts)) / n)
    variance = math.fsum(c * (k - integral) ** 2 for k, c in zip(kernel, counts)) / (n - 1)
    kernel_half = 3.0 * math.sqrt(variance) / math.sqrt(n)
    return RadonNikodymReport(
        pulled_mass=pulled,
        pulled_half=pulled_half,
        kernel_integral=integral,
        kernel_half=kernel_half,
        agree=abs(pulled - integral) <= pulled_half + kernel_half,
        n_samples=n,
        margin=samples.margin,
        n_retries=samples.n_retries,
        n_classes=len(kernel),
        n_steps=samples.n_steps,
    )
