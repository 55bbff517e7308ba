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

Sample sets are numpy arrays from the sampler; the functions that read
them import numpy when they are called, so loading this module costs no
numpy import.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from fractions import Fraction
from functools import cached_property
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

    @cached_property
    def ray(self) -> tuple[int, ...]:
        """The first ``depth`` letters of the base ray, which every
        membership of the cylinder reads: built once per cylinder, not
        once per head."""
        return self.base.prefix_letters(self.depth)


def _decide(value: Fraction, exact: bool, cyl: Cylinder) -> bool:
    if value > cyl.radius:
        return True  # the product only grows with depth
    if exact:
        return False
    raise IndeterminateMembership(f"prefixes too short to decide product {value} > {cyl.radius}")


# ---------------------------------------------------------------------------
# shared boundary sampling


def _stream_base(purpose: str) -> int:
    return zlib.crc32(purpose.encode()) << 32


_RETRY_CAP = 20


def boundary_sample_set(
    spec: WalkSpec,
    n_samples: int,
    margin: int,
    patience: int,
    max_steps: int,
    purpose: str,
) -> tuple[np.ndarray, int, int]:
    """n stabilized prefix words, deterministic in (spec.seed, purpose).

    :meth:`SampleSet.draw` calls this, and ``report.run_experiment`` draws
    at most one set per run, under one tag, for ``gibbs`` and ``rn-check``
    together.  Its margin is the larger of the two readers' needs,
    :func:`gibbs_margin` and :func:`rn_check_margin`, each taken from the
    model's probe points and ``budgets.gibbs_radii`` whether or not that
    experiment is selected, so a reader's block is the same run alone or
    with the other.

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

    base = _stream_base(purpose)
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


def _heads(prefixes: np.ndarray, depth: int):
    """The distinct heads of ``depth`` letters among the prefix rows, as
    letter tuples, and each head's count.

    Heads come in the order of their bytes read unsigned, left to right:
    a stable lexsort over the unsigned-byte columns brings equal heads
    together, and each run of equal rows is one head.  A run starts at
    every sorted row that differs from the one before it in some column;
    the columns are compared one at a time, each gathered in sorted order
    and or-ed into one bool array, so no sorted copy of the rows is made.
    """
    import numpy as np

    block = prefixes[:, :depth]
    order = np.lexsort(block.view(np.uint8).T[::-1])
    starts = np.flatnonzero(_run_starts(block, order))
    counts = np.diff(starts, append=len(order))
    rows = block[order[starts]].tolist()
    return [tuple(filter(None, row)) for row in rows], counts


def _run_starts(block: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Whether each row of block[order] differs from the row before it
    (the first row does), read one column at a time."""
    import numpy as np

    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    column = np.empty(len(order), dtype=block.dtype)
    differ = np.empty(max(len(order) - 1, 0), dtype=bool)
    for j in range(block.shape[1]):
        np.take(block[:, j], order, out=column, mode="clip")  # "raise" would buffer
        np.not_equal(column[1:], column[:-1], out=differ)
        new[1:] |= differ
    return new


def _ray_product(
    letters: tuple[int, ...], cyl: Cylinder, model: GroupModel
) -> tuple[Fraction, bool]:
    """Product of a ray beginning ``letters`` with the cylinder's base ray,
    from their first ``cyl.depth`` letters, and whether it is exact."""
    return _prefix_product(model, letters[:cyl.depth], cyl.ray)


def _prefix_membership(
    letters: tuple[int, ...], cyl: Cylinder, model: GroupModel
) -> bool:
    """Decide membership of the ray whose canonical letters begin
    ``letters``, from its first R + s + 1: past R shared letters the
    product exceeds R, else it is exact there.  Fewer letters can leave it
    undecided, which raises :class:`IndeterminateMembership`."""
    return _decide(*_ray_product(letters, cyl, model), cyl)


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
    samples; membership is decided once per distinct head of ``cyl.depth``
    letters."""
    require_valid(walk)
    _require_margin(samples, measure_margin(cyl), "estimate_measure")
    heads, counts = _heads(samples.prefixes, cyl.depth)
    hits = sum(
        k for head, k in zip(heads, counts.tolist()) if _prefix_membership(head, cyl, walk.model)
    )
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
    n_heads: int
    n_steps: int


def gibbs_margin(xi: BoundaryPoint, radii: Sequence[int]) -> int:
    """The sample-set margin :func:`gibbs_ratio` needs: R_max + s + 3,
    at least 10."""
    return measure_margin(Cylinder.around(xi, max(radii)))


def gibbs_ratio(
    walk: WalkSpec, xi: BoundaryPoint, radii: Sequence[int], samples: SampleSet
) -> GibbsReport:
    """Ratio series over R from one sample set: one product per distinct
    head of R_max + s + 1 letters decides every radius."""
    require_valid(walk)
    if not radii or min(radii) < 1:
        raise ValidationError("gibbs radii must be positive")
    _require_margin(samples, gibbs_margin(xi, radii), "gibbs_ratio")
    deepest = Cylinder.around(xi, max(radii))
    # An exact product does not change with depth, and an inexact one is
    # at least the number of shared letters, which is past R_max.
    heads, counts = _heads(samples.prefixes, deepest.depth)
    products = Counter()
    for head, k in zip(heads, counts.tolist()):
        products[_ray_product(head, deepest, walk.model)] += k
    e = walk.model.identity()
    rows = []
    for R in radii:
        cyl = Cylinder.around(xi, R)
        hits = sum(k for (value, exact), k in products.items() if _decide(value, exact, cyl))
        est = _estimate(hits, samples.n_samples, samples.n_retries)
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
        n_heads=len(heads),
        n_steps=samples.n_steps,
    )


# ---------------------------------------------------------------------------
# change of variables


def _translated_membership(
    g: GroupElement,
    letters: tuple[int, ...],
    cyl: Cylinder,
    model: GroupModel,
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
    is the Monte Carlo integral of the kernel over U.  Agreement is
    judged against the combined bands.  ``n_samples``, ``margin``,
    ``n_retries`` and ``n_steps`` describe the sample set read, which a
    run shares with ``gibbs``.
    """

    pulled_mass: float
    pulled_half: float
    kernel_integral: float
    kernel_half: float
    agree: bool
    n_samples: int
    margin: int
    n_retries: int
    n_heads: int
    n_steps: int


def _rn_samples(walk: WalkSpec, g: GroupElement, cyl: Cylinder, prefixes, depth: int):
    """The pulled hits, and per distinct head of cyl.depth + |g| + 2
    letters its kernel value at its first ``depth`` letters (0 off U) and
    its count, as two lists in head order."""
    model = walk.model
    heads, counts = _heads(prefixes, cyl.depth + g.word_length() + 2)
    counts = counts.tolist()
    hits = sum(k for head, k in zip(heads, counts) if _translated_membership(g, head, cyl, model))
    kernel = [
        martin_kernel_at(walk, g, model.from_letters(head[:depth])).value
        if _prefix_membership(head, cyl, model) else 0.0
        for head in heads
    ]
    return hits, kernel, counts


def rn_check_margin(g: GroupElement, cyl: Cylinder) -> int:
    """The sample-set margin :func:`radon_nikodym_check` needs:
    depth(U) + |g| + 4, at least 10."""
    return max(10, cyl.depth + g.word_length() + 4)


def radon_nikodym_check(
    walk: WalkSpec,
    g: GroupElement,
    cyl: Cylinder,
    samples: SampleSet,
) -> RadonNikodymReport:
    """Compare nu(g^-1 U) with the integral of K(g, .) over U.

    The kernel is evaluated at the sample prefix of the set's margin, past
    every branch point of g.  A sample's first cyl.depth + |g| + 2 letters
    decide both memberships and pass |g| + s + 2, beyond which the kernel
    along a ray is bitwise constant; so each distinct head of that length
    is evaluated once, the kernel at its first margin letters.  The
    integral and the sample variance weight each head's value by its
    count, summed with ``math.fsum``: one rounding per head, not one per
    sample.
    """
    require_valid(walk)
    n = samples.n_samples
    if n < 2:
        raise ValidationError(f"rn-check needs at least 2 samples, got {n}")
    _require_margin(samples, rn_check_margin(g, cyl), "radon_nikodym_check")
    pulled_hits, kernel, counts = _rn_samples(walk, g, cyl, samples.prefixes, samples.margin)
    pulled = pulled_hits / n
    pulled_half = 3.0 * math.sqrt(pulled * (1 - pulled) / n)
    integral = math.fsum(k * c for k, c in zip(kernel, counts)) / n
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
        n_heads=len(kernel),
        n_steps=samples.n_steps,
    )
