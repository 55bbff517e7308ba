"""Walk specs and their validation, path and boundary sampling, and the
spectral radius.

Validation reads nondegeneracy off the support's letters in closed form,
so it costs the same at every factor order.

Randomness is counter-based: every sample is a pure function of
``(spec.seed, stream)`` through a keyed Philox generator, so results do
not depend on the order in which samples are drawn.  Paths are drawn in
plain Python by ``_streams``.  Boundary sample sets are drawn in
batches, whose walks advance in lockstep in slabs of bounded size, by
the array sampler of ``_sampler``; a batch comes back as a zero-padded
int8 matrix of prefix letters, the prefix lengths and the step counts.
Each stream's prefix and step count are the same whatever batch, slab or
tile it runs in, and equal to a one-walk-at-a-time run.

This module imports no numpy: specs and their validation are plain
Python, and the sampling functions import ``_streams`` or, for sample
sets, ``_sampler``, which holds the numpy code, when they are called.
numpy is the dependency of sample sets, not of sampling.
``config.parse_config`` loads both beforehand for a config that needs
them (see :mod:`hypwalk.config`).

The spectral radius is bracketed by the exact engine in ``_exact``: the
lower end from exact return probabilities, the upper end from the
free-product function Psi, which bounds rho from above at every point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from ._record import record
from .errors import ValidationError
from .groups import GroupElement, GroupModel

if TYPE_CHECKING:
    import numpy as np

_PROB_TOL = 1e-12
# The boundary sampler counts steps and letters in int32.
BOUNDARY_MAX_STEPS = 2**31 - 1


@record
class WalkSpec:
    """A finitely supported step distribution on a group model."""

    model: GroupModel
    support: tuple[tuple[GroupElement, float], ...]
    seed: int

    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.support)

    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.support)


def make_walk(model: GroupModel, items: Iterable[tuple[GroupElement | str, float]], seed: int) -> WalkSpec:
    """Build a WalkSpec with canonically ordered, merged support."""
    acc: dict[GroupElement, float] = {}
    for g, p in items:
        if isinstance(g, str):
            g = model.word(g)
        acc[g] = acc.get(g, 0.0) + float(p)
    support = tuple(sorted(acc.items(), key=lambda kv: kv[0].letters()))
    return WalkSpec(model=model, support=support, seed=int(seed))


def uniform_walk(model: GroupModel, seed: int) -> WalkSpec:
    """The simple random walk: uniform on the symmetric alphabet."""
    gens = model.generators()
    return make_walk(model, [(g, 1.0 / len(gens)) for g in gens], seed)


def reversed_walk(spec: WalkSpec) -> WalkSpec:
    """The walk driven by the reflected measure g -> mu(g^-1)."""
    return make_walk(spec.model, [(g.inverse(), p) for g, p in spec.support], spec.seed)


@record
class WalkValidation:
    probabilities_ok: bool
    nearest_neighbour: bool
    symmetric: bool
    nondegenerate: bool


@lru_cache(maxsize=64)
def validate_walk(spec: WalkSpec) -> WalkValidation:
    """Validate a walk spec.

    Hard errors (raised): empty support, nonpositive or NaN probabilities,
    total mass away from 1.  Everything else is reported as flags.
    Nondegeneracy, that the support generates the group as a semigroup,
    is read off the letters of a nearest-neighbour support: an infinite
    factor needs both of its letters, a finite one either.
    A support that holds a longer word is flagged degenerate as well;
    ``require_valid`` refuses such walks everywhere anyway.
    """
    if not spec.support:
        raise ValidationError("walk support is empty")
    probs = spec.probabilities()
    if not all(p > 0 for p in probs):  # NaN fails every comparison
        raise ValidationError("step probabilities must be positive")
    total = math.fsum(probs)
    if abs(total - 1.0) > _PROB_TOL:
        raise ValidationError(f"step probabilities sum to {total!r}, not 1")
    nearest = all(g.word_length() == 1 for g, _ in spec.support)
    mu = dict(spec.support)
    symmetric = all(abs(p - mu.get(g.inverse(), 0.0)) <= _PROB_TOL for g, p in spec.support)
    nondegenerate = nearest and _letters_generate(spec)
    return WalkValidation(True, nearest, symmetric, nondegenerate)


def _letters_generate(spec: WalkSpec) -> bool:
    """Whether a nearest-neighbour support generates the group as a
    semigroup.  No product of other letters reaches a letter of an
    infinite factor, so it needs both of its letters; the powers of a
    letter cover its finite factor, so that needs either."""
    letters = {g.letters()[0] for g, _ in spec.support}
    return all(
        (lid in letters or -lid in letters) if m else (lid in letters and -lid in letters)
        for lid, m in enumerate(spec.model.orders, 1)
    )


def require_valid(spec: WalkSpec, nondegenerate: bool = True) -> WalkValidation:
    report = validate_walk(spec)
    if not report.nearest_neighbour:
        raise ValidationError("support must consist of length-1 elements")
    if nondegenerate and not report.nondegenerate:
        raise ValidationError("walk is degenerate: support does not generate the group")
    return report


# ---------------------------------------------------------------------------
# sampling


@record
class PathSample:
    """A sampled trajectory x_0, ..., x_n.

    ``step_indices`` records the drawn support indices, so x_{k+1} = x_k *
    support[step_indices[k]].
    """

    start: GroupElement
    positions: tuple[GroupElement, ...]
    step_indices: tuple[int, ...]
    stream: int


def sample_path(
    spec: WalkSpec,
    start: GroupElement,
    n_steps: int,
    stream: int = 0,
) -> PathSample:
    """Sample a path of ``n_steps`` steps starting at ``start``.

    Deterministic given (spec.seed, stream).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    require_valid(spec, nondegenerate=False)
    from . import _streams  # loaded by parse_config when the config samples

    idx = _streams.path_steps(spec, stream, n_steps)
    steps = spec.elements()
    pos = [start]
    cur = start
    for i in idx:
        cur = cur * steps[i]
        pos.append(cur)
    return PathSample(start=start, positions=tuple(pos), step_indices=idx, stream=stream)


def sample_boundary_prefixes(
    spec: WalkSpec,
    streams,
    margin: int = 10,
    patience: int = 20,
    max_steps: int = 20_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one walk per stream until a geodesic-word prefix stabilizes.

    Returns three arrays in stream order: the prefix letters, one row per
    stream, as an int8 matrix padded with zeros (no letter is 0) at
    least ``margin`` wide; each prefix's length, -1 when the stream ran
    out of steps; and the steps each stream used.  Each stream's result
    is a pure function of (spec.seed, stream), whatever batch it runs
    in, and equal to that of the plain-Python walker of
    :func:`hypwalk._streams.boundary_prefixes`.

    The tracked prefix length L starts at ``margin`` and is promoted
    whenever the position is ``margin + patience`` beyond it; the sample
    is accepted once the L-prefix has been untouched for ``patience``
    consecutive steps while the position stays at least ``margin`` past
    it.  A stream that has not stopped after ``max_steps`` steps has
    timed out.  The sampler counts steps and letters in int32, so
    ``max_steps`` and 2 ``margin`` + ``patience`` are at most
    ``BOUNDARY_MAX_STEPS``.

    A promotion needs no record of the letter that joins the prefix:
    raising the last prefix edit u, on promoting L = p at step P, to the
    last step that edited letter p would never raise it.  A push changes
    the word's last entry (a letter of a factor Z, a syllable of a
    factor Z/m), appends one or removes it, and edits that entry's first
    letter; it edits the prefix when that letter lies below L.  Say the
    push of a step s in (u, P] edited letter p, removing its entry or
    not.  After step u every entry of the word starts at or below the
    letter that step edited, which lies below L; as L only grows, a
    later push that changed one of them would edit the prefix.  So every
    later push edits a letter at or past the length n_u after step u
    (0 if u = 0), and p >= n_u.  At P the length is at least p + margin
    + patience and it moves by at most one letter per step, so P - u >=
    margin + patience.  At step P - 1 the word was then at least
    p + margin long with L = p, and the prefix had been untouched for
    P - 1 - u >= patience steps (margin >= 1): the walk stopped there
    and never reached P.  By induction over the promotions, a rule with
    that raise keeps the same u and stops at the same step.

    This draws the sample sets of ``measure``, on the array sampler of
    :mod:`hypwalk._sampler`; its module docstring describes the slabs,
    draws and word stacks.
    """
    if margin < 1 or patience < 1:
        raise ValueError("margin and patience must be positive")
    if max(max_steps, 2 * margin + patience) > BOUNDARY_MAX_STEPS:
        raise ValueError(
            f"max_steps and 2 margin + patience must be at most {BOUNDARY_MAX_STEPS}"
        )
    require_valid(spec, nondegenerate=True)
    import numpy as np

    from . import _sampler, _streams  # loaded by parse_config for sample sets

    if not isinstance(streams, range):  # a range's slabs build their own keys
        mask = _streams.MASK64
        streams = np.fromiter((s & mask for s in streams), dtype=np.uint64)
    return _sampler.draw_boundary_prefixes(spec, streams, margin, patience, max_steps)


# ---------------------------------------------------------------------------
# the spectral radius


@record
class SpectralRadiusEstimate:
    """Exact even-step return probabilities and a certified bracket of rho."""

    even_returns: tuple[float, ...]  # p^(0), p^(2), ..., p^(2n)
    roots: tuple[float, ...]  # p^(2k)(e,e)^(1/2k)
    lower: float  # max root: p^(n)(e,e) <= rho^n for every n
    upper: float  # Psi at its minimiser, rounded up: rho <= Psi(t) for every t > 0


def spectral_radius_estimate(spec: WalkSpec, max_steps: int = 20) -> SpectralRadiusEstimate:
    """Bracket the spectral radius rho of a nearest-neighbour walk.

    The returns p^(n)(e, e), n <= ``max_steps``, are power-series
    coefficients of the cut-vertex first-step equations; ``upper`` is the
    free-product function Psi at its minimiser, rounded up.  rho <= Psi(t)
    for every t > 0, as G(e, e | 1/Psi(t)) is finite, and rho = min Psi.
    """
    from . import _exact  # _exact imports this module

    if max_steps < 4 or max_steps % 2:
        raise ValueError("max_steps must be even and at least 4")
    require_valid(spec, nondegenerate=False)
    even = tuple(_exact.returns(spec, max_steps)[::2])
    roots = tuple(even[k] ** (1.0 / (2 * k)) for k in range(1, len(even)))
    upper = _exact.spectral_upper(spec)
    return SpectralRadiusEstimate(even_returns=even, roots=roots, lower=max(roots), upper=upper)
