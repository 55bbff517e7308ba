"""Sparse linear algebra for walks restricted to finite balls.

The restricted transition operator is row-substochastic with spectral
radius strictly below 1/z for admissible weights z, so both the direct
LU route and the Neumann-series iteration are safe.  Everything here is
single-threaded and deterministic.  No package path solves on a ball:
the restricted values serve the tests as an independent oracle, below
the exact engine and closing in on it as the ball grows.  numpy and
scipy.sparse are loaded by the first ball solve.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from .errors import DivergenceError, SolverError
from .groups import Ball, ball
from .walks import WalkSpec, require_valid

if TYPE_CHECKING:
    import numpy as np

SPLU_MAX_STATES = 400_000
_SERIES_MAX_ITER = 200_000


def transition_matrix(b: Ball, spec: WalkSpec):
    """Transition matrix (scipy CSR) of the walk killed on leaving the ball."""
    import numpy as np  # costly to import: loaded on first use
    import scipy.sparse as sp

    tables = b.step_tables()
    n = len(b)
    rows, cols, data = [], [], []
    for g, p in spec.support:
        letter = g.letters()[0]
        col = tables[letter]
        valid = np.nonzero(col >= 0)[0]
        rows.append(valid)
        cols.append(col[valid])
        data.append(np.full(len(valid), p))
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


class RestrictedSolver:
    """Solves (I - z P) systems on B(e, radius); source e has index 0.

    ``row(i)`` returns the Green row G(x_i, .) and ``col(j)`` the column
    G(., y_j), both as dense vectors over the ball index.  A bounded LRU
    keeps recently used rows/columns.
    """

    def __init__(
        self,
        spec: WalkSpec,
        radius: int,
        *,
        z: float = 1.0,
        rtol: float = 1e-12,
        max_states: int = 3_000_000,
        method: str = "auto",
        max_cached: int = 64,
    ):
        require_valid(spec, nondegenerate=False)
        if z < 0:
            raise ValueError("weight z must be nonnegative")
        self.spec = spec
        self.z = float(z)
        self.rtol = float(rtol)
        self.ball = ball(spec.model, radius, max_states=max_states)
        self.radius = radius
        n = len(self.ball)
        self._P = transition_matrix(self.ball, spec)
        self._PT = self._P.T.tocsr()
        if method == "auto":
            method = "lu" if n <= SPLU_MAX_STATES else "series"
        self.method = method
        self._lu = None
        if method == "lu":
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            A = sp.identity(n, format="csc") - self.z * self._P.tocsc()
            try:
                self._lu = spla.splu(A)
            except RuntimeError as exc:
                raise DivergenceError(f"LU factorization failed: {exc}") from exc
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._cols: OrderedDict[int, np.ndarray] = OrderedDict()
        self._max_cached = max_cached
        self.residuals: dict[tuple[str, int], float] = {}

    def _series(self, b: np.ndarray, op) -> np.ndarray:
        import numpy as np

        v = b.copy()
        prev_norm = np.inf
        grow = 0
        for k in range(_SERIES_MAX_ITER):
            nxt = b + self.z * op(v)
            diff = float(np.max(np.abs(nxt - v)))
            v = nxt
            if diff <= self.rtol:
                return v
            if diff > prev_norm:
                grow += 1
                if grow >= 25:
                    raise DivergenceError(
                        f"series iteration diverges at z={self.z} on radius {self.radius}"
                    )
            else:
                grow = 0
            prev_norm = diff
        raise SolverError(f"series solve did not reach {self.rtol} in {_SERIES_MAX_ITER} iters")

    def _solve(self, i: int, transposed: bool) -> np.ndarray:
        import numpy as np

        b = np.zeros(len(self.ball))
        b[i] = 1.0
        if self._lu is not None:
            v = self._lu.solve(b, trans="T" if transposed else "N")
            if np.any(v < -1e-9) or not np.all(np.isfinite(v)):
                raise DivergenceError(f"negative Green values at z={self.z}: outside convergence")
        else:
            op = (lambda x: self._PT @ x) if transposed else (lambda x: self._P @ x)
            v = self._series(b, op)
        apply_a = (lambda x: x - self.z * (self._PT @ x)) if transposed else (
            lambda x: x - self.z * (self._P @ x)
        )
        residual = float(np.max(np.abs(b - apply_a(v))))
        self.residuals[("T" if transposed else "N", i)] = residual
        if residual > max(self.rtol * 100, 1e-8):
            raise SolverError(f"residual {residual} too large on radius {self.radius}")
        v.setflags(write=False)
        return v

    def row(self, i: int) -> np.ndarray:
        cache = self._rows
        if i in cache:
            cache.move_to_end(i)
            return cache[i]
        v = self._solve(i, transposed=True)
        cache[i] = v
        if len(cache) > self._max_cached:
            cache.popitem(last=False)
        return v

    def col(self, j: int) -> np.ndarray:
        cache = self._cols
        if j in cache:
            cache.move_to_end(j)
            return cache[j]
        v = self._solve(j, transposed=False)
        cache[j] = v
        if len(cache) > self._max_cached:
            cache.popitem(last=False)
        return v

    def row_residual(self, i: int) -> float:
        return self.residuals.get(("T", i), float("nan"))

