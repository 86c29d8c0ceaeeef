"""Banded and dense linear algebra, in NumPy.

Every banded matrix is a `StencilMatrix`: the NumPy weights of its row
stencils, ``weights[k, i]`` at column ``i // per_node + k - lower``. The
operator builders assemble each compact left-hand side A with one row per
node (``per_node = 1``, square, via `tridiagonal` or directly) and each
right-hand side B with one or two rows per node. One factorization serves
every solve: `PartitionedLU` cuts A into diagonal blocks with dense
inverses and couples them through a small interface system (a "SPIKE"
solver), so a solve is a few matrix products over runs of equal blocks,
O(n). Factored with B folded in, it applies ``A^{-1} B`` to one vector, or
to the columns of an array in the same number of products (the lines of a
2D field, the mode table of a row symbol); an input map lets B read some of
its columns from other input rows, or read zeros (the mirror ghosts of a
padded line), so no padded copy is made. Nothing here imports SciPy.

Dense matrices are plain float64/complex128 ndarrays of shape (n, m). The
operator assemblies combine boundary rows that break diagonal dominance
(Lele's last row ``u''_{N+1} + 11 u''_N``); the partitioned solve pivots
within a block (`np.linalg.inv`) and not across blocks, and raises
`LinearSolveError` on a singular block even where A itself is regular.

Every solve satisfies the residual contract
``||a x - b||_inf <= 1e-10 (||a||_inf ||x||_inf + ||b||_inf)``
for well-conditioned inputs; the tests assert it per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import NumericalError

#: largest interface system `PartitionedLU` inverts densely; a larger one
#: is partitioned again
DENSE_INTERFACE = 512


class LinearSolveError(NumericalError):
    """Singular or numerically singular system encountered in a direct solve."""


@dataclass(frozen=True, eq=False)
class StencilMatrix:
    """Sparse matrix of shape (r n, n), r = ``per_node``, holding
    ``weights[k, i]`` at (i, i // r + k - lower): each node carries r rows
    centred on its own column. Weights that fall outside the columns are
    ignored. ``weights`` has shape (stencil width, r n), and the stencil
    holds the column i // r: 0 <= ``lower`` < width."""

    weights: np.ndarray
    lower: int
    per_node: int = 1

    def __post_init__(self):
        if np.ndim(self.weights) != 2:
            raise ValueError("stencil weights must be 2-D (stencil width, rows)")
        if not 0 <= self.lower < self.weights.shape[0]:
            raise ValueError(f"lower {self.lower} is outside the stencil width "
                             f"{self.weights.shape[0]}")
        if self.weights.shape[1] % self.per_node:
            raise ValueError(f"{self.weights.shape[1]} rows are not a whole number of "
                             f"{self.per_node} rows per node")

    @property
    def shape(self) -> tuple:
        m = self.weights.shape[1]
        return m, m // self.per_node

    @property
    def upper(self) -> int:
        return self.weights.shape[0] - 1 - self.lower


def block_rows(lower: int, upper: int) -> int:
    """Rows per diagonal block of `PartitionedLU` for a band: the power of
    two at or above 8 (lower + upper + 1), so a block is at least 8 times
    as tall as its interface (at most lower + upper rows)."""
    return 1 << (8 * (lower + upper + 1) - 1).bit_length()


class PartitionedLU:
    """``x = A^{-1} B u`` for a banded A of size n, a square `StencilMatrix`
    with bandwidths kl = ``a.lower`` and ku = ``a.upper``, and a
    `StencilMatrix` B of n rows (the identity when ``rhs`` is None), by a
    partitioned ("SPIKE") factorization in NumPy. A is read, never written.

    A is cut into p diagonal blocks A_i of m = `block_rows` (kl, ku) rows,
    the last one completed by identity rows (so n <= m is one block). With
    g_i = A_i^{-1} B_i u, block i of x is

        x_i = g_i - W_i x_{i-1}^b - V_i x_{i+1}^t,

    where the spikes W_i, V_i are A_i^{-1} times the coupling columns of A
    left and right of the block that hold a nonzero entry at some cut, and
    x^b, x^t the entries of the neighbouring blocks at those columns (at
    most kl and ku of them). These equations taken at the rows of x^b and
    x^t are the interface system of all cuts: banded, at most kl + ku
    unknowns per cut, inverted densely up to ``DENSE_INTERFACE`` unknowns
    and partitioned again by this class above that. Its own cuts couple
    through as many columns, so every level keeps kl + ku unknowns per cut
    and a solve is O(n) in time and memory.

    Blocks whose rows of A and of B are byte-identical share one dense
    inverse (the constant-coefficient interior makes nearly all of them
    equal), and each run of equal blocks is applied as one GEMM: the rows
    [input window of B_i, x_{i-1}^b, x_{i+1}^t] of all its blocks times
    [A_i^{-1} B_i, -W_i, -V_i]^T. There is no pivoting across blocks: a
    singular block, or a singular interface system, raises
    LinearSolveError naming its rows, even where A itself is regular.
    ``labels`` names the unknowns in those messages (the original rows,
    when this is an interface system), and blocks hold a whole number of
    ``period`` rows (the length of an interface system's row pattern).
    ``inputs`` maps each column of B to the row of the input u it reads, a
    negative entry to a zero (default: column j reads u_j).
    """

    def __init__(self, a: StencilMatrix, rhs: StencilMatrix | None = None, labels=None,
                 period: int = 1, inputs=None):
        if a.per_node != 1:
            raise ValueError("the matrix must be square (one row per node)")
        rows = a.weights.T  # a view: rows[i, k] = A[i, i - kl + k]
        n, kl, ku = len(rows), a.lower, a.upper
        if rhs is None:
            rhs = StencilMatrix(np.ones((1, n)), 0)
        if rhs.shape[0] != n:
            raise ValueError("rhs row count must equal matrix size")
        r, width = rhs.per_node, rhs.weights.shape[0]
        m = block_rows(kl, ku)
        m += -m % math.lcm(r, period)  # blocks start at a node and repeat the rows' pattern
        p = -(-n // m)
        self.size, self.blocks, self.rows = n, p, m
        inputs = np.arange(rhs.shape[1]) if inputs is None else np.asarray(inputs)
        self._inputs = int(inputs.max()) + 1
        src = np.pad(inputs, (rhs.lower, p * m // r + width), constant_values=-1)[  # -1 outside B
            (m // r) * np.arange(p)[:, None] + np.arange((m - 1) // r + width)]
        self._take = np.maximum(src, 0)  # the u rows of each block's input window
        kinds, kind = {}, []  # key -> (kind number, A_i with its coupling columns, B_i, A_i^-1)
        for i in range(p):
            a_i, b_i = _inside(rows[i * m:i * m + m], i * m, n, kl), rhs.weights[:, i * m:i * m + m]
            if len(a_i) < m:  # identity rows complete the last block
                a_i = np.vstack([a_i, np.eye(1, kl + ku + 1, kl).repeat(m - len(a_i), 0)])
                b_i = np.hstack([b_i, np.zeros((width, m - b_i.shape[1]))])
            key = a_i.tobytes() + b_i.tobytes()
            if key not in kinds:
                wide = _sheared(a_i)  # columns -kl .. m + ku - 1 of the block
                rows_i = _name(labels, np.arange(i * m, min(n, i * m + m)))
                kinds[key] = (len(kinds), wide, b_i.copy(),
                              _inverse(wide[:, kl:kl + m], "diagonal block", rows_i))
            kind.append(kinds[key][0])
        kinds = list(kinds.values())
        left = right = np.arange(0)  # the coupling columns with a nonzero entry
        if p > 1:
            left, right = (np.flatnonzero(np.any([np.any(k[1][:, cols] != 0, axis=0)
                                                  for k in kinds], axis=0))
                           for cols in (slice(0, kl), slice(kl + m, None)))
        self._kl, self._ku = len(left), len(right)
        self._s = s = len(left) + len(right)
        # the window entries that read a zero, as flat indices of the solve's (p, w + s) input
        self._zero = np.ravel_multi_index(np.nonzero(src < 0), (p, src.shape[1] + s))
        made = []  # full, iface, tip of each kind
        for _, wide, b_i, inv in kinds:
            node = np.arange(m) // r  # each row's node in the input window
            bd = np.zeros((m, node[-1] + width))
            for k in range(width):
                bd[np.arange(m), node + k] = b_i[k]
            g = inv @ bd
            spikes = inv @ np.hstack([wide[:, left], wide[:, kl + m + right]])
            edge = np.r_[right, m - kl + left]  # rows of x^t, then of x^b
            made.append((np.ascontiguousarray(np.hstack([g, -spikes]).T), g[edge].T.copy(),
                         spikes[edge]))
        kinds = wide = b_i = inv = None  # folded into made: freed before the interface
        # [first block, count, {d: full narrowed to every d-th row of x, for each d that
        # divides B's rows per node}, iface] of each run of equal blocks
        self.runs = []
        for i, k in enumerate(kind):
            if i and kind[i - 1] == k:
                self.runs[-1][1] += 1
            else:
                self.runs.append([i, 1, {d: np.ascontiguousarray(made[k][0][:, d - 1::d])
                                         for d in range(1, r + 1) if r % d == 0}, made[k][1]])
        self._inv = self._child = None
        if s:
            cuts = m * np.arange(1, p)[:, None]
            unknowns = _name(labels, np.hstack([cuts - kl + left, cuts + right]).ravel())
            self._interface([made[k][2] for k in kind], unknowns)
            self._ytake = (s * np.arange(p)[:, None]  # x_{i-1}^b, x_{i+1}^t
                           + np.r_[self._ku:s, 2 * s:2 * s + self._ku])

    def _interface(self, tips, unknowns):
        """The interface system, from the spikes at the interface rows of
        every block (``tips``, rows x^t then x^b, columns W then V): its
        dense inverse (``_inv``) or, above ``DENSE_INTERFACE`` unknowns, a
        `PartitionedLU` of it (``_child``)."""
        kl, ku, s, p = self._kl, self._ku, self._s, self.blocks
        tips = np.array(tips)
        lower, upper = (s + kl - 1 if kl else 0), (s + ku - 1 if ku else 0)
        rows = np.zeros((p - 1, s, lower + upper + 1))  # cut c: x_c^b then x_{c+1}^t
        rows[:, :, lower] = 1.0
        t, q = np.arange(kl)[:, None], np.arange(ku)[None, :]
        rows[:, t, lower + kl + q - t] = tips[:-1, ku:, kl:]  # V_c^b x_{c+1}^t
        q = np.arange(kl)[None, :]
        rows[:, t, lower - s + q - t] = tips[:-1, ku:, :kl]  # W_c^b x_{c-1}^b
        t, q = np.arange(ku)[:, None], np.arange(kl)[None, :]
        rows[:, kl + t, lower + q - kl - t] = tips[1:, :ku, :kl]  # W_{c+1}^t x_c^b
        q = np.arange(ku)[None, :]
        rows[:, kl + t, lower + s + q - t] = tips[1:, :ku, kl:]  # V_{c+1}^t x_{c+2}^t
        rows, tips = rows.reshape(-1, lower + upper + 1), None
        if len(rows) > DENSE_INTERFACE:
            self._child = PartitionedLU(StencilMatrix(rows.T, lower), labels=unknowns, period=s)
        else:
            self._inv = _inverse(_sheared(rows)[:, lower:lower + len(rows)],
                                 "interface system", unknowns)

    def solve(self, u: np.ndarray, every: int = 1, scratch=None) -> np.ndarray:
        """Every ``every``-th row of x = A^{-1} B u (rows every - 1,
        2 every - 1, ...: the last row of each node when ``every`` is B's
        rows per node), for u a real or complex vector or an (inputs, k)
        array whose k columns are solved together, at the cost of one solve
        in NumPy calls; complex u is solved as two real ones. ``every`` must
        divide B's rows per node. With a ``scratch`` dict, a real solve of
        many columns reuses its arrays and returns a view of one, valid
        until the next solve with the same dict."""
        if np.iscomplexobj(u):
            return self.solve(u.real, every) + 1j * self.solve(u.imag, every)
        ku, s, p, m = self._ku, self._s, self.blocks, self.rows
        if len(u) != self._inputs:
            raise ValueError("input length does not match the right-hand side's columns")
        cols, w = u.shape[1:], self._take.shape[1]
        pick = every if cols else 1  # one vector is solved whole, in the products of a whole solve
        q = _scratch(scratch, "q", (p, w + s) + cols)
        q[:, :w] = u[self._take]
        q.reshape((-1,) + cols)[self._zero] = 0.0
        if s:
            g = np.empty((p, s) + cols)  # g_i^t, g_i^b of every block
            for i, count, _, iface in self.runs:
                _times(q[i:i + count, :w], iface, g[i:i + count])
            rhs = g.reshape((-1,) + cols)[ku:(p - 1) * s + ku]
            x_edge = np.zeros(((p + 2) * s,) + cols)  # x_i^t, x_i^b of block i at (i + 1) s
            if self._child is None:
                np.matmul(self._inv, rhs, out=x_edge[s + ku:p * s + ku])
            else:
                x_edge[s + ku:p * s + ku] = self._child.solve(rhs)
            q[:, w:] = x_edge[self._ytake]
        x = _scratch(scratch, "x", (p, m // pick) + cols)
        for i, count, full, _ in self.runs:
            _times(q[i:i + count], full[pick], x[i:i + count])
        return x.reshape((-1,) + cols)[every // pick - 1::every // pick][:self.size // every]


def _times(q: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each block's input q_i times a: the rows q a for one vector (q of
    shape (c, w)), a^T q_i for the columns of many (q of shape (c, w, k))."""
    return np.matmul(q, a, out=out) if q.ndim == 2 else np.matmul(a.T, q, out=out)


def _scratch(scratch, name: str, shape) -> np.ndarray:
    """An uninitialised array of ``shape``: new without a ``scratch`` dict,
    else a view of its array ``name``, made again only when too small."""
    if scratch is None:
        return np.empty(shape)
    if scratch.get(name, np.empty(0)).size < math.prod(shape):
        scratch[name] = np.empty(shape)
    return scratch[name].ravel()[:math.prod(shape)].reshape(shape)


def _name(labels, rows: np.ndarray) -> np.ndarray:
    """The names of ``rows``: the rows themselves without ``labels``."""
    return rows if labels is None else np.take(labels, rows, mode="clip")


def _inverse(a: np.ndarray, what: str, labels) -> np.ndarray:
    """a^{-1}; LinearSolveError naming the rows ``labels`` when a is singular."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.all(np.isfinite(inv)):
        raise LinearSolveError(f"singular banded system (singular {what} of rows "
                               f"{min(labels)}..{max(labels)}; no pivoting across blocks)")
    return inv


def _inside(rows: np.ndarray, first: int, n: int, lower: int) -> np.ndarray:
    """A copy of the row stencils ``rows`` of rows ``first``.. of a square
    matrix of size n, 0 where a stencil reaches outside its columns."""
    cols = first + np.arange(len(rows))[:, None] + np.arange(rows.shape[1]) - lower
    return np.where((cols >= 0) & (cols < n), rows, 0.0)


def _sheared(rows: np.ndarray) -> np.ndarray:
    """Row stencils ``rows`` (m, w) placed densely: entry [i, i + k] is
    rows[i, k], so columns lower .. lower + m - 1 are the matrix."""
    m, w = rows.shape
    out = np.zeros((m, m + w - 1))
    t = np.arange(m)
    for k in range(w):
        out[t, t + k] = rows[:, k]
    return out


def tridiagonal(lo, diag, up) -> StencilMatrix:
    """Square `StencilMatrix` with constant or per-row sub/main/super diagonals.

    Per-row arrays are indexed by row: ``lo[i] = a[i, i-1]`` and
    ``up[i] = a[i, i+1]``; ``lo[0]`` and ``up[-1]`` are ignored.
    """
    return StencilMatrix(np.array(np.broadcast_arrays(lo, diag, up), dtype=float), 1)


def solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LU solve with partial pivoting (`numpy.linalg.solve`); b may hold
    multiple right-hand sides, so solve_dense(a, m) == a^{-1} m."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if b.shape[0] != n:
        raise ValueError("rhs row count must equal matrix size")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution (singular dense system)")
    return x
