"""Fractional Adams predictor-corrector (PECE) time stepping.

One step of the scheme for C-D^alpha y = f(t, y) + sigma(t, y) dW/dt,
alpha in (0, 1], on the uniform grid t_j = j*h:

    predict   y_p = y0 + (1/G(a)) * sum_j b_j f(t_j, y_j)
                       + (1/(G(a) h)) * sum_j b_j sigma(t_j, y_j) dW_{J(j)}
    correct   y_{n+1} = y0
                + (h**a / G(a+2)) * [f(t_{n+1}, y_p) + sum_j a_j f(t_j, y_j)]
                + (h**(a-1) / G(a+2)) * [sigma(t_{n+1}, y_p) dW_n
                                         + sum_j a_j sigma(t_j, y_j) dW_{J(j)}]

with G = Gamma, the weights of :mod:`sfode.weights`, and sums over
j = 0..n.  The noise-history map J selects which Wiener increment multiplies
history term j:

* ``per_step`` (default): J(j) = j.  This is the term-by-term discretization
  of the singular Volterra noise integral and the only variant that satisfies
  its variance law.
* ``last_increment``: J(j) = n, i.e. the newest increment multiplies the
  whole history sum, as the scheme is sometimes stated.  Kept as a comparison
  mode; it fails the variance law by design.

The corrector's own sigma(t_{n+1}, y_p) dW_n term is the current step's
increment in both modes.  Exactly one correction is applied per step.

The history sums keep the full memory, on one causal lag-sum schedule that
the Picard sweeps of :mod:`sfode.picard` share: a step sums the nodes of its
own direct block of BLOCK nodes directly, and the older nodes arrive through
the squares of Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6,
1985; :func:`_add_square`), so an N-step run costs O(N log^2 N) in its sums
instead of O(N^2).  The stepper adds an FFT square whole at its own block
start and a product square one target block at a time, at the start of
each block it covers, so its far-field ring holds only the targets of FFT
squares and the block being stepped.

The far field and the admissibility checks (finite right-hand sides,
states within BLOWUP) both run per block, in the one block loop of
:func:`solve_batch`: it adds a block's far field, takes the block
unchecked and checks its records once at the block's end.  A block that
fails that check, or raises, is replayed exactly from its first step with
a check at every step, so the error is the one a per-step check raises.
One loop takes every block, checked or not, of one path and of a batch:
it steps on component rows, Python floats for one path and arrays for a
batch, which round alike (:class:`_Stepper`).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .stochastic import TimeGrid, WienerPath, path_rule
from .systems import SystemModel
from .table import metadata_rule, write_table
from .weights import WeightMode, WeightTable

__all__ = [
    "NoiseHistory",
    "SolverConfig",
    "Trajectory",
    "DivergenceError",
    "solve",
    "solve_batch",
    "write_trajectory_csv",
]

#: A state component beyond this magnitude is a divergence.
BLOWUP = 1e6

#: Nodes per direct block of the lag-sum schedule.  A step sums the nodes of
#: its own block directly, and the block is also the unit that solve_batch
#: checks once and replays on a failure.
BLOCK = 64
#: Squares of at most this many source nodes are stacked lag-matrix
#: products per path; larger ones are FFT convolutions.  Timed in place in a
#: 20 000-step fig1 run (one BLAS thread, median per square), a 128-node
#: square costs 22 us as a product and 64 us as an FFT, a 256-node one 164 us
#: and 95 us; and a 256-node lag matrix alone holds 1 MiB.
LAG_MATRIX_MAX = 128
#: Rows per FFT call, and paths per square product, are capped so that one
#: call's temporaries stay near this.
FFT_BYTES = 1 << 18


class NoiseHistory(str, enum.Enum):
    PER_STEP = "per_step"
    LAST_INCREMENT = "last_increment"


class DivergenceError(RuntimeError):
    """A state left the admissible region (blow-up bound or non-finite value)."""

    def __init__(self, message, step=None, time=None, path_index=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.path_index = path_index


@checks.ruled(stochastic=checks.bool_rule, alpha=checks.alpha_rule(), grid=TimeGrid,
              noise_history=checks.choice_rule(NoiseHistory),
              weight_mode=checks.choice_rule(WeightMode))
@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for one solve.

    Stochastic runs require alpha > 1/2 (square-integrability of the singular
    noise kernel); deterministic runs accept any alpha in (0, 1].
    """

    alpha: float
    grid: TimeGrid
    stochastic: bool = False
    noise_history: NoiseHistory = NoiseHistory.PER_STEP
    weight_mode: WeightMode = WeightMode.STANDARD

    def __post_init__(self):
        if self.stochastic:
            over_half = checks.alpha_rule("stochastic runs (nonzero noise)")
            checks.require(over_half("alpha", self.alpha))
        object.__setattr__(self, "stochastic", bool(self.stochastic))
        object.__setattr__(self, "noise_history", NoiseHistory(self.noise_history))
        object.__setattr__(self, "weight_mode", WeightMode(self.weight_mode))


@checks.ruled(grid=TimeGrid, states=np.ndarray)
@dataclass
class Trajectory:
    """Node values of one solve: states[:, j] is the state at t_j."""

    grid: TimeGrid
    states: np.ndarray  # shape (dim, num_nodes)

    def __post_init__(self):
        checks.require(checks.shape_rule("states", self.states, ("dim", self.grid.num_nodes)))

    @property
    def dim(self) -> int:
        return self.states.shape[0]


def _diverged(message: str, step: int, time: float, ok: np.ndarray) -> DivergenceError:
    """DivergenceError at a step; ok marks the admissible entries of a batch + (d,) array."""
    path = None if ok.ndim == 1 else int(np.argmin(ok.all(axis=-1)))
    return DivergenceError(message, step=step, time=float(time), path_index=path)


class _Stepper:
    """Stepping kernel for one path or a batch, with its history caches.

    The arrays hold the path axes first: states are batch + (d,), batch the
    leading shape of dW, shaped batch + (noise_dim, num_steps) (None: one
    path).  The history is one buffer batch + (blocks, d, S): block 0 caches
    f at each node, block 1 (stochastic runs only) the noise record.
    :meth:`push` records node n; :meth:`advance` then takes the steps of a
    block from the records of the nodes before each.

    The weights come from a :class:`~sfode.weights.WeightTable`: b and the
    interior a by lag, the rows of its ``lags`` that one :class:`_LagKernel`
    reads in place, and a0 by step.

    A step works on component rows, the model's convention with the paths
    last: row i is component i of every path, a Python float for one path
    (batch (), through ndarray.tolist) and a batch-shaped array for a batch
    (through list of a component-first .T view).  The model takes a step's
    rows as they are and returns rows, which the step uses as they are.
    Python floats round as numpy's float64, so both kinds of row take the
    scheme's operations in one order and give the same bits.  With P, Q
    (C, D) the drift and noise predictor (corrector) history sums of a
    component, the scheme's coefficients cp_f = 1/G(a), cp_g = 1/(G(a) h),
    cc_f = h**a/G(a+2) and cc_g = h**(a-1)/G(a+2), and w = dW_n, a step
    takes

        per_step        yp = (y0 + P cp_f) + Q cp_g
                        y  = (y0 + (f + C) cc_f) + (g w + D) cc_g
        last_increment  yp = (y0 + P cp_f) + (Q w) cp_g
                        y  = (y0 + (f + C) cc_f) + (g w + D w) cc_g
        deterministic   yp = y0 + P cp_f,  y = y0 + (f + C) cc_f

    where f and g are the drift and diffusion at (t_{n+1}, yp).

    A history sum over nodes 0..n, formed by :meth:`sums` alone, follows
    the schedule of the module docstring.  Its direct part, nodes s..n with
    s = n - n % BLOCK, is a stacked product that numpy evaluates as one
    d-row product per path and block, so each path rounds exactly as it
    would alone.  Past block 0 one hist[..., s:n+1] @ W takes both sums (W:
    the reversed lags of b and a), and the older nodes come from a ring of
    per-step accumulators, one contiguous (ring, 2) run per history row,
    which :meth:`_far_field` fills at each block start: all targets of an
    FFT square at once, and the block's own columns of the product squares,
    so the ring holds the pending targets of FFT squares and one block
    (:func:`_ring_size`).  In block 0 the two sums are two one-column
    products with the rows of :attr:`first`, the weight vectors of the
    plain full-memory loop (one two-column product rounds differently), so
    a run of at most BLOCK steps rounds as that loop.  Node 0's corrector
    weight a0[n] is the first entry of those rows, and past block 0 the
    square from node 0 adds (a0[n] - a[n]) g_0 to the lag weight it took.
    Steps must be taken in order.

    With :attr:`checked` (the default) every right-hand side is checked to
    be finite and every state to lie within BLOWUP as it is made.  Without
    it the steps run unchecked and :meth:`admissible` checks a finished
    block at once.  Stepping only reads the far field and writes the
    records and states of the nodes it makes, so a block [s, e) taken again
    from step s gives the same bits.
    """

    checked = True

    def __init__(self, model: SystemModel, cfg: SolverConfig, dW: np.ndarray | None):
        grid, h = cfg.grid, cfg.grid.h
        self.t = grid.nodes()
        self.num_steps = steps = grid.num_steps
        batch = () if dW is None else dW.shape[:-2]
        self.y0 = np.broadcast_to(model.y0, batch + model.y0.shape)
        # the component rows of an array whose first axis is the component
        self.comps = list if batch else np.ndarray.tolist
        self.table = table = WeightTable(steps, cfg.alpha, h, cfg.weight_mode)
        self.kernel = kernel = _LagKernel(table.lags)
        # block 0's weight vectors: first[0, n, :n+1] = (b[n], .., b[0]) and
        # first[1, n, :n+1] = (a0[n], a[n-1], .., a[0]); C order keeps each contiguous
        size = min(steps, BLOCK)
        self.first = kernel.matrix(0, size).reshape(size, size, 2).transpose(2, 1, 0).copy()
        self.first[1, :, 0] = table.a0[:size]
        self.call, self.check_rows = model.call, model.check_rows
        # increments by step: dW[n] is shaped as the model's states, (d,) + reversed batch
        self.dW = dW.T if cfg.stochastic else None
        # (predictor, corrector) coefficients of each history block
        coefs = [(1.0 / math.gamma(cfg.alpha), h**cfg.alpha / math.gamma(cfg.alpha + 2.0))]
        # last_increment: node j caches sigma_j, and dW_n scales the noise sums
        self.scale_noise_sums = (self.dW is not None
                                 and cfg.noise_history is NoiseHistory.LAST_INCREMENT)
        if self.dW is not None:
            # alpha > 1/2 here keeps h**(alpha - 1) finite for every float h
            coefs.append((coefs[0][0] / h, h ** (cfg.alpha - 1.0) / math.gamma(cfg.alpha + 2.0)))
        self.coefs = coefs
        self.hist = np.empty(batch + (len(coefs), model.dim, steps + 1))
        self.hist[..., 1:, :, steps] = 0.0  # node N has no noise record
        # one row per block and component: past block 0 a path's rows take one product call
        self.hist_rows = self.hist.reshape(batch + (len(coefs) * model.dim, steps + 1))
        # records[n, k]: history row k of node n, paths last as the model returns them
        self.records = self.hist_rows.T
        if steps > BLOCK:
            # direct weights past block 0 as (predictor, corrector) rows, lags
            # BLOCK-1..0: nodes s..n take the last n - s + 1
            self.near_w = np.ascontiguousarray(kernel.k[:, BLOCK - 1::-1].T)
            self.ring = _ring_size(steps)
            # (predictor, corrector) far-field sums; step n reads slot n % ring
            self.far = np.zeros(self.hist_rows.shape[:-1] + (self.ring, 2))

    def _finite(self, kind: str, n: int, out) -> None:
        """Raise the divergence at step n if the model's kind rows out are not
        finite, and a ValueError if a row of one path is no number: every
        failing block takes this checked replay, so unchecked steps pay nothing."""
        if self.y0.ndim == 1:
            self.check_rows(kind, out, ())
        ok = np.isfinite(out)
        if not ok.all():
            raise _diverged(f"non-finite {kind} at step {n} (t={self.t[n]:g})",
                            n, self.t[n], ok.T)

    def push(self, n: int, y: list, w: list | None = None) -> None:
        """Cache f (and the noise record) at node n from its state rows; w
        holds the rows of the increment dW[n] if the caller has them."""
        t, call, checked = self.t[n], self.call, self.checked
        f = call("drift", t, y)
        if checked:
            self._finite("drift", n, f)
        if self.dW is not None and n < self.num_steps:
            g = call("diffusion", t, y)
            if checked:
                self._finite("diffusion", n, g)
            if not self.scale_noise_sums:
                g = [x * v for x, v in zip(g, self.comps(self.dW[n]) if w is None else w)]
            f = [*f, *g]
        self.records[n, :len(f)] = f

    def sums(self, n: int) -> list:
        """The predictor and corrector history sums [P, C] of step n over
        nodes 0..n, each as the component rows of every history row: the
        one place a step's sums are formed.  Call once per step, in order,
        after the far field of its block."""
        if n < BLOCK:
            hist, rows = self.hist[..., :n + 1], self.hist_rows.shape[:-1]
            return [self.comps((hist @ w).reshape(rows).T) for w in self.first[:, n, :n + 1]]
        r = n % BLOCK
        near = self.hist_rows[..., n - r:n + 1] @ self.near_w[BLOCK - 1 - r:]
        near += self.far[..., n % self.ring, :]
        return self.comps(near.T)

    def _far_field(self, end: int) -> None:
        """Free the slots of the block before end and add the far field of
        the block that starts at end: an FFT square whose source block ends
        at node end - 1 for all its targets at once, or else this block's
        columns of every product square that covers it.  Once per block
        start end > 0, before that block's first step.

        The product squares that cover the block are those whose source
        blocks end at the block starts that clearing the lowest set bits of
        end // BLOCK lists, as long as they stay product squares.  They are
        added largest (earliest) first, the order in which whole squares
        would reach the block, so each slot takes the same sums in the same
        order as if every square were added whole at its own block start.
        """
        free = (end - BLOCK) % self.ring
        self.far[..., free:free + BLOCK, :] = 0.0
        L = _square(end)
        if L > LAG_MATRIX_MAX:
            self._add_targets(end, end, min(L, self.num_steps - end))
            return
        starts, blocks = [], end // BLOCK
        while blocks and _square(blocks * BLOCK) <= LAG_MATRIX_MAX:
            starts.append(blocks * BLOCK)
            blocks &= blocks - 1
        for e in reversed(starts):
            self._add_targets(e, end, min(BLOCK, self.num_steps - end))

    def _add_targets(self, e: int, first: int, count: int) -> None:
        """Add the square whose source block ends at node e - 1 to the slots
        of its targets first..first+count-1."""
        L, slot = _square(e), first % self.ring
        out = self.far[..., slot:slot + count, :]
        _add_square(self.hist_rows[..., e - L:e], self.kernel, out, first - e)
        if e == L:  # node 0 weighs a0[n] in the corrector, not a[n]
            a0, a = self.table.a0[first:first + count], self.table.a[first:first + count]
            out[..., 1] += self.hist_rows[..., :1] * (a0 - a)

    def advance(self, states: np.ndarray, start: int, stop: int) -> None:
        """Take steps start..stop-1, all in one block, recording nodes
        start+1..stop as it goes and writing their states at the end.

        Each step takes its history sums from :meth:`sums`.  The block's node
        times, y0 rows and increment rows (one row past the block, for the
        noise record of node stop) are taken once.
        """
        call, comps, push, sums, checked = self.call, self.comps, self.push, self.sums, self.checked
        dim, stochastic, last = self.y0.shape[-1], self.dW is not None, self.scale_noise_sums
        y0, parts = comps(self.y0.T), range(dim)
        (cp_f, cc_f), (cp_g, cc_g) = self.coefs[0], self.coefs[-1]  # (drift, noise) pairs
        times = list(self.t[start + 1:stop + 1])
        # [r]: the rows of the increments of step start + r; None past the run or without noise
        dW = [*comps(self.dW[start:stop + 1]), None] if stochastic else [None] * (stop - start + 1)
        ys = []
        for r, n in enumerate(range(start, stop)):
            P, C = sums(n)
            w = dW[r]
            if not stochastic:
                yp = [y0[i] + P[i] * cp_f for i in parts]
            elif last:
                yp = [(y0[i] + P[i] * cp_f) + (P[dim + i] * w[i]) * cp_g for i in parts]
            else:
                yp = [(y0[i] + P[i] * cp_f) + P[dim + i] * cp_g for i in parts]
            t = times[r]
            f = call("drift", t, yp)
            if checked:
                self._finite("drift", n + 1, f)
            if not stochastic:
                y = [y0[i] + (f[i] + C[i]) * cc_f for i in parts]
            else:
                g = call("diffusion", t, yp)
                if checked:
                    self._finite("diffusion", n + 1, g)
                D = [C[dim + i] * w[i] for i in parts] if last else C[dim:]
                y = [(y0[i] + (f[i] + C[i]) * cc_f) + (g[i] * w[i] + D[i]) * cc_g for i in parts]
            if checked:
                ok = np.abs(np.array(y)) <= BLOWUP  # False for non-finite values too
                if not ok.all():
                    raise _diverged(f"state exceeded blow-up bound {BLOWUP:g} at step {n + 1} "
                                    f"(t={t:g})", n + 1, t, ok.T)
            ys.append(y)
            push(n + 1, y, dW[r + 1])
        states[..., start + 1:stop + 1] = np.array(ys).T

    def admissible(self, states: np.ndarray, start: int, stop: int) -> bool:
        """Whether the records and states of nodes start+1..stop are finite
        and the states within BLOWUP.

        Reductions only, so the check allocates no block-sized array: a sum
        is non-finite if any record is (else it can only overflow, which
        costs a needless replay), and a NaN state fails both bounds.
        """
        block = states[..., start + 1:stop + 1]
        return bool(np.isfinite(self.hist[..., start + 1:stop + 1].sum())
                    and -BLOWUP <= block.min() and block.max() <= BLOWUP)


class _LagKernel:
    """Lag vectors of causal lag sums over one source, one per row of k,
    (m, lags), read in place: k[i, l] is the weight of lag l in sum i.
    Their lag matrices are built at first use and kept: every square of
    L <= LAG_MATRIX_MAX nodes reads the same one, as every direct block
    reads the same triangle."""

    def __init__(self, k: np.ndarray):
        self.k = k
        self._built = {}

    def _lags(self, lo: int, count: int) -> np.ndarray:
        """Lags lo..lo+count-1, (count, m), with 0 at negative lags and past the end."""
        out = np.zeros((count, len(self.k)))
        a, b = max(lo, 0), min(lo + count, self.k.shape[1])
        out[a - lo:max(b - lo, 0)] = self.k[:, a:max(a, b)].T
        return out

    def matrix(self, lag0: int, size: int) -> np.ndarray:
        """The (size, size * m) lag matrix, entry (j, c * m + i) = k[lag0 + c - j, i]."""
        key = (lag0, size)
        if key not in self._built:
            lags = self._lags(lag0 - size + 1, 2 * size - 1)
            index = np.arange(size - 1, 2 * size - 1) - np.arange(size)[:, None]
            self._built[key] = lags[index].reshape(size, -1)
        return self._built[key]


def _add_square(x: np.ndarray, kernel: _LagKernel, out: np.ndarray, first: int = 0) -> None:
    """Add to out, batch + (r, count, m), the lag sums of the L source nodes
    of x, batch + (r, L), at the count targets first..first+count-1 of the
    L that follow them:

        out[..., c, i] += sum_j x[..., j] * k[i, L + first + c - j],

    at the lags 1..2L-1 of kernel's m vectors: the one square of the
    stepper's far field and of the Picard sums (:func:`_lag_sums`).  Up to
    LAG_MATRIX_MAX nodes that is one stacked product with the target
    window's columns of the (L, L m) lag matrix, which numpy evaluates per
    path (the batch axes of x, merged into one), taken over the paths in
    chunks whose product stays within FFT_BYTES.  A product's columns taken
    in pieces equal the whole product's bit for bit on the BLAS kernels tested
    (TestBlasColumnPieces in tests/test_solver.py), so a square rounds the
    same taken whole or a target block at a time.  Past LAG_MATRIX_MAX it
    is one FFT convolution of size 2L with the transforms of the lags, taken
    from kernel's rows in place (rfft zero-pads them to 2L) for this square
    and dropped after it; it wraps nothing into the columns it reads, and
    transforms each row on its own, in chunks of rows whose temporaries
    stay near FFT_BYTES.  Either way a path rounds the same in any batch.
    The axes of x and of out[..., i] before the node axis must merge
    without a copy.
    """
    L, (count, m) = x.shape[-1], out.shape[-2:]
    if L <= LAG_MATRIX_MAX:
        matrix = kernel.matrix(L, L)[:, first * m:(first + count) * m]
        paths, outs = x.reshape((-1,) + x.shape[-2:]), out.reshape((-1,) + out.shape[-3:])
        chunk = max(1, FFT_BYTES // (outs[0].size * 8))
        for p in range(0, len(paths), chunk):
            part = outs[p:p + chunk]
            part += (paths[p:p + chunk] @ matrix).reshape(part.shape)
        return
    rows = x.reshape(-1, L)
    outs = [out[..., i].reshape(-1, count) for i in range(m)]
    hats = np.fft.rfft(kernel.k[:, 1:2 * L], 2 * L)
    chunk = max(1, FFT_BYTES // (48 * L))  # x_hat, a product, an irfft: 16L bytes each
    lo = L - 1 + first  # target first in the convolution
    for r in range(0, len(rows), chunk):
        x_hat = np.fft.rfft(rows[r:r + chunk], 2 * L)
        for k_hat, o in zip(hats, outs):
            o[r:r + chunk] += np.fft.irfft(x_hat * k_hat, 2 * L)[:, lo:lo + count]


def _lag_sums(x: np.ndarray, kernel: _LagKernel, out: np.ndarray) -> np.ndarray:
    """Write to out, shaped like x = batch + (r, N), the causal lag sums
    out[..., p] = sum_{j <= p} x[..., j] * k[p - j] of kernel's one lag
    vector k at every node p at once, and return out: the stepper's schedule
    taken offline, one stacked product with the triangular lag matrix per
    direct block and one square per block start (:func:`_add_square`).  The
    triangle's zeros add exact zeros and a square's sources all precede its
    targets, so out[..., p] reads exactly the nodes j <= p.
    """
    nodes = x.shape[-1]
    for s in range(0, nodes, BLOCK):
        size = min(BLOCK, nodes - s)
        np.matmul(x[..., s:s + size], kernel.matrix(0, size), out=out[..., s:s + size])
    for e in range(BLOCK, nodes, BLOCK):
        L = _square(e)
        _add_square(x[..., e - L:e], kernel, out[..., e:e + L, None])
    return out


def _square(end: int) -> int:
    """Nodes L of the square whose source block ends at node end - 1: the
    BLOCK * 2**k with end / L odd."""
    blocks = end // BLOCK
    return BLOCK * (blocks & -blocks)


def _ring_size(steps: int) -> int:
    """Far-field slots for a run: the least BLOCK * 2**k that holds the
    targets of any one FFT square, the most steps that are written to and
    not yet read at a block start, and at least one block, which takes the
    columns of its product squares at its own start (:meth:`_Stepper._far_field`)."""
    ahead = max([min(L, steps - e) for e in range(BLOCK, steps, BLOCK)
                 if (L := _square(e)) > LAG_MATRIX_MAX], default=BLOCK)
    ring = BLOCK
    while ring < ahead:
        ring *= 2
    return ring


@checks.ruled(model=SystemModel, cfg=SolverConfig, dW=checks.optional_rule(checks.array_rule))
def solve_batch(model: SystemModel, cfg: SolverConfig, dW: np.ndarray | None) -> np.ndarray:
    """Node states, batch + (d, num_nodes), of the paths of dW, each equal to
    :func:`solve` bit for bit.

    dW holds the Wiener increments, finite real numbers shaped batch +
    (noise_dim, num_steps), path i in dW[i] (batch () is one path), so
    np.stack of the paths' increments builds it, checked once per call.  A
    stochastic cfg requires dW; a deterministic one uses only its batch
    shape, and None means one path.

    Each block of BLOCK steps is one pass of this loop: its far field is
    added once (:meth:`_Stepper._far_field`), then it runs unchecked and is
    checked once.  A block that fails the check, or raises, is replayed
    step by step with checks from the same far field, so the error raised
    is the one a check at every step raises.
    The model runs with overflow and invalid-value warnings suppressed: a
    non-finite value it returns is a divergence.
    """
    grid, needs = cfg.grid, (model.noise_dim, cfg.grid.num_steps)
    if dW is None:
        checks.require(["stochastic solve requires Wiener increments (a WienerPath or dW)"]
                       if cfg.stochastic else [])
    elif not isinstance(dW, np.ndarray) or dW.shape[-2:] != needs:
        shape = dW.shape if isinstance(dW, np.ndarray) else type(dW).__name__
        checks.require([f"dW is shaped {shape}, needs a numpy array shaped "
                        f"batch + (noise_dim, num_steps) = batch + {needs}"])
    stepper = _Stepper(model, cfg, dW)
    states = np.empty(stepper.y0.shape + (grid.num_nodes,))
    states[..., 0] = stepper.y0
    with np.errstate(over="ignore", invalid="ignore"):
        stepper.push(0, stepper.comps(stepper.y0.T))
        for start in range(0, grid.num_steps, BLOCK):
            stop = min(start + BLOCK, grid.num_steps)
            if start:
                stepper._far_field(start)
            stepper.checked = False
            try:
                stepper.advance(states, start, stop)
                ok = stepper.admissible(states, start, stop)
            except Exception:  # the replay raises it again if it is real
                ok = False
            if not ok:
                stepper.checked = True
                stepper.advance(states, start, stop)
    return states


@checks.ruled(model=SystemModel, cfg=SolverConfig, path=checks.optional_rule(WienerPath))
def solve(model: SystemModel, cfg: SolverConfig,
          path: WienerPath | None = None) -> Trajectory:
    """Integrate the system over cfg.grid and return the full trajectory.

    Deterministic given (model, cfg, path).  A path must fit the run
    (:func:`~sfode.stochastic.path_rule`); in deterministic mode
    (cfg.stochastic False) its increments are ignored, so the output cannot
    depend on them.  Raises :class:`DivergenceError` when a state component
    exceeds BLOWUP or turns non-finite, rather than emitting NaN rows: the
    error, with its step, time and message, is the one a check at every
    step would raise.
    """
    if path is not None:
        checks.require(path_rule(path, cfg.grid, model.noise_dim))
    dW = path.increments if cfg.stochastic and path is not None else None
    return Trajectory(grid=cfg.grid, states=solve_batch(model, cfg, dW))


@checks.ruled(traj=Trajectory, stream=checks.stream_rule,
              metadata=checks.optional_rule(metadata_rule))
def write_trajectory_csv(traj: Trajectory, stream, metadata: dict | None = None) -> None:
    """Write the metadata, then t, y1..yd rows, in the shared table format."""
    header = ["t"] + [f"y{i + 1}" for i in range(traj.dim)]
    write_table(stream, metadata or {}, header, [traj.grid.nodes(), *traj.states])
