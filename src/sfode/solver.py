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

The history sums keep the full memory.  Each splits at the start of the
current block of BLOCK steps: the nodes of that block are summed directly,
and the older nodes arrive through an FFT far field (the square tiling of
Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985), so an
N-step run costs O(N log^2 N) in its sums instead of O(N^2).  A run of at
most BLOCK steps is all near field.

The far field and the admissibility checks (finite right-hand sides,
states within BLOWUP) both run per block, in the one block loop of
:func:`solve_batch`: it adds a block's far field, takes the block
unchecked and checks its records once at the block's end.  A block that
fails that check, or raises, is replayed exactly from its first step with
a check at every step, so the error is the one a per-step check raises.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .stochastic import TimeGrid, WienerPath
from .systems import SystemModel
from .table import write_table
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

#: Steps per history block: the near field of a step is its own block.
BLOCK = 256
#: Squares of at most TILE source nodes are transformed whole; larger ones
#: are cut into TILE x TILE tiles, which bounds the FFT size (and numpy's
#: cached FFT plans) at 2 * TILE.
TILE = 4096
#: Rows per FFT call are capped so that one call's temporaries stay near this.
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
        over_half = "stochastic runs (nonzero noise)" if self.stochastic else None
        checks.require(checks.alpha_rule(self.alpha, over_half)
                       + checks.choice_rule("noise_history", self.noise_history, NoiseHistory)
                       + checks.choice_rule("weight_mode", self.weight_mode, WeightMode))
        object.__setattr__(self, "noise_history", NoiseHistory(self.noise_history))
        object.__setattr__(self, "weight_mode", WeightMode(self.weight_mode))


@dataclass
class Trajectory:
    """Node values of one solve: states[:, j] is the state at t_j."""

    grid: TimeGrid
    states: np.ndarray  # shape (dim, num_nodes)

    @property
    def dim(self) -> int:
        return self.states.shape[0]


def _diverged(message: str, step: int, time: float, ok: np.ndarray) -> DivergenceError:
    """DivergenceError at a step; ok marks the admissible entries of a batch + (d,) array."""
    path = None if ok.ndim == 1 else int(np.argmin(ok.all(axis=-1)))
    return DivergenceError(message, step=step, time=float(time), path_index=path)


class _Stepper:
    """Stepping kernel for one path or a batch, with its history caches.

    Every array holds the path axes first: states are batch + (d,), batch the
    leading shape of dW, shaped batch + (noise_dim, num_steps) (None: one
    path).  The history is one buffer batch + (blocks, d, S): block 0 caches
    f at each node, block 1 (stochastic runs only) the noise record.
    :meth:`push` records node n; :meth:`predict` and :meth:`correct` then
    take step n -> n+1 from the records of nodes 0..n, :meth:`predict`
    handing its corrector sums to :meth:`correct`.

    The weights come from a :class:`~sfode.weights.WeightTable`: b and the
    interior a by lag, a0 by step.  The stepper keeps contiguous reversed
    copies b_rev and a_rev of their first K = min(num_steps, BLOCK) lags.

    The scheme's coefficients, 1/G(a) and 1/(G(a) h) in the predictor and
    h**a/G(a+2) and h**(a-1)/G(a+2) in the corrector, are stored as
    (blocks, d) rows, block i's coefficient repeated along d, so that one
    ufunc scales the drift and noise sums of a step together.  The scaled
    rows go to one preallocated batch + (blocks, d) scratch, and :meth:`push`
    writes its records into the history column itself, so a stochastic step
    makes about a dozen small ufunc calls.  Each element still takes the
    operations of the scheme above in their order: the corrector adds f or
    sigma dW_n to its sum before the coefficient, and in last_increment mode
    dW_n multiplies the noise sums before theirs.

    A history sum over nodes 0..n splits at s = n - n % BLOCK.  The near
    field, nodes s..n, is a stacked product that numpy evaluates as one
    d-row product per path and block, so each path rounds exactly as it
    would alone.  In the first block, where s = 0 and the sums are the plain
    full-memory ones, step n takes hist[..., :n+1] @ b_rev[K-1-n:] and
    hist[..., :n+1] @ (a0[n], a_rev[K-n:]).  Past it, one
    hist[..., s:n+1] @ W takes both, with b_rev and a_rev as the two columns
    of W.  The far field, nodes j < s, is read from a ring of per-step
    accumulators, one contiguous batch + (blocks, d, 2) slot per step,
    filled by square tiling in :meth:`_far_field`, which the caller runs
    once at each block start e > 0, when nodes 0..e-1 are recorded: the
    source block [e - L, e) of L = BLOCK * 2**k nodes, with e / L odd,
    adds its part of the sums of steps e..e+L-1 by one FFT convolution of
    size 2L (tiles of TILE nodes for larger L; :func:`_fft_lag_sums`),
    with the full lag kernels b and a.  Each node before s lies in exactly
    one square of step n.  The corrector weight a0[n] of node 0 depends on
    n, not on the lag, so node 0 leaves the corrector FFT and a0[n] * g_0 is
    added on its own.  Steps must be taken in order.

    With :attr:`checked` (the default) every right-hand side is checked to
    be finite and every state to lie within BLOWUP as it is made.  Without
    it, :meth:`advance` takes its steps unchecked and :meth:`admissible`
    checks a finished block at once.  Stepping only reads the far field and
    writes the records and states of the nodes it makes, so a block [s, e)
    taken again from step s gives the same bits.
    """

    checked = True

    def __init__(self, model: SystemModel, cfg: SolverConfig, dW: np.ndarray | None):
        grid, h = cfg.grid, cfg.grid.h
        self.t = grid.nodes()
        self.num_steps = steps = grid.num_steps
        batch = () if dW is None else dW.shape[:-2]
        self.y0 = np.broadcast_to(model.y0, batch + model.y0.shape)
        self.table = table = WeightTable(steps, cfg.alpha, h, cfg.weight_mode)
        # lags K-1..0; slicing at BLOCK - 1 stops at the table's end
        self.b_rev = table.b[BLOCK - 1::-1].copy()
        self.a_rev = table.a[BLOCK - 1::-1].copy()
        self.evaluate = model.evaluate
        self.dW = dW if cfg.stochastic else None
        # (predictor, corrector) coefficients of each history block
        coefs = [(1.0 / math.gamma(cfg.alpha), h**cfg.alpha / math.gamma(cfg.alpha + 2.0))]
        # last_increment: node j caches sigma_j, and dW_n scales the noise sums
        self.scale_noise_sums = (self.dW is not None
                                 and cfg.noise_history is NoiseHistory.LAST_INCREMENT)
        if self.dW is not None:
            # alpha > 1/2 here keeps h**(alpha - 1) finite for every float h
            coefs.append((coefs[0][0] / h, h ** (cfg.alpha - 1.0) / math.gamma(cfg.alpha + 2.0)))
        blocks, dim = len(coefs), model.dim
        # (blocks, d) coefficient rows: each block's coefficient repeated along d
        self.pred_coef, self.corr_coef = np.repeat(np.array(coefs).T[..., None], dim, axis=-1)
        # scratch for one step's scaled rows
        self.rows = np.empty(batch + (blocks, dim))
        self.drift_row = self.rows[..., 0, :]
        if self.dW is not None:
            self.noise_row = self.rows[..., 1, :]
        self.hist = np.empty(batch + (blocks, dim, steps + 1))
        self.hist[..., 1:, :, steps] = 0.0  # node N has no noise record
        if steps > BLOCK:
            # near-field weights past the first block as (predictor, corrector)
            # rows: node 0 and its a[0] are far field there
            self.near_w = np.stack([self.b_rev, self.a_rev], axis=1)
            self.ring = _ring_size(steps)
            # (predictor, corrector) far-field sums; step n reads slot n % ring,
            # shaped like its near-field sums
            self.far = np.zeros((self.ring,) + self.hist.shape[:-1] + (2,))

    def _rhs(self, kind: str, n: int, y: np.ndarray) -> np.ndarray:
        out = self.evaluate(kind, self.t[n], y)
        if self.checked:
            ok = np.isfinite(out)
            if not ok.all():
                raise _diverged(f"non-finite {kind} at step {n} (t={self.t[n]:g})",
                                n, self.t[n], ok)
        return out

    def push(self, n: int, y: np.ndarray) -> None:
        """Cache f (and the noise record) at node n with state y."""
        hist = self.hist
        hist[..., 0, :, n] = self._rhs("drift", n, y)
        if self.dW is not None and n < self.num_steps:
            sigma = self._rhs("diffusion", n, y)
            if not self.scale_noise_sums:
                np.multiply(sigma, self.dW[..., n], hist[..., 1, :, n])
            else:
                hist[..., 1, :, n] = sigma

    def sums(self, n: int):
        """Predictor and corrector history sums of step n over nodes 0..n,
        each shaped batch + (blocks, d).  Call once per step, in order."""
        s = n - n % BLOCK
        if not s:
            hist, K = self.hist[..., :n + 1], len(self.b_rev)
            return (hist @ self.b_rev[K - 1 - n:],
                    hist @ np.concatenate((self.table.a0[n:n + 1], self.a_rev[K - n:])))
        sums = self.hist[..., s:n + 1] @ self.near_w[BLOCK - 1 - n + s:]
        sums += self.far[n % self.ring]
        return sums[..., 0], sums[..., 1]

    def _far_field(self, end: int) -> None:
        """Free the slots of the block before end and add the square whose
        source block ends at node end - 1.  Once per block start end > 0,
        before that block's first step."""
        ring, steps = self.ring, self.num_steps
        free = (end - BLOCK) % ring
        self.far[free:free + BLOCK] = 0.0
        far = self.far.reshape(ring, -1, 2).transpose(1, 0, 2)  # (rows, ring, 2)
        hist = self.hist.reshape(-1, steps + 1)
        b, a, a0 = self.table.b, self.table.a, self.table.a0
        L = _square(end)
        M, stop = min(L, TILE), min(end + L, steps)
        for src in range(end - L, end, M):
            for dst in range(end, stop, M):
                count = min(M, stop - dst)
                first = dst % ring
                # steps dst.. see the nodes src.. at lags dst - src - M + 1 ..
                # dst - src + M - 1; the corrector weights node 0 by a0[n], not by lag
                lags = slice(dst - src - M + 1, dst - src + M)
                out = far[:, first:first + count]
                _fft_lag_sums(hist[:, src:src + M],
                              [np.fft.rfft(b[lags], 2 * M), np.fft.rfft(a[lags], 2 * M)],
                              [out[..., 0], out[..., 1]],
                              a0[dst:dst + count] if src == 0 else None)

    def predict(self, n: int):
        """The predicted state of step n and the corrector sums it leaves."""
        pred, corr = self.sums(n)
        if self.scale_noise_sums:
            dW_n = self.dW[..., n]
            pred[..., 1, :] *= dW_n
            corr[..., 1, :] *= dW_n
        np.multiply(pred, self.pred_coef, self.rows)
        yp = self.y0 + self.drift_row
        if self.dW is not None:
            yp += self.noise_row
        return yp, corr

    def correct(self, n: int, predicted: np.ndarray, corr: np.ndarray) -> np.ndarray:
        """Step n -> n+1 from :meth:`predict`'s state and corrector sums."""
        rows = self.rows
        self.drift_row[...] = self._rhs("drift", n + 1, predicted)
        if self.dW is not None:
            np.multiply(self._rhs("diffusion", n + 1, predicted), self.dW[..., n],
                        self.noise_row)
        rows += corr
        rows *= self.corr_coef
        y = self.y0 + self.drift_row
        if self.dW is not None:
            y += self.noise_row
        return y

    def advance(self, states: np.ndarray, start: int, stop: int) -> None:
        """Take steps start..stop-1, writing states[..., n+1] and the records
        of node n+1."""
        predict, correct, push, checked = self.predict, self.correct, self.push, self.checked
        for n in range(start, stop):
            y_next = correct(n, *predict(n))
            if checked:
                ok = np.abs(y_next) <= BLOWUP  # False for non-finite values too
                if not ok.all():
                    raise _diverged(
                        f"state exceeded blow-up bound {BLOWUP:g} at step {n + 1} "
                        f"(t={self.t[n + 1]:g})",
                        n + 1, self.t[n + 1], ok,
                    )
            states[..., n + 1] = y_next
            push(n + 1, y_next)

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


def _fft_lag_sums(x: np.ndarray, kernel_hats: list, outs: list,
                  w0: np.ndarray | None = None) -> None:
    """Add to each out of outs, (rows, count) with count <= M, the lag sums
    of the at most M source nodes of x, (rows, m):

        out[:, c] += sum_j x[:, j] * k[M - 1 + c - j],

    where k holds 2M - 1 lags and its paired kernel_hat is
    np.fft.rfft(k, 2M).  The convolution of size 2M wraps nothing into the
    columns it reads.  Each row is transformed on its own, so a row rounds
    the same in any batch, and the rows go in chunks whose temporaries stay
    near FFT_BYTES.  Given w0, (count,), the last sum weights x's first
    column by w0[c] in place of its lag weight.

    This is the one FFT convolution of the package: the stepper's far field
    and the Picard sums past BLOCK nodes both call it.
    """
    size = 2 * (kernel_hats[0].shape[-1] - 1)
    M, count = size // 2, outs[0].shape[1]
    rows = max(1, FFT_BYTES // (48 * M))  # x_hat, a product, an irfft: 16M bytes each
    for r in range(0, len(x), rows):
        part = slice(r, r + rows)
        x_hat = np.fft.rfft(x[part], size)
        for i, (k_hat, out) in enumerate(zip(kernel_hats, outs)):
            if w0 is not None and i == len(outs) - 1:
                g0 = x[part, :1]
                x_hat -= g0
                out[part] += g0 * w0
            out[part] += np.fft.irfft(x_hat * k_hat, size)[:, M - 1:M - 1 + count]


def _square(end: int) -> int:
    """Nodes L of the square whose source block ends at node end - 1: the
    BLOCK * 2**k with end / L odd."""
    blocks = end // BLOCK
    return BLOCK * (blocks & -blocks)


def _ring_size(steps: int) -> int:
    """Far-field slots for a run: the least BLOCK * 2**k that covers the
    steps any square has written to and no step has yet read."""
    ahead = reach = 0
    for end in range(BLOCK, steps, BLOCK):
        reach = max(reach, min(end + _square(end), steps))
        ahead = max(ahead, reach - end)
    ring = BLOCK
    while ring < ahead:
        ring *= 2
    return ring


def solve_batch(model: SystemModel, cfg: SolverConfig, dW: np.ndarray | None) -> np.ndarray:
    """Node states, batch + (d, num_nodes), of the paths of dW, each equal to
    :func:`solve` bit for bit.

    dW holds the Wiener increments shaped batch + (noise_dim, num_steps),
    path i in dW[i] (batch () is one path), so np.stack of the paths'
    increments builds it.  A stochastic cfg requires dW; a deterministic one
    uses only its batch shape, and None means one path.

    Each block of BLOCK steps is one pass of this loop: its far field is
    added once (a square of the recorded nodes before it), then it runs
    unchecked and is checked once.  A block that fails the check, or
    raises, is replayed step by step with checks from the same far field,
    so the error raised is the one a check at every step raises.
    The model runs with overflow and invalid-value warnings suppressed: a
    non-finite value it returns is a divergence.
    """
    grid = cfg.grid
    if dW is None:
        if cfg.stochastic:
            raise ValueError("stochastic solve requires Wiener increments (a WienerPath or dW)")
    elif dW.shape[-2:] != (model.noise_dim, grid.num_steps):
        raise ValueError(f"dW is shaped {dW.shape}, needs batch + (noise_dim, num_steps) = "
                         f"batch + {(model.noise_dim, grid.num_steps)}")
    stepper = _Stepper(model, cfg, dW)
    states = np.empty(stepper.y0.shape + (grid.num_nodes,))
    states[..., 0] = stepper.y0
    with np.errstate(over="ignore", invalid="ignore"):
        stepper.push(0, stepper.y0)
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


def solve(model: SystemModel, cfg: SolverConfig,
          path: WienerPath | None = None) -> Trajectory:
    """Integrate the system over cfg.grid and return the full trajectory.

    Deterministic given (model, cfg, path).  In deterministic mode
    (cfg.stochastic False) a supplied path is ignored, so the output cannot
    depend on it.  Raises :class:`DivergenceError` when a state component
    exceeds BLOWUP or turns non-finite, rather than emitting NaN rows: the
    error, with its step, time and message, is the one a check at every
    step would raise.
    """
    grid = cfg.grid
    dW = None
    if cfg.stochastic and path is not None:
        if path.grid != grid:
            raise ValueError("path grid does not match solver grid")
        dW = path.increments
    return Trajectory(grid=grid, states=solve_batch(model, cfg, dW))


def write_trajectory_csv(traj: Trajectory, stream, metadata: dict | None = None) -> None:
    """Write the metadata, then t, y1..yd rows, in the shared table format."""
    header = ["t"] + [f"y{i + 1}" for i in range(traj.dim)]
    write_table(stream, metadata or {}, header, [traj.grid.nodes(), *traj.states])
