"""Nuisance-function fitting.

The event hazard is fit as independent kernel logistic regressions, one
per (time u, arm a), each trained on the risk set {a_i = a, time_i >= u}
of that cell. The censoring hazard is the same fit with the event flags
flipped. The per-cell objective is the summed binary cross-entropy
plus (ridge / 2) * alpha' K alpha with a fixed coefficient, so the
penalty's weight relative to the mean loss scales like ridge / risk-set
size: late, thin cells are smoothed hard while large risk sets keep
their flexibility. The intercept is unpenalized, which makes every
fitted cell mean-calibrated on its risk set; single-class cells sit at
the boundary of the likelihood and are represented by the clamp limits
directly. The propensity is an unpenalized linear logistic regression,
fit on an orthonormal basis of the standardized covariates' column space.

The event and censoring fits of one training fold share one
`KernelBasis`, their whole input: the standardization, the length scale,
t_max and, per arm, the training units sorted once by exit time,
descending, censored before events at equal times, with their exit
times, event flags, standardized covariates and Gram matrix in that
order. Every risk set {a_i = a, time_i >= u} is a prefix of its arm's
order, whichever flag a fit labels: a cell is its size m, its system the
leading m x m block of the arm's Gram matrix. No Gram matrix spans both
arms.

A fitted `KernelHazardModel` is three arrays per arm a: coef[a], each
Newton cell's alpha in its time's column over its risk set and zero
elsewhere, in the arm's exit order; intercept[a]; and level[a], the
hazard of every column not fit by Newton (NaN for a Newton column).
Prediction in arm a takes the Gram matrix of the units to predict
against the arm's training covariates (`KernelBasis.prediction_gram`),
built once for both models, and is one matrix product per model,
k_pred @ coef[a] + intercept[a], with the fixed columns then overwritten
by their level. The training units themselves are predicted the same
way. Fits and predictions are bit-for-bit reproducible at a fixed BLAS
thread count.

Both logistic fits use one damped Newton method (`_damped_newton`) on a
flat state of independent problems: every Newton cell of both arms of a
fold's event and censoring fits (`fit_hazards`) is one problem that owns
its own rows and no padding, stepping in lockstep with its own step
size, stopping test and Cholesky steps (`_newton_cells`), and products
with an arm's Gram matrix run in bands of similar risk-set size; a
one-label fit takes the same path, and the propensity fit is a single
problem. A cell's exact step factors K_m + ridge W^-1, its Gram block
plus ridge over its Newton weights: that is S^-1 B S^-1 for the Newton
matrix B = S K_m S + ridge I, S = W^(1/2), and as accurate. At the
start iterate all units of a cell share one weight, so the first step
factors only each (arm, label) group's largest cell, its lead, and every
other cell of the group solves on the leading block of the lead's
factor: a Newton step with the lead's curvature. Every later step is
exact: a band of at least CG_MIN_CELLS cells whose lead holds at least
CG_MIN_LEAD units solves B by conjugate gradients to relative residual
CG_TOL, all its cells sharing each product with the band's Gram block
(`_band_cg`), and every other cell, or a band whose run does not get
there in CG_MAX_ITER iterations, factors. A fit that stops at its
iteration cap reports it with a ConvergenceWarning naming the fit, and a
Newton system that cannot be factored or is not finite raises
NumericalError naming the fit and the cell.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dposv as _dposv
from scipy.linalg.lapack import dpotrs as _dpotrs
from scipy.special import expit

from .errors import ConvergenceWarning, CoverageWarning, EstimationError, NumericalError
from .kernels import gram
from .survival import Dataset, standardization

__all__ = [
    "HAZARD_FLOOR",
    "HAZARD_CEIL",
    "PROPENSITY_FLOOR",
    "KernelBasis",
    "KernelHazardModel",
    "PropensityModel",
    "fit_hazards",
    "fit_event_hazard",
    "fit_censor_hazard",
    "fit_propensity",
]

HAZARD_FLOOR = 1e-6
HAZARD_CEIL = 1.0 - 1e-6
PROPENSITY_FLOOR = 1e-3

_P_EPS = 1e-12  # probability clip inside the optimizer only

_FIT_NAMES = {1: "event hazard", 0: "censoring hazard"}  # the fit labelling 1(event = label)

#: per-cell Newton stopping rule: loss gradient norm, iteration cap
NEWTON_TOL = 1e-6
NEWTON_MAX_ITER = 500

#: Newton steps after the first by conjugate gradients (`_band_cg`) on a band of at least
#: CG_MIN_CELLS cells whose lead holds at least CG_MIN_LEAD units: each column stops at
#: relative residual CG_TOL, and one not there after CG_MAX_ITER iterations takes the exact step
CG_MIN_LEAD = 256
CG_MIN_CELLS = 2
CG_TOL = 1e-14
CG_MAX_ITER = 32

#: propensity Newton stopping rule: gradient norm in the standardized covariates, iteration cap
PROPENSITY_TOL = 1e-8
PROPENSITY_MAX_ITER = 500


def _norms(r: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Euclidean norm of each of n problems, problem ids[i] owning entry r[i]."""
    return np.sqrt(np.bincount(ids, r * r, minlength=n))


def _damped_newton(theta, ids, residual, newton_step, max_iter):
    """Damped Newton for residual(theta) = 0, problem by problem; returns (theta, converged).

    theta is the flat state of c independent problems that step together:
    entry i belongs to problem ids[i], ids covering 0..c-1. residual(theta,
    probs) returns the flat residual of the iterates theta of problems
    probs, laid out as a prefix of theta: its entry i belongs to the problem
    of theta's entry i. newton_step(theta, r, probs) returns (done, step):
    done flags the problems whose stopping norm of r is within the fit's
    tolerance, and step is the flat step of the others, laid out as their
    theta, so a fit forms the products its norm and its step share once.
    A problem stops once done, or after max_iter steps; converged flags the
    problems that stopped done, and a stopped problem's entries leave the
    state. Each step halves a problem's own eta until its residual norm
    falls by (1 - 1e-4 eta); a loss-value test would stall at roundoff near
    the optimum and on the flat directions of an ill-conditioned Gram
    matrix. A problem's trials all start from its step-start iterate.
    """
    out = theta.copy()
    at = np.arange(theta.size)  # each entry's place in out
    probs = np.arange(ids.max() + 1)  # the problems still stepping; ids count among them
    converged = np.zeros(probs.size, dtype=bool)
    r = residual(theta, probs)
    merit = _norms(r, ids[: r.size], probs.size)
    for _ in range(max_iter):
        done, step = newton_step(theta, r, probs)
        if done.any():
            stop = done[ids]
            out[at[stop]] = theta[stop]
            converged[probs[done]] = True
            keep = ~stop
            ids = (np.cumsum(~done) - 1)[ids[keep]]
            theta, at, r = theta[keep], at[keep], r[keep[: r.size]]
            probs, merit = probs[~done], merit[~done]
            if probs.size == 0:
                return out, converged
        eta = np.ones(probs.size)
        trial = theta - step
        trial_r = residual(trial, probs)
        trial_merit = _norms(trial_r, ids[: trial_r.size], probs.size)
        search = np.flatnonzero(trial_merit > (1.0 - 1e-4) * merit)  # still halving eta
        for _ in range(49):
            if search.size == 0:
                break
            eta[search] *= 0.5
            trial = theta - eta[ids] * step  # the other problems' trials repeat exactly
            trial_r = residual(trial, probs)
            trial_merit = _norms(trial_r, ids[: trial_r.size], probs.size)
            search = search[trial_merit[search] > (1.0 - 1e-4 * eta[search]) * merit[search]]
        theta, r, merit = trial, trial_r, trial_merit
    out[at] = theta
    return out, converged


def _band_cg(k, s, b, ridge: float):
    """Conjugate gradients for (S K S + ridge I) y = b, row by row; returns (y, ok, iterations).

    Each row i of b is the right-hand side of its own system, with
    S = diag(s[i]), and all rows share one product with the symmetric k
    per iteration, (rows x lead) @ (lead x lead), the rows still running
    only. A row stops once its residual norm is within CG_TOL of its
    right-hand side's, or at once, with a non-finite residual; ok flags the
    rows that stopped within tolerance, and iterations counts the products.
    A row with zero entries of s past its system's size keeps y zero there.
    """
    out = np.zeros_like(b)
    ok = np.zeros(b.shape[0], dtype=bool)
    live = np.arange(b.shape[0])
    y, r, p = np.zeros_like(b), b.copy(), b.copy()
    rr = np.einsum("ij,ij->i", r, r)
    stop = CG_TOL**2 * rr
    for iterations in range(CG_MAX_ITER + 1):
        done = rr <= stop  # false for a NaN residual
        keep = ~done & np.isfinite(rr)
        if not keep.all():
            ok[live[done]] = True
            out[live[~keep]] = y[~keep]
            live, y, r, p, s, rr, stop = (v[keep] for v in (live, y, r, p, s, rr, stop))
        if live.size == 0 or iterations == CG_MAX_ITER:
            break
        q = s * ((s * p) @ k)
        q += ridge * p
        alpha = rr / np.einsum("ij,ij->i", p, q)
        y += alpha[:, None] * p
        r -= alpha[:, None] * q
        rr, rr_old = np.einsum("ij,ij->i", r, r), rr
        p = r + (rr / rr_old)[:, None] * p
    out[live] = y
    return out, ok, iterations


def _newton_cells(grams, cells, ridge: float):
    """Lockstep Newton for a training fold's kernel-logistic cells; returns (alpha, b, converged).

    grams[a] is arm a's Gram matrix, in the exit-time order whose prefixes
    are the arm's risk sets. Cell j, cells[j] = (u, a, m, lo, hit, label),
    is trained on the first m units of arm a, labelled 1 where the flags
    hit of its fit (label 1 event, 0 censoring) are set among the units
    lo..m-1 that leave at u. The cells of both fits step together,
    arm-major and by u, so m never rises within an arm. A cell holds its
    own rows and no others: with off = [0, cumsum(m)], cell j owns rows
    off[j]:off[j + 1] of alpha and of f = K alpha + b, and intercept b[j];
    the state is (alpha, b, f), flat, and alpha comes back flat.

    The residual is the stationarity system (p - y) + ridge alpha = 0,
    sum(p - y) = 0 (the loss gradient with K factored out of its alpha
    block), whose Jacobian [[W K + ridge I, w], [w' K, sum(w)]] is
    nonsingular for ridge > 0 and mixed labels; every Newton cell has both
    labels, so m >= 2. The stopping norm is the true loss gradient's.
    Each set of live cells gets one layout, built when it first steps (cells
    only leave the set): its sizes, starts, row-to-cell map, labels, and
    the scatter mask and bands of the products with K. Those follow the
    risk-set sizes: the live cells' rows are scattered into a zeroed
    cells x lead buffer, each arm's cells are multiplied in bands, each on
    the leading block of its first (largest) cell, a cell joining a band
    while its m exceeds half the band's lead, and the products are gathered
    back with the same mask.

    The Newton step solves that Jacobian system exactly through the
    symmetric positive definite A = K + ridge W^-1, K the cell's leading
    m x m block and W = diag(w), w floored at _P_EPS. With
    g = K d_alpha + d_b (the step of f), the alpha rows read
    w * g + ridge d_alpha = r_alpha and the intercept row w'g = r_b, so
    h = w * g solves A h = K r_alpha + ridge d_b 1. Per cell, one copy of
    K into a contiguous scratch buffer, its diagonal, and one LAPACK
    dposv call (Cholesky factor and both solves) give A u = K r_alpha and
    A v = 1; then h = u + ridge d_b v, d_b = (r_b - sum(u)) / (ridge sum(v))
    and d_alpha = (r_alpha - h) / ridge. B = S A S, S = W^(1/2), is
    S K S + ridge I, with eigenvalues in [ridge, ridge + m / 4], so
    sum(v) = s'B^-1 s > 0; and Cholesky's accuracy does not change under
    symmetric diagonal scaling (van der Sluis; Higham 2002, ch. 10), so A
    is factored as accurately as B, even with diagonal ridge / _P_EPS.
    An A that is not positive definite (K not positive semi-definite), or
    a step that is not finite (a NaN in K, which dposv need not flag),
    raises NumericalError naming the cell's fit and the cell.

    Every step after the first solves a band of large cells by conjugate
    gradients instead: a band of the layout qualifies when it holds at
    least CG_MIN_CELLS cells and its lead at least CG_MIN_LEAD units, a
    choice stored with the layout. For u and v, B (S^-1 u) = S K r_alpha
    and B (S^-1 v) = s, so `_band_cg` runs the band's 2c right-hand sides
    on B = S K S + ridge I, each cell's rows zero-padded to the lead, with
    one (2c x lead) @ (lead x lead) product with the band's Gram block per
    iteration, and h = S y gives the (u, v) of dposv. B's eigenvalues lie
    in [ridge, ridge + m / 4] and cluster, so at ridge 0.5 a band takes
    9-15 iterations to relative residual CG_TOL; CG pays only where the
    cells are large and share the product, and costs a per-iteration
    overhead on small ones. A cell whose column is not finite or not
    converged after CG_MAX_ITER iterations takes its dposv step, and its
    arm factors every later step of the fit, so a small ridge costs at
    most one capped run per arm and fit.

    The first call of newton_step shares factors. At the start iterate,
    alpha = 0 and b = logit(ybar), every unit of a cell has p = ybar, so
    its A is K_m + (ridge / w) I with one scalar w. That call works
    through the live cells one (arm, label) group at a time, in the one
    scratch buffer: the group's largest cell, its lead, takes its dposv
    step as above, and every smaller cell calls dpotrs on the leading
    m x m block of the lead's factor. That block is the Cholesky factor
    of the leading block of the lead's A (Golub and Van Loan, Matrix
    Computations, 4.2), K_m + ridge W_lead^-1 over the cell's units, so
    the cell takes the Newton step with its lead's weights in place of
    its own and factors nothing. The line search accepts or halves that
    step like any other, every later step is exact, and the stopping test
    is unchanged, so fits move only within the stopping rule. A group is
    one label, so a joint fit steps as its one-label fits do.

    The step of f is K d_alpha + d_b, so theta - eta * step moves f
    exactly as it moves (alpha, b), and the residual of a line-search
    trial costs one expit and no product with K.
    """
    arm, m = np.array([cell[1:3] for cell in cells]).T
    group = [(a, label) for _, a, _, _, _, label in cells]
    off = np.concatenate([[0], np.cumsum(m)])
    y = np.zeros(off[-1])
    for j, (_, _, size, lo, hit, _) in enumerate(cells):
        y[off[j] + lo : off[j + 1]] = hit[lo:size]
    # per cell, built once: its Gram block, and the C-order view of A' = A in
    # the scratch buffer (factored in place in Fortran order) and its diagonal
    a_buf = np.empty(int(m.max()) ** 2)
    scratch = [(size, grams[a][:size, :size], a_buf[: size * size].reshape(size, size),
                a_buf[: size * size : size + 1]) for _, a, size, *_ in cells]
    layouts = {}
    first = True  # the next newton_step is the first
    exact = set()  # the arms whose every later step factors

    def layout(cols):
        # the rows of the cells cols, in order; built once per set, since cells only leave it
        key = cols.tobytes()
        if key not in layouts:
            size = m[cols]
            start = np.cumsum(size) - size
            fill = np.arange(size.max()) < size[:, None]
            sizes, arms, bands, cg, first = size.tolist(), arm[cols].tolist(), [], [], 0
            while first < len(sizes):
                a, lead, stop = arms[first], sizes[first], first + 1
                while stop < len(sizes) and arms[stop] == a and 2 * sizes[stop] > lead:
                    stop += 1
                k = grams[a][:lead, :lead]
                bands.append((k, first, stop, lead))
                if lead >= CG_MIN_LEAD and stop - first >= CG_MIN_CELLS:
                    # the band's cells, their rows lo:hi, and their mask in a cells x lead buffer
                    cg.append((a, k, first, stop, start[first], start[stop - 1] + sizes[stop - 1],
                               fill[first:stop, :lead]))
                first = stop
            layouts[key] = SimpleNamespace(
                start=start, cell=np.repeat(np.arange(cols.size), size),
                y=np.concatenate([y[off[j] : off[j + 1]] for j in cols.tolist()]),
                fill=fill, bands=bands, cg=cg,
            )
        return layouts[key]

    def k_times(z, lay):
        # K z, cell by cell, for the rows z of the cells of lay
        buf = np.zeros(lay.fill.shape)
        buf[lay.fill] = z
        out = np.empty_like(buf)
        for k, first, stop, lead in lay.bands:  # K is symmetric: (K z)' = z' K
            np.matmul(buf[first:stop, :lead], k, out=out[first:stop, :lead])
        return out[lay.fill]

    def residual(theta_, cols):
        lay = layout(cols)
        n = lay.y.size
        p_y = expit(theta_[n + cols.size :]) - lay.y
        r = np.empty(n + cols.size)
        np.add(p_y, ridge * theta_[:n], out=r[:n])
        r[n:] = np.add.reduceat(p_y, lay.start)
        return r

    def newton_step(theta_, r, cols):
        nonlocal first
        lay = layout(cols)
        n = lay.y.size
        kr = k_times(r[:n], lay)
        norm2 = np.bincount(lay.cell, kr * kr, minlength=cols.size) + r[n:] ** 2
        done = np.sqrt(norm2) <= NEWTON_TOL
        r_alpha, r_b, alpha = r[:n], r[n:], theta_[:n]
        if done.any():
            if done.all():
                return done, None
            keep = ~done[lay.cell]
            kr, r_alpha, r_b, alpha = kr[keep], r_alpha[keep], r_b[~done], alpha[keep]
            cols = cols[~done]
            lay = layout(cols)
            n = lay.y.size
        p = lay.y + (r_alpha - ridge * alpha)  # the p of residual(theta_)
        w = np.maximum(p * (1.0 - p), _P_EPS)
        diag = ridge / w
        # per cell, its right-hand sides (K r_alpha, 1), solved in place to its (u, v)
        uv = np.empty((2, n))
        uv[0], uv[1] = kr, 1.0
        order = zip(cols.tolist(), lay.start.tolist())
        if first:  # one (arm, label) group after another, each largest cell first
            order = sorted(order, key=lambda cell_lo: group[cell_lo[0]])
        elif lay.cg:  # a band of large cells solves B (u, v) / S = S (K r_alpha, 1) by CG
            solved = np.zeros(cols.size, dtype=bool)
            for a, k, i, stop, lo, hi, fill in lay.cg:
                if a in exact:
                    continue
                s = np.zeros((2, *fill.shape))  # S over each cell's u and v rows, zero-padded
                s[:, fill] = np.sqrt(w[lo:hi])
                rhs = s.copy()
                rhs[0, fill] *= kr[lo:hi]
                sol, ok, _ = _band_cg(k, *(v.reshape(-1, k.shape[0]) for v in (s, rhs)), ridge)
                h = (s * sol.reshape(s.shape))[:, fill]
                ok = ok.reshape(2, -1).all(axis=0)
                if ok.all():
                    uv[:, lo:hi] = h
                else:  # the other cells factor, and so does every later step of the arm
                    keep = ok[lay.cell[lo:hi] - i]
                    uv[:, lo:hi][:, keep] = h[:, keep]
                    exact.add(a)
                solved[i:stop] = ok
            order = [cell_lo for cell_lo, cg in zip(order, solved.tolist()) if not cg]
        lead = factor = None  # at the first step: a group, and its lead's Cholesky factor
        for cell, lo in order:
            size, block, a_rows, a_diag = scratch[cell]
            if group[cell] == lead:
                sol, _ = _dpotrs(factor[:size, :size], uv[:, lo : lo + size].T, lower=1)
            else:
                np.copyto(a_rows, block)
                a_diag += diag[lo : lo + size]
                _, sol, info = _dposv(a_rows.T, uv[:, lo : lo + size].T, lower=1,
                                      overwrite_a=True)
                if info != 0:
                    u, a, *_, label = cells[cell]
                    raise NumericalError(f"{_FIT_NAMES[label]}: cell {(u, a)}: Newton system "
                                         f"not positive definite (dposv info {info})")
                if first:
                    lead, factor = group[cell], a_rows.T
            uv[:, lo : lo + size] = sol.T
        if not np.isfinite(uv).all():  # a non-finite K or weight; dposv need not flag NaN
            u, a, *_, label = cells[cols[lay.cell[np.argmin(np.isfinite(uv).all(axis=0))]]]
            raise NumericalError(f"{_FIT_NAMES[label]}: cell {(u, a)}: Newton system not finite")
        first = False
        u, v = uv
        d_b = (r_b - np.add.reduceat(u, lay.start)) / (ridge * np.add.reduceat(v, lay.start))
        d_b_rows = d_b[lay.cell]
        step = np.empty(2 * n + cols.size)
        step[:n] = (r_alpha - u - ridge * d_b_rows * v) / ridge
        step[n : n + cols.size] = d_b
        step[n + cols.size :] = k_times(step[:n], lay) + d_b_rows
        return done, step

    whole = layout(np.arange(len(cells)))
    ybar = np.clip(np.add.reduceat(whole.y, whole.start) / m, 1e-3, 1.0 - 1e-3)
    b = np.log(ybar / (1.0 - ybar))
    ids = np.concatenate([whole.cell, np.arange(len(cells)), whole.cell])
    theta, converged = _damped_newton(
        np.concatenate([np.zeros(off[-1]), b, b[whole.cell]]),  # alpha = 0, b, and f = b
        ids, residual, newton_step, NEWTON_MAX_ITER,
    )
    return theta[: off[-1]], theta[off[-1] : off[-1] + len(cells)], converged


@dataclass(frozen=True)
class KernelBasis:
    """One training set as its hazard fits read it: kernel features and exit layout.

    Per arm a, over the arm's units by exit time, descending, censored
    first at ties: exits[a] and events[a], their exit times and event
    flags; xs[a], their standardized covariates; grams[a],
    gram(xs[a], xs[a], length_scale).
    """

    mean: np.ndarray
    scale: np.ndarray
    length_scale: float
    t_max: int
    exits: tuple[np.ndarray, np.ndarray]
    events: tuple[np.ndarray, np.ndarray]
    xs: tuple[np.ndarray, np.ndarray]
    grams: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, data: Dataset, length_scale: float) -> "KernelBasis":
        mean, scale = standardization(data.x)
        orders = tuple(
            arm[np.lexsort((data.event[arm], -data.time[arm]))]
            for arm in (np.flatnonzero(data.a == a) for a in (0, 1))
        )
        xs = tuple((data.x[order] - mean) / scale for order in orders)
        return cls(
            mean, scale, length_scale, data.grid.t_max,
            *(tuple(column[order] for order in orders) for column in (data.time, data.event)),
            xs, tuple(gram(x, x, length_scale) for x in xs),
        )

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(x, dtype=float)) - self.mean) / self.scale

    def prediction_gram(self, x: np.ndarray, a: int) -> np.ndarray:
        """Kernel matrix of x against arm a's training covariates, in exit order."""
        return gram(self.standardize(x), self.xs[a], self.length_scale)


@dataclass(frozen=True)
class KernelHazardModel:
    """Per-(u, a) kernel logistic hazards for u = 1..max_time, fit on one `KernelBasis`.

    coef[a] is (n_a, t_max + 1) over arm a's training units in the basis's
    exit order; intercept[a] and level[a] are (t_max + 1,).
    """

    coef: tuple[np.ndarray, np.ndarray]
    intercept: np.ndarray
    level: np.ndarray
    max_time: int
    empty_cells: tuple[tuple[int, int], ...] = ()

    def hazard_matrix(self, k_pred: np.ndarray, a: int) -> np.ndarray:
        """(n, t_max + 1) hazards in arm a from `KernelBasis.prediction_gram(x, a)`; column 0 is 0."""
        fit = np.clip(expit(k_pred @ self.coef[a] + self.intercept[a]), HAZARD_FLOOR, HAZARD_CEIL)
        return np.where(np.isnan(self.level[a]), fit, self.level[a])

    @property
    def cells(self) -> dict[tuple[int, int], SimpleNamespace]:
        """(u, a) -> alpha: its coef column, or None if fixed. benchmark/tracer.py counts these."""
        newton = np.isnan(self.level)
        return {
            (u, a): SimpleNamespace(alpha=self.coef[a][:, u] if newton[a, u] else None)
            for a in (0, 1)
            for u in range(1, self.max_time + 1)
        }


def fit_hazards(basis: KernelBasis, ridge: float,
                max_time: int | None = None) -> tuple[KernelHazardModel, KernelHazardModel]:
    """Fit a training set's event and censoring hazards together; returns (event, censor).

    On each (u, a) risk set {a_i = a, time_i >= u}, u = 1..max_time in
    [0, t_max] (default t_max), the event hazard labels 1(event, time = u)
    and the censoring hazard 1(censored, time = u). `basis` is
    `KernelBasis.of(data, length_scale)`.
    """
    fits = _fit_cells(basis, ridge, max_time, [1, 0])
    return fits[1], fits[0]


def fit_event_hazard(basis: KernelBasis, ridge: float,
                     max_time: int | None = None) -> KernelHazardModel:
    """The event hazard of `fit_hazards`, fit alone."""
    return _fit_cells(basis, ridge, max_time, [1])[1]


def fit_censor_hazard(basis: KernelBasis, ridge: float,
                      max_time: int | None = None) -> KernelHazardModel:
    """The censoring hazard of `fit_hazards`, fit alone."""
    return _fit_cells(basis, ridge, max_time, [0])[0]


def _fit_cells(
    basis: KernelBasis, ridge: float, max_time: int | None, labels: list[int]
) -> dict[int, KernelHazardModel]:
    """One kernel logistic fit per (u, a) cell and label in labels; returns {label: model}.

    Label 1 is the event fit, 0 the censoring fit; both read their labels
    from basis.events. The Newton cells of every label step together in
    `_newton_cells` on basis.grams, and each cell's alpha is copied once
    into its column of its model's coef[a]. Warnings start with the fit's
    name and point at the caller of the public fit.
    """
    t_max = basis.t_max
    max_time = t_max if max_time is None else max_time
    if not 0 <= max_time <= t_max:
        names = " and ".join(map(_FIT_NAMES.get, labels))
        raise ValueError(f"{names}: max_time must lie in [0, {t_max}], got {max_time}")
    # per label, coef, intercept and level; level is the floor for empty and all-0 cells
    fits = {label: (tuple(np.zeros((len(exits), t_max + 1)) for exits in basis.exits),
                    np.zeros((2, t_max + 1)), np.full((2, t_max + 1), HAZARD_FLOOR))
            for label in labels}
    empty, newton = [], []  # newton cells: (u, a, m, lo, hit, label)
    for a, (exits, events) in enumerate(zip(basis.exits, basis.events)):
        # risk-set sizes at u = 1..max_time + 1: units lo..m-1 leave at u
        sizes = np.searchsorted(-exits, -np.arange(1, max_time + 2), side="right")
        m, lo = sizes[:-1], sizes[1:]
        empty += [(u, a) for u in (np.flatnonzero(m == 0) + 1).tolist()]
        for label in labels:
            hit = (events == label).astype(float)
            seen = np.concatenate([[0.0], np.cumsum(hit)])  # hits among the first i units
            n_hit, level = seen[m] - seen[lo], fits[label][2][a]
            fit = (n_hit > 0) & (n_hit < m)
            # a single-class optimum sits on the boundary: a clamp limit stands for it
            level[1 : max_time + 1] = np.select([fit, (n_hit == m) & (m > 0)],
                                                [np.nan, HAZARD_CEIL], HAZARD_FLOOR)
            level[0] = 0.0
            newton += [(u + 1, a, m[u], lo[u], hit, label) for u in np.flatnonzero(fit).tolist()]
    newton.sort(key=lambda cell: cell[1::-1])  # arm-major, by u, labels in order
    stalled = {label: [] for label in labels}
    if newton:
        alpha, b, converged = _newton_cells(basis.grams, newton, ridge)
        off = np.cumsum([0] + [cell[2] for cell in newton]).tolist()
        for j, (u, a, size, _, _, label) in enumerate(newton):
            coef, intercept, _ = fits[label]
            coef[a][:size, u], intercept[a, u] = alpha[off[j] : off[j + 1]], b[j]
            if not converged[j]:
                stalled[label].append((u, a))
    for label in labels:
        if empty:
            warnings.warn(f"{_FIT_NAMES[label]}: {len(empty)} (time, arm) cells had empty risk "
                          "sets; constant floor hazard used", CoverageWarning, stacklevel=3)
        if stalled[label]:
            warnings.warn(f"{_FIT_NAMES[label]}: {len(stalled[label])} (time, arm) cells stopped "
                          f"after {NEWTON_MAX_ITER} Newton iterations above gradient tolerance "
                          f"{NEWTON_TOL:.1e}: {stalled[label]}", ConvergenceWarning, stacklevel=3)
    return {label: KernelHazardModel(*fits[label], max_time, tuple(empty)) for label in labels}


@dataclass(frozen=True)
class PropensityModel:
    """Linear logistic P(A=1|X); predictions clipped away from 0 and 1."""

    weights: np.ndarray
    intercept: float

    def prob(self, x: np.ndarray, a: int) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p1 = np.clip(
            expit(x @ self.weights + self.intercept),
            PROPENSITY_FLOOR,
            1.0 - PROPENSITY_FLOOR,
        )
        return p1 if a == 1 else 1.0 - p1


def fit_propensity(data: Dataset) -> PropensityModel:
    """Maximum-likelihood linear logistic regression of treatment on covariates.

    The fit runs on z = [U, 1], U an orthonormal basis of the centered,
    standardized covariates: their left singular vectors above numpy's
    matrix_rank cut, sigma_max * max(n, d) * eps. A constant or duplicated
    column adds no direction, so the Hessian z' W z is nonsingular whatever
    the columns' units. Newton stops at gradient norm <= PROPENSITY_TOL in
    the standardized covariates and warns if PROPENSITY_MAX_ITER steps do
    not get there; the weights are then mapped back to the covariates.
    """
    a = data.a.astype(float)
    if a.min() == a.max():
        raise EstimationError("propensity fit needs both arms present")
    mean, scale = standardization(data.x)
    xs = (data.x - mean) / scale
    center = xs.mean(axis=0)  # 0 up to roundoff
    u, s, vt = np.linalg.svd(xs - center, full_matrices=False)
    rank = int(np.sum(s > s.max(initial=0.0) * max(data.n, data.d) * np.finfo(float).eps))
    z = np.hstack([u[:, :rank], np.ones((data.n, 1))])
    sv = np.append(s[:rank], 1.0)  # z-gradient to standardized-covariate gradient

    def residual(theta, probs):
        return sv * (z.T @ (expit(z @ theta) - a))

    def newton_step(theta, grad, probs):
        done = np.array([np.linalg.norm(grad) <= PROPENSITY_TOL])
        if done[0]:
            return done, None
        p = np.clip(expit(z @ theta), _P_EPS, 1.0 - _P_EPS)
        return done, np.linalg.solve(z.T @ ((p * (1.0 - p))[:, None] * z), grad / sv)

    theta, (converged,) = _damped_newton(
        np.zeros(rank + 1), np.zeros(rank + 1, dtype=int), residual, newton_step,
        PROPENSITY_MAX_ITER,
    )
    if not converged:
        warnings.warn(f"propensity fit stopped after {PROPENSITY_MAX_ITER} Newton iterations above "
                      f"gradient tolerance {PROPENSITY_TOL:.1e}", ConvergenceWarning, stacklevel=2)
    weights = vt[:rank].T @ (theta[:rank] / s[:rank]) / scale
    return PropensityModel(weights, float(theta[rank] - (mean + scale * center) @ weights))
