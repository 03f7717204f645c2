"""Per-time-step data fusion on a concatenated state [x_next; x_cur].

One fusion problem stacks whitened residual rows from every information
source (prior, models, parameters, sensors, neighbor communications),
solves the MAP by Levenberg-Marquardt with gain-ratio damping, chooses
covariance-intersection weights by Newton ascent on the log-determinant of
the fused information, and differentiates the MAP with respect to every
source value through the implicit function theorem (second-order residual
terms omitted).

A source's payload is either a LinearObservation, rows M x with a
Gaussian value, or a differentiable model, rows f(x) with a Jacobian and
noise covariance; constant model rows are LinearObservations with a
zero-mean value. The source kind only picks the CI weight group: prior,
process model, parameter and sensor rows share the single local weight;
the prediction rows are fixed at weight one; every communication source
carries its own weight. The local and communication weights live on the
simplex.

A node re-fuses a step many times over, so a fusion reuses what does not
change between its solves (the information form; Dellaert & Kaess 2017):

- Whitening. Each source's whitening operator L is computed once per
  immutable noise covariance: it is cached with the value estimate of a
  LinearObservation, shared by estimates made with `with_mean`, and on the
  model object for model noise.
- Fixed rows. Once per problem, `FixedRows` forms the whitened rows
  A = L M of every LinearObservation and, per CI group, the information
  Lambda_g = sum A^T A. Each Levenberg-Marquardt trial point evaluates only
  the model rows; the normal matrix is sum_g w_g Lambda_g plus the model
  rows' J^T J. A linear residual is always L (M x - mu), never A x - L mu,
  which cancels on tight rows such as the parameter rows. An all-linear
  problem is solved by one exact Newton step, x - N^-1 g, with one
  factorization. `fuse` drops the fixed rows before it returns.
- CI weights. The weight search starts from the step's previous weights
  when their communication groups are the problem's and M is non-singular
  there, and from uniform weights otherwise or when the warm search does
  not converge.

At the MAP the whole stacked system is assembled and its normal matrix
factored once, in a `Linearization`; the posterior covariance, the
chi-square value and the implicit Jacobian are all read from that one
factor. A numpy linear-algebra failure inside `fuse` is raised as
KernelFailure, so a node can keep its previous result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    KernelFailure,
    ModelEvaluationError,
    NonFiniteResidual,
    SingularInformation,
    SingularNormalEquations,
    WellPosednessError,
)
from .gaussian import LinearObservation, symmetrize, whitening_from_cov_fast

KIND_PRIOR = "prior"
KIND_PROCESS = "process_model"
KIND_PREDICTION = "prediction_model"
KIND_PARAMETER = "parameter"
KIND_SENSOR = "sensor"
KIND_COMMUNICATION = "communication"

_KINDS = (
    KIND_PRIOR,
    KIND_PROCESS,
    KIND_PREDICTION,
    KIND_PARAMETER,
    KIND_SENSOR,
    KIND_COMMUNICATION,
)

GROUP_LOCAL = "local"
GROUP_PRED = "pred"

_GN_MAX_ITER = 200
_GN_GRAD_RTOL = 1e-9
_GN_PRED_RTOL = 1e-14
_LAMBDA_MAX = 1e12

_CI_MAX_ITER = 30
_CI_MAX_BACKTRACK = 30
_CI_DECREMENT_RTOL = 1e-10
_ARMIJO = 1e-4


def group_for_kind(kind: str, source_id: str) -> str:
    """CI weight group for a source kind (communication gets its own group)."""
    if kind == KIND_PREDICTION:
        return GROUP_PRED
    if kind == KIND_COMMUNICATION:
        return f"comm:{source_id}"
    return GROUP_LOCAL


@dataclass
class InformationSource:
    """One information contribution to a fusion problem.

    payload is a LinearObservation (matrix, value) or a differentiable
    model (out_dim, noise_cov, evaluate, jacobian), whatever the kind; the
    kind only sets ci_group.
    """

    id: str
    kind: str
    payload: object
    ci_group: str = field(init=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        self.ci_group = group_for_kind(self.kind, self.id)

    @property
    def is_model(self) -> bool:
        return not isinstance(self.payload, LinearObservation)

    @property
    def out_dim(self) -> int:
        return self.payload.out_dim

    def noise_cov(self) -> np.ndarray:
        if self.is_model:
            return np.asarray(self.payload.noise_cov, dtype=float)
        return np.asarray(self.payload.value.cov, dtype=float)


@dataclass
class CiWeights:
    """Simplex weights over {local} + communication groups; w_pred is 1."""

    w_local: float = 1.0
    w_comm: dict = field(default_factory=dict)
    w_pred: float = 1.0

    def weight_for(self, group: str) -> float:
        if group == GROUP_LOCAL:
            return self.w_local
        if group == GROUP_PRED:
            return self.w_pred
        return self.w_comm[group]


def naive_weights(problem: "FusionProblem") -> CiWeights:
    """All weights one: the working point used before weight optimization."""
    return CiWeights(
        w_local=1.0,
        w_comm={g: 1.0 for g in problem.comm_groups()},
        w_pred=1.0,
    )


def _whitening(src: InformationSource) -> np.ndarray:
    """The source's whitening operator, computed once per noise covariance:
    in the cache of an observation's value estimate, or on the model object
    as (noise_cov, L) in `_fusion_whitening`, valid while its noise_cov
    stays the same object."""
    if not src.is_model:
        value = src.payload.value
        whitening = value.cov_cache.get("whitening")
        if whitening is None:
            whitening = value.cov_cache["whitening"] = whitening_from_cov_fast(value.cov)
        return whitening
    model = src.payload
    cached = getattr(model, "_fusion_whitening", None)
    if cached is None or cached[0] is not model.noise_cov:
        cached = (model.noise_cov, whitening_from_cov_fast(src.noise_cov()))
        object.__setattr__(model, "_fusion_whitening", cached)
    return cached[1]


class FusionProblem:
    """One time step's assembled inference over the concatenated state."""

    def __init__(self, dim: int, sources, coord_names=None):
        self.dim = int(dim)
        self.sources = list(sources)
        self.coord_names = list(coord_names) if coord_names else None
        kinds = [s.kind for s in self.sources]
        if kinds.count(KIND_PRIOR) != 1:
            raise ValueError(
                f"fusion problem needs exactly one prior source, got {kinds.count(KIND_PRIOR)}"
            )
        if kinds.count(KIND_PREDICTION) > 1:
            raise ValueError("fusion problem allows at most one prediction model")
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate source ids in fusion problem")
        for src in self.sources:
            if not src.is_model and src.payload.state_dim != self.dim:
                raise DimensionMismatch(
                    f"source {src.id!r} observes dim {src.payload.state_dim}, "
                    f"problem dim is {self.dim}"
                )
        # Beta layout: contiguous chunks in source order.
        self.offsets = []
        off = 0
        for src in self.sources:
            m = src.out_dim
            self.offsets.append((src.id, off, m))
            off += m
        self.beta_dim = off
        self.all_linear = not any(s.is_model for s in self.sources)
        self._whiteners = [_whitening(s) for s in self.sources]
        self.weights = naive_weights(self)
        self._fixed = None

    def comm_groups(self):
        return [s.ci_group for s in self.sources if s.kind == KIND_COMMUNICATION]

    def chunk_slice(self, source_id: str) -> slice:
        for sid, off, m in self.offsets:
            if sid == source_id:
                return slice(off, off + m)
        raise KeyError(source_id)

    def set_weights(self, weights: CiWeights):
        self.weights = weights

    def fixed_rows(self) -> FixedRows:
        """The whitened linear rows, formed on first use and kept until
        release_fixed_rows."""
        if self._fixed is None:
            self._fixed = FixedRows(self)
        return self._fixed

    def release_fixed_rows(self):
        self._fixed = None

    # -- residual stacking ------------------------------------------------

    def _source_rows(self, src, L, x):
        """Unweighted whitened residual rows and state Jacobian for one source."""
        if src.is_model:
            try:
                fx = np.asarray(src.payload.evaluate(x), dtype=float)
                jx = np.asarray(src.payload.jacobian(x), dtype=float)
            except Exception as exc:  # noqa: BLE001 - tagged and re-raised
                raise ModelEvaluationError(src.id, exc) from exc
            r = L @ fx
            j = L @ jx
        else:
            obs = src.payload
            r = L @ (obs.matrix @ x - obs.value.mean)
            j = L @ obs.matrix
        return r, j

    def assemble(self, x):
        """Stacked sqrt(w)-scaled whitened residual and its state Jacobian."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"x has shape {x.shape}, expected ({self.dim},)")
        rows = self.beta_dim
        r = np.empty(rows)
        jac = np.empty((rows, self.dim))
        for src, (sid, off, m), L in zip(self.sources, self.offsets, self._whiteners):
            sw = math.sqrt(self.weights.weight_for(src.ci_group))
            rs, js = self._source_rows(src, L, x)
            r[off : off + m] = sw * rs
            jac[off : off + m, :] = sw * js
        return r, jac

    def coord_names_at(self, indices) -> list:
        """Names of the state coordinates at the given indices."""
        if self.coord_names:
            return [self.coord_names[i] for i in indices]
        return [f"x[{i}]" for i in indices]


class FixedRows:
    """The rows of a problem's LinearObservation sources, whitened once.

    `sources` holds (ci_group, L, observation, A = L M) per linear source in
    problem order, `info` the unweighted information Lambda_g = sum A^T A
    per CI group.
    """

    def __init__(self, problem: FusionProblem):
        self.sources = []
        self.info = {}
        for src, L in zip(problem.sources, problem._whiteners):
            if src.is_model:
                continue
            a = L @ src.payload.matrix
            self.sources.append((src.ci_group, L, src.payload, a))
            info = a.T @ a
            group = src.ci_group
            self.info[group] = self.info[group] + info if group in self.info else info

    def residuals(self, x) -> list:
        """Unweighted whitened residuals L (M x - mu), one per source."""
        return [L @ (obs.matrix @ x - obs.value.mean) for _, L, obs, _ in self.sources]


class _WeightedSystem:
    """The chi-square, gradient and normal matrix of a problem under its
    current weights: fixed rows from FixedRows, model rows evaluated per
    point. The gradient of chi-square is 2 g."""

    def __init__(self, problem: FusionProblem):
        self.problem = problem
        self.fixed = problem.fixed_rows()
        weight = problem.weights.weight_for
        self.linear_w = [weight(group) for group, *_ in self.fixed.sources]
        self.models = [
            (weight(src.ci_group), src, L)
            for src, L in zip(problem.sources, problem._whiteners)
            if src.is_model
        ]
        self.linear_normal = np.zeros((problem.dim, problem.dim))
        for group, info in self.fixed.info.items():
            self.linear_normal += weight(group) * info

    def at(self, x):
        """(chi2, linear residuals, model (L f, L J) rows) at x."""
        linear = self.fixed.residuals(x)
        models = [self.problem._source_rows(src, L, x) for _, src, L in self.models]
        chi2 = sum(w * float(r @ r) for w, r in zip(self.linear_w, linear))
        chi2 += sum(w * float(r @ r) for (w, _, _), (r, _) in zip(self.models, models))
        return chi2, linear, models

    def gradient(self, linear, models) -> np.ndarray:
        g = np.zeros(self.problem.dim)
        for w, (_, _, _, a), r in zip(self.linear_w, self.fixed.sources, linear):
            g += w * (a.T @ r)
        for (w, _, _), (r, j) in zip(self.models, models):
            g += w * (j.T @ r)
        return g

    def normal(self, models) -> np.ndarray:
        normal = self.linear_normal.copy()
        for (w, _, _), (_, j) in zip(self.models, models):
            normal += w * (j.T @ j)
        return normal


def solve_map(problem: FusionProblem, x0) -> np.ndarray:
    """Minimize the weighted chi-square in information form.

    Raises WellPosednessError, naming the coordinates, when the normal
    matrix at x0 has a zero diagonal entry: no source constrains that
    coordinate.

    The normal matrix is N = sum_g w_g Lambda_g + J_m^T J_m and the
    half-gradient g = sum_s w_s A_s^T r_s + J_m^T r_m, with the fixed rows
    of `FixedRows` and the model rows J_m, r_m evaluated at the point. The
    gradient test holds when the max-norm of the chi-square gradient 2 g is
    at most 1e-9 * max(1, chi2).

    An all-linear problem takes one exact Newton step, x0 - N^-1 g, from
    one factorization (none when x0 passes the gradient test); a singular
    N raises SingularNormalEquations.

    Otherwise Levenberg-Marquardt: each trial solves (N + mu I) step = -g
    with mu = lam * mean(diag N). A Cholesky factorization decides whether
    N + mu I is positive definite, and one general solve gives the step.
    The step's predicted chi-square decrease is pred = step^T (mu step - g),
    and the gain ratio rho = (chi2 - chi2_try) / pred sets the damping
    (Nielsen 1999): a step with finite chi2 and rho > 0 is accepted and lam
    is scaled by max(1/3, 1 - (2 rho - 1)^3), floored at 1e-12; otherwise
    lam is multiplied by nu, which doubles on every consecutive rejection.
    Only the model rows are evaluated at a trial point.

    Stops on the gradient test; when pred <= 1e-14 * chi2, returning
    x + step without evaluating it, since no comparison of chi2 values can
    resolve a decrease that small; after 200 accepted iterations; or,
    returning the current point, when a rejected step pushes lam above
    1e12. A failed Cholesky factorization at lam above 1e12 raises
    SingularNormalEquations.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({problem.dim},)")
    if not np.all(np.isfinite(x)):
        raise NonFiniteResidual("x0 contains non-finite entries")

    system = _WeightedSystem(problem)
    chi2, linear, models = system.at(x)
    normal = system.normal(models)
    diag = np.diag(normal)
    scale = float(np.max(diag)) if diag.size else 0.0
    dead = np.nonzero(diag <= 1e-300 * max(scale, 1.0))[0]
    if dead.size:
        names = problem.coord_names_at(dead)
        raise WellPosednessError(
            f"no information source constrains coordinates: {', '.join(names)}",
            uninformed=names,
        )
    if not math.isfinite(chi2):
        raise NonFiniteResidual("residual non-finite at the initial point")

    def converged(g, chi2):
        return 2.0 * np.max(np.abs(g)) <= _GN_GRAD_RTOL * max(1.0, chi2)

    if not system.models:
        g = system.gradient(linear, models)
        if converged(g, chi2):
            return x
        try:
            return x - np.linalg.solve(normal, g)
        except np.linalg.LinAlgError:
            raise SingularNormalEquations(
                "normal equations of a linear problem are singular"
            ) from None

    lam, nu = 1e-10, 2.0
    eye = np.eye(problem.dim)
    for _ in range(_GN_MAX_ITER):
        g = system.gradient(linear, models)
        if converged(g, chi2):
            return x
        scale = max(float(np.mean(np.diag(normal))), 1e-300)
        while True:
            mu = lam * scale
            damped = normal + mu * eye
            try:
                # The factor is only the positive-definite verdict.
                np.linalg.cholesky(damped)
            except np.linalg.LinAlgError:
                lam, nu = lam * nu, 2.0 * nu
                if lam > _LAMBDA_MAX:
                    raise SingularNormalEquations(
                        "normal equations not invertible after damping escalation"
                    ) from None
                continue
            step = -np.linalg.solve(damped, g)
            x_try = x + step
            pred = float(step @ (mu * step - g))
            if pred <= _GN_PRED_RTOL * chi2:
                # Round-off floor: the decrease is below what chi2 resolves.
                return x_try
            chi2_try, linear_try, models_try = system.at(x_try)
            if math.isfinite(chi2_try):
                rho = (chi2 - chi2_try) / pred
                if rho > 0.0:
                    x, chi2, linear, models = x_try, chi2_try, linear_try, models_try
                    normal = system.normal(models)
                    lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-12)
                    nu = 2.0
                    break
            lam, nu = lam * nu, 2.0 * nu
            if lam > _LAMBDA_MAX:
                # Flat to machine precision: accept the current point.
                return x
    return x


class Linearization:
    """The stacked system at one point: whitened residual `r`, its state
    Jacobian `jac` and the lower Cholesky factor `chol` of jac.T @ jac.

    Assembles once and factors once. Raises SingularInformation, naming the
    coordinates with no information, when jac.T @ jac is not positive
    definite, so an instance always holds a valid factor.
    """

    def __init__(self, problem: FusionProblem, x):
        self.problem = problem
        self.r, self.jac = problem.assemble(x)
        normal = self.jac.T @ self.jac
        try:
            self.chol = np.linalg.cholesky(normal)
        except np.linalg.LinAlgError:
            diag = np.diag(normal)
            scale = float(np.max(diag)) if diag.size else 0.0
            dead = np.nonzero(diag <= 1e-14 * max(scale, 1.0))[0]
            raise SingularInformation(
                "total information matrix is rank deficient",
                uninformed=problem.coord_names_at(dead),
            ) from None


def posterior_covariance(lin: Linearization) -> np.ndarray:
    """Inverse of the CI-weighted total information matrix, with model
    Jacobians evaluated at the linearization point."""
    inv_chol = np.linalg.solve(lin.chol, np.eye(lin.problem.dim))
    return symmetrize(inv_chol.T @ inv_chol)


def _group_information(problem: FusionProblem, x):
    """Unweighted per-group information matrices at the linearization point:
    the fixed rows' Lambda_g plus the model rows evaluated at x."""
    groups = dict(problem.fixed_rows().info)
    for src, L in zip(problem.sources, problem._whiteners):
        if src.is_model:
            _, j = problem._source_rows(src, L, x)
            info = j.T @ j
            groups[src.ci_group] = groups[src.ci_group] + info if src.ci_group in groups else info
    return groups


def _logdet_information(base, group_infos, weights_vec):
    """log det(base + sum w_i I_i) and its Cholesky factor; (-inf, None) if singular."""
    m = base.copy()
    for info, w in zip(group_infos, weights_vec):
        m += w * info
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return -np.inf, None
    return 2.0 * float(np.sum(np.log(np.diag(chol)))), chol


def _newton_direction(chol, group_infos, w):
    """Gradient and Newton direction of log det M at w on the free face.

    With M = C C^T and A_i = C^-1 I_i C^-T: g_i = tr A_i = tr(M^-1 I_i) and
    H_ij = -tr(A_i A_j). A zero coordinate is free when its gradient
    exceeds the mean over the positive ones, unless the step is negative.
    """
    c_inv = np.linalg.inv(chol)
    a = np.stack([(c_inv @ info @ c_inv.T).ravel() for info in group_infos])
    g = a[:, :: chol.shape[0] + 1].sum(axis=1)
    free = (w > 0.0) | (g > np.mean(g[w > 0.0]))
    while True:
        # KKT system of the free coordinates under sum(d) = 0, by least
        # squares: H is singular when two groups carry equal information.
        idx = np.flatnonzero(free)
        kkt = np.ones((idx.size + 1, idx.size + 1))
        kkt[:-1, :-1] = -(a[idx] @ a[idx].T)
        kkt[-1, -1] = 0.0
        d = np.zeros(w.size)
        d[idx] = np.linalg.lstsq(kkt, np.append(-g[idx], 0.0), rcond=None)[0][:-1]
        stuck = (w <= 0.0) & (d < 0.0)
        if not stuck.any():
            return g, d
        free &= ~stuck


def _armijo_step(base, group_infos, w, d, f, decrement):
    """Backtracking step along d, capped at the simplex boundary: the
    accepted (w, f, chol), or None when halving the step 30 times finds no
    Armijo improvement."""
    ratio = np.full(w.size, np.inf)
    ratio[d < 0.0] = -w[d < 0.0] / d[d < 0.0]
    t = min(1.0, float(np.min(ratio)))
    for _ in range(_CI_MAX_BACKTRACK):
        w_try = np.maximum(w + t * d, 0.0)
        w_try[ratio <= t] = 0.0  # a coordinate that reaches the boundary is exactly 0
        val, chol = _logdet_information(base, group_infos, w_try)
        if val >= f + _ARMIJO * t * decrement:
            return (w_try, val, chol) if val > f else None
        t *= 0.5
    return None


def _newton_ascent(base, group_infos, w, f, chol):
    """Active-set Newton ascent of log det M from w: the last accepted
    (w, f) and whether the search ended on the decrement test."""
    for _ in range(_CI_MAX_ITER):
        g, d = _newton_direction(chol, group_infos, w)
        decrement = float(g @ d)
        if decrement <= _CI_DECREMENT_RTOL * max(1.0, abs(f)):
            return w, f, True
        step = _armijo_step(base, group_infos, w, d, f, decrement)
        if step is None:
            return w, f, False
        w, f, chol = step
    return w, f, False


def ci_optimize_weights(
    problem: FusionProblem, map_naive, start: CiWeights | None = None
) -> CiWeights:
    """Simplex weights minimizing log det of the posterior covariance.

    Maximizes the concave f(w) = log det M, M = B + sum_i w_i I_i, over the
    simplex of the local and communication weights: B is the prediction
    group's information, I_i the unweighted information of group i, with
    model Jacobians frozen at the naive-fusion working point.

    Active-set Newton ascent. Each iteration factors M once for
    g_i = tr(M^-1 I_i) and H_ij = -tr(M^-1 I_i M^-1 I_j), solves the KKT
    system of the free coordinates by least squares, caps the step at the
    simplex boundary (a coordinate that reaches zero leaves the free set;
    it re-enters when its gradient exceeds the free set's mean) and
    backtracks to the Armijo condition. It stops when the Newton decrement
    g.d is at most 1e-10 * max(1, |f|), when backtracking finds no
    improvement, or after 30 iterations, and returns the last accepted
    point (f rises monotonically).

    The search starts from `start`, the step's previous weights, when its
    communication groups are the problem's and M is non-singular there.
    f is concave, so only where the search stops within the tolerance
    depends on the start. A search from `start` that does not end on the
    decrement test is discarded: near a singular M the Newton steps are too
    short to leave it. Otherwise, and without a start, the search starts
    from uniform weights.

    M singular at uniform weights is singular on the whole open simplex;
    the pure-local corner is then returned. Ties go to the local group: the
    corner [1, 0, ...] is returned when it scores within 1e-12 of the best,
    whatever the start.
    """
    comm = problem.comm_groups()
    if not comm:
        return CiWeights(w_local=1.0, w_comm={}, w_pred=1.0)
    group_info = _group_information(problem, np.asarray(map_naive, dtype=float))
    zeros = np.zeros((problem.dim, problem.dim))
    base = group_info.get(GROUP_PRED, zeros)
    infos = [group_info.get(g, zeros) for g in [GROUP_LOCAL] + comm]
    corner = np.eye(len(infos))[0]

    converged = False
    if start is not None and set(start.w_comm) == set(comm):
        w = np.array([start.w_local] + [start.w_comm[g] for g in comm])
        best, chol = _logdet_information(base, infos, w)
        if chol is not None:
            w, best, converged = _newton_ascent(base, infos, w, best, chol)
    if not converged:
        w = np.full(len(infos), 1.0 / len(infos))
        best, chol = _logdet_information(base, infos, w)
        if chol is not None:
            w, best, _ = _newton_ascent(base, infos, w, best, chol)
    if chol is None:
        w = corner
    elif _logdet_information(base, infos, corner)[0] >= best - 1e-12:
        w = corner
    w = w / float(sum(w))
    return CiWeights(
        w_local=float(w[0]),
        w_comm={g: float(w[1 + k]) for k, g in enumerate(comm)},
        w_pred=1.0,
    )


def implicit_jacobian(lin: Linearization, kinds=None) -> dict:
    """Per-source chunks of the MAP-vs-inhomogeneity Jacobian at a MAP.

    The full matrix is (J^T J)^{-1} J^T applied to the block-diagonal
    weighted whitening; second-order residual terms are omitted. Keys are
    source ids, values are (dim x out_dim) arrays: every source's, or only
    those of the given source kinds.
    """
    problem, jac, chol = lin.problem, lin.jac, lin.chol
    chunks = [
        (src, off, m, L)
        for src, (_, off, m), L in zip(problem.sources, problem.offsets, problem._whiteners)
        if kinds is None or src.kind in kinds
    ]
    # chunk = w * N^{-1} J_src^T Gamma_src^{-1}; the sources' right-hand
    # sides sit side by side, so two solves serve them all.
    rhs = np.empty((problem.dim, sum(m for _, _, m, _ in chunks)))
    col = 0
    for src, off, m, L in chunks:
        w = problem.weights.weight_for(src.ci_group)
        js = jac[off : off + m, :]  # already sqrt(w) L J_src
        rhs[:, col : col + m] = js.T @ (math.sqrt(w) * L)
        col += m
    full = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    out, col = {}, 0
    for src, _, m, _ in chunks:
        out[src.id] = full[:, col : col + m]
        col += m
    return out


# The sources a node relays gradients through: the prior back in time, the
# parameters into setpoint gradients, the communications to neighbors.
RELAYED_KINDS = (KIND_PRIOR, KIND_PARAMETER, KIND_COMMUNICATION)


@dataclass
class FusionResult:
    """Immutable outcome of one fusion: MAP, posterior, weights, Jacobians."""

    map: np.ndarray
    post_cov: np.ndarray
    chi2: float
    ci_weights: CiWeights
    _problem: FusionProblem
    _jac_chunks: dict | None = None

    @property
    def jac_chunks(self) -> dict:
        """Implicit-Jacobian chunks of the RELAYED_KINDS sources."""
        # Rebuilt on demand rather than kept from fuse: most results are
        # never backpropagated through, and the factor would stay in memory.
        if self._jac_chunks is None:
            lin = Linearization(self._problem, self.map)
            self._jac_chunks = implicit_jacobian(lin, RELAYED_KINDS)
        return self._jac_chunks


def fuse(problem: FusionProblem, x0, ci_start: CiWeights | None = None) -> FusionResult:
    """Two-phase fusion: naive solve, CI weight optimization at that working
    point (starting from ci_start, the step's previous weights, if given),
    final weighted solve. An all-linear problem's group information does
    not depend on the point, so it skips the naive solve. One Linearization
    at the final MAP gives the posterior covariance and chi2; the MAP
    Jacobians are rebuilt from the same point on first use.

    Raises WellPosednessError when a coordinate has no information at x0,
    SingularInformation when the information matrix at the MAP is singular,
    KernelFailure when a numpy linear-algebra kernel fails.
    """
    try:
        problem.set_weights(naive_weights(problem))
        if not problem.comm_groups():
            x_map = solve_map(problem, x0)
        else:
            point = x0 if problem.all_linear else solve_map(problem, x0)
            problem.set_weights(ci_optimize_weights(problem, point, ci_start))
            x_map = solve_map(problem, point)
        lin = Linearization(problem, x_map)
        post_cov = posterior_covariance(lin)
    except np.linalg.LinAlgError as exc:
        raise KernelFailure(f"linear-algebra kernel failed: {exc}") from exc
    finally:
        problem.release_fixed_rows()
    return FusionResult(
        map=x_map,
        post_cov=post_cov,
        chi2=float(lin.r @ lin.r),
        ci_weights=problem.weights,
        _problem=problem,
    )
