"""Per-time-step data fusion on a concatenated state [x_next; x_cur].

One fusion problem stacks whitened residual rows from every information
source (prior, models, parameters, sensors, neighbor communications),
solves the MAP by damped Gauss-Newton, chooses covariance-intersection
weights by determinant minimization, and differentiates the MAP with
respect to every source value through the implicit function theorem
(second-order residual terms omitted).

At the MAP the stacked system is assembled and its normal matrix factored
once, in a `Linearization`; the posterior covariance, the chi-square value
and the implicit Jacobian are all read from that one factor.

Source kinds map to CI weight groups as follows: prior, process model,
parameter and sensor rows share the single local weight; the prediction
model is fixed at weight one; every communication source carries its own
weight. The local and communication weights live on the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
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

_LINEAR_KINDS = (KIND_PRIOR, KIND_PARAMETER, KIND_SENSOR, KIND_COMMUNICATION)
_MODEL_KINDS = (KIND_PROCESS, KIND_PREDICTION)

GROUP_LOCAL = "local"
GROUP_PRED = "pred"

_GN_MAX_ITER = 200
_GN_GRAD_RTOL = 1e-9
_LAMBDA_GROW = 2.0
_LAMBDA_SHRINK = 3.0
_LAMBDA_MAX = 1e12


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

    payload is a LinearObservation for prior/parameter/sensor/communication
    sources and a differentiable model (out_dim, noise_cov, evaluate,
    jacobian) for process/prediction sources.
    """

    id: str
    kind: str
    payload: object
    ci_group: str = ""

    def __post_init__(self):
        if self.kind not in _LINEAR_KINDS + _MODEL_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        expected = group_for_kind(self.kind, self.id)
        if not self.ci_group:
            self.ci_group = expected
        elif self.ci_group != expected:
            raise ValueError(
                f"source {self.id!r} of kind {self.kind} must be in CI group "
                f"{expected!r}, got {self.ci_group!r}"
            )

    @property
    def is_model(self) -> bool:
        return self.kind in _MODEL_KINDS

    @property
    def out_dim(self) -> int:
        return self.payload.out_dim

    def beta(self) -> np.ndarray:
        """Inhomogeneity chunk: observed mean, or zeros for models."""
        if self.is_model:
            return np.zeros(self.payload.out_dim)
        return np.asarray(self.payload.value.mean, dtype=float)

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

    def normalized(self) -> "CiWeights":
        vals = [self.w_local] + list(self.w_comm.values())
        total = float(sum(vals))
        if total <= 0.0:
            raise ValueError("CI weights must have positive sum")
        return CiWeights(
            w_local=self.w_local / total,
            w_comm={k: v / total for k, v in self.w_comm.items()},
            w_pred=1.0,
        )


def naive_weights(problem: "FusionProblem") -> CiWeights:
    """All weights one: the working point used before weight optimization."""
    return CiWeights(
        w_local=1.0,
        w_comm={g: 1.0 for g in problem.comm_groups()},
        w_pred=1.0,
    )


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
        self.beta = np.concatenate([s.beta() for s in self.sources]) if self.sources else np.zeros(0)
        # Whitening operators are fixed per source (covariances immutable).
        self._whiteners = [whitening_from_cov_fast(s.noise_cov()) for s in self.sources]
        self.weights = naive_weights(self)

    def comm_groups(self):
        return [s.ci_group for s in self.sources if s.kind == KIND_COMMUNICATION]

    def chunk_slice(self, source_id: str) -> slice:
        for sid, off, m in self.offsets:
            if sid == source_id:
                return slice(off, off + m)
        raise KeyError(source_id)

    def set_weights(self, weights: CiWeights):
        self.weights = weights

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


def solve_map(problem: FusionProblem, x0) -> np.ndarray:
    """Damped Gauss-Newton minimization of the stacked squared residual.

    Raises WellPosednessError, naming the coordinates, when the Jacobian at
    x0 has an all-zero column: no source constrains that coordinate. Stops
    when the max-norm of the chi-square gradient falls below
    1e-9 * max(1, chi2), or after 200 accepted iterations. The damping
    parameter doubles on rejected steps and shrinks by 3 on accepted ones.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({problem.dim},)")
    if not np.all(np.isfinite(x)):
        raise NonFiniteResidual("x0 contains non-finite entries")

    r, jac = problem.assemble(x)
    col = np.einsum("ij,ij->j", jac, jac)
    scale = float(np.max(col)) if col.size else 0.0
    dead = np.nonzero(col <= 1e-300 * max(scale, 1.0))[0]
    if dead.size:
        names = problem.coord_names_at(dead)
        raise WellPosednessError(
            f"no information source constrains coordinates: {', '.join(names)}",
            uninformed=names,
        )
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residual non-finite at the initial point")
    chi2 = float(r @ r)
    lam = 1e-10
    eye = np.eye(problem.dim)

    for _ in range(_GN_MAX_ITER):
        grad = 2.0 * (jac.T @ r)
        if np.max(np.abs(grad)) <= _GN_GRAD_RTOL * max(1.0, chi2):
            return x
        normal = jac.T @ jac
        scale = max(float(np.mean(np.diag(normal))), 1e-300)
        accepted = False
        while not accepted:
            try:
                chol = np.linalg.cholesky(normal + lam * scale * eye)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_GROW
                if lam > _LAMBDA_MAX:
                    raise SingularNormalEquations(
                        "normal equations not invertible after damping escalation"
                    ) from None
                continue
            step = -np.linalg.solve(chol.T, np.linalg.solve(chol, jac.T @ r))
            x_try = x + step
            r_try, jac_try = problem.assemble(x_try)
            finite = np.all(np.isfinite(r_try))
            chi2_try = float(r_try @ r_try) if finite else np.inf
            if finite and chi2_try <= chi2:
                improvement = chi2 - chi2_try
                x, r, jac, chi2 = x_try, r_try, jac_try, chi2_try
                lam = max(lam / _LAMBDA_SHRINK, 1e-12)
                accepted = True
                # Round-off floor: no later iteration can do better, so the
                # outcome equals running out the iteration cap.
                if improvement <= 1e-14 * max(chi2, 1e-300):
                    return x
            else:
                lam *= _LAMBDA_GROW
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
    """Unweighted per-group information matrices at the linearization point."""
    groups = {}
    for src, L in zip(problem.sources, problem._whiteners):
        _, j = problem._source_rows(src, L, x)
        info = j.T @ j
        if src.ci_group in groups:
            groups[src.ci_group] = groups[src.ci_group] + info
        else:
            groups[src.ci_group] = info
    return groups


def _logdet_information(base, group_infos, weights_vec):
    m = base.copy()
    for info, w in zip(group_infos, weights_vec):
        m += w * info
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _softmax(z):
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def _golden_max(fun, lo, hi, tol=1e-3):
    """Golden-section maximization of a unimodal scalar function."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def ci_optimize_weights(problem: FusionProblem, map_naive) -> CiWeights:
    """Simplex weights minimizing log det of the posterior covariance.

    Weights are parametrized through a softmax over unconstrained reals and
    optimized by coordinate descent with golden-section line searches; model
    Jacobians stay frozen at the naive-fusion working point. Ties in the
    determinant are broken in favor of the largest local weight.
    """
    x = np.asarray(map_naive, dtype=float)
    comm = problem.comm_groups()
    if not comm:
        return CiWeights(w_local=1.0, w_comm={}, w_pred=1.0)

    group_info = _group_information(problem, x)
    base = group_info.get(GROUP_PRED, np.zeros((problem.dim, problem.dim)))
    names = [GROUP_LOCAL] + comm
    infos = [group_info.get(g, np.zeros((problem.dim, problem.dim))) for g in names]

    def objective(z):
        return _logdet_information(base, infos, _softmax(z))

    z = np.zeros(len(names))
    best = objective(z)
    span = 8.0
    for _ in range(6):
        improved = False
        for i in range(len(names)):
            def line(v, i=i):
                zz = z.copy()
                zz[i] = v
                return objective(zz)

            v_opt = _golden_max(line, z[i] - span, z[i] + span)
            val = line(v_opt)
            if val > best + 1e-13:
                z[i] = v_opt
                best = val
                improved = True
        if not improved:
            break

    w = _softmax(z)
    # Tie rule: if the pure-local corner matches the optimum determinant,
    # return it (largest possible local weight).
    corner = np.full(len(names), -60.0)
    corner[0] = 60.0
    if objective(corner) >= best - 1e-12:
        w = _softmax(corner)

    weights = CiWeights(
        w_local=float(w[0]),
        w_comm={g: float(w[1 + k]) for k, g in enumerate(comm)},
        w_pred=1.0,
    ).normalized()
    return weights


def implicit_jacobian(lin: Linearization) -> dict:
    """Per-source chunks of the MAP-vs-inhomogeneity Jacobian at a MAP.

    The full matrix is (J^T J)^{-1} J^T applied to the block-diagonal
    weighted whitening; second-order residual terms are omitted. Keys are
    source ids, values are (dim x out_dim) arrays.
    """
    problem, jac, chol = lin.problem, lin.jac, lin.chol
    chunks = {}
    for src, (sid, off, m), L in zip(problem.sources, problem.offsets, problem._whiteners):
        w = problem.weights.weight_for(src.ci_group)
        # chunk = w * N^{-1} J_src^T Gamma_src^{-1}
        js = jac[off : off + m, :]  # already sqrt(w) L J_src
        b = js.T @ (math.sqrt(w) * L)
        chunks[sid] = np.linalg.solve(chol.T, np.linalg.solve(chol, b))
    return chunks


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
        # Rebuilt on demand rather than kept from fuse: most results are
        # never backpropagated through, and the factor would stay in memory.
        if self._jac_chunks is None:
            self._jac_chunks = implicit_jacobian(Linearization(self._problem, self.map))
        return self._jac_chunks


def fuse(problem: FusionProblem, x0) -> FusionResult:
    """Two-phase fusion: naive solve, CI weight optimization at that working
    point, final weighted solve. One Linearization at the final MAP gives the
    posterior covariance and chi2; the MAP Jacobians are rebuilt from the
    same point on first use.

    Raises WellPosednessError when a coordinate has no information at x0,
    SingularInformation when the information matrix at the MAP is singular.
    """
    problem.set_weights(naive_weights(problem))
    x_naive = solve_map(problem, x0)
    if problem.comm_groups():
        weights = ci_optimize_weights(problem, x_naive)
        problem.set_weights(weights)
        x_map = solve_map(problem, x_naive)
    else:
        x_map = x_naive
    lin = Linearization(problem, x_map)
    return FusionResult(
        map=x_map,
        post_cov=posterior_covariance(lin),
        chi2=float(lin.r @ lin.r),
        ci_weights=problem.weights,
        _problem=problem,
    )
