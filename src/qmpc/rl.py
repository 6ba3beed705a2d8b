"""Learning drivers that tune OCP parameters from closed-loop data.

This is the single place where the cost-sign convention is flipped: the OCP
layer prices costs, the MDP maximizes reward, and every quantity here uses
Q(s, a) = -(pinned OCP optimum).  Value-based updates descend a TD loss built
from that Q; policy-based updates ascend the REINFORCE objective through the
policy's parameter Jacobian.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import QmpcError
from .mdp import Transition, check_gamma, episode_rng, mean_stderr, rollout
from .ocp import OCPSpec, ParameterVector
from .sensitivity import grad_q_wrt_params, jac_policy_wrt_params
from .solver import KKTPoint, MPCController, SolverSettings, mpc_policy, mpc_qvalue

log = logging.getLogger(__name__)


@dataclass
class TDResult:
    loss: float
    grad: np.ndarray
    skipped: int


def td_loss_and_grad(
    spec: OCPSpec,
    phi: ParameterVector,
    batch: list[Transition],
    gamma: float,
    settings: SolverSettings | None = None,
) -> TDResult:
    """Mean squared TD error of the MPC Q-function over a batch.

    For each (s, a, r, s'): Q(s,a) = -(pinned solve at (s,a)) and the target
    is r + gamma * max_a' Q(s', a') with the max evaluated by a free solve at
    s'.  The gradient detaches the target (semi-gradient).  Samples whose
    solves fail are skipped and counted; an all-skipped batch is an error.
    """
    gamma = check_gamma(gamma)
    if not batch:
        raise ValueError("empty batch")
    losses = []
    grads = []
    skipped = 0
    for tr in batch:
        try:
            q_cost, kkt_pin = mpc_qvalue(spec, phi, tr.s, tr.a, settings=settings)
            _, kkt_free = mpc_policy(spec, phi, tr.s_next, settings=settings)
        except QmpcError as exc:
            skipped += 1
            log.debug("td sample skipped: %s", exc)
            continue
        q = -q_cost
        target = tr.r + gamma * (-kkt_free.objective)
        e = q - target
        losses.append(e * e)
        dq = -grad_q_wrt_params(spec, phi, kkt_pin).grad_value
        grads.append(2.0 * e * dq)
    if not losses:
        raise QmpcError(f"all {len(batch)} TD samples failed to solve")
    if skipped:
        log.info("td batch: %d of %d samples skipped", skipped, len(batch))
    return TDResult(
        loss=float(np.mean(losses)), grad=np.mean(grads, axis=0), skipped=skipped
    )


def gradient_step(
    phi: ParameterVector, grad: np.ndarray, alpha: float, direction: str = "ascent"
) -> ParameterVector:
    """phi +- alpha*grad, unconstrained; non-finite gradients are rejected."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != phi.phi.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match phi {phi.phi.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    if direction not in ("ascent", "descent"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "ascent" else -1.0
    return phi.with_vector(phi.phi + sign * alpha * grad)


class RunningBaseline:
    """Mean of all returns seen so far; read before update to stay unbiased."""

    def __init__(self):
        self._sum = 0.0
        self._count = 0

    @property
    def value(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def update(self, G: float):
        self._sum += G
        self._count += 1


class GaussianMPCPolicy(MPCController):
    """Gaussian exploration around the warm-started MPC action.

    The mean is the free-solve first input of :class:`MPCController`;
    sampling adds N(0, sigma^2) per dimension.  The parameter score of a
    sampled action chains (a - mean)/sigma^2 through the policy's parameter
    Jacobian.  Call reset() between episodes.
    """

    def __init__(
        self,
        spec: OCPSpec,
        phi: ParameterVector,
        sigma: float | np.ndarray,
        settings: SolverSettings | None = None,
    ):
        super().__init__(spec, phi, settings)
        self.sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (spec.m,)).copy()
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")

    def sample(self, s: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, KKTPoint]:
        """Returns (action, mean, kkt)."""
        mean = self(s)
        return mean + self.sigma * rng.standard_normal(self.spec.m), mean, self._warm

    def score(self, kkt: KKTPoint, a: np.ndarray, mean: np.ndarray) -> np.ndarray | None:
        """grad_phi log-density of action a; None at degenerate KKT points."""
        sens = jac_policy_wrt_params(self.spec, self.phi, kkt)
        if sens.regularity != "strict":
            return None
        return sens.jac_action.T @ ((a - mean) / self.sigma**2)


@dataclass
class ReinforceResult:
    grad: np.ndarray
    J_hat: float
    stderr: float
    dropped: int


def reinforce_gradient(
    env,
    policy: GaussianMPCPolicy,
    episodes: int,
    T: int,
    gamma: float,
    seed: int,
    baseline: RunningBaseline | None = None,
) -> ReinforceResult:
    """Score-function policy gradient over seeded episodes.

    grad = mean_e (G_e - b_e) * sum_t grad_phi log pi(a_t | s_t), with b the
    running-mean baseline read before each episode's update.  Timesteps with a
    degenerate policy sensitivity contribute nothing to the score and are
    counted in ``dropped``.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    gamma = check_gamma(gamma)
    baseline = baseline if baseline is not None else RunningBaseline()
    grads = []
    returns = np.empty(episodes)
    dropped = 0
    for ep in range(episodes):
        rng = episode_rng(seed, ep)
        score = np.zeros(policy.phi.size)

        def act(s):
            nonlocal dropped, score
            a, mean, kkt = policy.sample(s, rng)
            contrib = policy.score(kkt, a, mean)
            if contrib is None:
                dropped += 1
            else:
                score += contrib
            return a

        policy.reset()
        traj = rollout(env, act, T, seed, rng=rng)
        G = 0.0
        for t, tr in enumerate(traj.steps):
            G += gamma**t * tr.r
        b = baseline.value
        baseline.update(G)
        grads.append((G - b) * score)
        returns[ep] = G
    J_hat, stderr = mean_stderr(returns)
    if dropped:
        log.info("reinforce: dropped %d degenerate timesteps", dropped)
    return ReinforceResult(
        grad=np.mean(grads, axis=0), J_hat=J_hat, stderr=stderr, dropped=dropped
    )


@dataclass(frozen=True)
class ValueModel:
    """Quadratic state-value model, usable as an OCP terminal cost.

    Features [1, s, upper-triangular s s'], linear in ``weights``.  The model
    predicts a reward-sign value; negate for cost-sign use.
    """

    n: int
    weights: np.ndarray
    rmse: float = 0.0
    ridged: bool = False

    def _pairs(self):
        return [(i, j) for i in range(self.n) for j in range(i, self.n)]

    def feature_dim(self) -> int:
        return 1 + self.n + self.n * (self.n + 1) // 2

    def features(self, s: np.ndarray) -> np.ndarray:
        """Feature vectors of states s (..., n), shape (..., feature_dim)."""
        s = np.asarray(s, dtype=float)
        ones = np.ones(s.shape[:-1] + (1,))
        i, j = np.array(self._pairs()).T
        return np.concatenate([ones, s, s[..., i] * s[..., j]], axis=-1)

    def features_jac(self, s: np.ndarray) -> np.ndarray:
        """Per-feature state gradients, shape (feature_dim, n)."""
        s = np.asarray(s, dtype=float)
        J = np.zeros((self.feature_dim(), self.n))
        J[1 : 1 + self.n] = np.eye(self.n)
        for row, (i, j) in enumerate(self._pairs(), start=1 + self.n):
            J[row, i] += s[j]
            J[row, j] += s[i]
        return J

    def value(self, s: np.ndarray) -> float | np.ndarray:
        """Value of one state (n,) as a float, or of states (..., n) as an array."""
        v = self.features(s) @ self.weights
        return float(v) if np.ndim(v) == 0 else v

    def value_grad(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        g = self.weights[1 : 1 + self.n].copy()
        w = self.weights[1 + self.n :]
        for wij, (i, j) in zip(w, self._pairs()):
            g[i] += wij * s[j]
            g[j] += wij * s[i]
        return g

    def value_hess(self, s: np.ndarray) -> np.ndarray:
        Hm = np.zeros((self.n, self.n))
        w = self.weights[1 + self.n :]
        for wij, (i, j) in zip(w, self._pairs()):
            # the i == j case correctly lands 2*w_ii on the diagonal
            Hm[i, j] += wij
            Hm[j, i] += wij
        return Hm


def fit_value_function(states: np.ndarray, returns: np.ndarray) -> ValueModel:
    """Least-squares fit of a ValueModel to (state, return) pairs.

    A rank-deficient feature matrix falls back to a ridge solve (1e-8) and
    marks the model ``ridged``.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    returns = np.asarray(returns, dtype=float).ravel()
    if states.shape[0] == 0:
        raise ValueError("empty dataset")
    if states.shape[0] != returns.size:
        raise ValueError("states and returns disagree in length")
    if not np.all(np.isfinite(returns)) or not np.all(np.isfinite(states)):
        raise ValueError("non-finite dataset entry")
    n = states.shape[1]
    X = ValueModel(n=n, weights=np.zeros(1)).features(states)
    w, _, rank, _ = np.linalg.lstsq(X, returns, rcond=None)
    ridged = False
    if rank < X.shape[1]:
        ridged = True
        log.warning("value fit: rank-deficient features (%d < %d), using ridge", rank, X.shape[1])
        w = np.linalg.solve(X.T @ X + 1e-8 * np.eye(X.shape[1]), X.T @ returns)
    rmse = float(np.sqrt(np.mean((X @ w - returns) ** 2)))
    return ValueModel(n=n, weights=w, rmse=rmse, ridged=ridged)
