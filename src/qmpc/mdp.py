"""Core MDP machinery: transitions, trajectories, rollouts, and return estimates.

An environment exposes state dimension ``n``, action dimension ``m``,
``reset(rngs) -> S0`` and ``step(S, A, rngs) -> (rewards, S_next)`` on a stack
of B episodes: states (B, n), actions (B, m), rewards (B,) and one generator
per row.  Rewards are produced by the environment; agents never recompute
them.  All randomness flows through numpy generators derived from
``episode_rng(master_seed, episode)`` so that rollouts are reproducible and
independent across episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError


class Environment(Protocol):
    """Minimal interface a simulated environment must provide: a stack of
    episodes, row b drawing its randomness from ``rngs[b]`` alone."""

    n: int
    m: int

    def reset(self, rngs: Sequence[np.random.Generator]) -> np.ndarray: ...

    def step(
        self, S: np.ndarray, A: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s') experience tuple."""

    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray

    def __post_init__(self):
        if self.s.shape != self.s_next.shape:
            raise DimensionError(
                f"state {self.s.shape} and next state {self.s_next.shape} differ"
            )
        if not np.isfinite(self.r):
            raise ValueError("non-finite reward in transition")


@dataclass(frozen=True)
class Trajectory:
    """An ordered run of transitions produced under a single seed.

    Consecutive transitions chain exactly: ``steps[t].s_next is steps[t+1].s``
    up to value equality.
    """

    steps: tuple[Transition, ...]
    seed: int

    def __post_init__(self):
        for t in range(len(self.steps) - 1):
            if not np.array_equal(self.steps[t].s_next, self.steps[t + 1].s):
                raise ValueError(f"trajectory chaining broken between steps {t} and {t + 1}")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([tr.r for tr in self.steps])

    @property
    def states(self) -> np.ndarray:
        """All visited states, shape (T+1, n)."""
        out = [self.steps[0].s] + [tr.s_next for tr in self.steps]
        return np.stack(out)


def check_gamma(gamma: float) -> float:
    """Validate a discount factor, which must lie strictly inside (0, 1)."""
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"discount factor must be in (0, 1), got {gamma}")
    return gamma


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP with dense kernel P (nS, nA, nS) and rewards R (nS, nA)."""

    P: np.ndarray
    R: np.ndarray
    gamma: float

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        R = np.asarray(self.R, dtype=float)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "R", R)
        if P.ndim != 3 or P.shape[0] != P.shape[2] or R.shape != P.shape[:2]:
            raise DimensionError(f"inconsistent MDP shapes P{P.shape} R{R.shape}")
        if np.any(P < 0.0):
            raise ValueError("negative transition probability")
        row_sums = P.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if not np.all(np.isfinite(R)):
            raise ValueError("non-finite reward entry")
        check_gamma(self.gamma)

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def n_actions(self) -> int:
        return self.P.shape[1]


def episode_rng(master_seed: int, episode: int) -> np.random.Generator:
    """Generator for one episode, derived from (master seed, episode index).

    The pair seeds a fresh ``SeedSequence``, so distinct episodes get
    statistically independent streams and any episode can be reproduced
    without replaying the ones before it.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(episode)]))


Policy = Callable[[np.ndarray], np.ndarray]


def rollout(
    env: Environment,
    policy: Policy | Sequence[Policy],
    T: int,
    seed: int,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> Trajectory | list[Trajectory]:
    """Run ``policy`` in ``env`` for exactly ``T`` steps.

    A sequence of B policies runs B episodes in lockstep: each step asks every
    policy for its action, in episode order, and then steps the whole stack in
    one ``env.step`` call.  Episode b keeps its own policy and its own
    generator, which it consumes in the order a lone rollout would, so its
    trajectory is the one a rollout of that policy and generator gives.  One
    policy is the case B = 1.

    Args:
        env: environment instance; its episode state is re-initialized by
            ``reset``, so a single instance may be reused sequentially.
        policy: deterministic map from state to action, or one per episode.
        T: number of transitions, at least 1.
        seed: master seed recorded on the trajectories.
        rng: optional pre-built generator, or one per episode (for callers
            that manage their own seed derivation); episode b defaults to
            ``episode_rng(seed, b)``.

    Returns:
        The trajectory, or the list of B trajectories for a policy sequence.

    Raises:
        DimensionError: a policy returned an action of the wrong length.
        DivergenceError: a non-finite state appeared, with the episode and
            the step index.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    lockstep = not callable(policy)
    policies = list(policy) if lockstep else [policy]
    B = len(policies)
    if rng is None:
        rngs = [episode_rng(seed, b) for b in range(B)]
    else:
        rngs = list(rng) if lockstep else [rng]
    if B < 1 or len(rngs) != B:
        raise ValueError(f"{B} policies and {len(rngs)} generators: need one of each per episode")
    S = np.asarray(env.reset(rngs), dtype=float)
    if S.shape != (B, env.n):
        raise DimensionError(f"reset returned states of shape {S.shape}, expected ({B}, {env.n})")
    steps = [[] for _ in range(B)]
    for t in range(T):
        A = np.empty((B, env.m))
        for b, (pi, s) in enumerate(zip(policies, S)):
            a = np.asarray(pi(s), dtype=float)
            if a.shape != (env.m,):
                raise DimensionError(
                    f"policy returned action of shape {a.shape}, expected ({env.m},) "
                    f"in episode {b} at step {t}"
                )
            A[b] = a
        try:
            R, S_next = env.step(S, A, rngs)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} at step {t}", step=t) from exc
        S_next = np.asarray(S_next, dtype=float)
        finite = np.isfinite(S_next).all(axis=1)
        if not finite.all():
            b = int(np.argmin(finite))
            raise DivergenceError(f"non-finite state in episode {b} at step {t}", step=t)
        for b, episode in enumerate(steps):
            episode.append(Transition(s=S[b], a=A[b], r=float(R[b]), s_next=S_next[b]))
        S = S_next
    trajs = [Trajectory(steps=tuple(episode), seed=int(seed)) for episode in steps]
    return trajs if lockstep else trajs[0]


def discounted_return(traj: Trajectory, gamma: float) -> float:
    """Sum of gamma^t r_t over the trajectory.

    Truncation at T steps approximates the infinite-horizon return with error
    at most gamma^T * r_max / (1 - gamma) on bounded-reward environments.
    """
    gamma = check_gamma(gamma)
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    rewards = traj.rewards
    weights = gamma ** np.arange(len(rewards))
    return float(weights @ rewards)


def estimate_J(
    env: Environment,
    policy: Callable[[np.ndarray], np.ndarray],
    episodes: int,
    T: int,
    gamma: float,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the discounted objective under ``policy``.

    The episodes run in lockstep, episode ``ep`` on ``episode_rng(seed, ep)``,
    so ``policy`` must be a stateless map.  Returns the sample mean over
    ``episodes`` independent seeded rollouts and the standard error (sample
    std / sqrt(episodes); zero for one episode).
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    trajs = rollout(env, [policy] * episodes, T, seed)
    return mean_stderr(np.array([discounted_return(traj, gamma) for traj in trajs]))


def mean_stderr(returns: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-episode returns and its standard error (sample std
    / sqrt(episodes); zero for one episode)."""
    episodes = len(returns)
    mean = float(np.mean(returns))
    stderr = 0.0 if episodes == 1 else float(np.std(returns, ddof=1) / np.sqrt(episodes))
    return mean, stderr
