"""Case-study environments: a linear-quadratic system and an exothermic
continuous stirred tank reactor (CSTR).

The reactor follows the standard four-state benchmark model with states
(c_A, c_B, T_R, T_K) — concentrations of species A and B, reactor and coolant
temperatures — and inputs (F, Q_dot) — normalized feed flow and cooling power.
All physical constants come from the experiment config; none live in code.
Integration is fixed-step RK4 for bitwise reproducibility.  One kernel serves
every call: the states are stacked as (4, ...) so that each RK4 stage update
costs one ufunc call per operation for the whole batch, and one state is the
case where ... is empty and every column is an np.float64 scalar.  Every state
sees the same operations in the same order, so a batch row equals its
one-state call bit for bit; that is why each square is written as a product
(on a scalar, ``** 2`` calls libm pow, which now and then rounds differently
from the product an array's ``** 2`` computes).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DivergenceError
from .mdp import Trajectory
from .ocp import OCPSpec, ParameterVector, _matvec, _quad, _tile

log = logging.getLogger(__name__)

_CSTR_PARAMS = (
    "K0_ab",
    "K0_bc",
    "K0_ad",
    "E_A_ab",
    "E_A_bc",
    "E_A_ad",
    "H_R_ab",
    "H_R_bc",
    "H_R_ad",
    "rho",
    "Cp",
    "Cp_k",
    "A_R",
    "V_R",
    "m_k",
    "T_in",
    "K_w",
    "C_A0",
)


@dataclass(frozen=True)
class LQEnvConfig:
    """Linear dynamics with quadratic reward and Gaussian state noise."""

    A: np.ndarray
    B: np.ndarray
    Qc: np.ndarray
    Rc: np.ndarray
    noise_std: np.ndarray
    x0_lo: np.ndarray
    x0_hi: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "Qc", "Rc", "noise_std", "x0_lo", "x0_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n, m = self.B.shape
        if self.A.shape != (n, n) or self.Qc.shape != (n, n) or self.Rc.shape != (m, m):
            raise DimensionError("inconsistent LQ config shapes")
        if self.noise_std.shape != (n,) or np.any(self.noise_std < 0):
            raise ValueError("noise_std must be a nonnegative per-state vector")
        if self.x0_lo.shape != (n,) or self.x0_hi.shape != (n,) or np.any(self.x0_lo > self.x0_hi):
            raise ValueError("empty initial-state box")
        if np.any(np.linalg.eigvalsh(0.5 * (self.Rc + self.Rc.T)) <= 0):
            raise ValueError("Rc must be positive definite")


def _per_row(rng, draw):
    """draw(rng) for one generator, or the stack of draw(g) over a sequence of
    generators, one per row."""
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.array([draw(g) for g in rng])


def lq_step(cfg: LQEnvConfig, s, a, rng):
    """One step: s' = As + Ba + w, r = -(s'Qc s + a'Rc a), for one state with
    one generator or a stack of states (B, n) with one generator per row.

    The stacked products round every row as they round one state (a plain
    batched product, S @ A.T, would not), and each row draws its noise from
    its own generator, in row order.
    """
    s, a = np.asarray(s, float), np.asarray(a, float)
    r = -(_quad(s, cfg.Qc) + _quad(a, cfg.Rc))
    noise = _per_row(rng, lambda g: g.standard_normal(s.shape[-1]))
    return r, _matvec(cfg.A, s) + _matvec(cfg.B, a) + cfg.noise_std * noise


class LQEnv:
    """Environment wrapper over lq_step; initial states uniform in a box.

    ``reset`` and ``step`` take one state with one generator, or a stack of
    states (B, n) with one generator per row; a stack steps in one lq_step
    call.
    """

    def __init__(self, cfg: LQEnvConfig):
        self.cfg = cfg
        self.n, self.m = cfg.B.shape

    def reset(self, rng) -> np.ndarray:
        return _per_row(rng, lambda g: g.uniform(self.cfg.x0_lo, self.cfg.x0_hi))

    def step(self, s, a, rng):
        return lq_step(self.cfg, s, a, rng)


@dataclass(frozen=True)
class CSTRConfig:
    """Reactor constants, integrator setup, boxes, and reward weights.

    ode_params must supply every named reaction/thermal constant; reward is
    r = -w_track*(c_B - setpoint)^2 - sum_i w_move_i*(a_i - a_prev_i)^2.
    """

    ode_params: dict
    dt: float
    substeps: int
    state_lo: np.ndarray
    state_hi: np.ndarray
    input_lo: np.ndarray
    input_hi: np.ndarray
    setpoint: float
    w_track: float
    w_move: np.ndarray
    reference_input: np.ndarray
    x0_lo: np.ndarray
    x0_hi: np.ndarray

    def __post_init__(self):
        ode = self.ode_params
        if not isinstance(ode, dict) or not all(isinstance(v, (int, float)) for v in ode.values()):
            raise ValueError("ode_params: expected a flat mapping of numbers")
        object.__setattr__(self, "ode_params", {k: float(v) for k, v in ode.items()})
        missing = [k for k in _CSTR_PARAMS if k not in self.ode_params]
        if missing:
            raise ValueError(f"missing reactor constants: {missing}")
        # the kernel's constants divide by these on Python floats, where a zero raises
        if not all(self.ode_params[k] > 0 for k in ("rho", "Cp", "V_R", "m_k", "Cp_k")):
            raise ValueError("reactor constants rho, Cp, V_R, m_k and Cp_k must be positive")
        for name in ("state_lo", "state_hi", "input_lo", "input_hi", "w_move",
                     "reference_input", "x0_lo", "x0_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.dt <= 0 or self.substeps < 1:
            raise ValueError("dt must be positive and substeps >= 1")
        if self.state_lo.shape != (4,) or self.state_hi.shape != (4,):
            raise DimensionError("state box must cover the four reactor states")
        if self.input_lo.shape != (2,) or self.input_hi.shape != (2,):
            raise DimensionError("input box must cover the two reactor inputs")
        if np.any(self.state_lo >= self.state_hi) or np.any(self.input_lo >= self.input_hi):
            raise ValueError("empty state or input box")
        if self.w_track < 0 or np.any(self.w_move < 0):
            raise ValueError("reward weights must be nonnegative")

    @cached_property
    def _rk4(self) -> tuple["_Constants", "_Constants"]:
        """The RK4 kernel's constants: (one-state form, batch form)."""
        h = self.dt / self.substeps
        p = self.ode_params
        return _Constants(p, h, batch=False), _Constants(p, h, batch=True)


class _Constants:
    """The RK4 kernel's constants for one call kind, derived once per config
    by the Python-float expressions the formulas would otherwise evaluate on
    every call: Python floats for one state (np.float64 columns), 0-d float64
    arrays for a batch.  Each form is the cheaper operand for its call kind.
    """

    def __init__(self, p: dict, h: float, batch: bool):
        rcp, kwa, mcp = p["rho"] * p["Cp"], p["K_w"] * p["A_R"], p["m_k"] * p["Cp_k"]
        rcpV = rcp * p["V_R"]
        values = {k: p[k] for k in ("K0_ab", "K0_bc", "K0_ad", "E_A_ab", "E_A_bc", "E_A_ad",
                                    "H_R_ab", "H_R_bc", "H_R_ad", "C_A0", "T_in")}
        values.update(
            T0=273.15,  # theta = T_R + T0, the reactor temperature in Kelvin
            negE_ab=-p["E_A_ab"], negE_bc=-p["E_A_bc"], negE_ad=-p["E_A_ad"],
            neg_rcp=-rcp, kwa=kwa, rcpV=rcpV, mcp=mcp,
            kwr=kwa / rcpV, kwk=kwa / mcp, neg_kwk=-(kwa / mcp), inv_mcp=1.0 / mcp,
            half_h=0.5 * h, h=h, h6=h / 6.0, two=2.0,
        )
        self.__dict__.update({k: np.array(v) for k, v in values.items()} if batch else values)


def _rhs(c: _Constants, x, u):
    """Reactor ODE at state x = (c_A, c_B, T_R, T_K) under inputs u = (F, Qd):
    the four derivatives and the rates (theta, k1, k2, k3) there."""
    c_A, c_B, T_R, T_K = x
    F, Qd = u
    theta = T_R + c.T0
    k1 = c.K0_ab * np.exp(c.negE_ab / theta)
    k2 = c.K0_bc * np.exp(c.negE_bc / theta)
    k3 = c.K0_ad * np.exp(c.negE_ad / theta)
    k1cA, k2cB, k3cA2 = k1 * c_A, k2 * c_B, k3 * (c_A * c_A)
    d_cA = F * (c.C_A0 - c_A) - k1cA - k3cA2
    d_cB = -F * c_B + k1cA - k2cB
    d_TR = (
        (k1cA * c.H_R_ab + k2cB * c.H_R_bc + k3cA2 * c.H_R_ad) / c.neg_rcp
        + F * (c.T_in - T_R)
        + c.kwa * (T_K - T_R) / c.rcpV
    )
    d_TK = (Qd + c.kwa * (T_R - T_K)) / c.mcp
    return (d_cA, d_cB, d_TR, d_TK), (theta, k1, k2, k3)


def _rhs_jac(c: _Constants, x, u, rates):
    """(d rhs/d state (..., 4, 4), d rhs/d input (..., 4, 2)) at state x under
    inputs u, from the rates :func:`_rhs` returned at the same point."""
    c_A, c_B, T_R, _ = x
    F, _ = u
    negF = -F
    theta, k1, k2, k3 = rates
    theta2 = theta * theta
    dk1cA = k1 * c.E_A_ab / theta2 * c_A
    dk2cB = k2 * c.E_A_bc / theta2 * c_B
    dk3cA2 = k3 * c.E_A_ad / theta2 * (c_A * c_A)
    two_k3cA = c.two * k3 * c_A
    j00 = negF - k1 - two_k3cA  # spans the batch: it reads F and the state
    Jx = np.zeros(np.shape(j00) + (4, 4))
    Jx[..., 0, 0] = j00
    Jx[..., 0, 2] = -(dk1cA + dk3cA2)
    Jx[..., 1, 0] = k1
    Jx[..., 1, 1] = negF - k2
    Jx[..., 1, 2] = dk1cA - dk2cB
    Jx[..., 2, 0] = (k1 * c.H_R_ab + two_k3cA * c.H_R_ad) / c.neg_rcp
    Jx[..., 2, 1] = k2 * c.H_R_bc / c.neg_rcp
    Jx[..., 2, 2] = (
        (dk1cA * c.H_R_ab + dk2cB * c.H_R_bc + dk3cA2 * c.H_R_ad) / c.neg_rcp - F - c.kwr
    )
    Jx[..., 2, 3] = c.kwr
    Jx[..., 3, 2] = c.kwk
    Jx[..., 3, 3] = c.neg_kwk
    Ju = np.zeros(Jx.shape[:-1] + (2,))
    Ju[..., 0, 0] = c.C_A0 - c_A
    Ju[..., 1, 0] = -c_B
    Ju[..., 2, 0] = c.T_in - T_R
    Ju[..., 3, 1] = c.inv_mcp
    return Jx, Ju


def _rk4_substep(c: _Constants, x: np.ndarray, u, K: np.ndarray):
    """One RK4 substep of a stacked (4, ...) state x, each stage's slopes
    written into the preallocated (4, 4, ...) K: the next state, and the four
    stage points, each with the rates :func:`_rhs` found there."""
    stages, xs = [], x
    for k, w in zip(K, (c.half_h, c.half_h, c.h, None)):
        rows, rates = _rhs(c, xs, u)
        k[0], k[1], k[2], k[3] = rows
        stages.append((xs, rates))
        if w is not None:
            xs = x + w * k
    return x + c.h6 * (K[0] + c.two * K[1] + c.two * K[2] + K[3]), stages


def _to_last(v: np.ndarray) -> np.ndarray:
    """A stacked (k, ...) array's view as (..., k)."""
    return v.transpose((*range(1, v.ndim), 0))


def _stacked(cfg: CSTRConfig, s: np.ndarray, a: np.ndarray):
    """The kernel's inputs: the constants for its columns, states stacked as
    (4, ...), inputs (F, Qd) and the (4, 4, ...) stage array, where ...
    broadcasts the leading axes of s and a (and is empty for one state: then
    the columns are np.float64 scalars, and the one-state constants serve)."""
    lead = np.broadcast(s[..., 0], a[..., 0]).shape
    x, U = np.empty((4,) + lead), np.empty((2,) + lead)
    _to_last(x)[...] = s
    _to_last(U)[...] = a
    F, Qd = U
    one, batch = cfg._rk4
    return batch if lead else one, x, (F, Qd), np.empty((4, 4) + lead)


def cstr_discrete(cfg: CSTRConfig, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """State after one control interval dt (substep-subdivided RK4); batched."""
    c, x, u, K = _stacked(cfg, np.asarray(s, dtype=float), np.asarray(a, dtype=float))
    for _ in range(cfg.substeps):
        x, _ = _rk4_substep(c, x, u, K)
    return _to_last(x).copy()


def cstr_discrete_jac(cfg: CSTRConfig, s: np.ndarray, a: np.ndarray):
    """State after one control interval and its Jacobians, from one RK4 pass.

    Returns (x_next (..., 4), d x_next/d s (..., 4, 4), d x_next/d a (..., 4, 2)),
    chaining the RK4 stage derivatives; broadcasts over leading batch axes.
    x_next equals :func:`cstr_discrete` bit for bit.  The pass integrates
    first, then takes the right-hand-side Jacobians at all 4 * substeps stage
    points in one :func:`_rhs_jac` call on a leading stage axis (elementwise,
    so each stage's Jacobians are the ones a call of its own gives).
    """
    h = cfg.dt / cfg.substeps
    c, x, u, K = _stacked(cfg, np.asarray(s, dtype=float), np.asarray(a, dtype=float))
    stages = []
    for _ in range(cfg.substeps):
        x, substages = _rk4_substep(c, x, u, K)
        stages += substages
    points = np.stack([xs for xs, _ in stages], axis=1)  # (4, 4 * substeps, ...)
    rates = np.stack([r for _, r in stages], axis=1)
    Jx_stages, Ju_stages = _rhs_jac(cfg._rk4[1], points, u, rates)
    eye = np.eye(4)
    Jx_tot, Ju_tot = eye, np.zeros((4, 2))  # the batch axes arrive via Sx
    for k in range(0, len(stages), 4):
        (A1, A2, A3, A4), (B1, B2, B3, B4) = Jx_stages[k : k + 4], Ju_stages[k : k + 4]
        # stagewise chain rule for dk_i/dx and dk_i/du
        D1x, D1u = A1, B1
        D2x = A2 @ (eye + 0.5 * h * D1x)
        D2u = B2 + A2 @ (0.5 * h * D1u)
        D3x = A3 @ (eye + 0.5 * h * D2x)
        D3u = B3 + A3 @ (0.5 * h * D2u)
        D4x = A4 @ (eye + h * D3x)
        D4u = B4 + A4 @ (h * D3u)
        Sx = eye + (h / 6.0) * (D1x + 2 * D2x + 2 * D3x + D4x)
        Su = (h / 6.0) * (D1u + 2 * D2u + 2 * D3u + D4u)
        Ju_tot = Sx @ Ju_tot + Su
        Jx_tot = Sx @ Jx_tot
    return _to_last(x).copy(), Jx_tot, Ju_tot


def cstr_step(
    cfg: CSTRConfig, s: np.ndarray, a: np.ndarray, a_prev: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """One reward-and-transition step of the reactor; batched.

    The move penalty needs the previously applied input; environment wrappers
    track it so policies stay state-feedback.  States (..., 4), inputs and
    previous inputs (..., 2) give rewards (...) and next states (..., 4), each
    row equal to its one-state call bit for bit: the tracking square calls
    libm pow per entry, as a one-state ``err ** 2`` does, and the move penalty
    is one dot product per row, as in :func:`build_cstr_ocp`'s stage cost (a
    matrix-vector product over the rows rounds differently).

    Raises:
        DivergenceError: integration produced a non-finite state.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    err = cfg.setpoint - s[..., 1]
    move = a - np.asarray(a_prev, dtype=float)
    r = -cfg.w_track * np.float_power(err, 2) - (cfg.w_move @ move[..., None] ** 2)[..., 0]
    s_next = cstr_discrete(cfg, s, a)
    finite = np.isfinite(s_next).all(axis=-1)
    if not finite.all():
        where = "" if s.ndim == 1 else f" in row {int(np.argmin(finite))}"
        raise DivergenceError(f"reactor integration diverged{where}")
    conc = s_next[..., :2]
    if np.any(conc < 0.0):
        log.info("clipped negative concentration %s to 0", conc)
        conc[...] = np.maximum(conc, 0.0)
    return r, s_next


class CSTREnv:
    """Reactor environment; initial states uniform in a (possibly degenerate)
    box, previous input tracked internally for the move penalty.

    ``reset`` and ``step`` take one state with one generator, or a stack of
    states (B, 4) with one generator per row, which steps in one
    :func:`cstr_step` call; the reactor draws no noise.
    """

    n = 4
    m = 2

    def __init__(self, cfg: CSTRConfig):
        self.cfg = cfg
        self._a_prev = cfg.reference_input.copy()

    def reset(self, rng) -> np.ndarray:
        s0 = _per_row(rng, lambda g: g.uniform(self.cfg.x0_lo, self.cfg.x0_hi))
        self._a_prev = np.broadcast_to(self.cfg.reference_input, s0.shape[:-1] + (2,)).copy()
        return s0

    def step(self, s, a, rng):
        r, s_next = cstr_step(self.cfg, s, a, self._a_prev)
        self._a_prev = np.asarray(a, dtype=float).copy()
        return r, s_next


def constraint_violation_count(traj, state_lo, state_hi, tol: float = 1e-9) -> int:
    """Number of visited post-step states strictly outside the closed box.

    Accepts a Trajectory (counts each transition's landing state) or a
    (T, n) array of states.
    """
    if isinstance(traj, Trajectory):
        states = traj.states[1:]
    else:
        states = np.atleast_2d(np.asarray(traj, dtype=float))
    lo = np.asarray(state_lo, dtype=float)
    hi = np.asarray(state_hi, dtype=float)
    outside = (states < lo - tol) | (states > hi + tol)
    return int(np.sum(np.any(outside, axis=1)))


def build_cstr_ocp(
    cfg: CSTRConfig,
    H: int,
    gamma: float,
    terminal_weights: np.ndarray,
    discount_in_horizon: bool = True,
) -> tuple[OCPSpec, ParameterVector]:
    """Tracking OCP over the reactor's dt-discretized dynamics.

    Stage cost: w_track*(c_B - setpoint)^2 + sum_i w_move_i*(u_i - u_ref_i)^2
    (the move penalty is anchored to the reference input so the stage cost
    stays a pure state-input function).  Terminal cost is the negated
    reward-sign quadratic value model defined by ``terminal_weights`` — its
    weights form the single learnable segment "V", so the stage and dynamics
    phi-derivatives are left None.  Inequalities put box
    constraints on inputs and states.

    Returns (spec, phi0) with phi0 holding the terminal weights.
    """
    from .rl import ValueModel  # deferred: rl imports solver machinery

    phi0 = ParameterVector.from_segments({"V": np.asarray(terminal_weights, dtype=float)})
    p = phi0.size
    n, m = 4, 2
    u_ref = cfg.reference_input
    sp = cfg.setpoint
    wt, wm = cfg.w_track, cfg.w_move

    def vmodel(pv):
        return ValueModel(n=n, weights=pv.segment("V"))

    expected_dim = vmodel(phi0).feature_dim()
    if p != expected_dim:
        raise DimensionError(
            f"terminal weights have {p} entries, feature basis needs {expected_dim}"
        )

    # float_power calls libm pow per entry, as (x[1] - sp) ** 2 of one stage's
    # scalar does; the array ** 2 squares instead and rounds differently
    def stage_cost(x, u, pv):
        du = u - u_ref
        return wt * np.float_power(x[..., 1] - sp, 2) + (wm @ du[..., None] ** 2)[..., 0]

    def stage_grad(x, u, pv):
        gx = np.zeros(x.shape)
        gx[..., 1] = 2.0 * wt * (x[..., 1] - sp)
        return gx, 2.0 * wm * (u - u_ref)

    def stage_hess(x, u, pv):
        hxx = np.zeros((n, n))
        hxx[1, 1] = 2.0 * wt
        return _tile(x.shape[:-1], hxx, np.zeros((n, m)), np.diag(2.0 * wm))

    def terminal_cost(x, pv):
        return -vmodel(pv).value(x)

    def terminal_grad(x, pv):
        return -vmodel(pv).value_grad(x)

    def terminal_hess(x, pv):
        return -vmodel(pv).value_hess(x)

    def terminal_phi(x, pv):
        return -vmodel(pv).features(x)

    def terminal_grad_phi_vp(x, pv, dx):
        return -vmodel(pv).features_jac(x) @ dx

    def dynamics_jac(x, u, pv):
        return cstr_discrete_jac(cfg, x, u)

    rows_u = np.vstack([np.eye(m), -np.eye(m)])
    off_u = np.concatenate([-cfg.input_hi, cfg.input_lo])
    rows_x = np.vstack([np.eye(n), -np.eye(n)])
    off_x = np.concatenate([-cfg.state_hi, cfg.state_lo])
    n_ineq = 2 * m + 2 * n

    def ineq_constraints(x, u, pv):
        return np.concatenate([_matvec(rows_u, u) + off_u, _matvec(rows_x, x) + off_x], axis=-1)

    def ineq_jac(x, u, pv):
        hx = np.vstack([np.zeros((2 * m, n)), rows_x])
        hu = np.vstack([rows_u, np.zeros((rows_x.shape[0], m))])
        return _tile(x.shape[:-1], hx, hu)

    spec = OCPSpec(
        H=H,
        n=n,
        m=m,
        gamma=float(gamma),
        discount_in_horizon=discount_in_horizon,
        stage_cost=stage_cost,
        stage_grad=stage_grad,
        stage_hess=stage_hess,
        terminal_cost=terminal_cost,
        terminal_grad=terminal_grad,
        terminal_hess=terminal_hess,
        terminal_phi=terminal_phi,
        terminal_grad_phi_vp=terminal_grad_phi_vp,
        dynamics_jac=dynamics_jac,
        dynamics_hess_vp=None,  # Gauss-Newton treatment of the reactor model
        n_ineq=n_ineq,
        ineq_constraints=ineq_constraints,
        ineq_jac=ineq_jac,
        u_init=cfg.reference_input.copy(),
    )
    return spec, phi0
