"""Parametric finite-horizon optimal-control problems.

An :class:`OCPSpec` bundles the horizon, dimensions, and callbacks for stage
cost, terminal cost, dynamics, and constraints, each carrying its derivatives.
All callbacks take a :class:`ParameterVector` so the same spec can be re-solved
as parameters are learned.  The canonical problem is

    minimize   sum_k w_k * l(x_k, u_k, phi)  +  w_H * V(x_H, phi)
    subject to x_{k+1} = f(x_k, u_k, phi),  h(x_k, u_k, phi) <= 0,
               x_0 = s  (and optionally u_0 = a),

with w_k = gamma^k when in-horizon discounting is on, else w_k = 1.  The
objective is a cost: smaller is better.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionError

FD_REL_TOL = 1e-4

# every callback but the terminal ones takes a batch of stages; each entry
# names the arguments it takes after (X, U, phi): dynamics multipliers "lam",
# and state and input directions "dx", "du"
STAGE_CALLBACKS = {
    "stage_cost": (), "stage_grad": (), "stage_hess": (), "stage_phi": (),
    "stage_grad_phi_vp": ("dx", "du"), "dynamics_jac": (),
    "dynamics_phi_vp": ("lam",), "dynamics_jac_phi_vp": ("lam", "dx", "du"),
    "dynamics_hess_vp": ("lam",), "ineq_constraints": (), "ineq_jac": (),
}


@dataclass(frozen=True)
class ParameterVector:
    """Flat parameter vector with a named segment layout.

    ``layout`` maps segment names to (start, stop) offsets that partition
    ``phi`` exactly, in order.  Instances are immutable; updates go through
    :meth:`replace` or :meth:`with_vector`.
    """

    phi: np.ndarray
    layout: dict[str, tuple[int, int]]

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 1:
            raise DimensionError("phi must be a flat vector")
        if not np.all(np.isfinite(phi)):
            raise ValueError("non-finite parameter entry")
        cursor = 0
        for name, (start, stop) in self.layout.items():
            if start != cursor or stop < start:
                raise ValueError(f"segment '{name}' breaks the layout partition")
            cursor = stop
        if cursor != phi.size:
            raise ValueError(f"layout covers {cursor} entries, phi has {phi.size}")

    @classmethod
    def from_segments(cls, segments: dict[str, np.ndarray]) -> "ParameterVector":
        """Build from named arrays; each is flattened row-major in given order."""
        layout = {}
        parts = []
        cursor = 0
        for name, arr in segments.items():
            flat = np.asarray(arr, dtype=float).ravel()
            layout[name] = (cursor, cursor + flat.size)
            cursor += flat.size
            parts.append(flat)
        phi = np.concatenate(parts) if parts else np.zeros(0)
        return cls(phi=phi, layout=layout)

    @property
    def size(self) -> int:
        return self.phi.size

    def segment(self, name: str) -> np.ndarray:
        start, stop = self.layout[name]
        return self.phi[start:stop].copy()

    def replace(self, name: str, values: np.ndarray) -> "ParameterVector":
        """New vector with one segment overwritten (values flattened row-major)."""
        start, stop = self.layout[name]
        flat = np.asarray(values, dtype=float).ravel()
        if flat.size != stop - start:
            raise DimensionError(
                f"segment '{name}' has {stop - start} entries, got {flat.size}"
            )
        phi = self.phi.copy()
        phi[start:stop] = flat
        return ParameterVector(phi=phi, layout=self.layout)

    def with_vector(self, phi: np.ndarray) -> "ParameterVector":
        """Same layout, new values."""
        return ParameterVector(phi=np.asarray(phi, dtype=float), layout=self.layout)


@dataclass(frozen=True)
class OCPSpec:
    """Immutable description of a parametric OCP; callbacks must be pure.

    Nine callbacks are required: the stage cost with ``stage_grad`` and
    ``stage_hess``, the terminal cost with ``terminal_grad``,
    ``terminal_hess``, ``terminal_phi`` and ``terminal_grad_phi_vp``, and
    ``dynamics_jac``, the one model callback.

    Every stage callback takes a batch of stages, states X (..., n) and
    inputs U (..., m), and returns its result with the same leading axes, so
    all H stages take one call; one stage is the batch without leading axes.
    Multipliers Lam (..., n) and directions dX (..., n), dU (..., m) come in
    with the same leading axes.  Only the terminal callbacks take the single
    state x_H (n,).  For p = phi.size:
      stage_cost      -> l (...)
      stage_grad      -> (l_x (..., n), l_u (..., m))
      stage_hess      -> (l_xx (..., n,n), l_xu (..., n,m), l_uu (..., m,m))
      dynamics_jac    -> (F (..., n), f_x (..., n,n), f_u (..., n,m)): the
          successor states f(X, U, phi) and their Jacobians
      terminal_grad   -> V_x (n,)
      terminal_hess   -> V_xx (n,n)

    Stage inequalities h(x, u, phi) <= 0 have n_ineq rows; with n_ineq > 0,
    ``ineq_constraints`` -> h (..., n_ineq) and ``ineq_jac`` ->
    (h_x (..., n_ineq,n), h_u (..., n_ineq,m)) are required, and with
    n_ineq == 0 both stay None.  The inequalities may not depend on phi.

    Every phi-derivative is a vector-Jacobian product: the phi-gradient of a
    scalar, the cost itself or a term contracted with a multiplier or a
    direction, so none builds a matrix p wide.
      terminal_phi                     -> dV/dphi (p,)
      terminal_grad_phi_vp(x,phi,dx)   -> d(V_x.dx)/dphi (p,)
      stage_phi                        -> dl/dphi (..., p)
      stage_grad_phi_vp(X,U,phi,dX,dU) -> d(l_x.dX + l_u.dU)/dphi (..., p)
      dynamics_phi_vp(X,U,phi,Lam)     -> d(Lam.f)/dphi (..., p)
      dynamics_jac_phi_vp(X,U,phi,Lam,dX,dU) -> d(Lam.(f_x dX + f_u dU))/dphi (..., p)
    The stage and dynamics ones are optional.  None means "this term does not
    depend on phi": the sensitivities skip it, and ``validate_spec`` still
    checks that the parent callback does not move with phi.

    ``dynamics_hess_vp(X,U,phi,Lam)`` -> (..., n+m, n+m) sum_i lam_i * hess f_i
    is the dynamics curvature.  A callback that returns zeros declares a linear
    model, so the Lagrangian Hessian is exact; None requests a Gauss-Newton
    treatment that drops the curvature, and the sensitivities then mark their
    results approximate.
    """

    H: int
    n: int
    m: int
    gamma: float
    discount_in_horizon: bool
    stage_cost: Callable
    stage_grad: Callable
    stage_hess: Callable
    terminal_cost: Callable
    terminal_grad: Callable
    terminal_hess: Callable
    terminal_phi: Callable
    terminal_grad_phi_vp: Callable
    dynamics_jac: Callable
    stage_phi: Callable | None = None
    stage_grad_phi_vp: Callable | None = None
    dynamics_phi_vp: Callable | None = None
    dynamics_jac_phi_vp: Callable | None = None
    dynamics_hess_vp: Callable | None = None
    n_ineq: int = 0
    ineq_constraints: Callable | None = None
    ineq_jac: Callable | None = None
    # input used when rolling out a cold-start iterate; zero when omitted
    u_init: np.ndarray | None = None

    def __post_init__(self):
        if self.H < 1:
            raise ValueError(f"horizon must be >= 1, got {self.H}")
        if self.n < 1 or self.m < 1:
            raise DimensionError("state and input dimensions must be positive")
        if self.u_init is not None and np.asarray(self.u_init).shape != (self.m,):
            raise DimensionError("u_init must have shape (m,)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if (self.n_ineq > 0) != (self.ineq_constraints is not None):
            raise ValueError("n_ineq inconsistent with ineq_constraints")
        if self.n_ineq > 0 and self.ineq_jac is None:
            raise ValueError("n_ineq > 0 requires ineq_jac")
        if self.n_ineq == 0 and self.ineq_jac is not None:
            raise ValueError("n_ineq == 0 leaves no rows for ineq_jac")

    def stage_weights(self) -> tuple[np.ndarray, float]:
        """(w_0..w_{H-1}, w_H): gamma powers, or all ones when discounting is
        off.  Computed once per spec; the array is read-only."""
        return self._weights

    @cached_property
    def _weights(self) -> tuple[np.ndarray, float]:
        if self.discount_in_horizon:
            w, wH = self.gamma ** np.arange(self.H), self.gamma**self.H
        else:
            w, wH = np.ones(self.H), 1.0
        w.flags.writeable = False
        return w, wH


def _tile(batch: tuple, *blocks) -> tuple:
    """The same blocks, each filled into a new array, for every stage of ``batch``."""
    out = tuple(np.empty(batch + np.shape(b)) for b in blocks)
    for t, b in zip(out, blocks):
        t[...] = b
    return out


def _matvec(W: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W @ v for every stage of v (..., k), each rounded as W @ v of one stage."""
    return (W @ v[..., None])[..., 0]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-major vec of the outer product a b' for every stage of a (..., k),
    b (..., l): shape (..., k*l)."""
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (a.shape[-1] * b.shape[-1],))


def build_lq_ocp(
    A: np.ndarray,
    B: np.ndarray,
    Qc: np.ndarray,
    Rc: np.ndarray,
    P_term: np.ndarray,
    H: int,
    gamma: float,
    u_lo: np.ndarray | None = None,
    u_hi: np.ndarray | None = None,
    discount_in_horizon: bool = True,
) -> tuple[OCPSpec, ParameterVector]:
    """Linear-quadratic OCP with every matrix learnable.

    Stage cost x'Qx + u'Ru, terminal x'Px, dynamics Ax + Bu.  The parameter
    layout has segments "A", "B" (model), "Q", "R" (stage cost), "P"
    (terminal cost), each stored row-major; the callbacks read the matrices
    back from the parameter vector, so updating phi changes the problem.
    Optional elementwise input bounds become inequality rows [u - u_hi;
    u_lo - u] <= 0.

    Returns:
        (spec, phi0) where phi0 holds the passed-in matrices.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Qc = np.asarray(Qc, dtype=float)
    Rc = np.asarray(Rc, dtype=float)
    P_term = np.asarray(P_term, dtype=float)
    if B.ndim != 2:
        raise DimensionError("B must be a matrix")
    n, m = B.shape
    for name, M, shape in (
        ("A", A, (n, n)),
        ("Qc", Qc, (n, n)),
        ("Rc", Rc, (m, m)),
        ("P_term", P_term, (n, n)),
    ):
        if M.shape != shape:
            raise DimensionError(f"{name} has shape {M.shape}, expected {shape}")
    if np.any(np.linalg.eigvalsh(0.5 * (Rc + Rc.T)) <= 0.0):
        raise ValueError("Rc must be positive definite")

    phi0 = ParameterVector.from_segments({"A": A, "B": B, "Q": Qc, "R": Rc, "P": P_term})
    p = phi0.size
    sl = {name: slice(*phi0.layout[name]) for name in phi0.layout}

    shape = {"A": (n, n), "B": (n, m), "Q": (n, n), "R": (m, m), "P": (n, n)}

    def mat(pv, name):
        """One matrix, read back from the parameter vector."""
        return pv.phi[sl[name]].reshape(shape[name])

    # stacked matrix products round every stage exactly as x @ Q @ x and S @ x
    # do for one stage, which X @ S.T, einsum and elementwise sums do not, so
    # batching the stages leaves every LQ result unchanged
    def quad(v, W):
        return ((v[..., None, :] @ W) @ v[..., :, None])[..., 0, 0]

    def stage_cost(x, u, pv):
        Q, R = mat(pv, "Q"), mat(pv, "R")
        return quad(x, Q) + quad(u, R)

    def stage_grad(x, u, pv):
        Q, R = mat(pv, "Q"), mat(pv, "R")
        return _matvec(Q + Q.T, x), _matvec(R + R.T, u)

    def stage_hess(x, u, pv):
        Q, R = mat(pv, "Q"), mat(pv, "R")
        return _tile(x.shape[:-1], Q + Q.T, np.zeros((n, m)), R + R.T)

    def vec(**blocks):
        """The (..., p) vector holding each named segment's vec'd block."""
        batch = np.broadcast_shapes(*(b.shape[:-1] for b in blocks.values()))
        out = np.zeros(batch + (p,))
        for name, block in blocks.items():
            out[..., sl[name]] = block
        return out

    # every phi-derivative is linear in one matrix, so each is an outer product
    def stage_phi(x, u, pv):
        return vec(Q=_outer(x, x), R=_outer(u, u))

    def stage_grad_phi_vp(x, u, pv, dx, du):
        return vec(Q=_outer(dx, x) + _outer(x, dx), R=_outer(du, u) + _outer(u, du))

    def terminal_cost(x, pv):
        P = mat(pv, "P")
        return float(x @ P @ x)

    def terminal_grad(x, pv):
        P = mat(pv, "P")
        return (P + P.T) @ x

    def terminal_hess(x, pv):
        P = mat(pv, "P")
        return P + P.T

    def terminal_phi(x, pv):
        return vec(P=_outer(x, x))

    def terminal_grad_phi_vp(x, pv, dx):
        return vec(P=_outer(dx, x) + _outer(x, dx))

    def dynamics_jac(x, u, pv):
        Am, Bm = mat(pv, "A"), mat(pv, "B")
        F = _matvec(Am, x) + _matvec(Bm, u)
        return (F, *_tile(F.shape[:-1], Am, Bm))

    def dynamics_phi_vp(x, u, pv, lam):
        return vec(A=_outer(lam, x), B=_outer(lam, u))

    def dynamics_jac_phi_vp(x, u, pv, lam, dx, du):
        return vec(A=_outer(lam, dx), B=_outer(lam, du))

    def dynamics_hess_vp(x, u, pv, lam):
        return np.zeros(lam.shape[:-1] + (n + m, n + m))

    kwargs: dict = {}
    if u_lo is not None or u_hi is not None:
        if u_lo is None or u_hi is None:
            raise ValueError("provide both input bounds or neither")
        u_lo = np.broadcast_to(np.asarray(u_lo, dtype=float), (m,)).copy()
        u_hi = np.broadcast_to(np.asarray(u_hi, dtype=float), (m,)).copy()
        if np.any(u_lo >= u_hi):
            raise ValueError("input box is empty")
        n_ineq = 2 * m
        Hu = np.vstack([np.eye(m), -np.eye(m)])
        h_off = np.concatenate([-u_hi, u_lo])

        def ineq_constraints(x, u, pv):
            return _matvec(Hu, u) + h_off

        def ineq_jac(x, u, pv):
            return _tile(u.shape[:-1], np.zeros((n_ineq, n)), Hu)

        kwargs = dict(n_ineq=n_ineq, ineq_constraints=ineq_constraints, ineq_jac=ineq_jac)

    spec = OCPSpec(
        H=H,
        n=n,
        m=m,
        gamma=float(gamma),
        discount_in_horizon=discount_in_horizon,
        stage_cost=stage_cost,
        stage_grad=stage_grad,
        stage_hess=stage_hess,
        stage_phi=stage_phi,
        stage_grad_phi_vp=stage_grad_phi_vp,
        terminal_cost=terminal_cost,
        terminal_grad=terminal_grad,
        terminal_hess=terminal_hess,
        terminal_phi=terminal_phi,
        terminal_grad_phi_vp=terminal_grad_phi_vp,
        dynamics_jac=dynamics_jac,
        dynamics_phi_vp=dynamics_phi_vp,
        dynamics_jac_phi_vp=dynamics_jac_phi_vp,
        dynamics_hess_vp=dynamics_hess_vp,  # identically zero: linear model
        **kwargs,
    )
    return spec, phi0


def _fd_jac(fun, x, step_scale=1e-6):
    """Central differences of fun (scalar or array valued) along a vector x,
    stacked on a trailing axis: a gradient or a Jacobian."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = step_scale * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _finite(v) -> bool:
    return bool(np.all(np.isfinite(np.asarray(v, dtype=float))))


def _rel_dev(analytic, numeric) -> float:
    """max|analytic - numeric| / max(1, max|numeric|); inf when the shapes
    differ or either side holds a non-finite entry, so no tolerance passes a
    NaN."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    if analytic.shape != numeric.shape or not (_finite(analytic) and _finite(numeric)):
        return np.inf
    if not numeric.size:
        return 0.0
    return float(np.max(np.abs(analytic - numeric))) / max(1.0, float(np.max(np.abs(numeric))))


def _parts(result) -> tuple:
    """A callback's result as a tuple of its arrays."""
    return tuple(result) if isinstance(result, (tuple, list)) else (result,)


def _call(fn, *args):
    """fn(*args), or None for an optional callback that is not supplied."""
    return None if fn is None else fn(*args)


def validate_spec(
    spec: OCPSpec, phi: ParameterVector, rng: np.random.Generator | None = None
) -> list[str]:
    """Check callback shapes and derivative consistency by finite differences.

    Probes a handful of random points; every first derivative in x and u is
    compared against central differences of its parent callback at relative
    tolerance 1e-4.  Every phi-derivative is compared the same way against the
    phi-differences of its parent contracted with the random multiplier or
    directions it takes, so one check covers both the x and the u half of a
    Jacobian product.  A phi-derivative left None counts as an exact zero and
    is checked the same way, so a spec that declares None for a term that
    reads phi gets a finding; the inequalities must not move with phi at all.
    Every stage callback, given all probe points as one batch, must return
    the per-point results (relative tolerance 1e-12).  A callback that
    returns a non-finite value gets the one finding "<name>: returns
    non-finite values", and no comparison that meets such a value reports it
    again.
    Returns human-readable findings; empty means the spec passed.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    findings: list[str] = []
    n, m = spec.n, spec.m
    non_finite: list[str] = []  # callbacks that returned a NaN or inf, in order

    def recorded(name, fn):
        def call(*args):
            out = fn(*args)
            if name not in non_finite and not all(map(_finite, _parts(out))):
                non_finite.append(name)
            return out
        return call

    spec = replace(spec, **{f.name: recorded(f.name, getattr(spec, f.name))
                            for f in fields(spec) if callable(getattr(spec, f.name))})

    def dev_of(analytic, numeric):  # a named callback's NaN is not blamed again
        if non_finite and not (_finite(analytic) and _finite(numeric)):
            return 0.0
        return _rel_dev(analytic, numeric)

    def check(name, analytic, numeric):
        if analytic is None:  # a None phi-derivative declares an exact zero
            analytic, name = np.zeros(np.shape(numeric)), f"{name} (None)"
        dev = dev_of(analytic, numeric)
        shape_a = np.shape(analytic)
        shape_n = np.shape(numeric)
        if shape_a != shape_n:
            findings.append(f"{name}: shape {shape_a}, expected {shape_n}")
        elif dev > FD_REL_TOL:
            findings.append(f"{name}: max relative deviation {dev:.2e} vs finite differences")

    def check_phi(name, analytic, parent):
        """Check a phi-derivative against central differences in phi of
        parent(phi), the contraction it claims to differentiate."""
        try:
            numeric = _fd_jac(lambda v: parent(phi.with_vector(v)), phi.phi)
        except ValueError as exc:  # the parent's result has the wrong shape
            findings.append(f"{name}: its parent does not contract: {exc}")
            return
        check(name, analytic, numeric)

    def f(x, u, pv):  # the successor state alone
        return spec.dynamics_jac(x, u, pv)[0]

    X, U = rng.normal(size=(3, n)), rng.normal(size=(3, m))
    # multipliers and directions, by the argument names of STAGE_CALLBACKS
    args = {"lam": rng.normal(size=(3, n)), "dx": rng.normal(size=(3, n)),
            "du": rng.normal(size=(3, m))}
    for x, u, lam, dx, du in zip(X, U, args["lam"], args["dx"], args["du"]):
        lx, lu = spec.stage_grad(x, u, phi)
        check("stage_grad[x]", lx, _fd_jac(lambda v: spec.stage_cost(v, u, phi), x))
        check("stage_grad[u]", lu, _fd_jac(lambda v: spec.stage_cost(x, v, phi), u))
        lxx, lxu, luu = spec.stage_hess(x, u, phi)
        check("stage_hess[xx]", lxx, _fd_jac(lambda v: spec.stage_grad(v, u, phi)[0], x))
        check("stage_hess[xu]", lxu, _fd_jac(lambda v: spec.stage_grad(x, v, phi)[0], u))
        check("stage_hess[uu]", luu, _fd_jac(lambda v: spec.stage_grad(x, v, phi)[1], u))
        check("terminal_grad", spec.terminal_grad(x, phi),
              _fd_jac(lambda v: spec.terminal_cost(v, phi), x))
        check("terminal_hess", spec.terminal_hess(x, phi),
              _fd_jac(lambda v: spec.terminal_grad(v, phi), x))
        _, fx, fu = spec.dynamics_jac(x, u, phi)
        check("dynamics_jac[x]", fx, _fd_jac(lambda v: f(v, u, phi), x))
        check("dynamics_jac[u]", fu, _fd_jac(lambda v: f(x, v, phi), u))

        def grad_along(pv):  # l_x.dx + l_u.du
            gx, gu = spec.stage_grad(x, u, pv)
            return gx @ dx + gu @ du

        def jac_along(pv):  # lam.(f_x dx + f_u du)
            _, jx, ju = spec.dynamics_jac(x, u, pv)
            return lam @ (jx @ dx + ju @ du)

        check_phi("stage_phi", _call(spec.stage_phi, x, u, phi),
                  lambda pv: spec.stage_cost(x, u, pv))
        check_phi("stage_grad_phi_vp", _call(spec.stage_grad_phi_vp, x, u, phi, dx, du),
                  grad_along)
        check_phi("terminal_phi", spec.terminal_phi(x, phi), lambda pv: spec.terminal_cost(x, pv))
        check_phi("terminal_grad_phi_vp", spec.terminal_grad_phi_vp(x, phi, dx),
                  lambda pv: spec.terminal_grad(x, pv) @ dx)
        check_phi("dynamics_phi_vp", _call(spec.dynamics_phi_vp, x, u, phi, lam),
                  lambda pv: lam @ f(x, u, pv))
        check_phi("dynamics_jac_phi_vp", _call(spec.dynamics_jac_phi_vp, x, u, phi, lam, dx, du),
                  jac_along)
        if spec.dynamics_hess_vp is not None:
            hv = spec.dynamics_hess_vp(x, u, phi, lam)

            def lam_f(xu):
                return lam @ f(xu[:n], xu[n:], phi)

            # Nested differences need a coarser step to stay above rounding noise.
            check(
                "dynamics_hess_vp",
                hv,
                _fd_jac(lambda v: _fd_jac(lam_f, v, 1e-5), np.concatenate([x, u]), 1e-5),
            )
        if spec.n_ineq == 0:
            continue
        cons = spec.ineq_constraints
        cx, cu = spec.ineq_jac(x, u, phi)
        check("ineq_jac[x]", cx, _fd_jac(lambda v: cons(v, u, phi), x))
        check("ineq_jac[u]", cu, _fd_jac(lambda v: cons(x, v, phi), u))
        check_phi("ineq_constraints[phi]", np.zeros((spec.n_ineq, phi.size)),
                  lambda pv: cons(x, u, pv))

    for name, arg_names in STAGE_CALLBACKS.items():
        fn = getattr(spec, name)
        if fn is None:
            continue
        extra = [args[a] for a in arg_names]
        single = [_parts(fn(x, u, phi, *v)) for x, u, *v in zip(X, U, *extra)]
        try:
            batched = _parts(fn(X, U, phi, *extra))
        except (ValueError, IndexError, TypeError) as exc:
            findings.append(f"{name}: batched call failed: {exc}")
            continue
        if len(batched) != len(single[0]) or any(
            dev_of(got, np.stack(want)) > 1e-12 for got, want in zip(batched, zip(*single))
        ):
            findings.append(f"{name}: batched call differs from per-point calls")
    return [f"{name}: returns non-finite values" for name in non_finite] + findings
