"""Shared fixtures: reference systems and environments used across the suite."""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# the default pool oversubscribes a loaded machine, and the suite's
# wall-clock verdicts must not hinge on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from qmpc import dp
from qmpc.envs import CSTRConfig
from qmpc.ocp import build_lq_ocp

# Standard two-state/one-input test system (stable, well conditioned).
A2 = np.array([[0.95, 0.2], [0.0, 0.9]])
B2 = np.array([[0.1], [1.0]])
Q2 = np.eye(2)
R2 = np.array([[1.0]])
GAMMA = 0.9

# Klatt-Engell exothermic reactor constants (external benchmark values, same
# set the shipped experiment config uses).
CSTR_ODE_PARAMS = {
    "K0_ab": 1.287e12,
    "K0_bc": 1.287e12,
    "K0_ad": 9.043e9,
    "E_A_ab": 9758.3,
    "E_A_bc": 9758.3,
    "E_A_ad": 8560.0,
    "H_R_ab": 4.2,
    "H_R_bc": -11.0,
    "H_R_ad": -41.85,
    "rho": 0.9342,
    "Cp": 3.01,
    "Cp_k": 2.0,
    "A_R": 0.215,
    "V_R": 10.01,
    "m_k": 5.0,
    "T_in": 130.0,
    "K_w": 4032.0,
    "C_A0": 5.1,
}


def make_cstr_config(**overrides) -> CSTRConfig:
    base = dict(
        ode_params=CSTR_ODE_PARAMS,
        dt=0.005,
        substeps=4,
        state_lo=[0.1, 0.3, 100.0, 100.0],
        state_hi=[2.5, 1.0, 150.0, 150.0],
        input_lo=[5.0, -8500.0],
        input_hi=[35.0, 0.0],
        setpoint=0.9,
        w_track=4.0,
        w_move=[1.6e-3, 2.0e-8],
        reference_input=[18.0, -4500.0],
        x0_lo=[0.4, 0.2, 120.0, 120.0],
        x0_hi=[2.0, 1.1, 140.0, 140.0],
    )
    base.update(overrides)
    return CSTRConfig(**base)


def make_scalar_ocp(a=0.8, b=0.5, q=1.0, r=0.2, gamma=0.9, H=3, P=None, u_lo=None, u_hi=None):
    """Scalar LQ OCP with Riccati terminal unless P is given explicitly."""
    A = np.array([[a]])
    B = np.array([[b]])
    Qc = np.array([[q]])
    Rc = np.array([[r]])
    if P is None:
        P, _ = dp.riccati_solve(A, B, Qc, Rc, gamma)
    spec, phi = build_lq_ocp(A, B, Qc, Rc, np.atleast_2d(P), H, gamma, u_lo=u_lo, u_hi=u_hi)
    return spec, phi


class StaticEnv:
    """s' = s, r = 1: the simplest fixed-point environment (stacked protocol)."""

    n = 1
    m = 1

    def reset(self, rngs):
        return np.zeros((len(rngs), 1))

    def step(self, S, A, rngs):
        return np.ones(len(S)), np.asarray(S, dtype=float)


@pytest.fixture(scope="session")
def lq2():
    """(A, B, Qc, Rc, gamma, P, K) for the standard two-state instance."""
    P, K = dp.riccati_solve(A2, B2, Q2, R2, GAMMA)
    return A2, B2, Q2, R2, GAMMA, P, K


@pytest.fixture(scope="session")
def lq2_ocp(lq2):
    A, B, Qc, Rc, gamma, P, _ = lq2
    return build_lq_ocp(A, B, Qc, Rc, P, H=5, gamma=gamma)


@pytest.fixture
def cstr_cfg():
    return make_cstr_config()
