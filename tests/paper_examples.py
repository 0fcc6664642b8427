"""Worked examples from the theory that only the tests run: the whole-space
value function of an affine family, the constant +inf pseudo-distance, the
inner grid-cloud surrogates of a ball-truncated polytope and the e^|x|
ladder problem.  None of them is in the instance catalog, the CLI or a demo.
"""

import math
from typing import Optional, Sequence

import numpy as np

from optstab.distances import NONNEGATIVE, SYMMETRIC, TRIANGLE, PseudoDistance
from optstab.extreal import INF
from optstab.gauges import as_magnitude
from optstab.ladder import SmoothProblem
from optstab.linear import LinearMap, affine_family, decompose, pseudo_inverse
from optstab.optima import Lipschitz, ObjectiveFn
from optstab.parametric import (ValueFunction, certify_value_lipschitz,
                                empirical_value_continuity)
from optstab.sets import DEFAULT_BUDGET, FiniteCloud


def example_whole_space(f: ObjectiveFn, L, S_X, S_Yt,
                        probe_params: Sequence,
                        pair_params: Sequence,
                        conj_beta: Optional[float] = None,
                        eps_grid: Sequence[float] = (0.5, 0.1),
                        budget: int = DEFAULT_BUDGET,
                        rng: Optional[np.random.Generator] = None) -> dict:
    """phi_*(t) = inf { f(x) : L x = t } over the whole space.

    Certifies continuity empirically on the probes and, when f is
    Lipschitz(Lam) and the conjugate gauge t -> S(-t) is beta-Lipschitz,
    the alpha * max(1, beta) * Lam constant on the pairs.
    """
    if not f.bounded_below:
        raise ValueError("hypothesis unmet: objective not declared bounded below")
    reg = f.regularity
    if not isinstance(reg, Lipschitz):
        raise ValueError("hypothesis unmet: objective regularity is not Lipschitz")
    mag_t = as_magnitude(S_Yt)
    if mag_t(np.zeros(np.atleast_2d(np.asarray(L)).shape[0])) != 0.0:
        raise ValueError("hypothesis unmet: S(0) != 0 on the parameter gauge")

    lm = L if isinstance(L, LinearMap) else decompose(L)
    egi = pseudo_inverse(lm)
    fam = affine_family(lm, egi)
    alpha = egi.constant
    beta = conj_beta if conj_beta is not None else 1.0
    const = alpha * max(1.0, beta) * reg.lam

    d_param = PseudoDistance(
        name="param-gauge",
        fn=lambda s, t: float(mag_t(np.asarray(t, float) - np.asarray(s, float))),
        ambient_dim=None)
    pf = fam.as_param_family(d_param, alpha=alpha * max(1.0, beta))
    V = ValueFunction(mode="inf", family=pf, objective=f)

    cont = empirical_value_continuity(V, probe_params[0], probe_params,
                                      eps_grid, budget=budget, rng=rng)
    lip = certify_value_lipschitz(V, pair_params, budget=budget, rng=rng)
    return dict(constant=const, alpha=alpha, beta=beta,
                continuity=cont, lipschitz=lip,
                passed=(cont["verdict"] == "pass" and lip.passed))


def constant_infinite(dim: Optional[int] = None) -> PseudoDistance:
    """d = +inf everywhere: the degenerate pseudo-distance from the theory."""
    return PseudoDistance(
        name="constant-inf",
        fn=lambda x, y: INF,
        ambient_dim=dim,
        properties=frozenset({SYMMETRIC, NONNEGATIVE, TRIANGLE}),
    )


def build_inner_grid_family(A_hs, b_hs, ball_radius: float,
                            mesh_seq: Sequence[float],
                            interior_point) -> tuple:
    """Inner grid-cloud surrogates for {x : A x <= b, ||x|| <= R}.

    Per mesh, the cloud holds the grid points feasible with margin equal to
    the covering radius mesh*sqrt(n)/2.  The certified Hausdorff bound is

        h = (mesh*sqrt(n)/2) * (1 + 2R/rho),

    where rho is the feasibility margin of the supplied interior point:
    shrinking the region toward the ball B(x0, rho) by the covering radius
    moves no point farther than that factor, and every shrunk point has a
    grid neighbor within mesh*sqrt(n)/2.
    """
    A_hs = np.atleast_2d(np.asarray(A_hs, dtype=float))
    b_hs = np.asarray(b_hs, dtype=float).ravel()
    x0 = np.asarray(interior_point, dtype=float).ravel()
    n = A_hs.shape[1]
    row_norms = np.maximum(np.linalg.norm(A_hs, axis=1), 1e-30)
    rho = min(float(np.min((b_hs - A_hs @ x0) / row_norms)),
              ball_radius - float(np.linalg.norm(x0)))
    if rho <= 0:
        raise ValueError("supplied point is not strictly interior")

    levels, hs = [], []
    for mesh in mesh_seq:
        mesh = float(mesh)
        margin = mesh * math.sqrt(n) / 2.0
        if margin >= rho:
            raise ValueError(
                "no strictly feasible grid point guaranteed at this mesh; refine first")
        ticks = np.arange(-ball_radius, ball_radius + mesh / 2, mesh)
        grids = np.meshgrid(*([ticks] * n), indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        feas = (np.all(A_hs @ pts.T <= (b_hs - margin * row_norms)[:, None], axis=0)
                & (np.linalg.norm(pts, axis=1) <= ball_radius - margin))
        cloud = pts[feas]
        if cloud.shape[0] == 0:
            raise ValueError("empty inner cloud; refine first")
        levels.append(FiniteCloud(cloud))
        hs.append(margin * (1.0 + 2.0 * ball_radius / rho))
    return tuple(levels), tuple(hs)


def exp_problem() -> SmoothProblem:
    """h(x) = e^{|x|}: gradient sign(x)(e^{|x|} - 1) is continuous at 0 and
    the radial Hessian-norm sup is exactly e^t."""
    def g(x):
        t = float(np.atleast_1d(x)[0])
        return np.array([math.copysign(math.expm1(abs(t)), t)])

    return SmoothProblem(
        f=lambda x: math.exp(abs(float(np.atleast_1d(x)[0]))) - abs(float(np.atleast_1d(x)[0])),
        grad=g,
        hess_norm=lambda x: math.exp(abs(float(np.atleast_1d(x)[0]))),
        dim=1, y0=[0.0],
        hessian_sup_closed_form=lambda t: math.exp(t))
