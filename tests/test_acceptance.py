"""Acceptance gate: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them); the assertions carry the same tolerances.  Annealing runs share
module-scoped fixtures so the whole gate stays at desk scale.
"""

import math

import numpy as np
import pytest

from cvp import (
    AnnealSchedule,
    Classification,
    ManifoldModel,
    action,
    anneal,
    antipodal_obstruction,
    bounds_report,
    certify,
    circle_m0,
    circle_tau_m,
    circle_uniform,
    density_action,
    flag_gt_threshold,
    flag_negative_witness,
    gram_min_eigenvalue,
    icosahedron,
    kernel_potential,
    nu0_monte_carlo,
    octahedron,
    sample_uniform,
    spectral_closed_form,
    tau_scan,
    three_band_density,
)
from cvp.exact import circle_chain_minimizer
from cvp.manifold import kernel_matrix
from cvp.spectral import real_sphere_harmonics

from conftest import band_gauss_rule


def check(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _sched(model, seed=0, restarts=8):
    return AnnealSchedule.default(
        model, seed=seed, cooling=0.95, steps_per_temp=120, restarts=restarts
    )


# ---------------------------------------------------------------------------
# shared annealing runs


@pytest.fixture(scope="module")
def chain_runs():
    out = {}
    for tau in (2.6, 3.0, 4.0):
        model = ManifoldModel.circle(tau)
        m = circle_m0(tau) + 4
        out[tau] = (model, anneal(model, m, _sched(model)))
    return out


@pytest.fixture(scope="module")
def timelike_runs():
    out = {}
    for tau in (1.1, 1.3, 1.41):
        model = ManifoldModel.circle(tau)
        out[tau] = (model, anneal(model, 8, _sched(model)))
    return out


@pytest.fixture(scope="module")
def sphere_runs():
    out = {}
    for tau in (1.0, 1.2, math.sqrt(2)):
        model = ManifoldModel.sphere(tau)
        out[tau] = (model, anneal(model, 12, _sched(model)))
    return out


@pytest.fixture(scope="module")
def bounds_runs():
    out = {}
    for tau in (1.1, 1.3, 1.5, 1.8, 2.0, 2.5):
        model = ManifoldModel.sphere(tau)
        meas = anneal(model, 12, _sched(model, restarts=3))
        rep = bounds_report(
            model,
            packings=[octahedron().points, icosahedron().points],
            best_found=action(model, meas),
            t_grid=np.geomspace(0.01, 2.0, 14),
        )
        out[tau] = (model, meas, rep)
    return out


@pytest.fixture(scope="module")
def circle_scan():
    grid = [round(1.0 + 0.02 * i, 10) for i in range(61)]  # 1.00 .. 2.20
    return tau_scan("circle", grid, m=10, seed=0)


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_circle_closed_form(chain_runs):
    details = []
    ok = True
    for tau, (model, meas) in chain_runs.items():
        chain = circle_chain_minimizer(tau)
        # the closed form itself is pinned to 1e-12 against its measure
        exact_ok = abs(action(model, chain.measure) - chain.action) < 1e-12
        rel = abs(action(model, meas) - chain.action) / chain.action
        ok &= exact_ok and rel < 0.01
        details.append(f"tau={tau}: rel={rel:.2e}")
    check(1, ok, "; ".join(details) + " (<1%)")


def test_criterion_2_circle_timelike_phase(timelike_runs):
    details = []
    ok = True
    for tau, (model, meas) in timelike_runs.items():
        nu0 = 4 * tau**2 - tau**4
        rel = abs(action(model, meas) - nu0) / nu0
        rep = certify(model, circle_uniform(4))
        ok &= rel < 0.01
        ok &= rep.classification is Classification.GENERICALLY_TIMELIKE
        ok &= rep.el_residual < 1e-10
        details.append(f"tau={tau}: rel={rel:.2e} el={rep.el_residual:.1e}")
    check(2, ok, "; ".join(details))


def test_criterion_3_sphere_timelike_phase(sphere_runs):
    details = []
    ok = True
    for tau, (model, meas) in sphere_runs.items():
        nu0 = 4 * tau**2 - 4 * tau**4 / 3
        oct_action = action(model, octahedron())
        oct_ok = abs(oct_action - nu0) < 1e-12
        dee = kernel_potential(model, octahedron(), sample_uniform(model, 10_000, seed=5))
        dee_ok = float(np.max(np.abs(dee - nu0))) < 1e-10
        rel = abs(action(model, meas) - nu0) / nu0
        ok &= oct_ok and dee_ok and rel < 0.02
        details.append(f"tau={tau:.3f}: |S_oct-nu0|={abs(oct_action-nu0):.1e} rel={rel:.2e}")
    check(3, ok, "; ".join(details))


def test_criterion_4_banded_density():
    model = ManifoldModel.sphere(1.001)
    dm = three_band_density()
    cosn, cw, f = band_gauss_rule(dm, 40)
    mass = float(cw @ f)
    # the per-band rule times a ring of 8 uniform phi nodes, which
    # integrates cos(m phi) and sin(m phi) exactly for |m| <= 2
    phi = 2.0 * np.pi * np.arange(8) / 8
    s = np.sqrt(1.0 - cosn**2)
    nodes = np.column_stack([
        np.outer(s, np.cos(phi)).ravel(),
        np.outer(s, np.sin(phi)).ravel(),
        np.repeat(cosn, 8),
    ])
    ylm = real_sphere_harmonics(nodes)
    moments = np.abs(ylm @ np.repeat(cw * f / 8, 8))
    act = density_action(model, dm)
    nu0 = spectral_closed_form(model).nu0
    ok = (
        abs(mass - 1.0) < 1e-8
        and float(np.max(moments)) < 1e-8
        and abs(act - nu0) < 1e-6
    )
    check(
        4,
        ok,
        f"mass-1={mass-1:.1e} max|moment|={np.max(moments):.1e} "
        f"S-nu0={act-nu0:.1e}",
    )


def test_criterion_5_bounds_sandwich(bounds_runs):
    details = []
    ok = True
    for tau, (model, meas, rep) in bounds_runs.items():
        lowers = rep.lower_bounds()
        uppers = rep.upper_bounds()
        gap = min(uppers) - max(lowers) if lowers else math.inf
        ok &= gap >= -1e-9
        if tau == 2.0:
            ok &= rep.heat is not None and rep.heat.dominated and rep.heat.s_k > 0
        details.append(f"tau={tau}: gap={gap:.3e}")
    check(5, ok, "; ".join(details))


def test_criterion_6_phase_transitions(circle_scan):
    rows = circle_scan
    taus = [r.tau for r in rows]
    sizes = [r.support_size_after_merge for r in rows]
    step = 0.02
    details = []
    ok = True
    for m in (4, 5, 6):
        target = circle_tau_m(m)
        cells = [
            (taus[i], taus[i + 1])
            for i in range(len(rows) - 1)
            if sizes[i] == m and sizes[i + 1] == m + 1
        ]
        dists = [max(0.0, lo - target, target - hi) for lo, hi in cells]
        best = min(dists) if dists else math.inf
        ok &= best <= step + 1e-12
        details.append(f"tau_{m}={target:.4f}: jump dist={best:.3f}")
    # the obstruction flips exactly at sqrt(2)
    flip_ok = not antipodal_obstruction(
        ManifoldModel.circle(math.sqrt(2))
    ) and antipodal_obstruction(ManifoldModel.circle(math.sqrt(2) + 1e-12))
    ok &= flip_ok
    details.append(f"obstruction flip at sqrt2: {flip_ok}")
    check(6, ok, "; ".join(details))


def test_criterion_7_flag_nu0_monte_carlo():
    details = []
    ok = True
    for f, tau in ((3, 1.0), (3, 1.5), (4, 1.2)):
        model = ManifoldModel.flag(f, tau)
        mc = nu0_monte_carlo(model, 100_000, seed=2)
        exact = 2 * (3 * f + 6 * f * tau**2 - (2 + f) * tau**4 - 6) / (f * (f**2 - 1))
        sigmas = abs(mc.estimate - exact) / mc.std_error
        ok &= sigmas <= 3.0
        details.append(f"(f={f},tau={tau}): {sigmas:.2f} sigma")
    check(7, ok, "; ".join(details))


def test_criterion_8_flag_witness():
    witness = flag_negative_witness(3, 2.0, 0.01)
    model = ManifoldModel.flag(3, 2.0)
    diff = float(np.max(np.abs(kernel_matrix(model, witness.points) - witness.gram)))
    thr = flag_gt_threshold(3)
    ok = witness.det < 0 and diff < 1e-10 and abs(thr - 1.938966682082635) < 1e-9
    check(8, ok, f"det={witness.det:.1f} gram diff={diff:.1e} thr={thr:.6f}")


def test_criterion_9_optimality_conditions(chain_runs, timelike_runs, sphere_runs):
    details = []
    ok = True
    for label, runs in (
        ("chain", chain_runs),
        ("circle", timelike_runs),
        ("sphere", sphere_runs),
    ):
        for tau, (model, meas) in runs.items():
            meas = meas.pruned()
            scale = model.kernel_scale
            gmin = gram_min_eigenvalue(model, meas.points)
            rep = certify(model, meas, tol=1e-2)
            g_ok = gmin >= -1e-8 * scale
            e_ok = rep.el_residual < 1e-2 * rep.action
            ok &= g_ok and e_ok
            if not (g_ok and e_ok):
                details.append(f"{label} tau={tau}: gmin={gmin:.2e} el={rep.el_residual:.2e}")
    # exact constructions tighten to 1e-10
    exacts = [
        (ManifoldModel.circle(2.6), circle_chain_minimizer(2.6).measure),
        (ManifoldModel.circle(3.0), circle_chain_minimizer(3.0).measure),
        (ManifoldModel.circle(4.0), circle_chain_minimizer(4.0).measure),
        (ManifoldModel.circle(1.3), circle_uniform(4)),
        (ManifoldModel.sphere(1.2), octahedron()),
    ]
    for model, meas in exacts:
        scale = model.kernel_scale
        gmin = gram_min_eigenvalue(model, meas.points)
        rep = certify(model, meas)
        g_ok = gmin >= -1e-10 * scale
        e_ok = rep.el_residual < 1e-10
        ok &= g_ok and e_ok
        if not (g_ok and e_ok):
            details.append(f"exact {model.kind} tau={model.tau}: gmin={gmin:.2e}")
    check(9, ok, "all optimizer outputs satisfy EL + Gram bounds" if ok else "; ".join(details))
