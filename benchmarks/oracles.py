"""Correctness oracles for benchmark artifacts.

Each oracle recomputes what an artifact must contain with plain numpy from
the generated ground truth (eigenvalues, eigenvectors, initial states), not
through biham's code, and returns a list of violations; an empty list is a
pass.

RK4 is checked exactly rather than against ``exp(-iEt)``: for a constant
generator one classical RK4 step multiplies mode j by
``R(-i dt E_j / hbar)`` with ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``, so the
recorded trajectory must equal ``S diag(R^k) S^-1`` applied to the initial
state.  At ``dt*||h|| = 0.4`` RK4 itself departs from ``exp(-iEt)`` by far
more than roundoff over 10^4 steps, so that comparison could not tell a
defect from truncation error.
"""

import json

import numpy as np

from workloads import lattice_generator

# acceptance tolerances of the program's own release criteria
RESIDUAL_TOL = 1e-8
RHS_TOL = 1e-12
GRAD_TOL = 1e-6
HAMILTONIAN_TOL = 1e-10
EIGENVALUE_TOL = 1e-9

# trajectories: relative to the largest magnitude in the compared block
STATE_TOL = 1e-9
# RK4 damps mode j by |R(i dt E_j)|^2 < 1 per step; over 10^4 steps at
# dt*||h|| = 0.4 a packet scattered into high lattice modes loses up to
# ~1e-4 of its charge.  The exact value is checked against the prediction.
CHARGE_DRIFT_TOL = 1e-3
# relative overlap drift along a sweep: RK4 truncation on a time-dependent h
SWEEP_OVERLAP_TOL = 1e-8
# with both modes occupied, non-adiabatic mixing moves the actions at first order
ADIABATIC_DEVIATION_TOL = 1e-2
FROZEN_REL_TOL = 1e-12

ABSENT_MODE_CUTOFF = 1e-12


def rk4_factor(z):
    """Stability polynomial of classical RK4."""
    return 1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0


def _close(got, want, tol, what):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    gap = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not gap <= tol * scale:
        return [f"{what}: off by {gap:.3e} (tolerance {tol * scale:.1e})"]
    return []


def read_csv(text):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def _unit_columns(s):
    return s / np.linalg.norm(s, axis=0)


def _conjugate_row(s, psi):
    """The program's default conjugate field: modal constants |c_j|^2, unit-norm right vectors."""
    s = _unit_columns(s)
    s_inv = np.linalg.inv(s)
    c = s_inv @ psi
    cbar = np.where(np.abs(c) > ABSENT_MODE_CUTOFF, np.conj(c), 0.0)
    return s, s_inv, c, cbar


def check_decompose(truth, text):
    report = json.loads(text)
    e = np.sort(truth["eigenvalues"])
    errors = []
    if report["n"] != e.shape[0]:
        errors.append(f"n = {report['n']}, expected {e.shape[0]}")
    got = np.asarray(report["eigenvalues_re"]) + 1j * np.asarray(report["eigenvalues_im"])
    errors += _close(got, e, EIGENVALUE_TOL, "eigenvalues")
    for key in ("biorthonormality_residual", "completeness_residual"):
        if not 0.0 <= report[key] <= RESIDUAL_TOL:
            errors.append(f"{key} = {report[key]:.3e} exceeds {RESIDUAL_TOL}")
    svals = np.linalg.svd(_unit_columns(truth["S"]), compute_uv=False)
    errors += _close(report["condition_number"] / (svals[0] / svals[-1]), 1.0, 1e-6,
                     "condition_number relative to cond(S)")
    if report["spectrum_is_real"] is not True:
        errors.append("spectrum_is_real is not true for a real spectrum")
    return errors


def check_verify(truth, text):
    report = json.loads(text)
    h, psi, phibar = truth["h"], truth["psi"], truth["phibar"]
    errors = []
    if report["n"] != h.shape[0]:
        errors.append(f"n = {report['n']}, expected {h.shape[0]}")
    if not 0.0 <= report["rhs_mismatch"] <= RHS_TOL:
        errors.append(f"rhs_mismatch = {report['rhs_mismatch']:.3e} exceeds {RHS_TOL}")
    if not 0.0 <= report["grad_mismatch"] <= GRAD_TOL:
        errors.append(f"grad_mismatch = {report['grad_mismatch']:.3e} exceeds {GRAD_TOL}")
    value = phibar @ h @ psi
    modal = np.sum(truth["eigenvalues"] * (phibar @ truth["S"])
                   * np.linalg.solve(truth["S"], psi))
    got_h = report["hamiltonian_value_re"] + 1j * report["hamiltonian_value_im"]
    got_modal = report["modal_value_re"] + 1j * report["modal_value_im"]
    errors += _close(got_h, value, HAMILTONIAN_TOL, "hamiltonian_value")
    errors += _close(got_modal, modal, HAMILTONIAN_TOL, "modal_value")
    errors += _close(got_modal, got_h, HAMILTONIAN_TOL, "modal_value against hamiltonian_value")
    return errors


def snapshot_steps(steps, every):
    marks = list(range(0, steps + 1, every))
    if marks[-1] != steps:
        marks.append(steps)
    return np.array(marks)


def check_evolve(truth, text):
    header, rows = read_csv(text)
    e, dt, hbar = truth["eigenvalues"], truth["dt"], truth["hbar"]
    n = e.shape[0]
    want_header = (["t"] + [f"psi{k}_{p}" for k in range(n) for p in ("re", "im")]
                   + [f"phibar{k}_{p}" for k in range(n) for p in ("re", "im")]
                   + ["overlap_re", "overlap_im", "right_norm"])
    if header != want_header:
        return ["header does not match the evolve column layout"]
    ks = snapshot_steps(truth["steps"], truth["every"])
    if rows.shape[0] != ks.shape[0]:
        return [f"{rows.shape[0]} rows, expected {ks.shape[0]}"]
    s, s_inv, c, cbar = _conjugate_row(truth["S"], truth["psi"])
    y = dt * e / hbar
    grow = rk4_factor(-1j * y)[None, :] ** ks[:, None]
    back = rk4_factor(1j * y)[None, :] ** ks[:, None]
    psi = (c[None, :] * grow) @ s.T
    phibar = (cbar[None, :] * back) @ s_inv
    q = np.sum(cbar[None, :] * c[None, :] * grow * back, axis=1)

    errors = _close(rows[:, 0], ks * dt, 1e-12, "t")
    errors += _close(rows[:, 1:1 + 2 * n:2] + 1j * rows[:, 2:2 + 2 * n:2], psi,
                     STATE_TOL, "psi")
    off = 1 + 2 * n
    errors += _close(rows[:, off:off + 2 * n:2] + 1j * rows[:, off + 1:off + 2 * n:2],
                     phibar, STATE_TOL, "phibar")
    errors += _close(rows[:, -3] + 1j * rows[:, -2], q, STATE_TOL, "overlap")
    errors += _close(rows[:, -1], np.sum(np.abs(psi) ** 2, axis=1), STATE_TOL, "right_norm")
    return errors


def _gradient(f, dx):
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)


def continuum_prediction(truth):
    """Snapshot steps, psi and phibar predicted from the generator's own lattice h."""
    N, L, hbar, m = truth["N"], truth["L"], truth["hbar"], truth["m"]
    dx = L / N
    x = np.arange(N) * dx
    p = truth["packet"]
    psi0 = np.exp(-((x - p["center"]) ** 2) / (4.0 * p["width"] ** 2)
                  + 1j * p["momentum"] * x / hbar)
    psi0 = psi0 / np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)
    e, s = np.linalg.eig(lattice_generator(N, L, truth["V"], hbar, m))
    s, s_inv, c, cbar = _conjugate_row(s, psi0)
    ks = snapshot_steps(truth["steps"], truth["every"])
    y = truth["dt"] * e / hbar
    psi = (c[None, :] * rk4_factor(-1j * y)[None, :] ** ks[:, None]) @ s.T
    phibar = (cbar[None, :] * rk4_factor(1j * y)[None, :] ** ks[:, None]) @ s_inv
    return ks, psi, phibar


def check_continuum(truth, text):
    header, rows = read_csv(text)
    if header != ["t", "Q_re", "Q_im", "continuity_residual", "right_norm"]:
        return ["header does not match the continuum column layout"]
    ks, psi, phibar = continuum_prediction(truth)
    if rows.shape[0] != ks.shape[0]:
        return [f"{rows.shape[0]} rows, expected {ks.shape[0]}"]
    dx = truth["L"] / truth["N"]
    dt, hbar, m = truth["dt"], truth["hbar"], truth["m"]
    rho = phibar * psi
    q = np.sum(rho, axis=1) * dx
    current = (1j * hbar / (2.0 * m)) * (phibar * _gradient(psi, dx)
                                         - psi * _gradient(phibar, dx))
    gap = truth["every"] * dt
    residual = np.max(np.abs((rho[2:] - rho[:-2]) / (2.0 * gap)
                             - _gradient(current[1:-1], dx)), axis=1)

    errors = _close(rows[:, 0], ks * dt, 1e-12, "t")
    got_q = rows[:, 1] + 1j * rows[:, 2]
    errors += _close(got_q, q, STATE_TOL, "Q")
    drift = float(np.max(np.abs(got_q - got_q[0]))) / abs(got_q[0])
    if not drift <= CHARGE_DRIFT_TOL:
        errors.append(f"charge drift {drift:.3e} exceeds {CHARGE_DRIFT_TOL}")
    ends = rows[[0, -1], 3]
    if not np.all(np.isnan(ends)):
        errors.append("continuity_residual must be nan on the first and last rows")
    errors += _close(rows[1:-1, 3], residual, STATE_TOL, "continuity_residual")
    errors += _close(rows[:, 4], np.sum(np.abs(psi) ** 2, axis=1) * dx, STATE_TOL,
                     "right_norm")
    return errors


def _sweep_h(x, y, z):
    """Batched 2x2 generators [[z, x+iy], [-x+iy, -z]]."""
    w = x + 1j * y
    h = np.empty(np.shape(x) + (2, 2), dtype=complex)
    h[..., 0, 0] = z
    h[..., 0, 1] = w
    h[..., 1, 0] = -np.conj(w)
    h[..., 1, 1] = -z
    return h


def _rk4_step_matrices(a0, am, a1, dt):
    """Exact one-step RK4 maps of y' = A(t) y from A at t, t + dt/2, t + dt."""
    eye = np.eye(2)
    k1 = a0
    k2 = am @ (eye + 0.5 * dt * k1)
    k3 = am @ (eye + 0.5 * dt * k2)
    k4 = a1 @ (eye + dt * k3)
    return eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def sweep_prediction(truth):
    """Sample steps, times, complex actions and overlaps along the sweep."""
    p, T, hbar = truth["path"], truth["T"], truth["hbar"]
    steps = max(1, round(T / truth["dt"]))
    dt = T / steps

    def params(s):
        return (p["x0"] + (p["x1"] - p["x0"]) * s, p["y0"] + (p["y1"] - p["y0"]) * s,
                p["z0"] + (p["z1"] - p["z0"]) * s)

    k = np.arange(steps)
    h0, hm, h1 = (_sweep_h(*params(np.clip(s, 0.0, 1.0)))
                  for s in (k / steps, (k + 0.5) / steps, (k + 1) / steps))
    # psi' = -(i/hbar) h psi; phibar' = (i/hbar) phibar h, i.e. phibar^T' = (i/hbar) h^T phibar^T
    m_psi = _rk4_step_matrices(-1j / hbar * h0, -1j / hbar * hm, -1j / hbar * h1, dt)
    tr = (0, 2, 1)
    m_bar = _rk4_step_matrices(1j / hbar * h0.transpose(tr), 1j / hbar * hm.transpose(tr),
                               1j / hbar * h1.transpose(tr), dt)

    marks = np.unique(np.round(np.linspace(0, steps, truth["samples"])).astype(int))
    x, y, z = params(marks / steps)
    h = _sweep_h(x, y, z)
    root = np.sqrt(z * z - x * x - y * y)
    energy = np.stack([np.sign(z) * root, -np.sign(z) * root], axis=1)

    def modes(j):
        evals, vecs = np.linalg.eig(h[j])
        order = [int(np.argmin(np.abs(evals - energy[j, i]))) for i in range(2)]
        return vecs[:, order]

    # initial state from the closed-form Bogoliubov vectors at s = 0:
    # a_1 = (u, v), a_2 = (v*, u*), b_1 = (u, -v), b_2 = (-v*, u*) with
    # u = -sgn(z) (W + |z|) / D, v = (x - iy) / D, D = sqrt((|z| + W)^2 - x^2 - y^2)
    xs, ys, zs = params(0.0)
    w0 = np.sqrt(zs * zs - xs * xs - ys * ys)
    d0 = np.sqrt((abs(zs) + w0) ** 2 - xs * xs - ys * ys)
    u = -np.sign(zs) * (w0 + abs(zs)) / d0
    v = (xs - 1j * ys) / d0
    right = np.array([[u, np.conj(v)], [v, np.conj(u)]])
    left = np.array([[u, -np.conj(v)], [-v, np.conj(u)]])
    amp = np.sqrt(np.asarray(truth["csq"], dtype=float))
    psi = right @ amp
    phibar = left.conj() @ amp
    actions, overlaps = [], []
    at = 0
    for j, mark in enumerate(marks):
        for step in range(at, mark):
            psi = m_psi[step] @ psi
            phibar = m_bar[step] @ phibar
        at = mark
        s = modes(j)
        actions.append(hbar * (phibar @ s) * np.linalg.solve(s, psi))
        overlaps.append(phibar @ psi)
    return marks, marks * dt, np.array(actions), np.array(overlaps)


def check_sweep(truth, text):
    header, rows = read_csv(text)
    if header != ["t", "I_1", "I_2", "deviation_1", "deviation_2", "overlap_re", "overlap_im"]:
        return ["header does not match the sweep column layout"]
    marks, times, actions, overlaps = sweep_prediction(truth)
    if rows.shape[0] != marks.shape[0]:
        return [f"{rows.shape[0]} rows, expected {marks.shape[0]}"]
    base = actions[0]
    gap = np.abs(actions - base[None, :])
    scale = np.where(np.abs(base) > ABSENT_MODE_CUTOFF, np.abs(base), 1.0)
    deviations = gap / scale[None, :]

    errors = _close(rows[:, 0], times, 1e-12, "t")
    errors += _close(rows[:, 1:3], actions.real, STATE_TOL, "actions")
    errors += _close(rows[:, 3:5], deviations, STATE_TOL, "deviations")
    got_q = rows[:, 5] + 1j * rows[:, 6]
    errors += _close(got_q, overlaps, STATE_TOL, "overlap")
    drift = float(np.max(np.abs(got_q - got_q[0]))) / abs(got_q[0])
    if not drift <= SWEEP_OVERLAP_TOL:
        errors.append(f"overlap drift {drift:.3e} exceeds {SWEEP_OVERLAP_TOL}")
    worst = float(np.max(rows[:, 3:5]))
    if not worst <= ADIABATIC_DEVIATION_TOL:
        errors.append(f"action deviation {worst:.3e} exceeds {ADIABATIC_DEVIATION_TOL}")
    frozen = truth.get("frozen_max_deviation")
    if frozen is not None and not abs(worst - frozen) <= FROZEN_REL_TOL * frozen:
        errors.append(f"max deviation {worst!r} differs from the frozen {frozen!r}")
    return errors


ORACLES = {
    "decompose": check_decompose,
    "verify": check_verify,
    "evolve": check_evolve,
    "continuum": check_continuum,
    "sweep": check_sweep,
}


def check(scenario, text):
    """Violations of one scenario's artifact text; empty when it is correct."""
    try:
        return ORACLES[scenario.command](scenario.truth, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifact: {exc!r}"]
