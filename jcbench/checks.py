"""Independent correctness checks of the benchmark's outputs.

Every check is computed here, from formulas or from a propagation by
scipy.sparse.linalg.expm_multiply, which uses no eigendecomposition. No
check compares against saved program output, and none imports the
program's closed forms from jcdiss.propagate. The generators for the
expm_multiply route are taken from jcdiss.lindblad, since the checks
target the propagation route, not the generator.

check_operation() returns a list of problems (empty when the outputs
pass). Basis index k = 2n + s (s = 0 ground, s = 1 excited), as in the
program's output files.
"""

import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammainc

# guards of the program, restated: the truncation guard, the integrator's
# drift guard, and the quadrature uncertainty bound var(q) var(p) >= 1/16
TOP_POPULATION_MAX = 1e-6
DRIFT_MAX = 1e-7
MIN_EIGENVALUE = -1e-8
UNCERTAINTY = 1.0 / 16.0

SPECTRAL_TOL = 1e-9   # spectral route against closed forms and expm_multiply
SECOND_ROUTE_TOL = 1e-6   # the fixed-step route against the closed form
EXACT_TOL = 1e-12   # identities that hold to rounding
# the program's concurrence takes square roots of eigenvalues that vanish in
# exact arithmetic, so rounding of 1e-16 shows up as about 1e-8
CONCURRENCE_TOL = 1e-7
N_SAMPLE_TIMES = 3


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path):
    """Columns of a program CSV by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _jobs(raw):
    """(file tag, omega) per job, as the program names its files."""
    params = raw["params"]
    if raw.get("detunings") is None:
        return [("", params["omega"])]
    return [(f"_delta{float(d):g}", params["omega0"] - float(d)) for d in raw["detunings"]]


def _models(raw):
    model = raw.get("model", "microscopic")
    return ["microscopic", "phenomenological"] if model == "both" else [model]


def _series(raw, name, tag):
    """{model: (times, values)} from one observable CSV."""
    cols = read_csv(os.path.join(raw["output"], f"{name}{tag}.csv"))
    models = _models(raw)
    if len(models) == 2:
        return {"microscopic": (cols["gt"], cols["value"]),
                "phenomenological": (cols["gt"], cols["value_phenomenological"])}
    return {models[0]: (cols["gt"], cols["value"])}


# ---------------------------------------------------------------------------
# physics written out here


def _excitations(n_max):
    k = np.arange(2 * (n_max + 1))
    return k // 2 + k % 2


def coherent_amplitudes(alpha, n_max):
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def _alpha(init, key="alpha"):
    value = init[key]
    return complex(*value) if isinstance(value, list) else complex(value)


def initial_vector(init, n_max):
    psi = np.zeros(2 * (n_max + 1), dtype=complex)
    kind = init["kind"]
    if kind == "single_excitation":
        psi[1] = _alpha(init)
        psi[2] = _alpha(init, "beta")
        return psi
    level = 1 if init["qubit_level"] == "excited" else 0
    if kind == "fock":
        psi[2 * init["n"] + level] = 1.0
        return psi
    amps = coherent_amplitudes(_alpha(init), n_max)
    psi[level::2] = amps / np.linalg.norm(amps)
    return psi


def jc_hamiltonian(omega0, omega, g, n_max):
    """(omega0/2) sigma_z + omega a^dag a + g (a sigma_+ + a^dag sigma_-)."""
    dim = 2 * (n_max + 1)
    h = np.zeros((dim, dim))
    for n in range(n_max + 1):
        h[2 * n, 2 * n] = n * omega - omega0 / 2
        h[2 * n + 1, 2 * n + 1] = n * omega + omega0 / 2
        if n < n_max:
            # <n,e| H |n+1,g> = g sqrt(n+1)
            h[2 * n + 1, 2 * n + 2] = h[2 * n + 2, 2 * n + 1] = g * math.sqrt(n + 1)
    return h


def field_reduced(rho):
    f = rho.shape[0] // 2
    return np.einsum("msns->mn", rho.reshape(f, 2, f, 2))


def observables_of(rho):
    """The program's observables, from their definitions."""
    dim = rho.shape[0]
    diag = np.real(np.diag(rho))
    n = np.arange(dim) // 2
    rf = field_reduced(rho)
    a_f = np.diag(np.sqrt(np.arange(1, rf.shape[0])), 1)
    ea = np.trace(a_f @ rf)
    ea2 = np.trace(a_f @ a_f @ rf)
    en = float(n @ diag)
    p_f = np.clip(np.linalg.eigvalsh(0.5 * (rf + rf.conj().T)), 0.0, None)
    p_f = p_f[p_f > 1e-14]
    return {
        "ground_population": diag[0],
        "inversion": float(np.where(np.arange(dim) % 2 == 1, 1.0, -1.0) @ diag),
        "mean_photon": en,
        "purity": float(np.vdot(rho, rho).real),
        "field_entropy": float(-np.sum(p_f * np.log(p_f))),
        "q_var": 0.25 * (2 * ea2.real + 2 * en + 1) - ea.real ** 2,
        "p_var": 0.25 * (-2 * ea2.real + 2 * en + 1) - ea.imag ** 2,
    }


def expm_states(raw, kind, omega, times):
    """rho(t) by expm_multiply on the generator in the frame rotating at
    omega, where it is L + i omega (N_i - N_j) on vec(rho)_ij; that shift
    is exact because every jump changes the excitation number N by one."""
    from jcdiss.dressed import SystemParams
    from jcdiss.hilbert import SpaceSpec
    from jcdiss.lindblad import build_liouvillian

    p = raw["params"]
    n_max = raw["n_max"]
    params = SystemParams(omega0=p["omega0"], omega=omega, gamma=p.get("gamma", 0.0),
                          g=p.get("g", 1.0), nbar_at_omega=p.get("nbar_at_omega", 0.0))
    lmat = build_liouvillian(kind, params, SpaceSpec(n_max=n_max)).matrix
    exc = _excitations(n_max)
    dim = exc.size
    diff = (exc[:, None] - exc[None, :]).reshape(-1, order="F")
    rotating = sp.csr_matrix(lmat + sp.diags(1j * omega * diff))
    psi = initial_vector(raw["initial_state"], n_max)
    v0 = np.outer(psi, psi.conj()).reshape(-1, order="F")
    states = []
    for t in times:
        rho = expm_multiply(rotating * t, v0).reshape(dim, dim, order="F")
        phase = np.exp(-1j * omega * t * exc)
        states.append(phase[:, None] * rho * phase.conj()[None, :])
    return states


def single_excitation_closed_form(params, omega, init, times):
    """Observables of the dressed generator at zero temperature for
    alpha|0,e> + beta|1,g>.

    With theta = atan2(2g, delta), c = cos(theta/2), s = sin(theta/2), the
    doublet is |+> = c|0,e> + s|1,g>, |-> = -s|0,e> + c|1,g>, split by
    Omega = sqrt(delta^2 + 4g^2). |+> decays to |0,g> at gamma s^2 and |->
    at gamma c^2, the coherence at gamma/2 while it precesses at Omega.
    """
    delta = params["omega0"] - omega
    g, gamma = params.get("g", 1.0), params["gamma"]
    theta = math.atan2(2 * g, delta)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    big_omega = math.hypot(delta, 2 * g)
    alpha, beta = _alpha(init), _alpha(init, "beta")
    ap, am = c * alpha + s * beta, -s * alpha + c * beta
    pp = abs(ap) ** 2 * np.exp(-gamma * s * s * times)
    pm = abs(am) ** 2 * np.exp(-gamma * c * c * times)
    coh = ap * np.conj(am) * np.exp((-1j * big_omega - 0.5 * gamma) * times)
    # rho in the basis (|0,g>, |0,e>, |1,g>)
    plus = np.array([0.0, c, s])
    minus = np.array([0.0, -s, c])
    rho = np.zeros((times.size, 3, 3), dtype=complex)
    rho[:, 0, 0] = 1 - pp - pm
    rho += pp[:, None, None] * np.outer(plus, plus)
    rho += pm[:, None, None] * np.outer(minus, minus)
    rho += coh[:, None, None] * np.outer(plus, minus)
    rho += np.conj(coh)[:, None, None] * np.outer(minus, plus)
    p_excited = rho[:, 1, 1].real
    p_photon = rho[:, 2, 2].real
    field = np.stack([1 - p_photon, p_photon], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -np.sum(np.where(field > 1e-14, field * np.log(field), 0.0), axis=1)
    return {
        "ground_population": rho[:, 0, 0].real,
        "inversion": 2 * p_excited - 1,
        "purity": np.sum(np.abs(rho) ** 2, axis=(1, 2)),
        "field_entropy": entropy,
        # the state lies in span{|0,g>, |0,e>, |1,g>}: C = 2 |<0,e|rho|1,g>|
        "concurrence": 2 * np.abs(rho[:, 1, 2]),
    }


def coherent_overlap_tail(alpha, betas, n_max):
    """Bound on |Q(b) - exp(-|b - alpha|^2)/pi| from truncating both
    coherent states at n_max: the dropped terms of <b|alpha> sum to at most
    exp(-(|a|^2 + |b|^2)/2 + |a b|) P(Poisson(|a b|) > n_max), and |alpha>
    is renormalized after losing P(Poisson(|a|^2) > n_max)."""
    x = np.abs(alpha) * np.abs(betas)
    err = np.exp(-(abs(alpha) ** 2 + np.abs(betas) ** 2) / 2 + x) * gammainc(n_max + 1, x)
    overlap = np.exp(-np.abs(betas - alpha) ** 2 / 2)
    renorm = gammainc(n_max + 1, abs(alpha) ** 2)
    return ((2 * overlap + err) * err + 2 * renorm * overlap ** 2) / math.pi


def gibbs_populations(omega0, omega, g, n_max, kT):
    energies, vecs = np.linalg.eigh(jc_hamiltonian(omega0, omega, g, n_max))
    weights = np.exp(-(energies - energies[0]) / kT)
    return (np.abs(vecs) ** 2) @ weights / weights.sum()


def _occupation(nu, kT):
    return 1.0 / math.expm1(nu / kT) if kT > 0 else 0.0


# ---------------------------------------------------------------------------
# checks; each returns a list of problems


def _far(label, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return [f"{label}: off by {err:.3e} (tolerance {tol:.0e})"] if not err <= tol else []


def check_manifest(raw, manifest_name, method):
    manifest = read_json(os.path.join(raw["output"], manifest_name))
    problems = []
    for name in manifest["files"]:
        if not os.path.isfile(os.path.join(raw["output"], name)):
            problems.append(f"{manifest_name}: listed file {name} missing")
    for job in manifest["jobs"]:
        for kind, entry in job["models"].items():
            where = f"{manifest_name} {job['tag']} {kind}"
            if entry["method"] != method or entry["fallback_to_rk4"]:
                problems.append(f"{where}: ran {entry['method']}, expected {method}")
            if not entry["top_population_max"] <= TOP_POPULATION_MAX:
                problems.append(f"{where}: top population {entry['top_population_max']:.3e}")
            for key in ("trace_drift_max", "herm_defect_max"):
                if not entry[key] <= DRIFT_MAX:
                    problems.append(f"{where}: {key} {entry[key]:.3e}")
            if not entry["min_eigenvalue"] >= MIN_EIGENVALUE:
                problems.append(f"{where}: min eigenvalue {entry['min_eigenvalue']:.3e}")
            if not entry["uncertainty_product_min"] >= UNCERTAINTY - EXACT_TOL:
                problems.append(f"{where}: uncertainty product {entry['uncertainty_product_min']!r}")
    return problems


def check_initial_rows(raw, names):
    """Row t = 0 against the initial state's values from their definitions."""
    psi = initial_vector(raw["initial_state"], raw["n_max"])
    want = observables_of(np.outer(psi, psi.conj()))
    if raw["initial_state"]["kind"] == "single_excitation":
        # C = 2 |<0,e|rho|1,g>| on the pure state alpha|0,e> + beta|1,g>
        want["concurrence"] = 2 * abs(psi[1] * psi[2])
    problems = []
    for tag, _ in _jobs(raw):
        for name in names:
            if want.get(name) is None:
                continue
            for kind, (t, values) in _series(raw, name, tag).items():
                if t[0] != 0.0:
                    problems.append(f"{name}{tag}: first row is not t = 0")
                    continue
                problems += _far(f"{name}{tag} {kind} at t=0", values[0], want[name], SPECTRAL_TOL)
    return problems


def check_bounds(raw, names):
    """0 <= S <= ln(n_max+1), 0 < purity <= 1, 0 <= C <= 1, |inversion| <= 1."""
    limits = {"field_entropy": (0.0, math.log(raw["n_max"] + 1)), "purity": (0.0, 1.0),
              "concurrence": (0.0, 1.0), "inversion": (-1.0, 1.0),
              "ground_population": (0.0, 1.0)}
    problems = []
    for tag, _ in _jobs(raw):
        for name in names:
            lo, hi = limits[name]
            for kind, (_, values) in _series(raw, name, tag).items():
                bad = (values < lo - EXACT_TOL) | (values > hi + EXACT_TOL)
                if name == "purity":
                    bad |= values <= 0
                if bad.any():
                    problems.append(f"{name}{tag} {kind}: {bad.sum()} rows outside [{lo}, {hi}]")
    return problems


def check_uncertainty(raw):
    problems = []
    for tag, _ in _jobs(raw):
        q, p = _series(raw, "q_var", tag), _series(raw, "p_var", tag)
        for kind in q:
            product = q[kind][1] * p[kind][1]
            if not product.min() >= UNCERTAINTY - EXACT_TOL:
                problems.append(f"q_var*p_var{tag} {kind}: minimum {product.min()!r} < 1/16")
    return problems


def _cumulative_trapezoid(t, y):
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))])


def check_excitation_balance(raw):
    """Bare damping at T = 0 loses excitations only through the field:
    d(<n> + P_e)/dt = -gamma <n>. The integral is the trapezoid rule on the
    rows, improved by one Richardson step from steps h and 2h; the
    tolerance is ten times that estimate's own error, taken from the same
    step on 2h and 4h. Rows on the 4h grid are checked."""
    problems = []
    gamma = raw["params"]["gamma"]
    for tag, _ in _jobs(raw):
        t, n = _series(raw, "mean_photon", tag)["phenomenological"]
        _, inv = _series(raw, "inversion", tag)["phenomenological"]
        total = (n + 0.5 * (1 + inv))[::4]
        trap = [_cumulative_trapezoid(t[::k], n[::k])[:: 4 // k] for k in (1, 2, 4)]
        fine = trap[0] + (trap[0] - trap[1]) / 3
        coarse = trap[1] + (trap[1] - trap[2]) / 3
        tol = 10 * gamma * np.max(np.abs(fine - coarse)) / 15 + EXACT_TOL
        problems += _far(f"excitation balance{tag}", total - total[0] + gamma * fine, 0.0, tol)
    return problems


def check_expm(raw, names, rng):
    """Seeded rows against expm_multiply propagation of each generator."""
    problems = []
    n_rows = raw["n_points"]
    rows = np.sort(rng.choice(np.arange(1, n_rows), size=N_SAMPLE_TIMES, replace=False))
    for tag, omega in _jobs(raw):
        series = {name: _series(raw, name, tag) for name in names}
        for kind in _models(raw):
            times = series[names[0]][kind][0][rows]
            for row, t, rho in zip(rows, times, expm_states(raw, kind, omega, times)):
                want = observables_of(rho)
                for name in names:
                    got = series[name][kind][1][row]
                    problems += _far(f"{name}{tag} {kind} at t={t:.6g}", got, want[name],
                                     SPECTRAL_TOL)
    return problems


def check_closed_form(raw, names, tol):
    problems = []
    for tag, omega in _jobs(raw):
        for name in names:
            for kind, (t, values) in _series(raw, name, tag).items():
                want = single_excitation_closed_form(raw["params"], omega,
                                                     raw["initial_state"], t)[name]
                limit = max(tol, CONCURRENCE_TOL) if name == "concurrence" else tol
                problems += _far(f"{name}{tag} {kind} against the closed form", values, want,
                                 limit)
    return problems


def check_steady(raw):
    p = raw["params"]
    problems = []
    for tag, omega in _jobs(raw):
        kT = omega / math.log(1 + 1 / p["nbar_at_omega"])
        cols = read_csv(os.path.join(raw["output"], f"steady_microscopic{tag}.csv"))
        want = gibbs_populations(p["omega0"], omega, p.get("g", 1.0), raw["n_max"], kT)
        problems += _far(f"steady{tag} against the Gibbs state", cols["population"], want,
                         SPECTRAL_TOL)
    return problems


def check_rates(raw):
    """Rate table against Bohr frequencies and matrix elements of a between
    the eigenstates of the 2x2 manifolds of H, computed here:
    gamma_i = gamma (1 + nbar(nu_i)), gtilde_i = gamma nbar(nu_i)."""
    p = raw["params"]
    gamma, g, n_max = p["gamma"], p.get("g", 1.0), raw["n_max"]
    problems = []
    for tag, omega in _jobs(raw):
        kT = omega / math.log(1 + 1 / p["nbar_at_omega"]) if p.get("nbar_at_omega") else 0.0
        cols = read_csv(os.path.join(raw["output"], f"rates{tag}.csv"))
        energy, vec = [], []
        for n in range(n_max):   # manifold n spans (|n,e>, |n+1,g>)
            block = [[n * omega + p["omega0"] / 2, g * math.sqrt(n + 1)],
                     [g * math.sqrt(n + 1), (n + 1) * omega - p["omega0"] / 2]]
            e, v = np.linalg.eigh(block)   # ascending: index 0 is |n,->, 1 is |n,+>
            energy.append(e)
            vec.append(v)
        ground = -p["omega0"] / 2
        want = {name: [] for name in ("a_n", "b_n", "d_n")}
        nus = {i: [] for i in range(1, 7)}
        for n in range(n_max - 1):
            def elem(upper, lower):  # |<n, lower| a |n+1, upper>|
                x, y = vec[n][:, lower], vec[n + 1][:, upper]
                return abs(x[0] * y[0] * math.sqrt(n + 1) + x[1] * y[1] * math.sqrt(n + 2))
            want["a_n"].append(elem(1, 1))
            want["b_n"].append(elem(0, 0))
            want["d_n"].append(elem(0, 1))
            nus[1].append(energy[0][1] - ground)
            nus[2].append(energy[0][0] - ground)
            nus[3].append(energy[n + 1][1] - energy[n][1])
            nus[4].append(energy[n + 1][0] - energy[n][0])
            nus[5].append(energy[n + 1][1] - energy[n][0])
            nus[6].append(energy[n + 1][0] - energy[n][1])
        for name, values in want.items():
            problems += _far(f"rates{tag} |{name}|", np.abs(cols[name]), values, SPECTRAL_TOL)
        for i, values in nus.items():
            occ = np.array([_occupation(nu, kT) for nu in values])
            problems += _far(f"rates{tag} gamma{i}", cols[f"gamma{i}"], gamma * (1 + occ),
                             SPECTRAL_TOL)
            problems += _far(f"rates{tag} gtilde{i}", cols[f"gtilde{i}"], gamma * occ,
                             SPECTRAL_TOL)
    return problems


def check_husimi(raw, rng):
    """t = 0 maps equal exp(-|b - alpha|^2)/pi; every map integrates to its
    manifest mass and stays within [0, 1/pi]; at one seeded time a seeded
    set of grid points matches <b|rho_f|b>/pi of the expm_multiply state."""
    manifest = read_json(os.path.join(raw["output"], "husimi_manifest.json"))
    problems = check_manifest(raw, "husimi_manifest.json", "spectral")
    alpha = _alpha(raw["initial_state"])
    extent, n_grid = raw["husimi"]["extent"], raw["husimi"]["n_points"]
    axis = np.linspace(-extent, extent, n_grid)
    dx = axis[1] - axis[0]
    times = raw["husimi"]["times"]
    later = int(rng.integers(1, len(times)))
    points = rng.choice(n_grid * n_grid, size=50, replace=False)
    grid = np.meshgrid(axis, axis)
    grid = (grid[0] + 1j * grid[1]).ravel()
    for job in manifest["jobs"]:
        for kind, entry in job["models"].items():
            rho_later = expm_states(raw, kind, raw["params"]["omega"], [times[later]])[0]
            for i, snap in enumerate(entry["husimi"]):
                cols = read_csv(os.path.join(raw["output"], snap["file"]))
                b = cols["re_alpha"] + 1j * cols["im_alpha"]
                q = cols["q"]
                label = snap["file"]
                problems += _far(f"{label} grid", b, grid, EXACT_TOL)
                if np.any(q < 0) or np.any(q > 1 / math.pi + EXACT_TOL):
                    problems.append(f"{label}: values outside [0, 1/pi]")
                mass = q.sum() * dx * dx
                problems += _far(f"{label} mass", mass, snap["mass"], EXACT_TOL)
                if snap["gt"] == 0.0:
                    err = np.abs(q - np.exp(-np.abs(b - alpha) ** 2) / math.pi)
                    tol = coherent_overlap_tail(alpha, b, raw["n_max"]) + EXACT_TOL
                    if np.any(err > tol):
                        problems.append(f"{label} at t=0: off by {err.max():.3e}, beyond the "
                                        "truncation tail")
                if i == later:
                    rf = field_reduced(rho_later)
                    amps = np.array([coherent_amplitudes(z, raw["n_max"]) for z in b[points]])
                    want = np.einsum("km,mn,kn->k", amps.conj(), rf, amps).real / math.pi
                    problems += _far(f"{label} against expm_multiply", q[points], want,
                                     SPECTRAL_TOL)
    return problems


def check_oracle(raw):
    report = read_json(os.path.join(raw["output"], "oracle_report.json"))
    problems = []
    if report.get("passed") is not True:
        problems.append("oracle report not passed")
    if report.get("seed") != raw["seed"]:
        problems.append(f"oracle ran with seed {report.get('seed')}, expected {raw['seed']}")
    expected = len(_jobs(raw)) * len(_models(raw)) * (1 + raw["oracle"]["n_trials"])
    if len(report.get("runs", [])) != expected or report.get("flagged"):
        problems.append(f"oracle report has {len(report.get('runs', []))} runs, "
                        f"{len(report.get('flagged') or [])} flagged; expected {expected}, 0")
    for kind, worst in report["worst_trace_distance"].items():
        if not worst <= SECOND_ROUTE_TOL:
            problems.append(f"oracle {kind}: worst trace distance {worst:.3e}")
    return problems


# ---------------------------------------------------------------------------


def check_operation(command, extra, raw, seed):
    """All checks of one operation's outputs."""
    rng = np.random.default_rng(seed)
    names = list(raw.get("observables", []))
    if command == "husimi":
        return check_husimi(raw, rng)
    if command == "oracle":
        return check_oracle(raw)
    if command == "steady":
        return check_steady(raw)
    if command == "rates":
        return check_rates(raw)
    method = extra[extra.index("--method") + 1] if "--method" in extra else raw["method"]
    problems = check_manifest(raw, "manifest.json", method)
    if method != "spectral":
        return problems + check_closed_form(raw, names, SECOND_ROUTE_TOL)
    problems += check_initial_rows(raw, names)
    kind = raw["initial_state"]["kind"]
    if kind == "single_excitation":
        problems += check_bounds(raw, names)
        problems += check_closed_form(raw, names, SPECTRAL_TOL)
    elif kind == "fock":
        problems += check_bounds(raw, names)
        problems += check_expm(raw, names, rng)
    else:
        if "q_var" in names:
            problems += check_uncertainty(raw)
        if "mean_photon" in names:
            problems += check_excitation_balance(raw)
        problems += check_expm(raw, names, rng)
    return problems
