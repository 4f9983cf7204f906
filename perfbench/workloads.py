"""Seeded inputs, library tasks and independent oracles for the benchmark.

Each workload is a fixed-shape list of tasks.  The seed draws only the
continuous parameters, and it draws them by stratified jitter: every task
owns one cell of the parameter box, so the cost of the whole list barely
depends on the seed while the values inside each cell do.  A task is one
library call of about the size of one CLI invocation.

``make_inputs`` is pure Python and numpy, so the inputs can be generated and
tested without importing the library.  ``run_task`` calls the library only
through module attributes looked up at call time, which lets the traced run
wrap those names.  ``check_task`` uses SciPy and mpmath only, never the
library's own code.
"""

import math
from functools import lru_cache

import numpy as np

WORKLOADS = ("pathways", "series", "transform", "bounds")

# Oracle tolerances.  Each is the accuracy the library states for the call
# (selftest gates or the default rtol), times at most 10 for oracle roundoff.
TOL_PATHWAY = 1e-8          # selftest mehler-pathways gate, relative to max(1, |R_k|)
TOL_SERIES = 1e-9           # 10 x coefficient_series rtol, relative to max(1, max|hat|)
TOL_TRANSFORM = 1e-8        # 10 x transform_sweep rtol, relative to max(prefactor, max|F|)
TOL_LAGUERRE = 1e-10        # selftest laguerre identity gate, relative to max(1, |rhs|)
TOL_PROFILE = 1e-9          # absolute, on values bounded by about 1
SLOPE_TOL = {"full": 0.05, "right": 0.1}   # selftest sup-norm slope gates

_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _IDS[workload]]))


def _cells(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw inside each of n equal cells of [lo, hi], in order."""
    u = (np.arange(n) + rng.random(n)) / n
    return [float(v) for v in lo + (hi - lo) * u]


def _latin(rng, lo: float, hi: float, n: int) -> list[float]:
    """Stratified draws as in _cells, in random order."""
    return [float(v) for v in rng.permutation(_cells(rng, lo, hi, n))]


# ---------------------------------------------------------------------------
# inputs


def _pathways(rng) -> list[dict]:
    # Boxes of the selftest mehler-pathways grid: alpha in [0, 1.5],
    # beta in [-0.5, 0.75] (beta > alpha is outside S), the alpha = -1/2 limit
    # form at beta in [-0.9, -0.75].  Each task sweeps one (alpha, beta) pair
    # over every theta band, as verify-mehler does, so tasks cost alike.  The
    # 2F1 cost grows like 1/cos^2(theta/2), so the bands at the selftest angles
    # are narrow, the one nearest pi most of all.
    bands = [(0.3, 0.4), (0.95, 1.05), (1.52, 1.62), (2.18, 2.22), (2.89, 2.9)]
    degrees = list(range(0, 51, 5))
    pairs = list(zip(_cells(rng, 0.0, 1.5, 6), _latin(rng, -0.5, 0.75, 6)))
    pairs += [(-0.5, b) for b in _latin(rng, -0.9, -0.75, 2)]
    return [{"kind": "mehler" if a > -0.5 else "mehler_limit", "alpha": a, "beta": b,
             "thetas": [float(rng.uniform(lo, hi)) for lo, hi in bands],
             "degrees": degrees} for a, b in pairs]


def _step_spec(rng) -> dict:
    t0, t1 = sorted(_cells(rng, 0.2, math.pi - 0.2, 2))
    return {"type": "step", "breakpoints": [t0, t1], "values": [0.0, 1.0, 0.0]}


def _cospoly_spec(rng) -> dict:
    r = float(rng.uniform(0.5, 1.0))
    return {"type": "cospoly",
            "coefficients": [r ** m / (m + 1.0) for m in range(25)]}


def _grid_spec(rng) -> dict:
    ts = _cells(rng, 0.2, math.pi - 0.2, 8)
    ys = [float(v) for v in rng.uniform(-1.0, 1.0, 8)]
    return {"type": "grid", "abscissae": ts, "ordinates": ys}


def _series(rng) -> list[dict]:
    # Boxes of the selftest dichotomy and counterexample grids:
    # alpha in [-0.9, 2], beta in [-0.5, 1], both inside and outside S.
    alphas = _latin(rng, -0.9, 2.0, 6)
    betas = _latin(rng, -0.5, 1.0, 6)
    specs = [(_step_spec(rng), 512), (_step_spec(rng), 1024), (_step_spec(rng), 2048),
             (_cospoly_spec(rng), 512), (_grid_spec(rng), 512), (_grid_spec(rng), 1024)]
    tasks = [{"kind": "coeffs", "function": f, "alpha": a, "beta": b, "kmax": kmax}
             for (f, kmax), a, b in zip(specs, alphas, betas)]
    # Power-weight moments over the counterexample box; rho keeps beta + rho > -1.
    for kmax, a, b in zip((512, 1024), _latin(rng, -0.9, 1.0, 2), _latin(rng, -0.5, 0.25, 2)):
        rho = float(rng.uniform(max(-0.9, -0.9 - b), -0.3))
        tasks.append({"kind": "counterexample", "alpha": a, "beta": b, "rho": rho,
                      "kmax": kmax})
    # The selftest dichotomy input at (-0.9, 0), fixed rather than drawn: there
    # the doubling loop accepts a stalled error without saying so (a known
    # defect), and series.stall_accepts must keep seeing it.
    tasks.append({"kind": "coeffs", "function": {
        "type": "cospoly", "coefficients": [1.0 / (m + 1.0) for m in range(25)]},
        "alpha": -0.9, "beta": 0.0, "kmax": 1024})
    return tasks


def _transform(rng) -> list[dict]:
    # Boxes of the selftest transform grid: alpha, beta in [-1/2, 1/2], plus
    # (-1/2, -1/2) exactly, where a closed form exists.  The cost of a sweep
    # grows like tau_max^3 (b - a) b^2, so the support cells are narrow.
    # (tau_max, tasks, support start cell, width cell)
    groups = [(50.0, 2, (0.5, 2.0), (0.5, 1.0)), (200.0, 4, (0.75, 1.25), (0.4, 0.6)),
              (400.0, 3, (0.75, 1.25), (0.2, 0.3))]
    count = sum(n for _, n, _, _ in groups)
    params = list(zip(_latin(rng, -0.5, 0.5, count), _latin(rng, -0.5, 0.5, count)))
    params[0] = params[2] = (-0.5, -0.5)
    tasks = []
    for tau_max, n, start, width in groups:
        for left, w in zip(_cells(rng, *start, n), _latin(rng, *width, n)):
            a, b = params[len(tasks)]
            tasks.append({"kind": "sweep", "alpha": a, "beta": b, "a": left, "b": left + w,
                          "tau_max": tau_max, "taus": 41, "check_index": int(rng.integers(3))})
    tasks.append({"kind": "envelope", "alpha": float(rng.uniform(-0.5, 0.5)),
                  "beta": float(rng.uniform(-0.5, 0.5)),
                  "check_points": [[int(rng.integers(41)), int(rng.integers(51))]
                                   for _ in range(3)]})
    return tasks


def _bounds(rng) -> list[dict]:
    tasks = []
    # Full interval, outside S: alpha < -1/2 (interior growth, the selftest
    # (-0.75, -0.75) case) and beta > alpha (growth at x = -1).
    for a, b in zip(_cells(rng, -0.85, -0.65, 2), _latin(rng, -0.9, -0.6, 2)):
        tasks.append({"kind": "sup_norm", "region": "full", "alpha": a, "beta": min(a, b)})
    a = float(rng.uniform(-0.4, 0.4))
    tasks.append({"kind": "sup_norm", "region": "full", "alpha": a,
                  "beta": a + float(rng.uniform(0.3, 0.8))})
    # Right half, inside S, as in the selftest right-region grid.
    for a, b in zip(_cells(rng, 0.5, 1.5, 2), _latin(rng, -0.4, 0.0, 2)):
        tasks.append({"kind": "sup_norm", "region": "right", "alpha": a, "beta": b})
    # The identity at two endpoints per task, so that identity and Laguerre
    # series tasks cost alike and the median task lies among them.
    ends = _cells(rng, 0.5, 10.0, 8)
    for i, alpha in enumerate(_latin(rng, 0.0, 2.0, 4)):
        tasks.append({"kind": "identity", "ends": ends[i::4], "alpha": alpha, "kmax": 50})
    tasks.append({"kind": "bound_profile", "alphas": _cells(rng, 0.0, 3.7, 3), "kmax": 200,
                  "check_degrees": sorted(int(k) for k in rng.integers(0, 201, 4))})
    for alpha, a in zip(_latin(rng, 0.0, 2.0, 2), _cells(rng, 0.5, 3.0, 2)):
        tasks.append({"kind": "laguerre_series", "a": a, "alpha": alpha, "kmax": 512})
    return tasks


_MAKERS = {"pathways": _pathways, "series": _series, "transform": _transform,
           "bounds": _bounds}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The task list of one workload, a pure function of (workload, seed)."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    tasks = _MAKERS[workload](_rng(workload, seed))
    check = _rng(workload, seed + 1_000_003)
    for i, t in enumerate(tasks):
        t["id"] = f"{workload}/{i:02d}/{t['kind']}"
        if t["kind"] in ("coeffs", "counterexample", "laguerre_series"):
            t["check_degrees"] = sorted({0, t["kmax"], *(int(k) for k in
                                         check.integers(1, t["kmax"], 3))})
    return tasks


# ---------------------------------------------------------------------------
# tasks (library side)


def _function(fj, spec: dict):
    kind = spec["type"]
    if kind == "step":
        return fj.series.StepFunction(tuple(spec["breakpoints"]), tuple(spec["values"]))
    if kind == "cospoly":
        return fj.series.CosinePoly(tuple(spec["coefficients"]))
    if kind == "grid":
        return fj.series.GridSampled(tuple(spec["abscissae"]), tuple(spec["ordinates"]))
    raise ValueError(f"unknown function type {kind!r}")


def run_task(fj, t: dict) -> dict:
    """One library call; returns its outputs as float arrays."""
    kind = t["kind"]
    if kind == "mehler":
        p = fj.specfun.JacobiParams(t["alpha"], t["beta"])
        vals = [[fj.mehler.mehler_r(k, p, th).value for k in t["degrees"]]
                for th in t["thetas"]]
        return {"values": np.array(vals)}
    if kind == "mehler_limit":
        vals = [[fj.mehler.mehler_limit_r(k, t["beta"], th).value for k in t["degrees"]]
                for th in t["thetas"]]
        return {"values": np.array(vals)}
    if kind == "coeffs":
        p = fj.specfun.JacobiParams(t["alpha"], t["beta"])
        s = fj.series.coefficient_series(_function(fj, t["function"]), t["kmax"], p)
        fit = fj.series.decay_fit(s)
        return {"values": np.asarray(s.values), "slope": np.array([fit.slope])}
    if kind == "counterexample":
        p = fj.specfun.JacobiParams(t["alpha"], t["beta"])
        rep = fj.series.counterexample_slope(p, t["rho"], t["kmax"])
        return {"values": np.asarray(rep.series.values),
                "slope": np.array([rep.fit.slope])}
    if kind == "sweep":
        p = fj.specfun.JacobiParams(t["alpha"], t["beta"])
        taus = np.linspace(0.0, t["tau_max"], t["taus"])
        f = fj.jtransform.Indicator(t["a"], t["b"])
        return {"values": np.asarray(fj.jtransform.transform_sweep(f, taus, p))}
    if kind == "envelope":
        p = fj.specfun.JacobiParams(t["alpha"], t["beta"])
        rep = fj.jtransform.envelope_check(p)
        return {"values": np.array([rep.c_star, rep.worst_ratio, float(rep.verified)])}
    if kind == "sup_norm":
        p = fj.specfun.JacobiParams(t["alpha"], t["beta"])
        rep = fj.series.sup_norm_slope(p, region=t["region"])
        return {"values": np.array([rep.slope])}
    if kind == "identity":
        pairs = [[fj.laguerre.step_identity_check(a, k, t["alpha"])
                  for k in range(1, t["kmax"] + 1)] for a in t["ends"]]
        return {"values": np.array(pairs)}
    if kind == "bound_profile":
        return {"values": np.array([fj.laguerre.laguerre_bound_profile(t["kmax"], alpha)
                                    for alpha in t["alphas"]])}
    if kind == "laguerre_series":
        f = fj.laguerre.LaguerreStep((t["a"],), (1.0,))
        return {"values": np.asarray(
            fj.laguerre.laguerre_coefficient_series(f, t["kmax"], t["alpha"]))}
    raise ValueError(f"unknown task kind {kind!r}")


# ---------------------------------------------------------------------------
# oracles (SciPy and mpmath only)


def _jacobi_r(k, a, b, x):
    from scipy.special import binom, eval_jacobi
    return eval_jacobi(int(k), a, b, x) / binom(k + a, k)


def _jacobi_r_near_one(k, a, b, th):
    """R_k(cos theta) for theta in [0, pi/2], at full precision near theta = 0.

    There cos(theta) has lost the digits of 1 - x that R_k depends on, so
    within about 1/k of the end R_k comes from its terminating 2F1 in
    sin^2(theta/2) instead, a short and stable sum.
    """
    from scipy.special import hyp2f1
    y = np.sin(th / 2.0) ** 2
    return np.where(k * k * y < 1.0, hyp2f1(-k, k + a + b + 1.0, a + 1.0, y),
                    _jacobi_r(k, a, b, np.cos(th)))


def _check_pathway(t, out):
    ref = np.array([[_jacobi_r(k, t["alpha"], t["beta"], math.cos(th)) for k in t["degrees"]]
                    for th in t["thetas"]])
    err = float(np.max(np.abs(out["values"] - ref) / np.maximum(1.0, np.abs(ref))))
    return err <= TOL_PATHWAY, f"max rel err {err:.3e} (tol {TOL_PATHWAY:g})"


@lru_cache(maxsize=None)
def _legendre(n):
    from scipy.special import roots_legendre
    return roots_legendre(n)


def _graded(fn, lo, hi, k, sing=None):
    """Integral of fn over [lo, hi] by Gauss-Legendre, on a mesh graded toward lo
    when sing = (p, c, h) says fn(t) ~ h (c (t - lo))^p there.

    The last eps of that end is integrated from the leading term, whose
    relative error is O((k eps)^2).  Chunk sizes and node counts follow the
    oscillation of a degree-k polynomial.
    """
    eps = 1e-6 / (k + 1.0)
    span = min(0.25, 0.5 * (hi - lo))
    left = [lo + eps * 2.0 ** j for j in range(80) if eps * 2.0 ** j < span] if sing else [lo]
    mid = np.linspace(left[-1], hi, int(math.ceil((hi - left[-1]) / 0.25)) + 1)
    pts = left + list(mid[1:])
    total = 0.0
    for u, v in zip(pts, pts[1:]):
        x, w = _legendre(int(0.7 * k * (v - u)) + 24)
        h = 0.5 * (v - u)
        total += h * float(w @ fn(u + (x + 1.0) * h))
    if sing:
        p, c, h = sing
        total += h * c ** p * eps ** (p + 1.0) / (p + 1.0)
    return total


def _series_ref(t, k):
    """hat(k) as an integral over theta of f R_k (sin theta/2)^(2a+1) (cos theta/2)^(2b+1).

    Each half of [0, pi] is integrated in the angle from its own end
    (theta, or s = pi - theta with R_k reflected), so that the singular
    weight near either end sees that angle at full precision.
    """
    from scipy.special import binom
    a, b = t["alpha"], t["beta"]
    q = 2.0 * b + 1.0
    if t["kind"] == "counterexample":
        # f = (1 + cos theta)^rho = 2^rho (cos theta/2)^(2 rho) joins the weight.
        rho = t["rho"]
        q = 2.0 * (b + rho) + 1.0
        pieces = [(0.0, math.pi, lambda th: np.full_like(th, 2.0 ** rho))]
    elif t["function"]["type"] == "cospoly":
        cs = t["function"]["coefficients"]
        pieces = [(0.0, math.pi, lambda th: sum(c * np.cos(m * th) for m, c in enumerate(cs)))]
    elif t["function"]["type"] == "step":
        spec = t["function"]
        cuts = [0.0, *spec["breakpoints"], math.pi]
        pieces = [(t0, t1, lambda th, v=v: np.full_like(th, v))
                  for t0, t1, v in zip(cuts, cuts[1:], spec["values"]) if v != 0.0]
    else:
        ts, ys = t["function"]["abscissae"], t["function"]["ordinates"]
        cuts = [0.0, *ts, math.pi]
        pieces = [(t0, t1, lambda th: np.interp(th, ts, ys)) for t0, t1 in zip(cuts, cuts[1:])]
    # R_k(-x) = (-1)^k (P_k^(b,a)(1) / P_k^(a,b)(1)) R_k^(b,a)(x)
    reflect = (-1.0) ** k * binom(k + b, k) / binom(k + a, k)
    half = 0.5 * math.pi
    total = 0.0
    for t0, t1, f in pieces:
        if t0 < half:
            def fn(th, f=f):
                return f(th) * _jacobi_r_near_one(k, a, b, th) \
                    * np.sin(th / 2.0) ** (2.0 * a + 1.0) * np.cos(th / 2.0) ** q
            sing = (2.0 * a + 1.0, 0.5, float(f(np.zeros(1))[0])) if t0 == 0.0 else None
            total += _graded(fn, t0, min(t1, half), k, sing)
        if t1 > half:
            def fn(s, f=f):
                return f(math.pi - s) * reflect * _jacobi_r_near_one(k, b, a, s) \
                    * np.cos(s / 2.0) ** (2.0 * a + 1.0) * np.sin(s / 2.0) ** q
            sing = (q, 0.5, float(f(np.full(1, math.pi))[0]) * reflect) if t1 == math.pi else None
            total += _graded(fn, math.pi - t1, math.pi - max(t0, half), k, sing)
    return total


def _check_series(t, out):
    vals = out["values"]
    scale = max(1.0, float(np.max(np.abs(vals))))
    worst = max(abs(vals[k] - _series_ref(t, k)) / scale for k in t["check_degrees"])
    ok = worst <= TOL_SERIES and bool(np.isfinite(out["slope"]).all())
    return ok, f"max err {worst:.3e} of scale {scale:.3g} (tol {TOL_SERIES:g})"


def _mp_phi(tau, s, a, b):
    import mpmath as mp
    rho = a + b + 1.0
    return mp.hyp2f1((rho + 1j * tau) / 2, (rho - 1j * tau) / 2, a + 1.0,
                     -mp.sinh(s) ** 2).real


def _check_sweep(t, out):
    a, b = t["alpha"], t["beta"]
    taus = np.linspace(0.0, t["tau_max"], t["taus"])
    vals = out["values"]
    rho = a + b + 1.0
    pref = 2.0 ** (2.0 * rho + 0.5) / math.gamma(a + 1.0)
    scale = max(pref, float(np.max(np.abs(vals))))
    if (a, b) == (-0.5, -0.5):
        c = math.sqrt(2.0 / math.pi)
        safe = np.where(taus == 0.0, 1.0, taus)
        ref = np.where(taus == 0.0, c * (t["b"] - t["a"]),
                       c * (np.sin(t["b"] * safe) - np.sin(t["a"] * safe)) / safe)
        err = float(np.max(np.abs(vals - ref))) / scale
    else:
        import mpmath as mp
        i = t["check_index"]
        tau = float(taus[i])
        ref = pref * mp.quad(lambda s: _mp_phi(tau, s, a, b)
                             * mp.sinh(s) ** (2 * a + 1) * mp.cosh(s) ** (2 * b + 1),
                             [t["a"], 0.5 * (t["a"] + t["b"]), t["b"]])
        err = abs(vals[i] - float(ref)) / scale
    return err <= TOL_TRANSFORM, f"err {err:.3e} of scale {scale:.3g} (tol {TOL_TRANSFORM:g})"


def _check_envelope(t, out):
    a, b = t["alpha"], t["beta"]
    c_star, worst, verified = out["values"]
    ts = np.linspace(0.0, 20.0, 41)
    taus = np.linspace(0.0, 50.0, 51)
    rho = a + b + 1.0
    excess = 0.0
    for i, j in t["check_points"]:
        s, tau = float(ts[i]), float(taus[j])
        phi = 1.0 if s == 0.0 else float(_mp_phi(tau, s, a, b))
        ratio = abs(phi) / ((1.0 + s) * math.exp(-rho * s))
        excess = max(excess, ratio - c_star)
    ok = bool(verified) and excess <= 1e-8 * c_star
    return ok, f"verified={bool(verified)} worst ratio {worst:.4f}, oracle excess {excess:.2e}"


def _check_sup_norm(t, out):
    a, b = t["alpha"], t["beta"]
    want = (max(a, b, -0.5) if t["region"] == "full" else max(b, -0.5)) - a
    gap = abs(float(out["values"][0]) - want)
    tol = SLOPE_TOL[t["region"]]
    return gap <= tol, f"slope {out['values'][0]:.4f} vs {want:.4f} (tol {tol})"


def _laguerre_r(k, alpha, x):
    from scipy.special import binom, eval_genlaguerre
    return eval_genlaguerre(int(k), alpha, x) / binom(k + alpha, k)


def _check_identity(t, out):
    alpha = t["alpha"]
    err = 0.0
    for a, pairs in zip(t["ends"], out["values"]):
        ref = np.array([math.exp(-a) * a ** (alpha + 1.0) * _laguerre_r(k - 1, alpha + 1.0, a)
                        / (alpha + 1.0) for k in range(1, t["kmax"] + 1)])
        dev = np.maximum(np.abs(pairs[:, 0] - ref), np.abs(pairs[:, 1] - ref))
        err = max(err, float(np.max(dev / np.maximum(1.0, np.abs(ref)))))
    return err <= TOL_LAGUERRE, f"max rel err {err:.3e} (tol {TOL_LAGUERRE:g})"


def _check_profile(t, out):
    grid = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 2000)))
    err = 0.0
    for alpha, profile in zip(t["alphas"], out["values"]):
        for k in t["check_degrees"]:
            ref = np.max(np.abs(np.exp(-grid / 2.0) * _laguerre_r(k, alpha, grid)))
            err = max(err, abs(profile[k] - float(ref)))
    bounded = float(np.max(out["values"])) <= 1.0 + 1e-10
    return err <= TOL_PROFILE and bounded, f"max err {err:.3e} (tol {TOL_PROFILE:g})"


def _check_laguerre_series(t, out):
    a, alpha = t["a"], t["alpha"]
    vals = out["values"]
    scale = max(1.0, float(np.max(np.abs(vals))))
    worst = 0.0
    for k in t["check_degrees"]:
        ref = _graded(lambda x: _laguerre_r(k, alpha, x) * x ** alpha * np.exp(-x),
                      0.0, a, k, sing=(alpha, 1.0, 1.0))
        worst = max(worst, abs(vals[k] - ref) / scale)
    return worst <= TOL_SERIES, f"max err {worst:.3e} (tol {TOL_SERIES:g})"


_CHECKS = {"mehler": _check_pathway, "mehler_limit": _check_pathway,
           "coeffs": _check_series, "counterexample": _check_series,
           "sweep": _check_sweep, "envelope": _check_envelope,
           "sup_norm": _check_sup_norm, "identity": _check_identity,
           "bound_profile": _check_profile, "laguerre_series": _check_laguerre_series}


def check_task(t: dict, out: dict) -> tuple[bool, str]:
    """Compare one task's outputs with its oracle: (passed, detail)."""
    if not all(np.isfinite(v).all() for v in out.values()):
        return False, "non-finite output"
    return _CHECKS[t["kind"]](t, out)
