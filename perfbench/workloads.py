"""Seeded inputs for the cryptoflow benchmark and the checks on their outputs.

A workload is an endless sequence of *cycles*.  Every cycle has the same
structure (the same verbs, sizes and export formats in the same order; a few
variant choices rotate with the cycle index); the seed only draws the
parameter values.  Runs therefore measure the same mix of work whatever the
seed, and a run always ends on a cycle boundary so the mix is exact.

The reference Jacobians below restate the model's linearisation so that input
selection (stable and unstable cohorts) and the spectral checks do not depend
on the code under test.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

VARIANTS = ("full5x5", "sentiment3x3", "liquidity2x2")
PARAM_KEYS = ("q", "q1", "q2", "tau0", "c", "c1", "c2", "c3")

# Sampling ranges of acceptance criterion 09 (log-uniform).
AMP_RANGE = (0.05, 4.0)
CLOCK_RANGE = (0.25, 4.0)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark profile."""

    point_lattice: int = 11       # point: steps per sweep axis
    point_verify: int = 100       # point: verify samples
    point_horizon: float = 20.0   # point: simulate horizon
    map_lattice: int = 101        # map: steps per sweep axis (101^2 ~ 1e4 cells)
    map_verify: int = 10_000      # map: verify samples
    traj_horizon: float = 50.0    # trajectory: simulate horizon
    traj_step: float = 0.005      # trajectory: RK4 step (1e4 steps at horizon 50)
    setup_every_s: float = 4.0    # loop seconds between setup_s samples
    import_repeats: int = 5       # -X importtime profiles in the traced run


FULL = Sizes()
SMOKE = Sizes(point_lattice=3, point_verify=5, point_horizon=5.0, map_lattice=3,
              map_verify=10, traj_step=0.05, setup_every_s=60.0, import_repeats=1)


@dataclass
class Invocation:
    """One CLI call: its arguments, the exit code the README promises, and
    what the output check needs to know."""

    verb: str
    args: list[str]
    expect_exit: int = 0
    out_suffix: str | None = None   # write --out <file>.<suffix> when set
    info: dict = field(default_factory=dict)

    def argv(self, out_path: str | None) -> list[str]:
        extra = ["--out", out_path] if self.out_suffix else []
        return [self.verb, *self.args, *extra]


# ---------------------------------------------------------------- reference model

def jacobian(variant: str, p: dict) -> np.ndarray:
    """Jacobian at the flat equilibrium, each row divided by its own clock."""
    q, q1, q2, t = p["q"], p["q1"], p["q2"], p["tau0"]
    c, c1, c2, c3 = p["c"], p["c1"], p["c2"], p["c3"]
    if variant == "liquidity2x2":
        return np.array([[-1 / t, 1 / t], [-q / c, (q - 1) / c]])
    if variant == "sentiment3x3":
        return np.array([
            [-1 / t, 1 / t, 2 / t],
            [-q / c, (q - 1) / c, 2 * q / c],
            [-q1 / c1, q1 / c1, (2 * q1 - 1) / c1],
        ])
    return np.array([
        [-1 / t, 0, 1 / t, 2 / t, 2 / t],
        [1 / c3, -1 / c3, 0, 0, 0],
        [-q / c, 0, (q - 1) / c, 2 * q / c, 2 * q / c],
        [-q1 / c1, 0, q1 / c1, (2 * q1 - 1) / c1, 2 * q1 / c1],
        [-q2 / c2, q2 / c2, 0, 0, -1 / c2],
    ])


def max_real(variant: str, p: dict) -> float:
    return float(np.max(np.linalg.eigvals(jacobian(variant, p)).real))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def sample_point(variant: str, rng: np.random.Generator) -> dict:
    """A parameter point drawn as in acceptance criterion 09."""
    amp = lambda: _log_uniform(rng, *AMP_RANGE)      # noqa: E731
    clock = lambda: _log_uniform(rng, *CLOCK_RANGE)  # noqa: E731
    p = dict(q=amp(), q1=0.0, q2=0.0, tau0=clock(), c=1.0, c1=1.0, c2=1.0, c3=1.0)
    if variant == "liquidity2x2":
        p["c"] = clock()
    elif variant == "sentiment3x3":
        p.update(q1=amp(), c=clock())
        p["c1"] = p["c"]  # the 3x3 closed form is derived for c = c1
    else:
        p.update(q1=amp(), q2=amp(), c3=clock())
    return p


def cohort_point(variant: str, rng: np.random.Generator, lo: float, hi: float) -> dict:
    """Rejection-sample a point whose dominant real part lies in [lo, hi]."""
    while True:
        p = sample_point(variant, rng)
        if lo <= max_real(variant, p) <= hi:
            return p


def param_args(p: dict) -> list[str]:
    return [arg for key in PARAM_KEYS for arg in (f"--{key}", repr(p[key]))]


# ---------------------------------------------------------------- workload cycles

def _lattice(variant: str, rng: np.random.Generator, steps: int) -> list[str]:
    """Sweep arguments for a lattice with invalid cells (K or c_over_tau0 axis)."""
    if variant == "full5x5":
        fixed = ["--q1", repr(rng.uniform(0.4, 0.6)), "--q2", repr(rng.uniform(0.2, 1.0)),
                 "--c3", repr(rng.uniform(2.0, 10.0))]
        axes = [f"K:0:4:{steps}", f"tau0:0.05:2:{steps}"]
    elif variant == "sentiment3x3":
        fixed = ["--q1", repr(rng.uniform(0.1, 1.0)), "--tau0", repr(rng.uniform(0.3, 1.0))]
        axes = [f"q:0:4:{steps}", f"c_over_tau0:0:3:{steps}"]
    else:
        fixed = ["--q1", repr(rng.uniform(0.2, 0.5)), "--tau0", repr(rng.uniform(0.3, 1.0))]
        axes = [f"K:0:5:{steps}", f"c_over_tau0:0:3:{steps}"]
    return ["--variant", variant, *fixed, "--axis1", axes[0], "--axis2", axes[1]]


def _sweep(group: str, lattice: list[str], method: str, fmt: str,
           to_file: bool, extra: tuple[str, ...] = ()) -> Invocation:
    args = [*lattice, "--method", method, *extra]
    if not to_file:
        args += ["--format", fmt]
    return Invocation("sweep", args, out_suffix=fmt if to_file else None,
                      info={"group": group, "format": fmt})


def point_cycle(rng: np.random.Generator, index: int, sizes: Sizes) -> list[Invocation]:
    """All five verbs at small sizes plus inputs the README says to reject."""
    cycle = []
    for variant in VARIANTS:
        p = sample_point(variant, rng)
        cycle.append(Invocation("analyze", ["--variant", variant, *param_args(p)],
                                info={"variant": variant, "params": p}))
    for with_out in (False, True):
        sigma, drop = rng.uniform(0.005, 0.02), rng.uniform(0.02, 0.08)
        cycle.append(Invocation(
            "baseline", ["--sigma", repr(sigma), "--drop", repr(drop), "-n", "250",
                         "--seed", str(int(rng.integers(1 << 31)))],
            out_suffix="csv" if with_out else None,
            info={"sigma": sigma, "drop": drop, "n": 250}))
    for variant in VARIANTS:
        pin = ["--q2", "0"] if variant == "full5x5" and index % 2 else []
        cycle.append(Invocation(
            "verify", ["--variant", variant, "-n", str(sizes.point_verify),
                       "--seed", str(int(rng.integers(1 << 31))), *pin],
            info={"n": sizes.point_verify}))
    for k, variant in enumerate(VARIANTS):
        p = cohort_point(variant, rng, -2.0, -0.5)
        cycle.append(Invocation(
            "simulate", ["--variant", variant, *param_args(p),
                         "--horizon", repr(sizes.point_horizon)],
            out_suffix="csv" if k == 0 else None,
            info={"expect": "stable"}))
    lattice = _lattice(VARIANTS[index % 3], rng, sizes.point_lattice)
    group = f"point-{index}"
    cycle += [_sweep(group, lattice, "eigen", "json", False),
              _sweep(group, lattice, "closed_form", "csv", False),
              _sweep(group, lattice, "eigen", "svg", True)]
    # Rejected inputs: usage errors exit 2, the unsupported 5x5 scaling exits 3.
    cycle += [
        Invocation("sweep", ["--variant", "liquidity2x2", "--axis1", "bogus:0:1:5",
                             "--axis2", "q:0:1:5"], expect_exit=2),
        Invocation("analyze", ["--variant", "sentiment3x3",
                               "--tau0", repr(-rng.uniform(0.1, 2.0))], expect_exit=2),
        Invocation("simulate", ["--variant", "liquidity2x2",
                                "--c", repr(-rng.uniform(0.1, 2.0))], expect_exit=2),
        Invocation("simulate", ["--variant", "sentiment3x3", "--horizon", "nan"],
                   expect_exit=2),
        Invocation("verify", ["--variant", "liquidity2x2", "-n", "10", "--eps", "nan"],
                   expect_exit=2),
        Invocation("analyze", ["--variant", "full5x5", "--c", repr(rng.uniform(1.5, 3.0)),
                               "--c1", repr(rng.uniform(0.2, 0.8))], expect_exit=3),
    ]
    return cycle


# Inputs the README says must be rejected with exit 2 that this revision of the
# program does not reject.  They run once after the timed loop and are scored
# against the README, outside the timed operations.
KNOWN_DEFECTS = (
    Invocation("analyze", ["--variant", "sentiment3x3", "--q", "nan"], expect_exit=2,
               info={"defect": "analyze --q nan exits 3 (ConvergenceFailure)"}),
    Invocation("simulate", ["--variant", "sentiment3x3", "--q", "nan"], expect_exit=2,
               info={"defect": "simulate --q nan answers 'indeterminate' with exit 0"}),
    Invocation("analyze", ["--variant", "liquidity2x2", "--tau0", "inf"], expect_exit=2,
               info={"defect": "--tau0 inf is accepted with exit 0"}),
)


def map_cycle(rng: np.random.Generator, index: int, sizes: Sizes,
              threads: int) -> list[Invocation]:
    """~1e4-cell sweeps over every variant and method, and ~1e4-sample verifies."""
    t = ("--threads", str(threads))
    n = sizes.map_verify
    steps = sizes.map_lattice
    cycle = []
    for variant, eigen_fmt, closed_fmt, eigen_extra in (
        ("full5x5", "json", "csv", ()),
        ("sentiment3x3", "csv", "svg", t),
        ("liquidity2x2", "svg", "json", ()),
    ):
        lattice = _lattice(variant, rng, steps)
        group = f"map-{index}-{variant}"
        cycle += [_sweep(group, lattice, "eigen", eigen_fmt, True, eigen_extra),
                  _sweep(group, lattice, "closed_form", closed_fmt, True)]
    for variant, extra in (("full5x5", ("--q2", "0")), ("full5x5", ()),
                           ("sentiment3x3", t), ("liquidity2x2", ())):
        cycle.append(Invocation(
            "verify", ["--variant", variant, "-n", str(n),
                       "--seed", str(int(rng.integers(1 << 31))), *extra],
            info={"n": n}))
    return cycle


def trajectory_cycle(rng: np.random.Generator, index: int,
                     sizes: Sizes) -> list[Invocation]:
    """simulate at the full horizon on stable and unstable cohort points.

    Per variant: two stable points (max_real in [-0.4, -0.1]) and one
    strongly unstable point that stops at a guard ([0.5, 2]); plus one weakly
    unstable point that runs to the horizon ([0.1, 0.15]), its variant taking
    turns from cycle to cycle.
    """
    cohorts = {variant: [(-0.4, -0.1, "stable"), (-0.4, -0.1, "stable"),
                         (0.5, 2.0, "unstable")] for variant in VARIANTS}
    cohorts[VARIANTS[index % 3]].append((0.1, 0.15, "unstable"))
    cycle = []
    for variant, bands in cohorts.items():
        for k, (lo, hi, expect) in enumerate(bands):
            p = cohort_point(variant, rng, lo, hi)
            cycle.append(Invocation(
                "simulate", ["--variant", variant, *param_args(p),
                             "--horizon", repr(sizes.traj_horizon),
                             "--step", repr(sizes.traj_step)],
                out_suffix="csv" if k == 0 else None,
                info={"expect": expect}))
    return cycle


def make_cycle(workload: str, rng: np.random.Generator, index: int, sizes: Sizes,
               threads: int) -> list[Invocation]:
    if workload == "point":
        return point_cycle(rng, index, sizes)
    if workload == "map":
        return map_cycle(rng, index, sizes, threads)
    return trajectory_cycle(rng, index, sizes)


WORKLOADS = ("point", "map", "trajectory")
WORK_UNITS = {
    "point": "invocations",
    "map": "parameter points (sweep cells + verify samples)",
    "trajectory": "RK4 steps",
}


# ---------------------------------------------------------------- output checks

@dataclass
class Outcome:
    """What one invocation produced."""

    exit: int
    stdout: bytes
    stderr: bytes
    out: bytes | None
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0


def rk4_steps(doc: dict) -> int:
    """RK4 steps a simulate run completed, from its step, horizon and failure time."""
    step = float(doc["step"])
    if doc["failure_time"] is not None:
        return round(float(doc["failure_time"]) / step)
    horizon = float(doc["horizon"])
    n_full = math.floor(horizon / step + 1e-9)
    return n_full + (1 if horizon - n_full * step >= 1e-9 * step else 0)


def work_units(workload: str, inv: Invocation, res: Outcome) -> int:
    """Units of work a successful invocation completed."""
    if workload == "point":
        return 1
    if workload == "trajectory":
        return rk4_steps(json.loads(res.stdout))
    if inv.verb == "verify":
        return inv.info["n"]
    return math.prod(_lattice_shape(inv))


def check(inv: Invocation, res: Outcome) -> str | None:
    """Return why the outcome breaks the README contract, or None if it holds."""
    if res.exit != inv.expect_exit:
        return f"exit {res.exit}, expected {inv.expect_exit}"
    if res.exit in (2, 3):
        lines = res.stderr.decode(errors="replace").splitlines()
        try:
            ok = len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
        except ValueError:
            ok = False
        return None if ok else "exit 2/3 without exactly one JSON object on stderr"
    return _CHECKS[inv.verb](inv, res)


def _check_analyze(inv: Invocation, res: Outcome) -> str | None:
    doc = json.loads(res.stdout)
    tag = doc["verdict"]["tag"]
    reference = max_real(inv.info["variant"], inv.info["params"])
    if abs(reference) > 1e-6 and tag != ("stable" if reference < 0 else "unstable"):
        return f"spectral verdict {tag} but reference max_real {reference:.3g}"
    if tag == "marginal":
        return None
    for name, entry in doc["closed_form"].items():
        verdict = entry.get("verdict")
        if verdict in ("stable", "unstable") and verdict != tag:
            return f"{name} says {verdict}, spectrum says {tag}"
        if entry.get("satisfied") is True and tag != "stable":
            return f"{name} (sufficient) holds but spectrum says {tag}"
    return None


def _check_baseline(inv: Invocation, res: Outcome) -> str | None:
    doc = json.loads(res.stdout)
    k = inv.info["drop"] / inv.info["sigma"]
    ex = doc["exceedance"]
    p = 0.5 * math.erfc(k / math.sqrt(2.0))
    if ex["k"] != k or not math.isclose(ex["probability"], p, rel_tol=1e-12):
        return "exceedance k or probability wrong"
    if doc["n"] != inv.info["n"] or not doc["final_price"] > 0.0:
        return "bad path summary"
    if not math.isclose(doc["log_return_total"], math.log(doc["final_price"]),
                        rel_tol=1e-9, abs_tol=1e-12):
        return "log_return_total does not match final_price"
    if res.out is not None:
        rows = res.out.decode().splitlines()
        if rows[0] != "t,P" or len(rows) != inv.info["n"] + 2 \
                or float(rows[-1].split(",")[1]) != doc["final_price"]:
            return "path CSV does not match the summary"
    return None


def _check_verify(inv: Invocation, res: Outcome) -> str | None:
    doc = json.loads(res.stdout)
    if doc["mismatches"] != 0:
        return f"{doc['mismatches']} mismatches"
    if doc["samples"] != inv.info["n"] \
            or doc["agreements"] + doc["excluded"] != doc["samples"]:
        return "sample accounting does not add up"
    return None


def _check_simulate(inv: Invocation, res: Outcome) -> str | None:
    doc = json.loads(res.stdout)
    if doc["verdict"] != inv.info["expect"]:
        return f"verdict {doc['verdict']}, cohort is {inv.info['expect']}"
    if res.out is not None:
        rows = res.out.decode().splitlines()
        steps = rk4_steps(doc)
        recorded = len(rows) - 1
        if not rows[0].startswith("t,") or not steps - 1 <= recorded - 1 <= steps:
            return f"trajectory CSV has {recorded} rows for {steps} steps"
    return None


def _check_sweep(inv: Invocation, res: Outcome) -> str | None:
    # Single-output checks; cross-method agreement is checked per group.
    try:
        sweep_verdicts(inv, res)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable {inv.info['format']} map: {exc}"
    return None


_CHECKS = {"analyze": _check_analyze, "baseline": _check_baseline,
           "verify": _check_verify, "simulate": _check_simulate, "sweep": _check_sweep}

_SVG_FILLS = {"#2166ac": "stable", "#fee08b": "marginal", "#b2182b": "unstable",
              "#bdbdbd": "invalid"}


def _lattice_shape(inv: Invocation) -> tuple[int, int]:
    axes = [inv.args[inv.args.index(flag) + 1] for flag in ("--axis1", "--axis2")]
    return tuple(int(axis.rsplit(":", 1)[1]) for axis in axes)


def sweep_verdicts(inv: Invocation, res: Outcome) -> list[str]:
    """Row-major verdicts of a sweep's output, whatever its format."""
    text = (res.out if res.out is not None else res.stdout).decode()
    n1, n2 = _lattice_shape(inv)
    fmt = inv.info["format"]
    if fmt == "json":
        doc = json.loads(text)
        verdicts = [v for row in doc["verdicts"] for v in row]
    elif fmt == "csv":
        rows = text.splitlines()
        if rows[0] != "axis1,axis2,max_real_or_margin,verdict":
            raise ValueError("bad CSV header")
        verdicts = [row.rsplit(",", 1)[1] for row in rows[1:]]
    else:
        verdicts = [_SVG_FILLS[fill] for fill in re.findall(r'<rect [^>]*fill="([^"]+)"', text)]
    if len(verdicts) != n1 * n2:
        raise ValueError(f"{len(verdicts)} cells, expected {n1 * n2}")
    return verdicts


def check_groups(invocations: list[Invocation], results: list[Outcome],
                 failures: dict[int, str], map_from_json) -> None:
    """Cross-output sweep checks, adding failures in place.

    JSON maps must round-trip through ``map_from_json``; every output of one
    lattice must agree on cells that both methods decide outside their dead
    bands (neither marginal nor invalid).
    """
    groups: dict[str, list[int]] = {}
    for i, inv in enumerate(invocations):
        if inv.verb == "sweep" and "group" in inv.info and i not in failures:
            groups.setdefault(inv.info["group"], []).append(i)
            if inv.info["format"] == "json":
                res = results[i]
                text = (res.out if res.out is not None else res.stdout).decode()
                try:
                    same = map_from_json(text).to_json() == text
                except (ValueError, KeyError, TypeError):
                    same = False
                if not same:
                    failures[i] = "JSON map does not round-trip through map_from_json"
    for members in groups.values():
        grids = [sweep_verdicts(invocations[i], results[i]) for i in members]
        decided = ("stable", "unstable")
        for cells in zip(*grids):
            if len({v for v in cells if v in decided}) > 1:
                for i in members:
                    failures.setdefault(i, "eigen and closed-form verdicts disagree")
                break
