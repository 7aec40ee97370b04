"""Command-line interface: analyze, sweep, simulate, verify, baseline.

All verbs share one option set, declared once in ``OPTIONS``: the flags, the
config-file keys and types, and the defaults all come from that table.
Values resolve flag > config file > default; the config file is a flat JSON
object keyed by option names.  ``parse_config`` builds the objects a verb runs
on (from ``inputs``), and each object checks the values it reads, so a verb
rejects bad values of the options it reads before any work, and ignores the
others.  It returns the verb's run: the verb's runner bound to those objects,
called with no arguments.  This module and ``inputs`` import neither numpy
nor scipy; only ``execute`` loads the numeric modules, once the run is built,
so a rejected invocation, --help and --version never load them.  Exit codes: 0
success, 1 verification found mismatches, 2 usage error, 3 runtime failure
such as an --out file that cannot be written (2 and 3 are reported as a
single JSON object on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, TextIO

from . import __version__
from .errors import CryptoflowError
from .inputs import (
    DEFAULT_BAND,
    DEFAULT_EPS,
    FORMATS,
    PARAM_FIELDS,
    Axis,
    GbmParams,
    Method,
    ModelParams,
    SimConfig,
    SweepSpec,
    Variant,
    check_count,
    check_dead_band,
    check_positive,
    check_verify,
    default_step,
    ignored_fields,
    timestamp,
    validate_params,
)

VERBS = {
    "analyze": "Jacobian, spectrum, and closed-form verdicts at a point",
    "sweep": "stability map over a two-axis parameter lattice",
    "simulate": "integrate a perturbation and classify it empirically",
    "verify": "cross-validate closed forms against eigenvalues",
    "baseline": "log-normal baseline path and tail exceedance",
}


class UsageError(ValueError):
    """Bad invocation; maps to exit code 2."""


@dataclass(frozen=True)
class Option:
    """One option: config key, value type, default, help and flags."""

    name: str
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None
    flags: tuple[str, ...] = ()

    @property
    def option_strings(self) -> tuple[str, ...]:
        return self.flags or (f"--{self.name}",)


OPTIONS = (
    Option("variant", str, Variant.FULL_5X5.value, "model variant",
           choices=tuple(v.value for v in Variant)),
    *(Option(name, float, getattr(ModelParams, name), f"model parameter {name}")
      for name in PARAM_FIELDS),
    Option("eps", float, DEFAULT_EPS, "spectral dead band"),
    Option("band", float, DEFAULT_BAND, "criterion dead band"),
    Option("seed", int, 0, "random seed"),
    Option("n", int, 10_000, "sample / step count", flags=("-n",)),
    Option("step", float, SimConfig.step, "integration or path step (default: derived)"),
    Option("horizon", float, SimConfig.horizon, "integration horizon"),
    Option("delta", float, SimConfig.perturbation, "perturbation size for simulate"),
    Option("axis1", str, None, "sweep axis as name:min:max:steps"),
    Option("axis2", str, None, "sweep axis as name:min:max:steps"),
    Option("method", str, Method.EIGEN.value, "sweep method",
           choices=tuple(m.value for m in Method)),
    Option("out", str, None, "output file path"),
    Option("format", str, None, "sweep export format (default csv, or from --out suffix)",
           choices=FORMATS),
    Option("threads", int, 1, "validated (>= 1) but has no effect"),
    Option("mu", float, GbmParams.mu, "baseline drift per unit time"),
    Option("sigma", float, GbmParams.sigma, "baseline volatility per unit time"),
    Option("p0", float, 1.0, "baseline initial price"),
    Option("drop", float, None, "baseline: report exceedance of a drop of this size"),
)

_OPTIONS_BY_NAME = {opt.name: opt for opt in OPTIONS}
_CONFIG_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
                 str: (str, "a string")}


class _NegativeNumber:
    """argparse's private ``_negative_number_matcher``: a dash-led token that
    names no flag is a value where ``match`` is true, else a flag.  argparse's
    own pattern takes only the -1 and -.5 forms; this takes any token float()
    reads, so ``--mu -1e-4`` and ``--q -inf`` are values.  ``-nan`` names the
    flag ``-n`` before this is asked."""

    @staticmethod
    def match(token: str) -> bool:
        if not token.startswith("-"):
            return False
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")

    def _print_message(self, message, file=None):
        # argparse swallows OSError here; --help and --version on a stdout
        # that cannot be written must reach main() as a runtime error.
        if message:
            (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--config", help="JSON config file keyed by option names")
    for opt in OPTIONS:
        default = "" if opt.default is None else f" (default {opt.default})"
        shared.add_argument(*opt.option_strings, dest=opt.name,
                            type=opt.type, choices=opt.choices,
                            help=opt.help + default)

    parser = _Parser(
        prog="cryptoflow",
        description="Stability laboratory for an asset-flow price model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in VERBS.items():
        sub.add_parser(verb, parents=[shared], help=text)
    return parser


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an int too long to read
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    out = {}
    for key, value in raw.items():
        opt = _OPTIONS_BY_NAME.get(key)
        if opt is None:
            raise UsageError(f"unknown config key {key!r}")
        if value is None:
            continue
        accepted, kind = _CONFIG_TYPES[opt.type]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise UsageError(f"config key {key!r} must be {kind}, got {value!r}")
        if opt.choices is not None and value not in opt.choices:
            raise UsageError(f"config key {key!r} must be one of "
                             f"{', '.join(opt.choices)}, got {value!r}")
        try:
            out[key] = opt.type(value)
        except OverflowError as exc:
            raise UsageError(f"config key {key!r} must be {kind}: {exc}") from exc
    return out


def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"axis {text!r} must have the form name:min:max:steps")
    name, lo, hi, steps = parts
    try:
        return Axis(name=name, min=float(lo), max=float(hi), steps=int(steps))
    except ValueError as exc:
        raise UsageError(f"axis {text!r}: {exc}") from exc


def _sweep_spec(variant: Variant, params: ModelParams, opts: dict) -> SweepSpec:
    if opts["axis1"] is None or opts["axis2"] is None:
        raise UsageError("sweep requires --axis1 and --axis2")
    axes = (_parse_axis(opts["axis1"]), _parse_axis(opts["axis2"]))
    # fields an axis writes are validated per cell instead
    validate_params(replace(params, **{name: getattr(ModelParams, name)
                                       for axis in axes
                                       for name in axis.fields(variant)}))
    return SweepSpec(variant=variant, fixed=params, axis1=axes[0], axis2=axes[1],
                     method=Method(opts["method"]))


def parse_config(argv: list[str]) -> Callable[[], int]:
    """Parse argv (flag > config > default) into the verb's run.

    Builds the library objects the verb runs on, which check the values
    they read; a model parameter rule broken here becomes a UsageError.
    The run is the verb's runner bound to those objects and to the option
    values it reads; called with no arguments, it returns the exit code.
    """
    args = _build_parser().parse_args(argv)
    config = _load_config(args.config) if args.config else {}
    flags = {opt.name: getattr(args, opt.name) for opt in OPTIONS
             if getattr(args, opt.name) is not None}
    merged = {opt.name: opt.default for opt in OPTIONS} | config | flags
    # every verb rejects a bad value of these, also a verb that does not read it
    check_dead_band("eps", merged["eps"])
    check_dead_band("band", merged["band"])
    check_count("threads", merged["threads"], 1)

    verb, out = args.verb, merged["out"]
    variant = Variant(merged["variant"])
    params = ModelParams(**{key: merged[key] for key in PARAM_FIELDS})
    bands = {"eps": merged["eps"], "band": merged["band"]}
    try:
        if verb == "analyze":
            validate_params(params)
            return partial(_run_analyze, variant, params, **bands, out=out)
        if verb == "sweep":
            spec = _sweep_spec(variant, params, merged)
            timestamp()  # checks SOURCE_DATE_EPOCH; the export reads it again
            fmt = merged["format"]
            if fmt is None:
                suffix = Path(out).suffix.lstrip(".").lower() if out else ""
                fmt = suffix if suffix in FORMATS else "csv"
            return partial(_run_sweep, spec, **bands, fmt=fmt, out=out)
        if verb == "simulate":
            validate_params(params)
            sim = SimConfig(step=merged["step"], horizon=merged["horizon"],
                            perturbation=merged["delta"])
            if sim.step is None:
                sim.grid(default_step(variant, params))
            return partial(_run_simulate, variant, params, sim, out=out)
        if verb == "verify":
            pins = {key: getattr(params, key) for key in PARAM_FIELDS
                    if key in config or key in flags}
            validate_params(ModelParams(**pins))
            check_verify(variant, merged["n"], merged["seed"], pins)
            return partial(_run_verify, variant, pins, n=merged["n"],
                           seed=merged["seed"], **bands, out=out)
        # baseline
        step = merged["step"]
        gbm = GbmParams(mu=merged["mu"], sigma=merged["sigma"],
                        dt=GbmParams.dt if step is None else step,
                        n=merged["n"], seed=merged["seed"])
        check_positive("p0", merged["p0"])
        if merged["drop"] is not None:
            check_positive("sigma * sqrt(step)", gbm.log_step()[1])
            check_positive("drop", merged["drop"])
        return partial(_run_baseline, gbm, p0=merged["p0"], drop=merged["drop"], out=out)
    except CryptoflowError as exc:
        raise UsageError(str(exc)) from exc


def _finite(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return x


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return _finite(obj)


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The stream a verb writes its result to: the file ``path``, or stdout.

    A verb opens it only once its result exists, so a run that fails before
    then leaves an existing --out file as it was.  Every byte is written or
    an OSError raised.  An unbuffered stdout (PYTHONUNBUFFERED) is a raw
    file whose short writes, as on a pipe closed mid-write, TextIOWrapper
    drops; it is written through a buffered stream on the same descriptor,
    which retries them and raises on EPIPE.
    """
    if path:
        with open(path, "w") as stream:
            yield stream
    elif isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        sys.stdout.flush()
        with open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                  errors=sys.stdout.errors, closefd=False) as stream:
            yield stream
    else:
        yield sys.stdout


def _emit(doc: dict, out: str | None) -> None:
    """Write the verb's JSON document, stamped with the package version, to
    the --out file, if any, then stdout."""
    doc = _sanitize({**doc, "version": __version__})
    for path in (out, None) if out else (None,):
        with _output(path) as stream:
            json.dump(doc, stream, sort_keys=True, indent=2)
            stream.write("\n")


def _closed_form_doc(variant: Variant, params: ModelParams, band: float) -> dict:
    from .criteria import closed_forms

    out = {}
    for name, criterion in closed_forms(variant):
        try:
            result = criterion(params, band)
        except CryptoflowError as exc:
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        out[name] = {"satisfied": result} if isinstance(result, bool) else asdict(result)
    return out


def _run_analyze(variant: Variant, params: ModelParams, eps: float, band: float,
                 out: str | None) -> int:
    from .stability import classify, eigenvalues, jacobian_analytic

    jac = jacobian_analytic(variant, params)
    spectrum = eigenvalues(jac)
    doc = {
        "variant": variant.value,
        "params": asdict(params),
        "ignored_fields": sorted(ignored_fields(variant)),
        "eps": eps,
        "band": band,
        "jacobian": [[float(x) for x in row] for row in jac],
        "eigenvalues": [[z.real, z.imag] for z in spectrum],
        "verdict": asdict(classify(spectrum, eps)),
        "closed_form": _closed_form_doc(variant, params, band),
    }
    _emit(doc, out)
    return 0


def _run_sweep(spec: SweepSpec, eps: float, band: float, fmt: str,
               out: str | None) -> int:
    from .sweep import export_map, run_sweep

    result = run_sweep(spec, eps=eps, band=band)
    with _output(out) as stream:
        export_map(result, fmt, stream)
    return 0


def _run_simulate(variant: Variant, params: ModelParams, sim: SimConfig,
                  out: str | None) -> int:
    from .simulate import perturb_and_classify

    outcome = perturb_and_classify(variant, params, sim)
    if out:
        with _output(out) as stream:
            outcome.trajectory.to_csv(stream)
    doc = {
        "variant": variant.value,
        "params": asdict(params),
        "horizon": sim.horizon,
        "step": outcome.step,
        "delta": sim.perturbation,
        "verdict": outcome.verdict.value,
        "growth_rate": outcome.growth_rate,
        "deviation_ratio": outcome.deviation_ratio,
        "failure_time": outcome.failure_time,
    }
    _emit(doc, None)
    return 0


def _run_verify(variant: Variant, pins: dict[str, float], n: int, seed: int,
                eps: float, band: float, out: str | None) -> int:
    from .criteria import verify_consistency

    report = verify_consistency(variant, n=n, seed=seed, band=band, eps=eps,
                                fixed=pins or None)
    doc = asdict(report)
    doc.update(agreements=report.agreements, pinned=pins)
    _emit(doc, out)
    return 1 if report.mismatches > 0 else 0


def _run_baseline(gbm: GbmParams, p0: float, drop: float | None,
                  out: str | None) -> int:
    from .gbm import exceedance_report, gbm_path_csv, gbm_simulate

    path = gbm_simulate(gbm, p0=p0)
    report = None if drop is None else exceedance_report(gbm.log_step()[1], drop)
    if out:
        with _output(out) as stream:
            gbm_path_csv(gbm, path, stream)
    doc = {
        **asdict(gbm),
        "p0": p0,
        "final_price": float(path[-1]),
        "log_return_total": math.log(float(path[-1]) / float(path[0])),
        "exceedance": None if report is None else asdict(report),
    }
    _emit(doc, None)
    return 0


def execute(run: Callable[[], int]) -> int:
    """Call a verb's run from ``parse_config``; returns the process exit code.

    numpy and scipy load here, not at import.  Every numeric module loads
    whichever verb runs, though each runner imports the names it calls and
    only ``baseline`` needs scipy: dropping ``gbm`` here (ROADMAP item 2,
    step A) waits on the benchmark revision (item 1).  The benchmark's
    ``peak_rss_mb`` reads its runner, which grows with each cycle, and step A
    fits more cycles in 18 s (2 vCPUs, Python 3.11.7, numpy 2.4.6): ``map``
    at seed 7 went from 6/5 to 9/10 cycles and 63.5/60.2 to 73.8/77.5 MB,
    and ``trajectory`` at seed 2801 from 5 to 10 cycles and 57.8 to 68.6 MB,
    each against a 5 % bound.
    """
    # criteria loads model and stability
    from . import criteria, gbm, simulate, sweep  # noqa: F401

    return run()


def _error_json(name: str, exc: BaseException) -> str:
    return json.dumps({"error": name, "message": str(exc)}, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; the only place that maps errors to exit codes."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            code = execute(parse_config(argv))
        finally:
            # Also when argparse exits after --help or --version: a stdout
            # that cannot be written (EPIPE, ENOSPC) is a runtime error.
            sys.stdout.flush()
        return code
    except ValueError as exc:  # a UsageError, or a library object refusing a value
        sys.stderr.write(_error_json("UsageError", exc))
        return 2
    except (CryptoflowError, OSError, MemoryError) as exc:
        sys.stderr.write(_error_json(type(exc).__name__, exc))
        return 3

