"""Command-line interface: analyze, sweep, simulate, verify, baseline.

All verbs share one option set.  Values resolve flag > config file > default;
the config file is a flat JSON object keyed by flag names.  Exit codes:
0 success, 1 verification found mismatches, 2 usage error, 3 runtime failure
such as an --out file that cannot be written (2 and 3 are reported as a
single JSON object on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .criteria import closed_forms, verify_consistency
from .errors import CryptoflowError
from .gbm import GbmParams, exceedance_report, gbm_path_csv, gbm_simulate
from .model import (
    PARAM_FIELDS,
    ModelParams,
    ModelVariant,
    Variant,
    ignored_fields,
    validate_params,
)
from .simulate import SimConfig, default_step, perturb_and_classify
from .stability import classify, eigenvalues, jacobian_analytic
from .sweep import Axis, Method, SweepSpec, export_map, run_sweep

_FLOAT_KEYS = frozenset(PARAM_FIELDS) | {
    "eps", "band", "step", "horizon", "delta", "mu", "sigma", "p0", "drop",
}
_INT_KEYS = frozenset({"seed", "n", "threads"})
_STR_KEYS = frozenset({"variant", "axis1", "axis2", "method", "out", "format"})

DEFAULTS: dict[str, object] = {
    "variant": "full5x5",
    **asdict(ModelParams()),
    "eps": 1e-8,
    "band": 1e-6,
    "seed": 0,
    "n": 10_000,
    "step": None,
    "horizon": 50.0,
    "delta": 1e-4,
    "axis1": None,
    "axis2": None,
    "method": "eigen",
    "out": None,
    "format": None,
    "threads": None,
    "mu": 0.0,
    "sigma": 0.0075,
    "p0": 1.0,
    "drop": None,
}

VERBS = ("analyze", "sweep", "simulate", "verify", "baseline")


class UsageError(Exception):
    """Bad invocation detected after argparse; maps to exit code 2."""


@dataclass(frozen=True)
class Command:
    """A fully resolved invocation, ready to execute."""

    verb: str
    variant: ModelVariant
    params: ModelParams
    explicit: frozenset[str]
    options: dict


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file keyed by flag names")
    shared.add_argument("--variant",
                        choices=[v.value for v in Variant],
                        help="model variant (default full5x5)")
    for key in PARAM_FIELDS:
        shared.add_argument(f"--{key}", type=float,
                            help=f"model parameter {key}")
    shared.add_argument("--eps", type=float, help="spectral dead band (default 1e-8)")
    shared.add_argument("--band", type=float, help="criterion dead band (default 1e-6)")
    shared.add_argument("--seed", type=int, help="random seed (default 0)")
    shared.add_argument("-n", "--samples", dest="n", type=int,
                        help="sample / step count (default 10000)")
    shared.add_argument("--step", type=float,
                        help="integration or path step (default: derived)")
    shared.add_argument("--horizon", type=float, help="integration horizon (default 50)")
    shared.add_argument("--delta", type=float,
                        help="perturbation size for simulate (default 1e-4)")
    shared.add_argument("--axis1", help="sweep axis as name:min:max:steps")
    shared.add_argument("--axis2", help="sweep axis as name:min:max:steps")
    shared.add_argument("--method", choices=[m.value for m in Method],
                        help="sweep method (default eigen)")
    shared.add_argument("--out", help="output file path")
    shared.add_argument("--format", choices=["csv", "json", "svg"],
                        help="sweep export format (default csv, or from --out suffix)")
    shared.add_argument("--threads", type=int,
                        help="validated (>= 1) but has no effect; "
                        "default CRYPTOFLOW_THREADS or 1")
    shared.add_argument("--mu", type=float, help="baseline drift per unit time")
    shared.add_argument("--sigma", type=float,
                        help="baseline volatility per unit time (default 0.0075)")
    shared.add_argument("--p0", type=float, help="baseline initial price (default 1)")
    shared.add_argument("--drop", type=float,
                        help="baseline: report exceedance of a drop of this size")

    parser = argparse.ArgumentParser(
        prog="cryptoflow",
        description="Stability laboratory for an asset-flow price model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("analyze", parents=[shared],
                   help="Jacobian, spectrum, and closed-form verdicts at a point")
    sub.add_parser("sweep", parents=[shared],
                   help="stability map over a two-axis parameter lattice")
    sub.add_parser("simulate", parents=[shared],
                   help="integrate a perturbation and classify it empirically")
    sub.add_parser("verify", parents=[shared],
                   help="cross-validate closed forms against eigenvalues")
    sub.add_parser("baseline", parents=[shared],
                   help="log-normal baseline path and tail exceedance")
    return parser


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    known = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS
    out = {}
    for key, value in raw.items():
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        if value is None:
            continue
        if key in _FLOAT_KEYS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"config key {key!r} must be a number, got {value!r}")
            out[key] = float(value)
        elif key in _INT_KEYS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"config key {key!r} must be an integer, got {value!r}")
            out[key] = value
        else:
            if not isinstance(value, str):
                raise UsageError(f"config key {key!r} must be a string, got {value!r}")
            out[key] = value
    return out


def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"axis {text!r} must have the form name:min:max:steps")
    name, lo, hi, steps = parts
    try:
        axis = Axis(name=name, min=float(lo), max=float(hi), steps=int(steps))
    except ValueError as exc:
        raise UsageError(f"axis {text!r}: {exc}") from exc
    return axis


def _resolve_threads(value) -> int:
    if value is None:
        env = os.environ.get("CRYPTOFLOW_THREADS")
        if env is None:
            return 1
        try:
            value = int(env)
        except ValueError as exc:
            raise UsageError(
                f"CRYPTOFLOW_THREADS must be an integer, got {env!r}"
            ) from exc
    if value < 1:
        raise UsageError(f"threads must be >= 1, got {value}")
    return value


def parse_config(argv: list[str]) -> Command:
    """Parse argv into a resolved Command (flag > config > default)."""
    args = _build_parser().parse_args(argv)
    config = _load_config(args.config) if args.config else {}

    merged = dict(DEFAULTS)
    merged.update(config)
    cli_set = set()
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
            cli_set.add(key)
    explicit = frozenset(set(config) | cli_set)

    try:
        variant = ModelVariant(Variant(merged["variant"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    params = ModelParams(**{key: merged[key] for key in PARAM_FIELDS})

    merged["threads"] = _resolve_threads(merged["threads"])
    _validate_options(args.verb, variant, params, merged, explicit)
    options = {key: merged[key] for key in merged if key not in PARAM_FIELDS}
    options.pop("variant")
    return Command(
        verb=args.verb,
        variant=variant,
        params=params,
        explicit=explicit,
        options=options,
    )


def _validate_options(verb, variant, params, merged, explicit) -> None:
    if not merged["eps"] >= 0.0:
        raise UsageError(f"eps must be >= 0, got {merged['eps']}")
    if not merged["band"] >= 0.0:
        raise UsageError(f"band must be >= 0, got {merged['band']}")
    if merged["n"] < 1:
        raise UsageError(f"n must be >= 1, got {merged['n']}")
    if merged["step"] is not None and not merged["step"] > 0.0:
        raise UsageError(f"step must be positive, got {merged['step']}")
    if not merged["horizon"] > 0.0:
        raise UsageError(f"horizon must be positive, got {merged['horizon']}")
    if not 0.0 < merged["delta"] <= 1e-2:
        raise UsageError(f"delta must lie in (0, 0.01], got {merged['delta']}")
    if merged["sigma"] < 0.0:
        raise UsageError(f"sigma must be >= 0, got {merged['sigma']}")
    if not merged["p0"] > 0.0:
        raise UsageError(f"p0 must be positive, got {merged['p0']}")
    if merged["drop"] is not None and not merged["drop"] > 0.0:
        raise UsageError(f"drop must be positive, got {merged['drop']}")
    for key in ("eps", "band", "p0", "drop"):
        if merged[key] is not None and not math.isfinite(merged[key]):
            raise UsageError(f"{key} must be finite, got {merged[key]}")
    if merged["format"] not in (None, "csv", "json", "svg"):
        raise UsageError(f"format must be csv, json, or svg, got {merged['format']!r}")
    if merged["method"] not in [m.value for m in Method]:
        raise UsageError(f"unknown method {merged['method']!r}")

    if verb in ("analyze", "simulate"):
        try:
            validate_params(params, variant)
        except CryptoflowError as exc:
            raise UsageError(str(exc)) from exc
    elif verb == "sweep":
        if merged["axis1"] is None or merged["axis2"] is None:
            raise UsageError("sweep requires --axis1 and --axis2")
        axis1 = _parse_axis(merged["axis1"])
        axis2 = _parse_axis(merged["axis2"])
        # fields an axis will overwrite are validated per cell instead
        defaults = ModelParams()
        spared = replace(params, **{name: getattr(defaults, name)
                                    for axis in (axis1, axis2)
                                    for name in axis.fields(variant)})
        try:
            validate_params(spared, variant)
        except CryptoflowError as exc:
            raise UsageError(str(exc)) from exc
        try:
            SweepSpec(variant=variant, fixed=params, axis1=axis1, axis2=axis2,
                      method=Method(merged["method"]))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif verb == "verify":
        pins = {key: getattr(params, key) for key in PARAM_FIELDS if key in explicit}
        try:
            validate_params(ModelParams(**pins), variant)
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


def _dump(doc: dict) -> str:
    return json.dumps(_sanitize(doc), sort_keys=True, indent=2) + "\n"


def _emit(doc: dict, out: str | None) -> None:
    text = _dump(doc)
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _closed_form_doc(variant: ModelVariant, params: ModelParams, band: float) -> dict:
    out = {}
    for name, criterion in closed_forms(variant):
        try:
            result = criterion(params, band)
        except CryptoflowError as exc:
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        if isinstance(result, bool):
            out[name] = {"satisfied": result}
        else:
            out[name] = {
                "verdict": result.verdict.value,
                "margin": result.margin,
                "binding": result.binding,
            }
    return out


def _run_analyze(cmd: Command) -> int:
    opts = cmd.options
    jac = jacobian_analytic(cmd.variant, cmd.params)
    spectrum = eigenvalues(jac)
    verdict = classify(spectrum, opts["eps"])
    doc = {
        "version": __version__,
        "variant": cmd.variant.tag.value,
        "zeta2_denominator": cmd.variant.zeta2_denominator.value,
        "params": asdict(cmd.params),
        "ignored_fields": sorted(ignored_fields(cmd.variant)),
        "eps": opts["eps"],
        "band": opts["band"],
        "jacobian": [[float(x) for x in row] for row in jac],
        "eigenvalues": [[z.real, z.imag] for z in spectrum.eigenvalues],
        "verdict": {
            "tag": verdict.tag.value,
            "oscillatory": verdict.oscillatory,
            "max_real": verdict.max_real,
        },
        "closed_form": _closed_form_doc(cmd.variant, cmd.params, opts["band"]),
    }
    _emit(doc, opts["out"])
    return 0


def _run_sweep(cmd: Command) -> int:
    opts = cmd.options
    spec = SweepSpec(
        variant=cmd.variant,
        fixed=cmd.params,
        axis1=_parse_axis(opts["axis1"]),
        axis2=_parse_axis(opts["axis2"]),
        method=Method(opts["method"]),
    )
    try:
        result = run_sweep(spec, eps=opts["eps"], band=opts["band"])
    except ValueError as exc:  # a bad SOURCE_DATE_EPOCH
        raise UsageError(str(exc)) from exc
    fmt = opts["format"]
    if fmt is None:
        suffix = Path(opts["out"]).suffix.lstrip(".") if opts["out"] else ""
        fmt = suffix if suffix in ("csv", "json", "svg") else "csv"
    text = export_map(result, fmt)
    if opts["out"]:
        Path(opts["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _run_simulate(cmd: Command) -> int:
    opts = cmd.options
    step = opts["step"] if opts["step"] is not None \
        else default_step(cmd.variant, cmd.params)
    try:
        config = SimConfig(
            step=opts["step"],
            horizon=opts["horizon"],
            perturbation=opts["delta"],
            record_every=1,
        )
        config.grid(step)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outcome = perturb_and_classify(cmd.variant, cmd.params, config)
    if opts["out"]:
        Path(opts["out"]).write_text(outcome.trajectory.to_csv())
    doc = {
        "version": __version__,
        "variant": cmd.variant.tag.value,
        "params": asdict(cmd.params),
        "horizon": opts["horizon"],
        "step": step,
        "delta": opts["delta"],
        "verdict": outcome.verdict.value,
        "growth_rate": outcome.growth_rate,
        "deviation_ratio": outcome.deviation_ratio,
        "failure_time": outcome.failure_time,
    }
    _emit(doc, None)
    return 0


def _run_verify(cmd: Command) -> int:
    opts = cmd.options
    pins = {key: getattr(cmd.params, key) for key in PARAM_FIELDS if key in cmd.explicit}
    try:
        report = verify_consistency(
            cmd.variant,
            n=opts["n"],
            seed=opts["seed"],
            band=opts["band"],
            eps=opts["eps"],
            fixed=pins or None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "version": __version__,
        "variant": report.variant_tag,
        "criterion": report.criterion,
        "samples": report.samples,
        "agreements": report.agreements,
        "mismatches": report.mismatches,
        "excluded": report.excluded,
        "seed": report.seed,
        "band": report.band,
        "eps": report.eps,
        "pinned": {k: pins[k] for k in sorted(pins)},
        "simple_condition_agreement": report.simple_condition_agreement,
        "mismatch_list": [
            {
                "params": asdict(m.params),
                "criterion_verdict": m.criterion_verdict.value,
                "spectral_verdict": m.spectral_verdict.value,
                "margin": m.margin,
                "max_real": m.max_real,
            }
            for m in report.mismatch_list
        ],
    }
    _emit(doc, opts["out"])
    return 1 if report.mismatches > 0 else 0


def _run_baseline(cmd: Command) -> int:
    opts = cmd.options
    dt = opts["step"] if opts["step"] is not None else 1.0
    try:
        gbm = GbmParams(mu=opts["mu"], sigma=opts["sigma"], dt=dt,
                        n=opts["n"], seed=opts["seed"])
        path = gbm_simulate(gbm, p0=opts["p0"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if opts["out"]:
        Path(opts["out"]).write_text(gbm_path_csv(gbm, path))
    doc = {
        "version": __version__,
        "mu": gbm.mu,
        "sigma": gbm.sigma,
        "dt": gbm.dt,
        "n": gbm.n,
        "seed": gbm.seed,
        "p0": opts["p0"],
        "final_price": float(path[-1]),
        "log_return_total": float(math.log(path[-1] / path[0])),
    }
    if opts["drop"] is not None:
        sigma_step = gbm.sigma * math.sqrt(gbm.dt)
        try:
            report = exceedance_report(sigma_step, opts["drop"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        doc["exceedance"] = {
            "sigma_daily": report.sigma_daily,
            "drop": report.drop,
            "k": report.k,
            "probability": report.probability,
            "recurrence_days": report.recurrence_days,
        }
    else:
        doc["exceedance"] = None
    _emit(doc, None)
    return 0


_RUNNERS = {
    "analyze": _run_analyze,
    "sweep": _run_sweep,
    "simulate": _run_simulate,
    "verify": _run_verify,
    "baseline": _run_baseline,
}


def execute(cmd: Command) -> int:
    """Run a resolved command; returns the process exit code."""
    return _RUNNERS[cmd.verb](cmd)


def _error_json(exc: Exception) -> str:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    time = getattr(exc, "time", None)
    if time is not None:
        doc["time"] = time
    return json.dumps(_sanitize(doc), sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse_config(argv)
    except UsageError as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    try:
        return execute(cmd)
    except UsageError as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    except (CryptoflowError, OSError) as exc:
        sys.stderr.write(_error_json(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
