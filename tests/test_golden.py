"""The model core's bytes and the CLI documents' bytes, pinned by SHA-256 digests.

Each core case hashes the exact bytes the core produces: the Jacobians
(``jacobian_stack``, the equations' exact derivative), short RK4 runs from
the kicked equilibrium (``integrate``, as CSV) and three guard-stopped runs
(the exception class, its message, its time and its partial run).  Only
elementwise IEEE arithmetic and ``%.17g`` formatting feed these bytes, no
LAPACK and no scipy, so the digests do not depend on the BLAS build.  A
refactor of the equations, their derivative or the RK4 loop that changes
any bit of any value (a zero's sign included) fails here.

The CLI cases hash the stdout of one run of each verb through ``cli.main``.
Eigenvalues feed the analyze and sweep documents, so those two digests hold
for one LAPACK build; a change that renames, adds or drops a key, or moves a
value, fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    SENTIMENT_3X3,
    BlowUp,
    ModelParams,
    SimConfig,
    StateOutOfDomain,
    equilibrium,
    integrate,
    map_from_json,
)
from cryptoflow.cli import main
from cryptoflow.stability import jacobian_stack

VARIANTS = {
    "full5x5": FULL_5X5,
    "sentiment3x3": SENTIMENT_3X3,
    "liquidity2x2": LIQUIDITY_2X2,
}

POINTS = {
    "default": ModelParams(),
    # every field off its default, with the full variant's c = c1 = c2
    "off_default": ModelParams(q=0.3, q1=0.2, q2=0.7, tau0=0.35, c=1.7, c1=1.7, c2=1.7,
                               c3=6.5),
    "batch": ModelParams(
        q=np.array([0.1, 0.5, 2.0]),
        q1=np.array([0.0, 0.25, 1.5]),
        tau0=np.array([0.05, 0.1, 1.0]),
        c=np.array([0.5, 1.0, 3.0]),
        c1=np.array([0.5, 1.0, 3.0]),
        c2=np.array([0.5, 1.0, 3.0]),
    ),
    "unequal_clocks": ModelParams(q=0.3, q1=0.2, q2=0.7, tau0=0.35, c=0.6, c1=1.7, c2=4.2,
                                  c3=6.5),
    # the entries -q/c, -q1/c1 and -q2/c2 are -0.0
    "zero_amplitudes": ModelParams(q=0.0, q1=0.0, q2=0.0),
}

JACOBIAN_DIGESTS = {
    ("full5x5", "default"):
        "dacdeb0512a85f41aced7ef4ad0d8441241042f657d2a767159382494c3ed59c",
    ("sentiment3x3", "default"):
        "2fee0d4e5ef3b59e13988cb01ed29caa0e46c549209f72f3ad71813427c3e033",
    ("liquidity2x2", "default"):
        "271740bdf84128538fdba65728607e4c2fe1517d2b2f4fd5b04625ee5931f607",
    ("full5x5", "off_default"):
        "2df9c3454e47fa9d8205411cca3d5242ce498c2eb728c5d7e08189f59adbcaf9",
    ("sentiment3x3", "off_default"):
        "cfc512abc12ebdc32f10c30e27d0736553af885351870d64e587825aee537695",
    ("liquidity2x2", "off_default"):
        "0bb03f87eada2776f5e44e58103c0c36a8214a7a5fcb43531f0cf7205ba52dfd",
    ("full5x5", "batch"):
        "161724f9ff0c05f79e988ea605bc7933bb961d3c459ec50ea51ad59930b646b7",
    ("sentiment3x3", "batch"):
        "aa0db198703ac6b7ff9185ad6ea0a481e14a6780c01127dc14dc2bd68ad45cb9",
    ("liquidity2x2", "batch"):
        "0c8da4ce72e1f08c4a8a6848e6c3e4e3b4639d62c2eac9e338a781b88a2484a3",
    ("full5x5", "unequal_clocks"):
        "054245d305a621fbff739697dd5911e01b48bf971cc2b867db0f5b7011b4c8c7",
    ("sentiment3x3", "unequal_clocks"):
        "b5974f27817ab9ba7b2a694f2df3ab0e07d607a62f7f25596c40e96695538258",
    ("liquidity2x2", "unequal_clocks"):
        "385747b58d20998fe11c7bcfa55689aea628b7d8a6b2d77ab738314e36bc3589",
    ("full5x5", "zero_amplitudes"):
        "869dd7b4fa267910db67b317df4a6c139b68fb24dd5c2387d3df0196c8665bf5",
    ("sentiment3x3", "zero_amplitudes"):
        "c78cfd757c0ae9f4b60a8cc3b38c0f949298285243d2b2a54255f752a41e0356",
    ("liquidity2x2", "zero_amplitudes"):
        "6aab5f987fdb57256fc734597e76b6b86e0767c6fd7172162fbf49a6c02c80bd",
}

RUN_CONFIGS = {
    "h0.01": SimConfig(step=0.01, horizon=5.0),
    # 5 / 0.03 leaves a partial last step
    "h0.03": SimConfig(step=0.03, horizon=5.0),
}

RUN_DIGESTS = {
    ("full5x5", "default", "h0.01"):
        "78db4807cfa9dc24b70260a998e94eef74bee95f68242d7b1610e62c48fa2ff5",
    ("sentiment3x3", "default", "h0.01"):
        "e209688c4815d322dcaace266296225e42c596510e595e7b964ca5a861c4aaad",
    ("liquidity2x2", "default", "h0.01"):
        "3bcf08fc7b8230a0e457e5906e4f7e72e76a9c07f142c0d7bff1653e45bff5d7",
    ("full5x5", "off_default", "h0.01"):
        "659c4f8117680af97bdb3545804c97a493f046156175d0a8cc1253512347181f",
    ("sentiment3x3", "off_default", "h0.01"):
        "467ef520bc5bdd0379e5955b684db04d6a0c89504b73712769cba368a03f3dcc",
    ("liquidity2x2", "off_default", "h0.01"):
        "20a71618ae9fbb3eeef30f12b417c0a5bb4e61da9fe8594b703060ec6c0ef318",
    ("full5x5", "default", "h0.03"):
        "17e52df4d0af0721c3550f495e27a29c5d860d2edebde210e1dddf84c141a842",
    ("sentiment3x3", "default", "h0.03"):
        "b2e04b45a299529ad8de53c9162dff9b2d95010bf6480fe744eeb7e41ed607b3",
    ("liquidity2x2", "default", "h0.03"):
        "a9a0132a03e80b8d574c84b450391229cef07d9dbc465072627e8c6eb0954364",
    ("full5x5", "off_default", "h0.03"):
        "e0d2ddc8c25a0d67b74b65851f41d283005272199887557429d0d112197a5311",
    ("sentiment3x3", "off_default", "h0.03"):
        "623438e8ec036ac005e737e36f856c65dbdb179aac3e6e60c03a6d541ae49c2d",
    ("liquidity2x2", "off_default", "h0.03"):
        "0aaa269b2056a78332d6a52e2fe58b9fdba0812cc52cd5d5f6418e212fd2a406",
}

STOP_DIGESTS = {
    "blow_up": "7a62029ad8eb90bef4ea558cd840418edc673b450a3a571315056e8cd2476523",
    "blow_up_after_step": "8bae070c2ab179d77ce371793615d4f96f2d501a879832c81194410081b957a4",
    "price_floor": "6f05fbc88fb5781cb325dadf3b7af9d792efd9c8b3ee1e86eca7c8f953e175b4",
}

CLI_DIGESTS = {
    "analyze": (["analyze", "--variant", "full5x5"],
                "2e87e9c0b58c4fd1b317cac5df5b09d68b7e857252089ea4eddbf561888c9381"),
    "sweep": (["sweep", "--variant", "liquidity2x2", "--axis1", "q:0:5:21",
               "--axis2", "tau0:0.5:2:11", "--format", "json"],
              "848e55b5430e9085f062f7b26c02813accd93cf20d8d3fecda6b8172df7df342"),
    "verify": (["verify", "--variant", "full5x5", "-n", "200", "--q2", "0"],
               "97f0c7cb22267dbfd61e7ed58b78b5b4db4c3fbb9ac94327b01b8fcaaafd9c89"),
    "simulate": (["simulate", "--variant", "sentiment3x3", "--horizon", "5"],
                 "93fb6f8965cab9c55d3836dc8d3c62fda6e2baa0878006ed36ef899ef17243aa"),
    "baseline": (["baseline", "--drop", "0.05", "-n", "50"],
                 "4c8a46d72ce2e9a7e1c0fc2cd558b1f4f969d56e2a3a2cb9e703493bea5e6653"),
}

# A map as version 0.1.0 wrote it before the discount normalization was
# retired: it carries one more key, "zeta2_denominator".
EARLIER_MAP = (
    '{"axis1": {"max": 4.0, "min": 0.0, "name": "q", "steps": 2}, '
    '"axis2": {"max": 2.0, "min": 0.5, "name": "tau0", "steps": 2}, '
    '"fixed": {"c": 1.0, "c1": 1.0, "c2": 1.0, "c3": 10.0, "q": 0.5, "q1": 0.5, '
    '"q2": 0.5, "tau0": 0.1}, "flags": [[[], []], [[], []]], '
    '"metadata": {"band": 1e-06, "created": "2023-11-14T22:13:20+00:00", '
    '"eps": 1e-08, "version": "0.1.0"}, "method": "eigen", "type": "stability_map", '
    '"values": [[-1.0, -0.5], [0.49999999999999983, 2.2807764064044154]], '
    '"variant": "liquidity2x2", "verdicts": [["stable", "stable"], '
    '["unstable", "unstable"]], "zeta2_denominator": "anchor_pa"}'
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stopped(exc) -> bytes:
    head = f"{type(exc).__name__}\n{exc}\n{exc.time!r}\n"
    return (head + exc.partial.to_csv()).encode()


def _blow_up_run():
    integrate(LIQUIDITY_2X2, ModelParams(q=0.0, tau0=1.0, c=1.0), np.array([1.0, 2e9]),
              SimConfig(step=0.1, horizon=10.0))


def _blow_up_after_step_run():
    # the step's result, not one of its stages, is the first state past the guard
    integrate(LIQUIDITY_2X2, ModelParams(q=3.0, tau0=1.0, c=0.1), np.array([1e3, 5e4]),
              SimConfig(step=0.2, horizon=10.0))


def _price_floor_run():
    integrate(SENTIMENT_3X3, ModelParams(q=2.0, q1=1.0, tau0=1.0, c=1.0, c1=1.0),
              np.array([1.0001, 1.0, 0.0]), SimConfig(step=0.01, horizon=100.0))


STOPS = {
    "blow_up": (_blow_up_run, BlowUp),
    "blow_up_after_step": (_blow_up_after_step_run, BlowUp),
    "price_floor": (_price_floor_run, StateOutOfDomain),
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("point", POINTS)
def test_jacobian_bytes(variant, point):
    jac = jacobian_stack(VARIANTS[variant], POINTS[point])
    assert _sha(jac.tobytes()) == JACOBIAN_DIGESTS[variant, point]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("point", ("default", "off_default"))
@pytest.mark.parametrize("config", RUN_CONFIGS)
def test_integrate_bytes(variant, point, config):
    model = VARIANTS[variant]
    initial = equilibrium(model)
    initial[0] += SimConfig().perturbation
    traj = integrate(model, POINTS[point], initial, RUN_CONFIGS[config])
    assert _sha(traj.to_csv().encode()) == RUN_DIGESTS[variant, point, config]


@pytest.mark.parametrize("stop", STOPS)
def test_guard_stop_bytes(stop):
    run, error = STOPS[stop]
    with pytest.raises(error) as err:
        run()
    assert type(err.value) is error
    assert _sha(_stopped(err.value)) == STOP_DIGESTS[stop]


@pytest.mark.parametrize("verb", CLI_DIGESTS)
def test_cli_stdout_bytes(verb, capsys, monkeypatch):
    argv, digest = CLI_DIGESTS[verb]
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out.encode()) == digest


def test_an_earlier_map_loads_without_its_extra_key():
    doc = json.loads(EARLIER_MAP)
    del doc["zeta2_denominator"]
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert map_from_json(EARLIER_MAP).to_json() == expected
