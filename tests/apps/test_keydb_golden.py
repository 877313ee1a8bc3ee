"""Golden SHA-256 digests of every KeyDB driver's exported outputs.

The epoch driver (fig5, fig8, the fault catalog) and the event-driven
driver (overload sweeps, the fault comparison, ``repro metrics`` /
``repro trace``) share one pricing core.  These digests pin their
outputs byte for byte on small inputs, so a refactor of either driver
or of the core that moves a single bit of any export fails here.  The
analytic cells ride along because the analytic model imports the
KeyDB result type and migration bandwidth from the same core.

A digest here changes only with a deliberate change of what the
model computes, never with a refactor.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.figures import fig5_sweep_spec, fig8_sweep_spec
from repro.faults.runner import fault_sweep_spec
from repro.obs.run import run_observed_keydb
from repro.overload.runner import offered_load_sweep_spec, run_fault_comparison
from repro.parallel import merged_metrics_json, run_sweep

SMALL = {"record_count": 4_096, "total_ops": 6_000}


def _merged(spec):
    sweep = run_sweep(spec, workers=1).raise_failures()
    return merged_metrics_json(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results]
    )


def _fig5(backend):
    return _merged(fig5_sweep_spec(
        workloads=("A", "D"),
        configs=("mmem", "mmem-ssd-0.2", "1:1", "hot-promote"),
        observed=True,
        backend=backend,
        **SMALL,
    ))


def _fig8(backend):
    return _merged(fig8_sweep_spec(observed=True, backend=backend, **SMALL))


def _faults(scenario):
    return _merged(
        fault_sweep_spec(scenario, apps=["keydb"], quick=True, observed=True)
    )


def _overload(controlled):
    return _merged(offered_load_sweep_spec(
        factors=[0.8, 1.25],
        controlled=controlled,
        duration_ns=10e6,
        record_count=2_048,
        observed=True,
    ))


def _fault_comparison():
    summaries = run_fault_comparison(record_count=2_048, duration_ns=10e6)
    return json.dumps(
        {label: dataclasses.asdict(s) for label, s in summaries.items()},
        sort_keys=True,
    )


def _observed(tracing):
    run = run_observed_keydb(tracing=tracing)
    return (run.registry.to_json() + "\n"
            + json.dumps(run.tracer.as_dict(), sort_keys=True))


CASES = {
    "fig5-des": (lambda: _fig5("des"),
                 "045eb8c389419933fd87852b1705c34ee00003e1281afbf1acdbeb83bce265f0"),
    "fig5-analytic": (lambda: _fig5("analytic"),
                      "119f7cbacf111a3ba53f49cfccfc617d990159f52082f56beff369ba245e1b91"),
    "fig8-des": (lambda: _fig8("des"),
                 "6ec6c2c2fa3d1c0de366b9fa68dc935dee7212068912f4e2830b79d025b3376a"),
    "fig8-analytic": (lambda: _fig8("analytic"),
                      "07b4b5406faa69adbf7938e5a3fa2dd436aef7c9b70dc1d9dbda418ba9b7e32c"),
    "faults-poison": (lambda: _faults("poison"),
                      "3f2631169f77316a72c1259652fd967e4d9a971dd53402220d48bbcd62d416dd"),
    "faults-device-loss": (lambda: _faults("device-loss"),
                           "d2bc651c200e347b198a71d5b33a9e41af52616a71be034ff8605c4bdb40e501"),
    "faults-link-degrade": (lambda: _faults("link-degrade"),
                            "2fe471c02ad3c277e8d4564d68b6bbf41ede4e31a9861487ca83ed7658d39ba1"),
    "faults-error-storm": (lambda: _faults("error-storm"),
                           "cb9860ab552a525e7fa71b60ff87f53df0df376401d3573d70583581a7048864"),
    "faults-device-flap": (lambda: _faults("device-flap"),
                           "f31dd7a1d10d35699f0dc737c815158464801f4b4a4cd15437be1eba0b1bbdb0"),
    "faults-meltdown": (lambda: _faults("meltdown"),
                        "1d860883e44bfc3773eeacd84ef2bb3f0022da2142852cbaffa606ecfa5a2202"),
    "overload-controlled": (lambda: _overload(True),
                            "399444380a251e5d5138aea3208fdd31d03d2ffac5fc93973bee7bae0e71d3b6"),
    "overload-uncontrolled": (lambda: _overload(False),
                              "e4f2e0fd8376ef466d2f47cf0ecae86eb40b12e418572e28ce3a2dcb4fcbed41"),
    "fault-comparison": (_fault_comparison,
                         "936fff4f63bdc6c11ba53ed9800ea7d4feb5c6e95c39cd50debd6eece414cfe8"),
    "observed-traced": (lambda: _observed(True),
                        "c4e1e3f89b27fda22478aade314b5f93bc1118526836fa5acd2f187fb815338f"),
    "observed-untraced": (lambda: _observed(False),
                          "06bdca35a92a13d6403865ac4083cd13c66c83dacace865ed7f066f84b6f30e4"),
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(CASES))
def test_export_digest_is_pinned(case):
    build, digest = CASES[case]
    assert hashlib.sha256(build().encode()).hexdigest() == digest
