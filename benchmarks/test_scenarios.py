"""Scenario packs end to end: adversarial & shifting workloads, gated.

Every :class:`~repro.workloads.ScenarioPack` drives a live streaming
:class:`~repro.engine.LayoutEngine` under the D-UMTS policy; the runner
settles the competitive accounts against the offline optimum and fits
the cost model against measured wall-clock.  Two gate families keep this
a regression suite rather than a demo:

* **guarantee gates** — every scenario's online cost stays within the
  finite-horizon form of Theorem IV.1's ceiling
  (``bound · OPT + bound · α``), adversarial pack included;
* **calibration gates** — the fraction-of-rows cost model keeps
  predicting measured scan time within the Q-Error ceilings (measured
  medians sit at 1.2-1.4 and p95 at 1.6-2.7 on the reference machine;
  the ceilings leave headroom for CI-runner noise, not for a model
  regression).

The merged payload is written to the untracked
``benchmarks/out/BENCH_scenarios.json``; the committed reference copy in
``benchmarks/results/`` is schema-validated here and in the scenarios CI
job.
"""

from __future__ import annotations

import json

from repro.experiments import run_all_scenarios, validate_scenarios_payload
from repro.workloads import default_packs

from _common import RESULTS_DIR, once, report, write_scenarios_json

ALPHA = 20.0
NUM_PARTITIONS = 8
SEED = 0

#: Regression ceilings for the calibration suite (see module docstring).
MEDIAN_QERROR_CEILING = 2.5
P95_QERROR_CEILING = 8.0


def test_scenarios_end_to_end(benchmark, tmp_path):
    def body():
        return run_all_scenarios(
            default_packs(seed=SEED),
            store_root=tmp_path / "scenarios",
            policy="oreo",
            alpha=ALPHA,
            num_partitions=NUM_PARTITIONS,
        )

    payload = once(benchmark, body)
    packs = [pack.name for pack in default_packs(seed=SEED)]
    validate_scenarios_payload(payload, expected_scenarios=packs)
    write_scenarios_json(payload)

    rows = [
        {
            "scenario": name,
            "queries": entry["num_queries"],
            "ratio": round(entry["competitive_ratio"], 3),
            "bound": round(entry["bound"], 3),
            "reorgs": entry["reorg_count"],
            "movement": round(entry["movement_charged"], 1),
            "median_qerror": round(payload["calibration"][name]["median_qerror"], 3),
            "p95_qerror": round(payload["calibration"][name]["p95_qerror"], 3),
        }
        for name, entry in payload["scenarios"].items()
    ]
    report("scenarios", "Scenario packs: competitive accounting + calibration", rows)

    for name, entry in payload["scenarios"].items():
        # Finite-horizon guarantee: one additive α of slack, as in the
        # competitive-ratio suite.
        ceiling = entry["bound"] * entry["offline_cost"] + entry["bound"] * ALPHA
        assert entry["online_cost"] <= ceiling, name
        assert entry["movement_charged"] == entry["reorg_count"] * ALPHA, name

    for name, entry in payload["calibration"].items():
        assert entry["median_qerror"] <= MEDIAN_QERROR_CEILING, (
            f"{name}: calibration median Q-Error {entry['median_qerror']:.2f} "
            f"regressed past {MEDIAN_QERROR_CEILING}"
        )
        assert entry["p95_qerror"] <= P95_QERROR_CEILING, (
            f"{name}: calibration p95 Q-Error {entry['p95_qerror']:.2f} "
            f"regressed past {P95_QERROR_CEILING}"
        )


def test_scenarios_json_is_schema_valid(benchmark):
    """The committed reference payload passes the schema gate (the
    just-measured one is validated before ``test_scenarios_end_to_end``
    writes it)."""

    def body():
        return json.loads((RESULTS_DIR / "BENCH_scenarios.json").read_text())

    payload = once(benchmark, body)
    validate_scenarios_payload(
        payload, expected_scenarios=[pack.name for pack in default_packs()]
    )
