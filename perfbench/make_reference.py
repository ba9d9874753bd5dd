"""Regenerate data/deep_mc_reference.json, the eq23 table deep_mc is checked against.

    python3 perfbench/make_reference.py

eq23 has no closed form, so the reference is the program's own estimate at
RUNS x 100,000 samples per point: the deep_mc config is run through the
CLI at master seeds REFERENCE_SEED + j.  Benchmark runs are given small seeds,
so the reference streams are independent of theirs.  Per point the table
holds the mean of the runs and its standard error.  Rerun only when the
eq23 integrand or the deep_mc config changes on purpose.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 2**63 + 7919
RUNS = 40


def main() -> int:
    import spinlock.cli

    estimates, stderrs = [], []
    for j in range(RUNS):
        wl = workloads.DeepMC(HERE.parent / ".perfbench" / "reference", REFERENCE_SEED + j)
        wl.build_inputs()
        if spinlock.cli.main(["contrast", "--config", str(wl.paths["deep_mc"]), "--threads", "2"]):
            raise SystemExit("deep_mc config failed")
        _, rows = checks.read_csv(wl.out_dir / "deep_mc.csv", "contrast")
        estimates.append([r[1] for r in rows])
        stderrs.append([r[2] for r in rows])
    config = dict(wl.configs["deep_mc"])
    del config["output"]
    config["mc"] = dict(config["mc"], master_seed=REFERENCE_SEED)
    points = [
        {
            "tau_arm_ms": row[0],
            "contrast": math.fsum(e[i] for e in estimates) / RUNS,
            "stderr": math.sqrt(math.fsum(s[i] ** 2 for s in stderrs)) / RUNS,
        }
        for i, row in enumerate(rows)
    ]
    table = {
        "about": "eq23 contrast of configs/deep_mc.json; see make_reference.py",
        "seeds": f"{REFERENCE_SEED} + j for j < {RUNS}",
        "samples": RUNS * config["mc"]["samples"],
        "config": config,
        "points": points,
    }
    checks.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
