"""The benchmark's three workloads: seeded inputs and one timed pass each.

Only the standard library is imported at module level, so a set-up probe
(``worker.py --setup-only``) times the program's import and input building
and nothing of the benchmark's own.  Every call into the program goes
through a module attribute (``cli.main``, ``dicke.schedule_expectations``)
so that the traced run's wrappers see it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"


def expand_grid(spec) -> list[float]:
    """A config grid: an explicit list, or {start, stop, step} inclusive."""
    if isinstance(spec, dict):
        count = int(math.floor((spec["stop"] - spec["start"]) / spec["step"] + 1e-9)) + 1
        return [spec["start"] + i * spec["step"] for i in range(count)]
    return [float(v) for v in spec]


def _call(ops: dict, label: str, fn, *args):
    """Run one program call; an exception is recorded as the result text."""
    try:
        ops[label] = fn(*args)
    except Exception as exc:  # the check counts it as a failed operation
        ops[label] = f"error: {type(exc).__name__}: {exc}"


class Workload:
    """Seeded configs written to ``<run_dir>/inputs``, results to ``outputs``."""

    name = ""
    threads = 1
    stems: tuple[str, ...] = ()

    def __init__(self, run_dir: Path, seed: int):
        self.seed = seed
        self.in_dir = run_dir / "inputs"
        self.out_dir = run_dir / "outputs"
        self.configs: dict[str, dict] = {}
        self.paths: dict[str, Path] = {}

    def build_inputs(self) -> None:
        self.in_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for stem in self.stems:
            doc = json.loads((CONFIGS / f"{stem}.json").read_text())
            doc.setdefault("mc", {})["master_seed"] = self.seed
            doc["output"] = {"path": str(self.out_dir / f"{stem}.csv"), "format": "csv"}
            path = self.in_dir / f"{stem}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            self.configs[stem] = doc
            self.paths[stem] = path

    def run_configs(self) -> dict:
        """Each config through the CLI in process; value is its exit code."""
        import spinlock.cli

        runs: dict = {}
        for stem in self.stems:
            argv = [
                self.configs[stem]["experiment"],
                "--config",
                str(self.paths[stem]),
                "--threads",
                str(self.threads),
            ]
            _call(runs, stem, spinlock.cli.main, argv)
        return runs

    def run_pass(self) -> dict:
        """One timed pass: ``{"runs": exit codes, "api": direct API results}``."""
        return {"runs": self.run_configs(), "api": {}}

    def work(self) -> tuple[int, int]:
        """(Points, samples) computed in one pass; see README.md."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """Points are contrast or sensitivity rows; samples count random tones."""

    def work(self) -> tuple[int, int]:
        points = samples = 0
        for doc in self.configs.values():
            if doc["experiment"] not in ("contrast", "sensitivity"):
                continue
            lockin = doc["lockin"]
            grid = expand_grid(lockin.get("tau_arm_grid_ms") or lockin["duration_grid_ms"])
            atoms = doc["physics"]["n_atoms"]
            n = len(grid) * (len(atoms) if isinstance(atoms, list) else 1)
            random_tones = sum(1 for t in doc["noise"] if t.get("phase") is None)
            points += n
            samples += n * doc["mc"]["samples"] * random_tones
        return points, samples


class Sweep(MonteCarlo):
    """Many short Monte Carlo points through the CLI: per-point overhead."""

    name = "sweep"
    stems = ("contrast_squeezed", "contrast_unsqueezed", "sensitivity", "noise_preview")


class DeepMC(MonteCarlo):
    """Few points with many samples and tones: kernel trig and Philox."""

    name = "deep_mc"
    threads = 2
    stems = ("deep_mc",)


class Exact(Workload):
    """Dense Dicke dynamics, the 2^N oracle grid and BCH: no Monte Carlo."""

    name = "exact"
    stems = ("oracle_compare", "verify_bch")
    dicke_atoms = (250, 500, 1000, 2000)
    alpha = 0.01  # twisting angle of the jz2 step
    theta = 0.3  # rotation angle of the jx step
    bch_photons = 10
    bch_atoms = 20  # joint dimension (10+1)*(20+1) = 231

    @classmethod
    def bch_dims(cls) -> tuple[int, int]:
        """Joint dimensions of the verify-bch config and of the direct bch_error calls."""
        physics = json.loads((CONFIGS / "verify_bch.json").read_text())["physics"]
        return (
            (physics["n_photons"] + 1) * (physics["n_atoms"] + 1),
            (cls.bch_photons + 1) * (cls.bch_atoms + 1),
        )

    def oracle_grid(self) -> list[tuple[int, float, float, float, str]]:
        c = self.configs["oracle_compare"]["compare"]
        return [
            (n, a, b, g, o)
            for n in c["n_atoms"]
            for a in c["alphas"]
            for b in c["betas"]
            for g in c["gammas"]
            for o in c["orderings"]
        ]

    def run_pass(self) -> dict:
        from spinlock import dicke, squeezing

        # inputs are built inside each call, so an API change fails that operation
        def twist_then_rotate(n):
            steps = [dicke.PulseStep("jz2", self.alpha), dicke.PulseStep("jx", self.theta)]
            return dicke.schedule_expectations(n, steps)

        def bch(g_tau):
            params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, self.bch_photons)
            return squeezing.bch_error(params, self.bch_photons, self.bch_atoms)

        def oracle(n, a, b, g, ordering):
            seq = [dicke.PulseStep("jz2", a), dicke.PulseStep("jz", b), dicke.PulseStep("jx", g)]
            if ordering == "reversed":
                seq.reverse()
            return dicke.full_space_oracle(n, seq)

        api: dict = {}
        for n in self.dicke_atoms:
            _call(api, f"dicke/{n}", twist_then_rotate, n)
        runs = self.run_configs()
        for g_tau in self.configs["verify_bch"]["bch"]["g_tau_grid"]:
            _call(api, f"bch/{g_tau!r}", bch, g_tau)
        # the 2^N product-space oracle for every sequential ordering of the grid
        for case in self.oracle_grid():
            n, a, b, g, ordering = case
            if ordering != "single":
                _call(api, f"full/{n}/{a!r}/{b!r}/{g!r}/{ordering}", oracle, *case)
        return {"runs": runs, "api": api}

    def work(self) -> tuple[int, int]:
        points = (
            len(self.dicke_atoms)
            + len(self.oracle_grid())
            + 2 * len(self.configs["verify_bch"]["bch"]["g_tau_grid"])
        )
        return points, sum(n + 1 for n in self.dicke_atoms)


WORKLOADS = {w.name: w for w in (Sweep, DeepMC, Exact)}
