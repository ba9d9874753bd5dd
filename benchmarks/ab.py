"""A/B speed verdict between two revisions on one perfbench workload.

    python3 benchmarks/ab.py --base 420dbf3 --workload deep_mc --rounds 12
    python3 benchmarks/ab.py --base A --change B --workload sweep --rounds 12

Each side is the ``src/`` of a revision, taken with ``git archive``; without
``--change`` the change side is this checkout's ``src/`` as it stands, so an
uncommitted change can be measured against its parent.  Every process is
this checkout's ``perfbench/worker.py``, unmodified, with ``PYTHONPATH``
naming one side's sources and BLAS on one thread, so both sides time the
same passes of ``perfbench/workloads.py`` as ``perfbench`` does, with its
checks.

First one check process per side runs one pass; the verdict stops unless
both sides' runs pass every check and their output digests (the files in
``outputs/``, the direct API results included) are equal, so a side with
broken output cannot win.  Then each round starts one fresh worker per
side for SECONDS of passes, and the order of the two sides alternates
from round to round.  Every process starts from an empty ``outputs/`` in
the one run directory both sides share (so no path differs in their
outputs), its figure is the median pass wall time, and its digests must
equal the check's.  Each round gives the ratio change / base of the two
figures.  The verdict is the median of those ratios, the number of rounds
the change won, the two-sided sign-test p-value of that count (ties
dropped), each side's quartiles, and a call: "faster" or "slower" when,
over at least ten rounds, one side won at least nine tenths of them and
the medians differ by more than the base's interquartile range, else
"unresolved".  Each process's peak RSS is kept beside its figure.

The verdict is printed and stored under ``--label`` (default
``<base>..<change>``) and the workload's name in ``BENCH_ab.json`` at the
repository root, next to the rows already there.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
OUTPUT = ROOT / "BENCH_ab.json"
SEED = 1  # perfbench's inputs at one fixed master seed
SECONDS = 3.0  # of passes per process, the same on both sides
MIN_ROUNDS = 10  # fewer pairs call nothing: one lucky round would read "faster"


def pairwise_ratios(base: list[float], change: list[float]) -> list[float]:
    """change / base per round: below 1 where the change was faster."""
    if len(base) != len(change):
        raise ValueError(f"{len(base)} base rounds but {len(change)} change rounds")
    return [c / b for b, c in zip(base, change)]


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses (ties left out):
    the chance, under a fair coin, of a split at least this uneven."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def verdict(base: list[float], change: list[float]) -> dict:
    """Median ratio, wins, losses and sign-test p-value of paired rounds,
    each side's quartiles, and the call: "faster" or "slower" when, over at
    least MIN_ROUNDS rounds, one side won at least nine tenths of them and
    the medians differ by more than the base's interquartile range, else
    "unresolved"."""
    ratios = pairwise_ratios(base, change)
    wins = sum(r < 1.0 for r in ratios)
    losses = sum(r > 1.0 for r in ratios)
    (b_low, b_mid, b_high), (c_low, c_mid, c_high) = quartiles(base), quartiles(change)
    spread = b_high - b_low
    enough = len(ratios) >= MIN_ROUNDS
    call = "unresolved"
    if enough and wins >= 0.9 * len(ratios) and b_mid - c_mid > spread:
        call = "faster"
    elif enough and losses >= 0.9 * len(ratios) and c_mid - b_mid > spread:
        call = "slower"
    return {
        "median_ratio": statistics.median(ratios),
        "wins": wins,
        "losses": losses,
        "rounds": len(ratios),
        "sign_test_p": sign_test(wins, losses),
        "base_quartiles_s": [b_low, b_mid, b_high],
        "change_quartiles_s": [c_low, c_mid, c_high],
        "call": call,
    }


def extract(rev: str, dest: Path) -> Path:
    """The rev's src/ tree, unpacked under dest; returns the src path."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest / "src"


def short(rev: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", rev],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()


def run_side(src: Path, workload: str, run_dir: Path, seconds: float) -> dict:
    """One fresh worker on src's program: its report and output digests."""
    # nothing of an earlier process may stand in for this one's results
    shutil.rmtree(run_dir / "outputs", ignore_errors=True)
    (run_dir / "worker.json").unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("SPINLOCK_THREADS", None)
    argv = [
        sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
        "--seed", str(SEED), "--run-dir", str(run_dir), "--seconds", str(seconds),
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: a worker on {src} failed:\n{done.stderr}")
    report = json.loads((run_dir / "worker.json").read_text())
    report["median_s"] = statistics.median(p["seconds"] for p in report["passes"])
    from worker import digests  # perfbench/ is on sys.path (see main)

    report["digests"] = digests(run_dir / "outputs")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the base side")
    parser.add_argument("--change", help="revision of the change side (default: this checkout)")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--rounds", type=int, default=12, help="paired rounds (default 12)")
    parser.add_argument("--label", help="key of this verdict (default <base>..<change>)")
    args = parser.parse_args()
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    names = {"base": short(args.base), "change": short(args.change) if args.change else "worktree"}
    label = args.label or f"{names['base']}..{names['change']}"

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        srcs = {
            "base": extract(args.base, tmp / "base"),
            "change": extract(args.change, tmp / "change") if args.change else ROOT / "src",
        }
        run_dir = tmp / "run"
        check = {side: run_side(srcs[side], args.workload, run_dir, 0.0) for side in srcs}
        for side, report in check.items():
            if report["failed"]:
                print(f"error: {side} side failed: {report['failures']}", file=sys.stderr)
                return 1
        if check["base"]["digests"] != check["change"]["digests"]:
            differ = sorted(
                name
                for name in set(check["base"]["digests"]) | set(check["change"]["digests"])
                if check["base"]["digests"].get(name) != check["change"]["digests"].get(name)
            )
            print(f"error: the two sides' outputs differ: {differ}", file=sys.stderr)
            return 1
        reports: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.rounds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                report = run_side(srcs[side], args.workload, run_dir, SECONDS)
                if report["failed"] or report["digests"] != check[side]["digests"]:
                    print(f"error: {side} side's round {i} output changed", file=sys.stderr)
                    return 1
                reports[side].append(report)
            ratio = reports["change"][-1]["median_s"] / reports["base"][-1]["median_s"]
            print(
                f"round {i:>2} ({order[0]} first): base {reports['base'][-1]['median_s']:.5f} s"
                f"  change {reports['change'][-1]['median_s']:.5f} s  ratio {ratio:.3f}"
            )

    medians = {side: [r["median_s"] for r in reports[side]] for side in reports}
    row = verdict(medians["base"], medians["change"])
    print(
        f"{args.workload}: change/base median ratio {row['median_ratio']:.3f}, "
        f"change won {row['wins']} of {row['rounds']} rounds, sign test p = {row['sign_test_p']:.2g}: "
        f"{row['call']}"
    )
    row.update(
        {
            "base": names["base"],
            "change": names["change"],
            "seconds_per_process": SECONDS,
            "sides": {
                side: {
                    "median_s": medians[side],
                    "passes": [len(r["passes"]) for r in reports[side]],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in reports[side]],
                }
                for side in reports
            },
            "host": reports["base"][0]["host"],
        }
    )
    report = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    report.setdefault("description", __doc__.splitlines()[0])
    report.setdefault("runs", {}).setdefault(label, {})[args.workload] = row
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
