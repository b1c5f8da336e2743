"""Self-test of the benchmark: every workload runs and passes its checks on
the program as it is, and a tampered output is counted as a failure.

    python3 -m pytest -q benchmarks/tests
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import worker  # noqa: E402
import workloads  # noqa: E402
from symcurves import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke(name):
    result = run_bench("--workload", name, "--seed", "7", "--seconds", "0.5")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_reconciles():
    result = run_bench("--workload", "hasse-cold", "--seed", "7", "--trace", "1")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = sum(metrics[f"{layer}.self_frac"] for layer in
                 ("exact", "chebyshev", "dynamics", "elliptic", "quartic",
                  "demjanenko", "descent", "localglobal", "cli"))
    assert layers + metrics["other.self_frac"] == pytest.approx(1.0)
    assert metrics["descent.self_frac"] > 0.5
    assert metrics["cli.cache_hit_ratio"] == 0.0


def test_corpus_is_seeded_and_distinct():
    for cls in workloads.WORKLOADS.values():
        a, b = cls().corpus(3), cls().corpus(3)
        assert a == b and a != cls().corpus(4)
        keys = [json.dumps(cls().argv(item, "w")) for item in a]
        assert len(set(keys)) == len(keys), cls.name


def test_spread_order_is_a_spread_permutation():
    order = workloads.spread_order(100, random.Random(1))
    assert sorted(order) == list(range(100))
    # The first quarter of the order has items in every quarter of the range.
    assert {i // 25 for i in order[:25]} == {0, 1, 2, 3}


def _drop_point(env):
    pts = env["payload"]["points"]
    pts.pop(0)
    env["payload"]["count"] = len(pts)


def _move_point(env):
    env["payload"]["points"][0][0] = {"num": "7", "den": "1"}


def _flip_conclusion(env):
    v = env["payload"]["verdicts"][0]
    v["conclusion"] = ("outside the p = 25 mod 48 rank gate"
                       if v["p"] % 48 == 25 else "candidate (below explicit threshold)")


def _raise_selmer(env):
    env["payload"]["verdicts"][0]["selmer_bound"] += 1


TAMPER = {
    "cheb-sweep": (8, _move_point),
    "quartic-certify": (None, _drop_point),
    "hasse-cold": (None, _flip_conclusion),
    "hasse-warm": (None, _raise_selmer),
}


class TamperedCli:
    """cli.main with its printed envelope edited by ``tamper``."""

    def __init__(self, tamper):
        self.tamper = tamper

    def main(self, argv):
        code, out = worker.run_cli(cli.main, argv)
        if self.tamper:
            env = json.loads(out)
            self.tamper(env)
            out = json.dumps(env)
        print(out)
        return code


@pytest.mark.parametrize("name", sorted(TAMPER))
def test_tampered_output_fails(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    item, tamper = TAMPER[name]
    if item is None:
        item = wl.corpus(5)[0]
    wl.setup(lambda argv: worker.run_cli(cli.main, argv), str(tmp_path))
    latencies, failures = [], []
    for i, t in enumerate((None, tamper)):
        if name == "hasse-cold":
            item = wl.corpus(5)[i]      # each cold item needs a fresh cache
        failure = worker._run_item(wl, TamperedCli(t), None, i, item,
                                   str(tmp_path), latencies)
        if failure:
            failures.append(failure)
    assert len(latencies) == 2
    assert [f["item"] for f in failures] == [1], failures   # error_rate 1/2
