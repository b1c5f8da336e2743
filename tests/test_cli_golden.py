"""Golden outputs for the command lines no other golden file covers.

Two kinds of run are pinned:
- `orbit --json` on a small corpus: a cycled tail, an uncut tail that does
  not cycle, a tail cut at TAIL_BIT_CAP, a run with `--n 3`, and a run with
  a non-Chebyshev `--f`;
- the text (non-`--json`) output of all seven subcommands.  Text mode
  prints each payload value with `json.dumps` and no `sort_keys`, so these
  also pin the field order inside every payload.

Each run's exit code and output must match the golden file byte for byte
(the timestamp of a JSON envelope is dropped).  The hasse-scan run uses no
cache.

Regenerate with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from symcurves.cli import CACHE_ENV, main

GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"

JSON_RUNS = {
    "orbit-cycled": ["orbit", "--alpha", "-1", "--beta", "0"],
    "orbit-uncut": ["orbit", "--alpha", "3", "--beta", "0", "--horizon", "4"],
    "orbit-cut": ["orbit", "--alpha", "3", "--beta", "0",
                  "--horizon", "1000000"],
    "orbit-n3": ["orbit", "--alpha", "1/2", "--beta", "-1", "--n", "3",
                 "--horizon", "5"],
    "orbit-f": ["orbit", "--f=-1,0,1", "--shift=-1,1", "--alpha", "0",
                "--beta", "1/3", "--horizon", "4"],
}
TEXT_RUNS = {
    "quartic": ["quartic", "-4", "-3", "1", "--generator", "4,-16"],
    "cheb": ["cheb", "8"],
    "hasse-scan": ["hasse-scan", "3", "200", "--assume-parity"],
    "heights": ["heights", "-4", "-3", "1", "--point", "4,-16"],
    "descent": ["descent", "73"],
    "local": ["local", "73"],
    "local-undetermined": ["local", "7"],
    "orbit": ["orbit", "--alpha", "1/2", "--beta", "-1", "--horizon", "3"],
}


def _run(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _run_json(argv: list) -> tuple[int, dict]:
    code, out = _run(argv + ["--json"])
    env = json.loads(out)
    env.pop("timestamp")
    return code, env


def _render(env: dict) -> str:
    return json.dumps(env, indent=2, sort_keys=True)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)


@pytest.mark.parametrize("name", sorted(JSON_RUNS))
def test_json_envelope_matches_golden(name):
    expected = _golden()["json"][name]
    code, env = _run_json(JSON_RUNS[name])
    assert code == expected["exit"]
    assert _render(env) == _render(expected["envelope"])


@pytest.mark.parametrize("name", sorted(TEXT_RUNS))
def test_text_output_matches_golden(name):
    expected = _golden()["text"][name]
    code, out = _run(TEXT_RUNS[name])
    assert code == expected["exit"]
    assert out == expected["output"]


def test_golden_covers_corpus():
    golden = _golden()
    assert {k: v["argv"] for k, v in golden["json"].items()} == JSON_RUNS
    assert {k: v["argv"] for k, v in golden["text"].items()} == TEXT_RUNS
    # The text runs cover every subcommand.
    assert {argv[0] for argv in TEXT_RUNS.values()} == {
        "quartic", "cheb", "hasse-scan", "heights", "descent", "local",
        "orbit"}


if __name__ == "__main__":
    os.environ.pop(CACHE_ENV, None)
    records = {"json": {}, "text": {}}
    for name, argv in JSON_RUNS.items():
        code, env = _run_json(argv)
        records["json"][name] = {"argv": argv, "exit": code, "envelope": env}
    for name, argv in TEXT_RUNS.items():
        code, out = _run(argv)
        records["text"][name] = {"argv": argv, "exit": code, "output": out}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(JSON_RUNS) + len(TEXT_RUNS)} outputs to {GOLDEN}")
