"""Golden envelopes for `cheb d --json`.

The corpus covers every evaluation regime T_d has had: small d, the degrees
around 64, composite degrees above it, and primes above it.  The golden file
was written by the toolkit before the Lucas-ladder evaluator replaced the
Horner, factor-nesting and matrix-power routes; every payload and assumption
list must still match it byte for byte (the timestamp is dropped).

Regenerate with `PYTHONPATH=src python tests/test_cheb_golden.py`.
"""

import contextlib
import io
import json
import pathlib

import pytest

from symcurves.cli import main

GOLDEN = pathlib.Path(__file__).with_name("data") / "cheb_golden.json"
DEGREES = list(range(3, 41)) + [63, 64, 65, 67, 96, 97, 128, 199, 200]


def _run_cheb(d: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cheb", str(d), "--json"])
    env = json.loads(out.getvalue())
    env.pop("timestamp")
    return code, env


def _render(env: dict) -> str:
    return json.dumps(env, indent=2, sort_keys=True)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("d", DEGREES)
def test_cheb_envelope_matches_golden(d):
    expected = _golden()[str(d)]
    code, env = _run_cheb(d)
    assert code == expected["exit"]
    assert _render(env) == _render(expected["envelope"])


def test_golden_covers_corpus():
    assert sorted(map(int, _golden())) == DEGREES


if __name__ == "__main__":
    records = {}
    for d in DEGREES:
        code, env = _run_cheb(d)
        records[str(d)] = {"exit": code, "envelope": env}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} envelopes to {GOLDEN}")
