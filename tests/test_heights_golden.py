"""Golden envelopes for `heights a b alpha [--point X,Y] --json`.

The corpus is the companion curves of the 30 quartic golden curves, each
with its generator (X_4 with (4, -16) among them), and a few curves with
large coefficients, large denominators or a twist.  `gap_upper` and
`gap_lower` come from the Bezout identities of the duplication pair, so this
file pins `_bezout_data` where the quartic goldens cannot: there the gap
bounds are mostly masked by `CERTIFIED_GAP_FLOOR`.  The golden file was
written by the toolkit while those identities were still solved over
Fraction coefficient lists; every envelope must still match it byte for
byte (the timestamp is dropped), floats included.

Regenerate with `PYTHONPATH=src python tests/test_heights_golden.py`.
"""

import contextlib
import io
import json
import pathlib

import pytest

from symcurves.cli import main
from test_quartic_golden import CORPUS as QUARTIC_CORPUS

GOLDEN = pathlib.Path(__file__).with_name("data") / "heights_golden.json"

# (a, b, alpha, point or None); the comment names the quartic point P with
# point = phi_1(P) on the companion curve.
EXTRA = [
    ("1000000", "10100000001000001", "1",
     "-400000000,40000080000"),                 # P = (10000, 1)
    ("99991/1024", "6830519/131072", "1",
     "-289/256,1708551/8192"),                  # P = (17/32, 1/2)
    ("1/6561", "2206028/59049", "1",
     "-100/9,1428860/19683"),                   # P = (5/3, -7/3)
    ("-7", "1859/36", "-6", "-16,736"),         # P = (2, 5)
    ("-3", "298222/1334025", "-1155", "-144,85512"),  # P = (6, 7)
    ("-4", "-6", "73", None),
    ("-4", "-6", "10007", None),
]
CORPUS = [(a, b, "1", f"{gx},{gy}") for a, b, gx, gy in QUARTIC_CORPUS] + EXTRA


def _key(item) -> str:
    a, b, alpha, pt = item
    return f"a={a} b={b} alpha={alpha} point={pt}"


def _run_heights(item) -> tuple[int, dict]:
    a, b, alpha, pt = item
    argv = ["heights", "--json"] + ([f"--point={pt}"] if pt else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # "--" before the positionals: a and b may be negative fractions.
        code = main(argv + ["--", a, b, alpha])
    env = json.loads(out.getvalue())
    env.pop("timestamp")
    return code, env


def _render(env: dict) -> str:
    return json.dumps(env, indent=2, sort_keys=True)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("item", CORPUS, ids=_key)
def test_heights_envelope_matches_golden(item):
    expected = _golden()[_key(item)]
    code, env = _run_heights(item)
    assert code == expected["exit"]
    assert _render(env) == _render(expected["envelope"])


def test_golden_covers_corpus():
    assert sorted(_golden()) == sorted(map(_key, CORPUS))


if __name__ == "__main__":
    records = {}
    for item in CORPUS:
        code, env = _run_heights(item)
        records[_key(item)] = {"exit": code, "envelope": env}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} envelopes to {GOLDEN}")
