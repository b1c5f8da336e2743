"""Golden envelopes for the descent path: `hasse-scan`, `descent` and `local`.

The corpus is `hasse-scan 3 6000 --assume-parity` and `hasse-scan 3 1500`
(each against a fresh cache directory), `descent p` for every odd prime
p < 600, for 10007 (= 7 mod 16) and 10111 (= 15 mod 16) and for one prime
above 1000 in each odd class mod 16, and `local p` for every p = 1 (mod 24)
below 3000, for 5881 and for 5, 7, 11, 13, 29.  The first 118 envelopes
were written by the toolkit before the level scan of the l-adic
solvability test was driven by the roots of f mod l instead of a walk over
every residue; the `local` and `descent` entries added since were written
before the F_q point count became linear in q and before the closed-form
roots of even polynomials mod p.  Every payload and assumption list must
still match byte for byte (the timestamp is dropped), and so must the exit
code.

Regenerate with `PYTHONPATH=src python tests/test_hasse_golden.py`.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from symcurves.cli import main
from symcurves.exact import is_prime

GOLDEN = pathlib.Path(__file__).with_name("data") / "hasse_golden.json"

HASSE_SCANS = [
    ("hasse-scan", "3", "6000", "--assume-parity"),
    ("hasse-scan", "3", "1500"),
]
# The first prime above 1000 in each odd class mod 16.
DESCENT_ABOVE_1000 = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1091)
DESCENT = [("descent", str(p)) for p in range(3, 600, 2) if is_prime(p)] + \
    [("descent", "10007"), ("descent", "10111")] + \
    [("descent", str(p)) for p in DESCENT_ABOVE_1000]
# Every p = 1 (mod 24) below 3000, 5881, and a few p outside that class:
# together they pin the F_q point count and witness at every good q < 37.
LOCAL_PRIMES = sorted({p for p in range(73, 3000, 24) if is_prime(p)}
                      | {5, 7, 11, 13, 29, 5881})
LOCAL = [("local", str(p)) for p in LOCAL_PRIMES]
CORPUS = HASSE_SCANS + DESCENT + LOCAL


def _key(item) -> str:
    return " ".join(item)


def _run(item) -> tuple[int, dict]:
    argv = list(item) + ["--json"]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as cache_dir:
        if item[0] == "hasse-scan":
            argv += ["--cache-dir", cache_dir]
        with contextlib.redirect_stdout(out):
            code = main(argv)
    env = json.loads(out.getvalue())
    env.pop("timestamp")
    return code, env


def _render(env: dict) -> str:
    return json.dumps(env, indent=2, sort_keys=True)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("item", CORPUS, ids=_key)
def test_descent_path_envelope_matches_golden(item):
    expected = _golden()[_key(item)]
    code, env = _run(item)
    assert code == expected["exit"]
    assert _render(env) == _render(expected["envelope"])


def test_golden_covers_corpus():
    assert sorted(_golden()) == sorted(map(_key, CORPUS))


if __name__ == "__main__":
    records = {}
    for item in CORPUS:
        code, env = _run(item)
        records[_key(item)] = {"exit": code, "envelope": env}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} envelopes to {GOLDEN}")
