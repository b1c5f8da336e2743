"""Golden envelopes for `quartic a b 1 --generator=G --json`.

The corpus is X_4 with G = (4, -16), 25 curves back-solved from a seeded
point P (b = F_a(P), G = phi_1(P)), and four curves whose companion torsion
has order 4.  The golden file was written by the toolkit before the residue
sieve replaced the unsieved walk of every n*G + T; every payload and
assumption list must still match it byte for byte (the timestamp is
dropped).

Regenerate with `PYTHONPATH=src python tests/test_quartic_golden.py`.
"""

import contextlib
import io
import json
import pathlib

import pytest

from symcurves.cli import main

GOLDEN = pathlib.Path(__file__).with_name("data") / "quartic_golden.json"

# (a, b, G_x, G_y); the comment names the seeded point P with G = phi_1(P).
X4 = [("-4", "-3", "4", "-16")]
BACK_SOLVED = [
    ("2", "1656", "-64", "1184"),           # P = (4, 6)
    ("-6", "635", "-64", "704"),            # P = (4, 5)
    ("-3", "389/16", "-25", "50"),          # P = (5/2, -2)
    ("-1/2", "287/16", "-9", "45"),         # P = (3/2, -2), torsion order 4
    ("6", "1864", "-64", "1248"),           # P = (4, 6)
    ("0", "2", "-4", "8"),                  # P = (1, 1)
    ("-3", "52", "-4", "-60"),              # P = (-1, 3)
    ("3", "1408", "-144", "-120"),          # P = (-6, 1)
    ("5/2", "227/16", "-4", "-28"),         # P = (-1, 3/2)
    ("-3/2", "1175", "-100", "970"),        # P = (5, 5)
    ("5", "42", "-4", "52"),                # P = (1, 2)
    ("5", "72", "-16", "-104"),             # P = (-2, 2)
    ("5", "3141/16", "-25", "230"),         # P = (5/2, 3)
    ("-3", "1242", "-144", "360"),          # P = (6, -3)
    ("-1", "-3/16", "-4", "2"),             # P = (-1, -1/2)
    ("-2", "224", "-64", "32"),             # P = (-4, 0)
    ("-1", "84", "-36", "-84"),             # P = (-3, -2)
    ("-3/2", "135/2", "-36", "-18"),        # P = (3, 0)
    ("6", "1647", "-36", "936"),            # P = (3, -6)
    ("-1", "1677/16", "-25", "-170"),       # P = (-5/2, -3)
    ("-5/2", "129/2", "-36", "66"),         # P = (3, 2)
    ("-3", "9125/16", "-25", "470"),        # P = (5/2, 5)
    ("-5", "-8", "-16", "-24"),             # P = (2, -1)
    ("0", "1312", "-144", "-192"),          # P = (-6, -2)
    ("5", "23637/16", "-144", "132"),       # P = (6, 1/2)
]
TORSION_FOUR = [
    ("-8", "-23", "-16", "48"),             # P = (-2, -1)
    ("-9/2", "-49/8", "-9", "24"),          # P = (-3/2, -1/2)
    ("-12", "-527/16", "-9", "60"),         # P = (-3/2, -1)
    ("-8", "-287/16", "-25", "60"),         # P = (-5/2, -1)
]
CORPUS = X4 + BACK_SOLVED + TORSION_FOUR


def _key(item) -> str:
    a, b, gx, gy = item
    return f"a={a} b={b} G=({gx},{gy})"


def _run_quartic(item) -> tuple[int, dict]:
    a, b, gx, gy = item
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # "--" before the positionals: a and b may be negative fractions.
        code = main(["quartic", f"--generator={gx},{gy}", "--rank", "1",
                     "--json", "--", a, b, "1"])
    env = json.loads(out.getvalue())
    env.pop("timestamp")
    return code, env


def _render(env: dict) -> str:
    return json.dumps(env, indent=2, sort_keys=True)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("item", CORPUS, ids=_key)
def test_quartic_envelope_matches_golden(item):
    expected = _golden()[_key(item)]
    code, env = _run_quartic(item)
    assert code == expected["exit"]
    assert _render(env) == _render(expected["envelope"])


def test_golden_covers_corpus():
    assert sorted(_golden()) == sorted(map(_key, CORPUS))


if __name__ == "__main__":
    records = {}
    for item in CORPUS:
        code, env = _run_quartic(item)
        records[_key(item)] = {"exit": code, "envelope": env}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} envelopes to {GOLDEN}")
