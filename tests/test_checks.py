"""The checks that gate the point certificates of `cheb`, `quartic` and
`heights` raise CheckFailed through `exact.require`: exit code 4, with the
message and no traceback, also under python -O.  Each patch below breaks
exactly one check."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import symcurves
from symcurves import demjanenko, dynamics, elliptic, quartic
from symcurves.cli import EXIT_CHECK_FAILED, main
from symcurves.demjanenko import determine_points
from symcurves.dynamics import chebyshev_curve_points
from symcurves.elliptic import canonical_height, point, torsion_subgroup
from symcurves.exact import CheckFailed
from symcurves.quartic import SymQuartic, companion_curve, phi_preimages

X4 = SymQuartic(-4, -3, 1)
G = point(4, -16)
HEIGHTS = ["heights", "--", "-4", "-3", "1"]
HEIGHTS_POINT = ["heights", "--point=4,-16", "--", "-4", "-3", "1"]
QUARTIC = ["quartic", "-4", "-3", "1", "--generator", "4,-16"]

# Keyed by the failure message: (patch, library call, CLI argv).  The
# point (7, 9) lies on neither X_20 nor X_4, and 3 is outside the
# {0, +-1, +-2} that X_5's pull-back inverts.
FORCED = {
    "pulled-back point is not on X_d": (
        "from fractions import Fraction\n"
        "from symcurves import dynamics\n"
        "_pull = dynamics._pullback_pairs\n"
        "dynamics._pullback_pairs = (lambda d, pairs:\n"
        "    _pull(d, pairs) | {(Fraction(7), Fraction(9))})\n",
        lambda: chebyshev_curve_points(20), ["cheb", "20"]),
    "bounded scan found a point outside the certificate": (
        "from fractions import Fraction\n"
        "from symcurves import dynamics\n"
        "_scan = dynamics.conjecture_scan\n"
        "dynamics.conjecture_scan = (lambda d, cap:\n"
        "    _scan(d, cap) | {(Fraction(7), Fraction(9))})\n",
        lambda: chebyshev_curve_points(20), ["cheb", "20"]),
    "base coordinate outside {0, +-1, +-2}: growth bound does not apply": (
        "from symcurves import dynamics\n"
        "dynamics.X5_POINTS = dynamics.X5_POINTS | {(3, 0)}\n",
        lambda: chebyshev_curve_points(5), ["cheb", "5"]),
    "certificate point is not on the quartic": (
        "from fractions import Fraction\n"
        "from symcurves import demjanenko\n"
        "from symcurves.quartic import QuarticPoint\n"
        "demjanenko.equal_index_points = (lambda F:\n"
        "    {QuarticPoint(Fraction(7), Fraction(9))})\n",
        lambda: determine_points(X4, G), QUARTIC),
    "pulled-back point is not on the quartic": (
        "from symcurves import quartic\n"
        "_point = quartic.QuarticPoint\n"
        "quartic.QuarticPoint = lambda x, y: _point(x, y + 1)\n",
        lambda: phi_preimages(point(-4, -16), X4), QUARTIC),
    "phi_1 does not map the pulled-back point to its target": (
        "from symcurves import quartic\n"
        "_phi1 = quartic._phi1\n"
        "quartic._phi1 = (lambda P, F:\n"
        "    (lambda Xn, Xd, Yn, Yd: (Xn, Xd, Yn + Yd, Yd))(*_phi1(P, F)))\n",
        lambda: phi_preimages(point(-4, -16), X4), QUARTIC),
    "torsion order does not divide the point-count gcd": (
        "from symcurves import elliptic\n"
        "elliptic._torsion_multiple_bound = lambda E, floor: 1\n",
        lambda: torsion_subgroup(companion_curve(X4)), HEIGHTS),
    "duplication content exceeds its Bezout bound": (
        "from symcurves import elliptic\n"
        "elliptic._val_capped = lambda a, ell, cap: cap + 1\n",
        lambda: canonical_height(companion_curve(X4), G), HEIGHTS_POINT),
}

PATCHED = ((dynamics, "_pullback_pairs"), (dynamics, "conjecture_scan"),
           (dynamics, "X5_POINTS"),
           (demjanenko, "equal_index_points"), (quartic, "QuarticPoint"),
           (quartic, "_phi1"), (elliptic, "_torsion_multiple_bound"),
           (elliptic, "_val_capped"))


@pytest.fixture
def restore_patched(monkeypatch):
    # Record the originals, so that what a forced failure patches is restored.
    for module, name in PATCHED:
        monkeypatch.setattr(module, name, getattr(module, name))


@pytest.mark.parametrize("check", FORCED)
def test_forced_check_failure_exits_4(check, capsys, restore_patched):
    patch, call, argv = FORCED[check]
    exec(patch, {})
    with pytest.raises(CheckFailed, match=re.escape(check)):
        call()
    assert main(argv) == EXIT_CHECK_FAILED == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: check failed: {check}\n"


@pytest.mark.parametrize("check", FORCED)
def test_forced_check_failure_exits_4_under_python_O(check):
    patch, _, argv = FORCED[check]
    script = ("import sys\n"
              "assert False, 'asserts must be off'\n"
              + patch +
              "from symcurves.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 4, child.stderr
    assert child.stderr == f"error: check failed: {check}\n"
    assert child.stdout == ""
