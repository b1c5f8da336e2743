import ast
import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

import symcurves
from symcurves import localglobal, quartic
from symcurves.cli import (
    EXIT_CHECK_FAILED,
    EXIT_PRECONDITION,
    EXIT_UNDETERMINED,
    main,
)
from symcurves.exact import PROBABLE_PRIME_BOUND, CheckFailed, factorize, is_prime
from symcurves.localglobal import (
    WEIL_CUTOFF,
    count_smooth_points_quartic_Fq,
    everywhere_locally_solvable,
    real_solvable,
    special_place_checks,
)
from symcurves.quartic import SymQuartic


def family(p):
    """(a', b') of the twist of the (-4, -6) quartic by p."""
    return -4 * p, -6 * p * p


def integral_model(F):
    """(a' t^2, b' t^4) for t the lcm of the denominators of a' and b':
    x -> x/t, y -> y/t keeps the real points, and the F_q points for q not
    dividing t."""
    t = math.lcm(F.a_eff.denominator, F.b_eff.denominator)
    return int(F.a_eff * t * t), int(F.b_eff * t**4)


def brute_projective_count(q, a, b):
    """Oracle: triple loop over representatives of P^2(F_q) on the closure
    x^4 + a x^2 z^2 + a y^2 z^2 + y^4 - b z^4."""
    def form(x, y, z):
        return (x**4 + a * x * x * z * z + a * y * y * z * z
                + y**4 - b * z**4) % q

    count = 0
    for x in range(q):
        for y in range(q):
            if form(x, y, 1) == 0:
                count += 1
    for x in range(q):
        if form(x, 1, 0) == 0:
            count += 1
    if form(1, 0, 0) == 0:
        count += 1
    return count


def count(q, a, b):
    return count_smooth_points_quartic_Fq(q, a % q, b % q)


def test_real_solvable():
    assert real_solvable(*family(5))
    assert real_solvable(*family(73))
    assert real_solvable(-4, -3)  # point (1, 0)
    # The minimum -a^2/2 = -8 of (-4, b) is at x^2 = y^2 = 2.
    assert real_solvable(-4, -8) and not real_solvable(-4, -9)
    assert real_solvable(0, 0) and not real_solvable(3, -1)
    for alpha in (1, 2, 5, -1, -3):
        F = SymQuartic(Fraction(-21, 4), Fraction(-889, 16), alpha)
        assert not real_solvable(*integral_model(F))


def test_count_examples():
    a, b = family(73)
    n5, witness = count(5, a, b)
    assert n5 == brute_projective_count(5, a, b)
    assert n5 >= 1 and witness is not None
    n7, w7 = count(7, a, b)
    assert n7 == brute_projective_count(7, a, b)
    assert w7 is not None


def test_count_rejects_non_prime_field():
    kept = localglobal._count_smooth_points.cache_info().currsize
    for q in (1, 9, 15, 35):
        with pytest.raises(ValueError, match="not prime"):
            count_smooth_points_quartic_Fq(q, 0, 1)
    assert localglobal._count_smooth_points.cache_info().currsize == kept


def test_weil_bound_small_good_primes():
    for p in (73, 97):
        a, b = family(p)
        for q in range(5, 37):
            if not is_prime(q) or q in {2, 3, p}:
                continue
            n, witness = count(q, a, b)
            assert (n - q - 1) ** 2 <= 36 * q  # genus 3 Weil bound
            assert witness is not None


def test_weil_cutoff_is_where_the_genus_3_bound_turns_positive():
    # Every place q >= WEIL_CUTOFF is claimed solvable by the Weil bound
    # q + 1 - 6 sqrt(q) > 0, that is (q + 1)^2 > 36q in integers.  It holds
    # at every prime from the cutoff to 10^4 and fails at q = 31, the last
    # prime below it, whose F_q count the scan therefore makes.
    assert all((q + 1) ** 2 > 36 * q
               for q in range(WEIL_CUTOFF, 10**4) if is_prime(q))
    assert (31 + 1) ** 2 <= 36 * 31
    assert max(q for q in range(WEIL_CUTOFF) if is_prime(q)) == 31


def test_special_place_checks():
    for p in (73, 97):
        reports = special_place_checks(p)
        assert [r.place for r in reports] == [2, 3, p]
        assert all(r.solvable is True for r in reports)
    with pytest.raises(ValueError):
        special_place_checks(5)
    with pytest.raises(ValueError):
        special_place_checks(97 + 24)  # 121 not prime


def test_witness_lifts_one_more_digit():
    # Hensel sanity: the square root witnesses extend to higher precision.
    from symcurves.exact import sqrt_mod_pk

    for p in (73, 97, 193):
        t8 = sqrt_mod_pk(p, 2, 8)
        t9 = sqrt_mod_pk(p, 2, 9)
        assert (t9 - t8) % 2**7 == 0  # the lift extends the mod-2^8 witness
        assert (t9 * t9 - p) % 2**9 == 0
        t5 = sqrt_mod_pk(p, 3, 5)
        t6 = sqrt_mod_pk(p, 3, 6)
        assert (t6 - t5) % 3**5 == 0 or (t6 + t5) % 3**5 == 0
        assert (t6 * t6 - p) % 3**6 == 0


def test_everywhere_locally_solvable():
    for p in (73, 97, 193):
        ok, reports = everywhere_locally_solvable(p)
        assert ok is True
        places = [r.place for r in reports]
        assert places[0] == "real"
        assert {2, 3, p} <= set(x for x in places if isinstance(x, int))
        for r in reports:
            assert r.solvable is True


def test_smooth_witness_is_smooth():
    q = 11
    a, b = (c % q for c in family(73))
    n, (x, y, z) = count_smooth_points_quartic_Fq(q, a, b)
    dx = (4 * x**3 + 2 * a * x * z * z) % q
    dy = (4 * y**3 + 2 * a * y * z * z) % q
    dz = (2 * a * x * x * z + 2 * a * y * y * z - 4 * b * z**3) % q
    assert (dx, dy, dz) != (0, 0, 0)


def test_non_special_prime_reports_undetermined():
    # p = 5 is not 1 mod 24: bad places cannot be certified constructively.
    ok, reports = everywhere_locally_solvable(5)
    assert ok is False
    assert any(r.solvable == "undetermined" for r in reports)


def _uncounted_places(reports):
    """The prime places certified otherwise than by an F_q count."""
    return [r.place for r in reports if isinstance(r.place, int)
            and r.method != "hensel-from-Fq"]


# p = 10^30 + 57 = 1 (mod 24), a probable prime above 2^64.
LARGE_FAMILY_PRIME = 10**30 + 57


def test_bad_places_are_those_of_the_family_discriminant():
    # The local check takes its bad places as {2, 3, p}.  They are 2 and the
    # primes of disc * p for the (-4, -6) quartic twisted by p; the code no
    # longer computes that, so it is checked here.
    assert LARGE_FAMILY_PRIME > PROBABLE_PRIME_BOUND
    assert is_prime(LARGE_FAMILY_PRIME) and LARGE_FAMILY_PRIME % 24 == 1
    primes = ([3] + [p for p in range(73, 3000, 24) if is_prime(p)]
              + [LARGE_FAMILY_PRIME])
    for p in primes:
        disc = SymQuartic(-4, -6, p).disc() * p
        assert disc.denominator == 1
        assert {2, 3, p} == {2} | set(factorize(disc.numerator)), p
        ok, reports = everywhere_locally_solvable(p)
        assert sorted(_uncounted_places(reports)) == sorted({2, 3, p}), p
        assert ok is (p != 3)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_local_3_lists_place_3_once_as_bad_reduction():
    code, out = _cli(["local", "3", "--json"])
    assert code == EXIT_UNDETERMINED == 3
    places = json.loads(out)["payload"]["places"]
    assert [r["place"] for r in places].count(3) == 1
    (three,) = [r for r in places if r["place"] == 3]
    assert three["method"] == "bad-reduction"
    assert three["solvable"] == "undetermined"


def test_local_2_is_an_input_error(capsys):
    assert main(["local", "2"]) == EXIT_PRECONDITION == 2
    assert capsys.readouterr().err == "error: p must be an odd prime\n"


def test_hasse_path_builds_no_quartic(monkeypatch):
    # `local` and `hasse-scan` work on the family's integers: with the
    # quartic class unusable they still give their golden payloads.
    def refuse(self, *args, **kwargs):
        raise RuntimeError("the Hasse path built a SymQuartic")

    monkeypatch.setattr(quartic.SymQuartic, "__init__", refuse)
    with pytest.raises(RuntimeError):
        SymQuartic(1, 1)
    localglobal._count_smooth_points.cache_clear()
    root = pathlib.Path(__file__).resolve().parent
    golden = json.loads((root / "data" / "hasse_golden.json").read_text())
    code, out = _cli(["local", "73", "--json"])
    want = golden["local 73"]
    assert code == want["exit"]
    assert json.loads(out)["payload"] == want["envelope"]["payload"]
    scan = golden["hasse-scan 3 6000 --assume-parity"]["envelope"]["payload"]
    verdicts = [v for v in scan["verdicts"] if v["p"] <= 600]
    with tempfile.TemporaryDirectory() as cache_dir:
        code, out = _cli(["hasse-scan", "3", "600", "--assume-parity",
                          "--json", "--cache-dir", cache_dir])
    assert code == 0
    assert json.loads(out)["payload"] == {"primes_scanned": len(verdicts),
                                          "verdicts": verdicts}
    source = pathlib.Path(localglobal.__file__).read_text()
    imported = {node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom)}
    assert "quartic" not in imported and "fractions" not in imported
    assert "Fraction" not in source


# ---------------------------------------------------------------------------
# Reference: the O(q^2) count over every affine (x, y), as the toolkit
# computed it before the count was bucketed by h(y) = y^4 + a*y^2.


def reference_count_smooth_points(q, a, b):
    a, b = a % q, b % q

    def form(x, y, z):
        z2 = z * z % q
        return (pow(x, 4, q) + a * x * x % q * z2 + a * y * y % q * z2
                + pow(y, 4, q) - b * z2 * z2) % q

    def partials(x, y, z):
        dx = (4 * pow(x, 3, q) + 2 * a * x * z * z) % q
        dy = (4 * pow(y, 3, q) + 2 * a * y * z * z) % q
        dz = (2 * a * x * x * z + 2 * a * y * y * z - 4 * b * z * z * z) % q
        return dx, dy, dz

    n = 0
    witness = None
    for x in range(q):
        for y in range(q):
            if form(x, y, 1) == 0:
                n += 1
                if witness is None and any(partials(x, y, 1)):
                    witness = (x, y, 1)
    for x in range(q):
        if (pow(x, 4, q) + 1) % q == 0:
            n += 1
            if witness is None and any(partials(x, 1, 0)):
                witness = (x, 1, 0)
    return n, witness


def _good_primes(a, b, hi):
    """The odd primes below hi prime to b(a^2 + 2b)(a^2 + 4b)."""
    disc = b * (a * a + 2 * b) * (a * a + 4 * b)
    return [q for q in range(3, hi) if is_prime(q) and disc % q]


# The `local p` corpus of tests/test_hasse_golden.py: every (F, q) that the
# family's local check counts.
FAMILY_PRIMES = sorted({p for p in range(73, 3000, 24) if is_prime(p)}
                       | {5, 7, 11, 13, 29, 5881})


def test_count_matches_quadratic_reference_on_family():
    for p in FAMILY_PRIMES:
        a, b = family(p)
        for q in _good_primes(a, b, WEIL_CUTOFF):
            assert count(q, a, b) == reference_count_smooth_points(q, a, b), \
                (p, q)


def test_count_matches_quadratic_reference_on_random_twists():
    rng = random.Random(29)
    curves = []
    while len(curves) < 40:
        a = Fraction(rng.randrange(-30, 31), rng.choice([1, 1, 2, 4]))
        b = Fraction(rng.randrange(-60, 61), rng.choice([1, 1, 3, 16]))
        alpha = rng.choice([1, -1, 2, -3, 5, 6, 7, -10])
        try:
            curves.append(integral_model(SymQuartic(a, b, alpha)))
        except ValueError:
            continue
    # a' = 0 makes h(t) = t^4, so each bucket holds the fourth roots.
    curves += [(0, 2), (0, -9)]
    for a, b in curves:
        for q in _good_primes(a, b, 60):
            assert count(q, a, b) == reference_count_smooth_points(q, a, b), \
                (a, b, q)


def direct_counts(q, a):
    """Oracle for every b at once: (count, smooth witness) of the closure of
    h(x) + h(y) = b, h(t) = t^4 + a*t^2, over F_q, by one pass over all of
    F_q^2 in (x, y) order and then the line at infinity."""
    counts, witnesses = [0] * q, [None] * q
    for x in range(q):
        for y in range(q):
            b = (x**4 + a * x * x + y**4 + a * y * y) % q
            counts[b] += 1
            smooth = ((4 * x**3 + 2 * a * x) % q, (4 * y**3 + 2 * a * y) % q,
                      (2 * a * (x * x + y * y) - 4 * b) % q)
            if witnesses[b] is None and any(smooth):
                witnesses[b] = (x, y, 1)
    for x in range(q):
        if (x**4 + 1) % q == 0:     # [x : 1 : 0], where dF/dy = 4 != 0
            for b in range(q):
                counts[b] += 1
                if witnesses[b] is None:
                    witnesses[b] = (x, 1, 0)
    return list(zip(counts, witnesses))


def test_small_field_table_matches_direct_count_for_every_residue_pair():
    # Every residue pair (a, b) mod q, for every q the local check counts,
    # asked twice: the first fills the table, the second is served from it,
    # and the table then holds one key per pair.
    small = [q for q in range(3, WEIL_CUTOFF) if is_prime(q)]
    table = localglobal._count_smooth_points
    table.cache_clear()
    for q in small:
        for a in range(q):
            want = direct_counts(q, a)
            for b in range(q):
                for _ in range(2):
                    assert count_smooth_points_quartic_Fq(q, a, b) == want[b], \
                        (q, a, b)
    pairs = sum(q * q for q in small)
    assert pairs == 3354
    assert table.cache_info().currsize == pairs
    assert table.cache_info().hits == pairs


# ---------------------------------------------------------------------------
# The checks that gate the constructive certificates at 2, 3 and p raise
# CheckFailed (exit code 4), also under python -O.  Each patch breaks
# exactly one of the five checks of `special_place_checks`.

_SQRT = ("from symcurves import localglobal\n"
         "_sqrt = localglobal.sqrt_mod_pk\n"
         "localglobal.sqrt_mod_pk = (lambda a, p, k:\n"
         "    {wrong} if p == {ell} else _sqrt(a, p, k))\n")
_DIAG = ("from symcurves import localglobal\n"
         "localglobal._diag_value = lambda p, t: {value}\n")

# Keyed by a phrase of the failure message.
FORCED = {
    "2-adic square root": _SQRT.format(ell=2, wrong="None"),
    "mod 2^8": _DIAG.format(value=1),
    "3-adic square root": _SQRT.format(ell=3, wrong="_sqrt(a, p, k) + 1"),
    "mod 3^5": _DIAG.format(value=2**8),   # 0 mod 2^8, not mod 3^5
    "8th root of unity": ("from symcurves import localglobal\n"
                          "localglobal._eighth_root_mod_p2 = lambda p: 1\n"),
}


@pytest.fixture
def restore_localglobal(monkeypatch):
    # Record the originals, so that what a forced failure patches is restored.
    for name in ("sqrt_mod_pk", "_diag_value", "_eighth_root_mod_p2"):
        monkeypatch.setattr(localglobal, name, getattr(localglobal, name))


@pytest.mark.parametrize("check", FORCED)
def test_forced_special_place_failure_exits_4(check, capsys,
                                              restore_localglobal):
    exec(FORCED[check], {})
    with pytest.raises(CheckFailed, match=check.replace("^", r"\^")):
        special_place_checks(73)
    assert main(["local", "73", "--json"]) == EXIT_CHECK_FAILED == 4
    with tempfile.TemporaryDirectory() as cache_dir:
        code = main(["hasse-scan", "3", "100", "--cache-dir", cache_dir])
    assert code == EXIT_CHECK_FAILED
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: check failed: ")
    assert check in out.err


@pytest.mark.parametrize("check", FORCED)
def test_forced_special_place_failure_exits_4_under_python_O(check):
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    for argv in (["local", "73"], ["hasse-scan", "3", "100", "--cache-dir"]):
        with tempfile.TemporaryDirectory() as cache_dir:
            if argv[0] == "hasse-scan":
                argv = argv + [cache_dir]
            script = ("import sys\n"
                      "assert False, 'asserts must be off'\n"
                      + FORCED[check] +
                      "from symcurves.cli import main\n"
                      f"sys.exit(main({argv!r}))\n")
            child = subprocess.run([sys.executable, "-O", "-c", script],
                                   capture_output=True, text=True, timeout=120,
                                   env=dict(os.environ, PYTHONPATH=src))
        assert child.returncode == 4, child.stderr
        assert child.stderr.startswith("error: check failed: ")
        assert check in child.stderr
        assert "Traceback" not in child.stderr


def test_hasse_path_has_no_asserts():
    # Checks go through exact.require, which python -O keeps: on the Hasse
    # path (the companion c4/c6 check of descent.root_number is one) and in
    # every other module of the package.
    package = pathlib.Path(symcurves.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert {"localglobal", "descent", "dynamics", "elliptic"} <= set(modules)
    for module in modules:
        tree = ast.parse((package / f"{module}.py").read_text())
        asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert asserts == [], (module, asserts)


def test_package_has_no_unread_imports():
    # A module-level import that its module never reads is dead, as deletions
    # tend to leave behind.  __init__.py imports only to re-export.
    package = pathlib.Path(symcurves.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        imported = [(alias.asname or alias.name.split(".")[0], node.lineno)
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        unread = [(name, line) for name, line in imported if name not in read]
        assert unread == [], (path.name, unread)


def test_package_has_no_dead_private_helper():
    # A module-level _name function or class that nothing else in the package
    # refers to is dead, as deletions tend to leave behind.  A reference from
    # its own body (recursion) does not count.
    package = pathlib.Path(symcurves.__file__).parent
    helpers, refs = [], []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and own.startswith("_") and not own.startswith("__")):
                helpers.append((path.name, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                refs.append((path.name, own, name))
    dead = [(module, name) for module, name in helpers
            if not any(ref == name and (m, own) != (module, name)
                       for m, own, ref in refs)]
    assert dead == [], dead


# Top-level definitions of the package that no command reaches, kept with
# their reasons.
UNREACHED_ALLOWED = {
    "elliptic.canonical_height_doubling":
        "the exact doubling-limit oracle for canonical_height; ROADMAP item 3 "
        "turns it into the certified lower bound on hhat(G)",
}


def package_reach(package: pathlib.Path):
    """(definitions, reached): every top-level function, class and assigned
    name of the package as "module.name", and those reached from `cli.main`
    and the `cmd_*` functions.  A definition reaches each one its source
    names, in its own module or through a relative import; a class reaches
    what any of its methods names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in package.glob("*.py")}
    bodies, refs = {}, {}
    for module, tree in trees.items():
        imported = {}  # local name -> "module.name" or a module's name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        imported[local] = f"{node.module}.{alias.name}"
                    elif alias.name in trees:
                        imported[local] = alias.name
                    else:
                        imported[local] = f"__init__.{alias.name}"
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                bodies[f"{module}.{name}"] = (module, stmt, imported)
    for key, (module, stmt, imported) in bodies.items():
        refs[key] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                own = f"{module}.{node.id}"
                refs[key].add(own if own in bodies
                              else imported.get(node.id, own))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and imported.get(node.value.id) in trees):
                refs[key].add(f"{imported[node.value.id]}.{node.attr}")
    todo = [key for key in bodies if key == "cli.main"
            or key.startswith("cli.cmd_")]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in bodies:
            continue
        reached.add(key)
        todo.extend(refs[key])
    return set(bodies), reached


def test_every_definition_is_reached_from_a_command():
    # The library is what a command uses: a top-level definition that no
    # command reaches belongs in the tests as a reference, or nowhere, unless
    # the allow-list gives it a reason.
    package = pathlib.Path(symcurves.__file__).parent
    definitions, reached = package_reach(package)
    assert {"cli.main", "cli.cmd_orbit", "chebyshev.cheb_eval",
            "exact._SIEVE", "__init__.__version__"} <= reached
    assert all(reason for reason in UNREACHED_ALLOWED.values())
    assert definitions - reached == set(UNREACHED_ALLOWED)


def _imports_from_symcurves(source: str) -> set:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "symcurves"
            for alias in node.names}


def test_package_exports_what_demos_and_readme_import():
    # `__init__` re-exports exactly the names that the demos and the README's
    # Python examples import from `symcurves`; the rest stays in its module.
    package = pathlib.Path(symcurves.__file__).parent
    root = pathlib.Path(__file__).resolve().parents[1]
    sources = [path.read_text() for path in sorted(root.glob("demos/*.py"))]
    sources += (root / "README.md").read_text().split("```python")[1:]
    used = set().union(*(_imports_from_symcurves(s.split("```")[0])
                         for s in sources))
    exported = {alias.name for node in ast.parse(
                    (package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert exported == used
