import ast
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

import symcurves
from symcurves import localglobal
from symcurves.cli import EXIT_CHECK_FAILED, main
from symcurves.exact import CheckFailed, is_prime, rat_mod
from symcurves.localglobal import (
    WEIL_CUTOFF,
    bad_primes,
    count_smooth_points_quartic_Fq,
    everywhere_locally_solvable,
    family_curve,
    real_solvable,
    special_place_checks,
)
from symcurves.quartic import SymQuartic


def brute_projective_count(F, q):
    """Oracle: triple loop over representatives of P^2(F_q) on the closure
    x^4 + a x^2 z^2 + a y^2 z^2 + y^4 - b z^4."""
    a = F.a_eff.numerator * pow(F.a_eff.denominator, -1, q) % q
    b = F.b_eff.numerator * pow(F.b_eff.denominator, -1, q) % q

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


def test_real_solvable():
    assert real_solvable(family_curve(5))
    assert real_solvable(family_curve(73))
    assert real_solvable(SymQuartic(-4, -3, 1))  # point (1, 0)
    for alpha in (1, 2, 5, -1, -3):
        F = SymQuartic(Fraction(-21, 4), Fraction(-889, 16), alpha)
        assert not real_solvable(F)


def test_count_examples():
    F = family_curve(73)
    count, witness = count_smooth_points_quartic_Fq(F, 5)
    assert count == brute_projective_count(F, 5)
    assert count >= 1 and witness is not None
    count7, w7 = count_smooth_points_quartic_Fq(F, 7)
    assert count7 == brute_projective_count(F, 7)
    assert w7 is not None


def test_count_rejects_bad_reduction():
    F = family_curve(73)
    for q in (2, 3, 73):
        with pytest.raises(ValueError):
            count_smooth_points_quartic_Fq(F, q)


def test_weil_bound_small_good_primes():
    for p in (73, 97):
        F = family_curve(p)
        for q in range(5, 37):
            if not is_prime(q) or q in bad_primes(F):
                continue
            count, witness = count_smooth_points_quartic_Fq(F, q)
            assert (count - q - 1) ** 2 <= 36 * q  # genus 3 Weil bound
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
    F = family_curve(73)
    a = F.a_eff.numerator % 11
    b = F.b_eff.numerator % 11
    count, (x, y, z) = count_smooth_points_quartic_Fq(F, 11)
    q = 11
    dx = (4 * x**3 + 2 * a * x * z * z) % q
    dy = (4 * y**3 + 2 * a * y * z * z) % q
    dz = (2 * a * x * x * z + 2 * a * y * y * z - 4 * b * z**3) % q
    assert (dx, dy, dz) != (0, 0, 0)


def test_non_special_prime_reports_undetermined():
    # p = 5 is not 1 mod 24: bad places cannot be certified constructively.
    ok, reports = everywhere_locally_solvable(5)
    assert ok is False
    assert any(r.solvable == "undetermined" for r in reports)


# ---------------------------------------------------------------------------
# Reference: the O(q^2) count over every affine (x, y), as the toolkit
# computed it before the count was bucketed by h(y) = y^4 + a*y^2.


def reference_count_smooth_points(F, q):
    a = rat_mod(F.a_eff, q)
    b = rat_mod(F.b_eff, q)

    def form(x, y, z):
        z2 = z * z % q
        return (pow(x, 4, q) + a * x * x % q * z2 + a * y * y % q * z2
                + pow(y, 4, q) - b * z2 * z2) % q

    def partials(x, y, z):
        dx = (4 * pow(x, 3, q) + 2 * a * x * z * z) % q
        dy = (4 * pow(y, 3, q) + 2 * a * y * z * z) % q
        dz = (2 * a * x * x * z + 2 * a * y * y * z - 4 * b * z * z * z) % q
        return dx, dy, dz

    count = 0
    witness = None
    for x in range(q):
        for y in range(q):
            if form(x, y, 1) == 0:
                count += 1
                if witness is None and any(partials(x, y, 1)):
                    witness = (x, y, 1)
    for x in range(q):
        if (pow(x, 4, q) + 1) % q == 0:
            count += 1
            if witness is None and any(partials(x, 1, 0)):
                witness = (x, 1, 0)
    return count, witness


def _good_primes(F, hi):
    return [q for q in range(3, hi) if is_prime(q) and q not in bad_primes(F)]


# The `local p` corpus of tests/test_hasse_golden.py: every (F, q) that the
# family's local check counts.
FAMILY_PRIMES = sorted({p for p in range(73, 3000, 24) if is_prime(p)}
                       | {5, 7, 11, 13, 29, 5881})


def test_count_matches_quadratic_reference_on_family():
    for p in FAMILY_PRIMES:
        F = family_curve(p)
        for q in _good_primes(F, WEIL_CUTOFF):
            assert count_smooth_points_quartic_Fq(F, q) == \
                reference_count_smooth_points(F, q), (p, q)


def test_count_matches_quadratic_reference_on_random_twists():
    rng = random.Random(29)
    curves = []
    while len(curves) < 40:
        a = Fraction(rng.randrange(-30, 31), rng.choice([1, 1, 2, 4]))
        b = Fraction(rng.randrange(-60, 61), rng.choice([1, 1, 3, 16]))
        alpha = rng.choice([1, -1, 2, -3, 5, 6, 7, -10])
        try:
            curves.append(SymQuartic(a, b, alpha))
        except ValueError:
            continue
    # a' = 0 makes h(t) = t^4, so each bucket holds the fourth roots.
    curves += [SymQuartic(0, 2), SymQuartic(0, -1, 3)]
    for F in curves:
        for q in _good_primes(F, 60):
            assert count_smooth_points_quartic_Fq(F, q) == \
                reference_count_smooth_points(F, q), (F, q)


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
    # Each (a', b') mod q of good reduction, for every q the table keeps,
    # from two quartics with those residues: the second is served from the
    # table.  Larger q are counted and not kept.
    small = [q for q in range(3, WEIL_CUTOFF) if is_prime(q)]
    for q in small:
        for a in range(q):
            want = direct_counts(q, a)
            for b in range(q):
                if b * (a * a + 2 * b) * (a * a + 4 * b) % q == 0:
                    continue        # bad reduction: rejected before the table
                for F in (SymQuartic(a, b), SymQuartic(a + q, b - 2 * q)):
                    assert count_smooth_points_quartic_Fq(F, q) == want[b], \
                        (q, a, b)
    kept = localglobal._count_small_field.cache_info().currsize
    assert kept <= sum(q * q for q in small)
    F = SymQuartic(1, 1)
    for q in (WEIL_CUTOFF, 41, 101):
        if is_prime(q):
            assert count_smooth_points_quartic_Fq(F, q) == \
                reference_count_smooth_points(F, q)
    assert localglobal._count_small_field.cache_info().currsize == kept


def test_bad_primes_computed_once_per_quartic():
    F = family_curve(97)
    first = bad_primes(F)
    assert first == {2, 3, 97}
    assert bad_primes(F) is first
    for q in (2, 3, 97):
        with pytest.raises(ValueError, match="bad reduction"):
            count_smooth_points_quartic_Fq(F, q)
    with pytest.raises(ValueError, match="not prime"):
        count_smooth_points_quartic_Fq(F, 9)


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
