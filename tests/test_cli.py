import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import symcurves
from symcurves import cli
from symcurves.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_UNDETERMINED,
    ScanCache,
    build_parser,
    main,
    rat,
)
from symcurves.dynamics import TAIL_BIT_CAP
from symcurves.elliptic import point
from symcurves.exact import CheckFailed, is_prime
from fractions import Fraction


def unrat(obj) -> Fraction:
    """Reference: the inverse of `cli.rat`, decoding a serialized rational."""
    return Fraction(int(obj["num"]), int(obj["den"]))


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rational_serialization_roundtrip():
    for q in (Fraction(3, 7), Fraction(-22, 5), Fraction(0), Fraction(10**40, 3)):
        assert unrat(rat(q)) == q


def test_quartic_command(capsys):
    code, out, _ = run(["quartic", "-4", "-3", "1", "--generator", "4,-16",
                        "--rank", "1", "--json"], capsys)
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["payload"]["count"] == 12
    assert env["payload"]["index_bound"] <= 120
    assert env["payload"]["n_window"] >= 40
    pts = {(unrat(x), unrat(y)) for x, y in env["payload"]["points"]}
    assert (Fraction(0), Fraction(1)) in pts


def test_quartic_rank0_empty(capsys):
    code, out, _ = run(["quartic", "-4", "-6", "5", "--rank", "0", "--json"],
                       capsys)
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["payload"]["count"] == 0


def test_quartic_degenerate_exit(capsys):
    code, _, err = run(["quartic", "1", "0", "1"], capsys)
    assert code == EXIT_PRECONDITION
    assert "degenerate" in err


def test_quartic_off_curve_generator(capsys):
    code, _, err = run(["quartic", "-4", "-3", "1", "--generator", "3,1"],
                       capsys)
    assert code == EXIT_PRECONDITION


@pytest.mark.parametrize("gen, message", [
    ("4,-16", "error: generator has infinite order; rank-0 claim inconsistent\n"),
    ("3,1", "error: generator is not on the companion curve\n"),
])
def test_quartic_rank0_checks_the_generator(gen, message, capsys):
    # X_4 has rank 1: a rank-0 claim given with a point of infinite order
    # is refused, not certified from the torsion alone.
    code, out, err = run(["quartic", "--rank", "0", f"--generator={gen}",
                          "--", "-4", "-3", "1"], capsys)
    assert code == EXIT_PRECONDITION
    assert out == "" and err == message


def test_quartic_torsion_generator(capsys):
    code, _, err = run(["quartic", "-4", "-3", "1", "--generator", "0,0"],
                       capsys)
    assert code == EXIT_PRECONDITION
    assert err == "error: generator is torsion; rank-1 claim inconsistent\n"


def test_cheb_command(capsys):
    code, out, _ = run(["cheb", "20", "--json"], capsys)
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["payload"]["count"] == 12
    assert env["payload"]["case"].startswith("4 | d")
    code, out, _ = run(["cheb", "9", "--json"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["count"] == 0


def test_cheb_conjectural_exit(capsys):
    code, out, _ = run(["cheb", "7", "--json"], capsys)
    assert code == EXIT_UNDETERMINED
    assert json.loads(out)["payload"]["status"] == "conjectural-evidence"


def test_cheb_precondition(capsys):
    code, _, err = run(["cheb", "2"], capsys)
    assert code == EXIT_PRECONDITION


@pytest.mark.parametrize("d", [7, 8, 9])
def test_cheb_negative_scan_cap_is_a_precondition(d, capsys):
    # A negative cap scans no x: the guard of d = 8 and 9 and the evidence
    # of d = 7 would rest on nothing.
    code, out, err = run(["cheb", str(d), "--scan-cap", "-3"], capsys)
    assert code == EXIT_PRECONDITION
    assert out == "" and err == "error: scan cap must be >= 0, got -3\n"
    code, out, _ = run(["cheb", str(d), "--scan-cap", "0", "--json"], capsys)
    env = json.loads(out)
    assert (code, env["payload"]["count"]) == {7: (EXIT_UNDETERMINED, 1),
                                               8: (EXIT_OK, 12),
                                               9: (EXIT_OK, 0)}[d]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
@pytest.mark.parametrize("argv", [
    ["quartic", "--generator", "4,-16"],
    ["heights", "--point", "4,-16"],
    ["quartic", "--rank", "0"],
    ["heights"],
], ids=["quartic", "heights", "quartic-rank-0", "heights-no-point"])
def test_non_finite_or_non_positive_tol_is_a_precondition(argv, tol, capsys):
    code, out, err = run(argv + [f"--tol={tol}", "--", "-4", "-3", "1"], capsys)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert err.startswith("error: tol must be positive and finite, got ")


def test_descent_command(capsys):
    code, out, _ = run(["descent", "73", "--json"], capsys)
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["payload"]["root_number"]["W"] == -1
    assert env["payload"]["selmer_rank_bound"] <= 2


def test_local_command(capsys):
    code, out, _ = run(["local", "73", "--json"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["everywhere_locally_solvable"] is True
    code, _, _ = run(["local", "5", "--json"], capsys)
    assert code == EXIT_UNDETERMINED


def test_heights_command(capsys):
    code, out, _ = run(["heights", "-4", "-3", "1", "--point", "4,-16",
                        "--json"], capsys)
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["payload"]["canonical_height"] == pytest.approx(0.3587, abs=1e-3)


def test_orbit_command(capsys):
    code, out, _ = run(["orbit", "--alpha", "-1", "--beta", "0", "--json"],
                       capsys)
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["payload"]["intersection"] == [{"num": "2", "den": "1"}]
    assert env["payload"]["exact"] is True


@pytest.mark.parametrize("horizon", [[], ["--horizon", "13"]],
                         ids=["default", "13"])
def test_orbit_command_stops_on_a_wandering_orbit(horizon, capsys):
    # The orbit of 3 under x^2 - 2 never cycles: its tail is cut at the bit
    # cap, after f^13(3), and the command reports it undetermined instead of
    # running on or failing to print a value past 4,300 digits.
    code, out, err = run(["orbit", "--alpha", "3", "--beta", "0", "--json"]
                         + horizon, capsys)
    assert code == EXIT_UNDETERMINED and err == ""
    env = json.loads(out)
    assert len(env["payload"]["orbit_alpha"]["values"]) == 12
    assert env["payload"]["orbit_alpha"]["cycled"] is False
    assert env["payload"]["exact"] is False


def test_cut_orbit_tail_names_the_bit_cap(capsys):
    # A tail cut at the bit cap says so; an uncut tail's encoding keeps only
    # its values and cycle tag, as before the cap was named.
    code, out, _ = run(["orbit", "--alpha", "3", "--beta", "0", "--horizon",
                        "1000000", "--json"], capsys)
    assert code == EXIT_UNDETERMINED
    payload = json.loads(out)["payload"]
    assert payload["orbit_alpha"]["cut_at_bit_cap"] == TAIL_BIT_CAP
    assert set(payload["orbit_beta"]) == {"values", "cycled"}
    code, out, _ = run(["orbit", "--alpha", "-1", "--beta", "0", "--json"],
                       capsys)
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert set(payload["orbit_alpha"]) == set(payload["orbit_beta"]) == {
        "values", "cycled"}


def test_orbit_skips_whole_periods_before_n(capsys):
    # 0 -> -2 -> 2 -> 2 -> ...: once 2 repeats, the walk to step n jumps
    # whole periods instead of taking a billion steps.
    start = time.perf_counter()
    code, out, _ = run(["orbit", "--alpha", "0", "--beta", "0",
                        "--n", "1000000000", "--json"], capsys)
    assert time.perf_counter() - start < 5
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    for tail in (payload["orbit_alpha"], payload["orbit_beta"]):
        assert tail == {"values": [rat(2)], "cycled": True}


def test_hasse_scan_and_cache(tmp_path, capsys):
    cache = str(tmp_path)
    code, out1, _ = run(["hasse-scan", "3", "200", "--assume-parity",
                         "--cache-dir", cache, "--json"], capsys)
    assert code == EXIT_OK
    env1 = json.loads(out1)
    ps = [v["p"] for v in env1["payload"]["verdicts"]]
    assert ps == [73, 97, 193]
    v73 = env1["payload"]["verdicts"][0]
    assert v73["congruence_gate"] is True and v73["conditional_rank"] == 1
    v97 = env1["payload"]["verdicts"][1]
    assert v97["congruence_gate"] is False  # 97 = 1 mod 48

    # Second run must be served from the cache, payload-identical.
    code, out2, _ = run(["hasse-scan", "3", "200", "--assume-parity",
                         "--cache-dir", cache, "--json"], capsys)
    env2 = json.loads(out2)
    assert env1["payload"] == env2["payload"]


def test_cache_corruption_detected(tmp_path, capsys):
    cache = str(tmp_path)
    run(["hasse-scan", "3", "100", "--assume-parity", "--cache-dir", cache,
         "--json"], capsys)
    path = tmp_path / "hasse-scan.jsonl"
    lines = path.read_text().splitlines()
    # Corrupt the stored record without fixing the hash.
    entry = json.loads(lines[0])
    entry["record"]["selmer_bound"] = 99
    path.write_text(json.dumps(entry) + "\n")
    c = ScanCache(cache, "hasse-scan")
    assert c.get(json.loads(lines[0])["key"]) is None  # rejected, recomputed
    code, out, _ = run(["hasse-scan", "3", "100", "--assume-parity",
                        "--cache-dir", cache, "--json"], capsys)
    env = json.loads(out)
    assert env["payload"]["verdicts"][0]["selmer_bound"] != 99


@pytest.mark.parametrize("argv, expected_code, expected_count", [
    (["quartic", "--json", "-4", "-3", "1", "--generator", "4,-16"], EXIT_OK, 12),
    (["cheb", "--json", "20"], EXIT_OK, 12),
    (["cheb", "--json", "25"], EXIT_OK, 4),
    (["cheb", "--json", "7"], EXIT_UNDETERMINED, 4),
    (["heights", "--json", "--point=4,-16", "--", "-4", "-3", "1"], EXIT_OK, None),
    (["local", "--json", "73"], EXIT_OK, None),
], ids=["quartic", "cheb-20", "cheb-25", "cheb-7", "heights", "local-73"])
def test_quartic_payload_same_under_python_O(argv, expected_code,
                                             expected_count, capsys):
    # Every check that gates a result raises CheckFailed instead of using
    # assert, so no result changes when asserts are compiled away.
    code, out, _ = run(argv, capsys)
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-O", "-m", "symcurves.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=120)
    assert code == child.returncode == expected_code, child.stderr
    normal, optimized = json.loads(out), json.loads(child.stdout)
    normal.pop("timestamp"), optimized.pop("timestamp")
    assert optimized == normal
    assert optimized["payload"].get("count") == expected_count


def test_hasse_scan_proves_primality_of_family_residues_only(monkeypatch, capsys):
    tested = []

    def counting_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counting_is_prime)
    code, out, _ = run(["hasse-scan", "3", "600", "--json"], capsys)
    assert code == EXIT_OK
    assert tested == [p for p in range(3, 601) if p % 24 == 1]
    scanned = [v["p"] for v in json.loads(out)["payload"]["verdicts"]]
    assert scanned == [p for p in tested if is_prime(p)]


def _trial_division_family(lo, hi):
    """Reference: the family primes p = 1 mod 24 of [lo, hi], each integer
    of the window tested, primality by trial division."""
    return [n for n in range(lo, hi + 1) if n % 24 == 1
            and all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_hasse_scan_windows_report_exactly_their_family_primes(monkeypatch,
                                                               capsys):
    # Windows that start and end just below, on and just above each family
    # prime below 400, and one-value windows on values outside the family
    # (25, 49 and 121 are 1 mod 24 but composite).
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    windows = [(lo, hi) for p in _trial_division_family(3, 399)
               for lo in (p - 1, p, p + 1) for hi in (p - 1, p, p + 1)
               if lo <= hi]
    windows += [(n, n) for n in (3, 25, 49, 74, 96, 98, 121)]
    for lo, hi in windows:
        code, out, _ = run(["hasse-scan", str(lo), str(hi), "--json"], capsys)
        assert code == EXIT_OK
        verdicts = json.loads(out)["payload"]["verdicts"]
        assert [v["p"] for v in verdicts] == _trial_division_family(lo, hi), \
            (lo, hi)


# ---------------------------------------------------------------- rendering


def _reference_render(env) -> str:
    return json.dumps(env, indent=2, sort_keys=True)


def _golden_envelopes() -> list:
    found = []

    def collect(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "envelope":
                    found.append(value)
                else:
                    collect(value)

    paths = sorted((pathlib.Path(__file__).parent / "data").glob("*_golden.json"))
    assert len(paths) == 5
    for path in paths:
        collect(json.loads(path.read_text()))
    return found


def test_render_matches_json_dumps_on_golden_envelopes():
    envelopes = _golden_envelopes()
    assert len(envelopes) > 100
    for env in envelopes:
        assert cli._render(env, True) == _reference_render(env), env["inputs"]


def _plain(value) -> bool:
    """Whether `value` is made of JSON values only: dicts with str keys,
    lists, str, int, float, bool and None."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("argv", [
    ["local", "73"],
    ["descent", "73"],
    ["heights", "--point=4,-16", "--", "-4", "-3", "1"],
], ids=["local", "descent", "heights"])
def test_render_matches_json_dumps_on_fresh_envelopes(argv):
    args = cli._parser().parse_args(argv)
    env, _ = args.func(args)
    assert _plain(env)
    assert cli._render(env, True) == _reference_render(env)


_ODD_STRINGS = ["", "plain", "\u00e9 \u2603 \u2028 \U0001f600",
                'quote " and \\ backslash', "new\nline\t[{]}", "\x00\x1f"]
_ODD_SCALARS = [0, -7, 10**40, -10**40, 0.1, -0.0, 1e300, 5e-324,
                float("nan"), float("inf"), float("-inf"), True, False, None]
_KEY_SETS = [_ODD_STRINGS, [3, -1, 10**40], [2.5, -0.0, float("inf")],
             [True, False], [None]]


def _random_tree(rng, depth=0):
    """A value of at most 7 levels: scalars from the lists above, and
    dicts, lists and tuples of up to 3 members (empty ones included).  The
    keys of one dict come from one of the key sets, so they sort."""
    r = rng.random()
    if depth > 5 or r < 0.35:
        return rng.choice(_ODD_STRINGS + _ODD_SCALARS)
    n = rng.randrange(4)
    if r < 0.6:
        keys = rng.choice(_KEY_SETS)
        return {rng.choice(keys): _random_tree(rng, depth + 1)
                for _ in range(n)}
    members = [_random_tree(rng, depth + 1) for _ in range(n)]
    return members if r < 0.8 else tuple(members)


def test_render_matches_json_dumps_on_random_trees():
    rng = random.Random(27)
    for _ in range(3000):
        env = {"payload": _random_tree(rng), "tuple": tuple(_random_tree(rng)
                                                            for _ in range(2))}
        assert cli._render(env, True) == _reference_render(env), env
    # Nesting 100 levels deep, through dicts, lists and tuples in turn.
    deep = {"leaf": [1.5, "x"], "empty": {}}
    for i in range(100):
        deep = ([deep, "x"], {"k": deep, "n": i}, (deep, None, []))[i % 3]
    env = {"payload": deep}
    assert cli._render(env, True) == _reference_render(env)


@pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}], ids=["Fraction", "set"])
def test_render_rejects_what_json_dumps_rejects(bad):
    for env in ({"payload": bad}, {"payload": [1, bad]},
                {"payload": {"a": [bad], "b": []}}):
        with pytest.raises(TypeError) as want:
            _reference_render(env)
        with pytest.raises(TypeError) as got:
            cli._render(env, True)
        assert str(got.value) == str(want.value)


def test_determinism_modulo_timestamp(capsys):
    _, out1, _ = run(["descent", "29", "--json"], capsys)
    _, out2, _ = run(["descent", "29", "--json"], capsys)
    e1, e2 = json.loads(out1), json.loads(out2)
    e1.pop("timestamp"), e2.pop("timestamp")
    assert e1 == e2


def test_parser_covers_all_subcommands():
    ap = build_parser()
    subparsers = ap._subparsers._group_actions[0].choices
    assert set(subparsers) == {"quartic", "cheb", "hasse-scan", "heights",
                               "descent", "local", "orbit"}


def _hasse_payload(cache_dir, capsys):
    code, out, _ = run(["hasse-scan", "3", "100", "--cache-dir", cache_dir,
                        "--json"], capsys)
    assert code == EXIT_OK
    return json.loads(out)["payload"]


BAD_CACHE_LINES = {
    "list": b"[1, 2]",
    "string": b'"x"',
    "number": b"7",
    "null": b"null",
    "empty-object": b"{}",
    "int-key": b'{"key": 5, "record": {}, "hash": "0"}',
    "int-hash": b'{"key": "k", "record": {}, "hash": 0}',
    "no-record": b'{"key": "k", "hash": "0"}',
    "bad-utf8": b"\xff" + b'{"key": "k", "record": {}, "hash": "0"}',
    "deep-nesting": b"[" * 100_000,
    "list-key": None,
}


@pytest.mark.parametrize("bad", BAD_CACHE_LINES.values(), ids=BAD_CACHE_LINES)
def test_malformed_cache_line_is_skipped(bad, tmp_path, monkeypatch, capsys):
    # The cache skips and recomputes every line it cannot trust; the valid
    # entries around the bad line are still served.
    fresh = _hasse_payload(str(tmp_path / "fresh"), capsys)
    cache = tmp_path / "cache"
    _hasse_payload(str(cache), capsys)
    path = cache / "hasse-scan.jsonl"
    valid = path.read_bytes().splitlines()
    assert len(valid) == 2
    if bad is None:
        # A well-formed entry with a correct hash but an unhashable key.
        record = {"p": 1}
        bad = json.dumps({"key": ["k"], "record": record, "hash":
                          ScanCache(None, "x")._digest(["k"], record)}).encode()
    path.write_bytes(b"\n".join([valid[0], bad, valid[1], b""]))

    def no_recompute(*args):
        raise AssertionError("a valid cache entry was recomputed")

    monkeypatch.setattr(cli, "hasse_candidate_verdict", no_recompute)
    assert _hasse_payload(str(cache), capsys) == fresh
    assert len(ScanCache(str(cache), "hasse-scan").entries) == 2


def _fill(cache_dir, hi, capsys):
    """A hasse-scan cache over 3..hi, filled by the CLI; returns its path."""
    code, _, _ = run(["hasse-scan", "3", str(hi), "--cache-dir", str(cache_dir)],
                     capsys)
    assert code == EXIT_OK
    return cache_dir / "hasse-scan.jsonl"


def _key(p):
    return (f"hasse:v={symcurves.__version__}:schema={cli.HASSE_VERDICT_SCHEMA}"
            f":p={p}:parity=False")


def _load(cache_dir):
    """Every record a fresh load of the hasse-scan cache serves, by key."""
    cache = ScanCache(str(cache_dir), "hasse-scan")
    return {key: cache.get(key) for key in cache.entries}


@pytest.fixture
def digests(monkeypatch):
    """The keys ScanCache hashes from here on, starting from an empty slot
    of verified lines."""
    monkeypatch.setattr(cli, "_last_verified", None)
    keys = []
    real = ScanCache._digest

    def counting(self, key, record):
        keys.append(key)
        return real(self, key, record)

    monkeypatch.setattr(ScanCache, "_digest", counting)
    return keys


def test_second_load_of_an_unchanged_cache_hashes_nothing(tmp_path, digests,
                                                         capsys):
    _fill(tmp_path, 200, capsys)
    digests.clear()
    first = _load(tmp_path)
    assert sorted(digests) == sorted(first) == sorted(map(_key, (73, 97, 193)))
    digests.clear()
    assert _load(tmp_path) == first and digests == []


def test_lines_appended_by_another_writer_are_served(tmp_path, digests,
                                                    monkeypatch, capsys):
    path = _fill(tmp_path / "a", 100, capsys)
    line = _fill(tmp_path / "b", 200, capsys).read_bytes().splitlines(True)[2]
    _load(tmp_path / "a")
    with open(path, "ab") as fh:
        fh.write(line)
    digests.clear()
    assert _key(193) in _load(tmp_path / "a")
    assert digests == [_key(193)]

    def no_recompute(*args):
        raise AssertionError("a cached verdict was recomputed")

    monkeypatch.setattr(cli, "hasse_candidate_verdict", no_recompute)
    code, out, _ = run(["hasse-scan", "3", "200", "--cache-dir",
                        str(tmp_path / "a"), "--json"], capsys)
    assert [v["p"] for v in json.loads(out)["payload"]["verdicts"]] == [73, 97, 193]


def test_rewritten_earlier_line_is_checked_again(tmp_path, digests, capsys):
    path = _fill(tmp_path, 200, capsys)
    _load(tmp_path)
    lines = path.read_bytes().splitlines(True)
    entry = json.loads(lines[0])
    entry["record"]["selmer_bound"] = 99
    # Rewritten with a matching hash: the new record is served, not the one
    # verified from the old bytes.
    entry["hash"] = ScanCache(None, "x")._digest(entry["key"], entry["record"])
    path.write_bytes(json.dumps(entry).encode() + b"\n" + b"".join(lines[1:]))
    assert _load(tmp_path)[_key(73)]["selmer_bound"] == 99
    # Rewritten without fixing the hash: rejected, the others still served.
    entry["record"]["selmer_bound"] = 98
    path.write_bytes(json.dumps(entry).encode() + b"\n" + b"".join(lines[1:]))
    digests.clear()
    assert set(_load(tmp_path)) == {_key(97), _key(193)}
    assert len(digests) == 3


def test_unterminated_last_line_is_never_kept(tmp_path, digests, capsys):
    path = _fill(tmp_path / "a", 100, capsys)
    line = _fill(tmp_path / "b", 200, capsys).read_bytes().splitlines(True)[2]
    # Half a line, as a writer in the middle of an append leaves it.
    with open(path, "ab") as fh:
        fh.write(line[:40])
    assert _key(193) not in _load(tmp_path / "a")
    # The whole line but its newline: served, and hashed again on each load.
    with open(path, "ab") as fh:
        fh.write(line[40:-1])
    for _ in range(2):
        digests.clear()
        assert _key(193) in _load(tmp_path / "a")
        assert digests == [_key(193)]
        assert _key(193) not in cli._last_verified[2]
    with open(path, "ab") as fh:
        fh.write(b"\n")
    digests.clear()
    assert _key(193) in _load(tmp_path / "a") and digests == [_key(193)]
    digests.clear()
    assert _key(193) in _load(tmp_path / "a") and digests == []


def test_cache_lines_are_split_on_newline_only(tmp_path, digests, capsys):
    # As when the file was iterated line by line: two entries joined by a
    # raw \r are one bad line, and a \r between JSON tokens or before the
    # newline is whitespace.
    l73, l97, l193 = _fill(tmp_path, 200, capsys).read_bytes().splitlines()
    (tmp_path / "hasse-scan.jsonl").write_bytes(
        l73 + b"\r" + l97 + b"\n" + l193[:1] + b"\r" + l193[1:] + b"\r\n")
    assert set(_load(tmp_path)) == {_key(193)}
    digests.clear()
    assert set(_load(tmp_path)) == {_key(193)} and digests == []


def test_loading_another_cache_file_drops_the_first(tmp_path, digests, capsys):
    a, b = _fill(tmp_path / "a", 100, capsys), _fill(tmp_path / "b", 200, capsys)
    _load(tmp_path / "a")
    _load(tmp_path / "b")
    assert cli._last_verified[0] == str(b)
    digests.clear()
    _load(tmp_path / "a")
    assert sorted(digests) == sorted(map(_key, (73, 97)))
    assert cli._last_verified[0] == str(a)


def test_record_changed_by_a_caller_is_not_served_again(tmp_path, digests,
                                                       capsys):
    # What get() returns belongs to the caller: changing it reaches neither
    # a later get() nor a later load that reuses the verified lines.
    _fill(tmp_path, 200, capsys)
    cache = ScanCache(str(tmp_path), "hasse-scan")
    cache.get(_key(73))["selmer_bound"] = 99
    assert cache.get(_key(73))["selmer_bound"] != 99
    cache = ScanCache(str(tmp_path), "hasse-scan")
    cache.get(_key(97))["selmer_bound"] = 99
    digests.clear()
    assert all(r["selmer_bound"] != 99 for r in _load(tmp_path).values())
    assert digests == []


def test_nested_record_changed_by_a_caller_is_not_served_again(tmp_path):
    # The same for a correctly hashed line whose record nests a dict and a
    # list: a change at any depth of what get() returned stays the caller's,
    # on the load that verifies the line and on the one that reuses it.
    record = {"p": 73, "local": {"places": [2, 73], "ok": True},
              "witness": [[1, 2], {"x": 3}]}
    key = "nested"
    line = json.dumps({"key": key, "record": record,
                       "hash": ScanCache(None, "x")._digest(key, record)})
    (tmp_path / "hasse-scan.jsonl").write_text(line + "\n")
    for load in ("verified", "reused"):
        cache = ScanCache(str(tmp_path), "hasse-scan")
        got = cache.get(key)
        assert got == record
        got["local"]["places"].append(5)
        got["local"]["ok"] = False
        got["witness"][0][0] = 99
        got["witness"][1]["x"] = 99
        got["p"] = 0
        assert cache.get(key) == record
        assert ScanCache(str(tmp_path), "hasse-scan").get(key) == record, load


def test_warm_load_makes_no_directory(tmp_path, monkeypatch, capsys):
    # A load only reads; a directory is made by the first put, if at all.
    _fill(tmp_path, 200, capsys)

    def no_makedirs(*args, **kwargs):
        raise AssertionError("a cache load made a directory")

    monkeypatch.setattr(os, "makedirs", no_makedirs)
    assert sorted(_load(tmp_path)) == sorted(map(_key, (73, 97, 193)))
    assert _hasse_payload(str(tmp_path), capsys)["primes_scanned"] == 2
    # With no directory at all, a load finds nothing and still makes none.
    assert ScanCache(str(tmp_path / "absent"), "hasse-scan").entries == {}
    assert not (tmp_path / "absent").exists()


def test_first_put_makes_the_cache_directory(tmp_path, digests):
    base = tmp_path / "new" / "cache"
    cache = ScanCache(str(base), "hasse-scan")
    assert not base.exists()
    cache.put("k", {"p": 73})
    cache.put("k2", {"p": 97})
    digests.clear()
    assert _load(base) == {"k": {"p": 73}, "k2": {"p": 97}}
    assert sorted(digests) == ["k", "k2"]


@pytest.mark.parametrize("via_env", [False, True], ids=["option", "env"])
def test_unusable_cache_location_is_a_precondition(via_env, tmp_path,
                                                   monkeypatch, capsys):
    # A cache location is user input: one that cannot be read, or made at
    # the first put, exits 2 with an error line, never a traceback.
    regular = tmp_path / "file"
    regular.write_text("not a directory\n")
    dangling = tmp_path / "link"
    dangling.symlink_to(tmp_path / "absent")
    (tmp_path / "dir" / "hasse-scan.jsonl").mkdir(parents=True)
    for base, reason in ((regular, "Not a directory"),
                         (regular / "sub", "Not a directory"),
                         (tmp_path / "dir", "Is a directory"),
                         (dangling, "File exists")):
        argv = ["hasse-scan", "3", "100"]
        if via_env:
            monkeypatch.setenv(cli.CACHE_ENV, str(base))
        else:
            monkeypatch.delenv(cli.CACHE_ENV, raising=False)
            argv += ["--cache-dir", str(base)]
        code, out, err = run(argv, capsys)
        assert code == EXIT_PRECONDITION == 2 and out == "", base
        assert err.startswith("error: cannot use cache location ") and reason in err
    # A directory that becomes a file between the load and the first put.
    cache = ScanCache(str(tmp_path / "late"), "hasse-scan")
    (tmp_path / "late").write_text("")
    with pytest.raises(ValueError, match="Not a directory"):
        cache.put("k", {"p": 73})
    assert regular.read_text() == "not a directory\n"


def test_scan_opens_the_cache_file_once(tmp_path, monkeypatch, capsys):
    # A scan appends all its verdicts through one handle, closed when the
    # scan ends, also when a verdict raises; each line is on disk before
    # the next verdict is computed.
    appends = []
    real_open = open

    def recording_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "a" in mode:
            appends.append(fh)
        return fh

    monkeypatch.setattr("builtins.open", recording_open)
    code, out, _ = run(["hasse-scan", "3", "600", "--cache-dir", str(tmp_path),
                        "--json"], capsys)
    k = json.loads(out)["payload"]["primes_scanned"]
    assert code == EXIT_OK and k == 10
    assert len(appends) == 1 and appends[0].closed
    assert len(_load(tmp_path)) == k
    # Served from the cache, the same scan opens nothing for append.
    run(["hasse-scan", "3", "600", "--cache-dir", str(tmp_path)], capsys)
    assert len(appends) == 1

    path = tmp_path / "raises" / "hasse-scan.jsonl"
    lines_before = []
    real_verdict = cli.hasse_candidate_verdict

    def verdict(p, parity):
        lines_before.append(len(path.read_bytes().splitlines())
                            if path.exists() else 0)
        if p > 200:
            raise CheckFailed("forced")
        return real_verdict(p, parity)

    monkeypatch.setattr(cli, "hasse_candidate_verdict", verdict)
    code, _, _ = run(["hasse-scan", "3", "600", "--cache-dir",
                      str(path.parent)], capsys)
    assert code == EXIT_CHECK_FAILED
    assert lines_before == [0, 1, 2, 3]     # p = 73, 97, 193, then 241 raises
    assert len(appends) == 2 and appends[1].closed


def test_unversioned_cache_line_is_recomputed(tmp_path, monkeypatch, capsys):
    # A correctly hashed line under the key format before versioning is not
    # served: the verdict is computed again and stored under the new key.
    old_key = "hasse:p=73:parity=False"
    stale = dict(_hasse_payload(str(tmp_path / "fresh"), capsys)["verdicts"][0],
                 conclusion="stale")
    path = tmp_path / "cache" / "hasse-scan.jsonl"
    path.parent.mkdir()
    path.write_text(json.dumps({"key": old_key, "record": stale, "hash":
                                ScanCache(None, "x")._digest(old_key, stale)})
                    + "\n")
    computed = []
    real = cli.hasse_candidate_verdict

    def spy(p, parity):
        computed.append(p)
        return real(p, parity)

    monkeypatch.setattr(cli, "hasse_candidate_verdict", spy)
    verdicts = _hasse_payload(str(tmp_path / "cache"), capsys)["verdicts"]
    assert computed == [73, 97]
    assert verdicts[0]["conclusion"] != "stale"
    keys = [json.loads(x)["key"] for x in path.read_text().splitlines()]
    assert keys == [old_key, _key(73), _key(97)]


def test_cache_line_of_an_older_schema_is_recomputed(tmp_path, monkeypatch,
                                                     capsys):
    # A correctly hashed line under the schema=3 key, written before the
    # Selmer sets asked the local kernel once per square class, is not
    # served: the verdict is computed again and stored under the current
    # schema's key.
    assert cli.HASSE_VERDICT_SCHEMA == 4
    old_key = f"hasse:v={symcurves.__version__}:schema=3:p=73:parity=False"
    stale = dict(_hasse_payload(str(tmp_path / "fresh"), capsys)["verdicts"][0],
                 conclusion="stale")
    path = tmp_path / "cache" / "hasse-scan.jsonl"
    path.parent.mkdir()
    path.write_text(json.dumps({"key": old_key, "record": stale, "hash":
                                ScanCache(None, "x")._digest(old_key, stale)})
                    + "\n")
    assert ScanCache(str(path.parent), "hasse-scan").get(old_key) == stale
    computed = []
    real = cli.hasse_candidate_verdict

    def spy(p, parity):
        computed.append(p)
        return real(p, parity)

    monkeypatch.setattr(cli, "hasse_candidate_verdict", spy)
    verdicts = _hasse_payload(str(tmp_path / "cache"), capsys)["verdicts"]
    assert computed == [73, 97]
    assert verdicts[0]["conclusion"] != "stale"
    keys = [json.loads(x)["key"] for x in path.read_text().splitlines()]
    assert keys == [old_key, _key(73), _key(97)]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # The benchmark's tracer looks up private functions and methods of the
    # package by name (cli._render, the ScanCache methods, the counted
    # methods), and a renamed one breaks only traced runs.  `install`
    # patches the modules, so it runs in a child process.
    root = pathlib.Path(__file__).resolve().parents[1]
    src = str(pathlib.Path(symcurves.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, str(root / "benchmarks")]))
    child = subprocess.run(
        [sys.executable, "-c", "import tracer\nfrom symcurves import cli\n"
         "print(tracer.install(tracer.Tracer()))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) > 0


@pytest.mark.parametrize("callee, first, second, seen_first, seen_second", [
    ("hasse_candidate_verdict", ["hasse-scan", "3", "100", "--assume-parity"],
     ["hasse-scan", "3", "100"], True, False),
    ("chebyshev_curve_points", ["cheb", "20", "--scan-cap", "7"],
     ["cheb", "20"], 7, 40),
    ("determine_points", ["quartic", "-4", "-3", "1", "--generator", "4,-16"],
     ["quartic", "-4", "-3", "1"], point(4, -16), None),
], ids=["assume-parity", "scan-cap", "generator"])
def test_no_option_carries_over_between_calls(callee, first, second, seen_first,
                                              seen_second, monkeypatch, capsys):
    # main reuses one parser; each call must still start from the defaults.
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    seen = []
    real = getattr(cli, callee)

    def spy(*args, **kwargs):
        seen.append(args[1] if len(args) > 1 else kwargs["scan_cap"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, callee, spy)
    run(first, capsys)
    run(second, capsys)
    assert (seen[0], seen[-1]) == (seen_first, seen_second)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        for argv in (["cheb", "20"], ["descent", "73"], ["cheb", "9", "--json"]):
            assert run(argv, capsys)[0] == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def _reference_main(argv):
    # main as it was when the top-level parser read every argv.
    args = build_parser().parse_args(argv)
    env, code = args.func(args)
    print(cli._render(env, args.json))
    return code


def _outcome(entry, argv, capsys):
    # (exit code, stdout, stderr) of one call, a SystemExit's code included.
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["cheb", "--help"], ["no-such-command"], ["cheb"],
    ["cheb", "20", "7"], ["cheb", "7", "--scan", "5"],
    ["quartic", "--generator=4,-16", "--", "-4", "-3", "1"],
    ["quartic", "-8", "-287/16", "1", "--generator", "-25,60"],
    ["heights", "-1", "84", "1", "--point", "-36,-84"],
    ["heights", "-1", "84", "1", "--point", "-36,-84", "--bogus"],
], ids=["none", "help", "cheb-help", "unknown", "missing-positional",
        "extra-argument", "abbreviation", "double-dash", "negative-fraction",
        "negative-point", "unknown-option"])
def test_command_parse_matches_the_top_level_parse(argv, capsys):
    # main parses with the named command's own parser; exit code, stdout
    # and stderr must be those of the top-level parse, byte for byte.
    got = _outcome(main, argv, capsys)
    assert got == _outcome(_reference_main, argv, capsys)
    assert got[1] or got[2]


@pytest.mark.parametrize("argv, written", [
    (["quartic", "-8", "-287/16", "1", "--generator", "-25,60"],
     ["quartic", "--generator=-25,60", "--json", "--", "-8", "-287/16", "1"]),
    (["heights", "-1", "84", "1", "--point", "-36,-84"],
     ["heights", "--point=-36,-84", "--json", "--", "-1", "84", "1"]),
], ids=["quartic", "heights"])
def test_negative_fractions_and_points_read_as_values(argv, written, capsys):
    # A token that starts with "-" and a digit is a value, so each call
    # prints the payload of its "=" and "--" form; an unknown option still
    # exits 2.
    code, out, _ = run(argv + ["--json"], capsys)
    want_code, want, _ = run(written, capsys)
    assert code == want_code == EXIT_OK
    assert json.loads(out)["payload"] == json.loads(want)["payload"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-such-option"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected_code, stream, text", [
    (["--help"], 0, "out", "usage: symcurves"),
    (["cheb", "--help"], 0, "out", "--scan-cap"),
    (["cheb", "x"], 2, "err", "invalid int value"),
    (["no-such-command"], 2, "err", "invalid choice"),
])
def test_reused_parser_prints_to_current_streams(argv, expected_code, stream,
                                                 text, capsys):
    # Build the parser while the output goes elsewhere; later usage and
    # errors must still reach the streams in place when they are printed.
    cli._parser.cache_clear()
    elsewhere = io.StringIO()
    with contextlib.redirect_stdout(elsewhere), contextlib.redirect_stderr(elsewhere):
        assert main(["cheb", "20"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == expected_code
    captured = capsys.readouterr()
    assert text in getattr(captured, stream)
    assert "usage:" not in elsewhere.getvalue()
