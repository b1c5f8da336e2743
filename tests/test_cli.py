import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import symcurves
from symcurves import cli
from symcurves.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_UNDETERMINED,
    ScanCache,
    build_parser,
    main,
    rat,
    unrat,
)
from symcurves.elliptic import point
from symcurves.exact import is_prime
from fractions import Fraction


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
