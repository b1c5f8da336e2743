"""Command-line front end: structured JSON results, exit-code contract, and
a persistent cache for prime scans.

Exit codes: 0 = certificate produced, 2 = precondition violation,
3 = an undetermined place or conjectural verdict is present, 4 = a check
that gates a certificate failed (`CheckFailed`), so no result is reported.

Each command builds its payload from JSON values only, and `envelope`
stores it as given.  Rationals serialize as {"num": "...", "den": "..."}
decimal strings (`rat`) so the payloads round-trip losslessly.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import __version__
from .demjanenko import determine_points
from .descent import (
    hasse_candidate_verdict,
    quartic_residue_criterion,
    root_number,
    selmer_rank_bound,
)
from .dynamics import (
    TAIL_BIT_CAP,
    PolyMap,
    chebyshev_curve_points,
    orbit_tail,
    shifted_intersection,
)
from .elliptic import (
    INF,
    _require_tol,
    canonical_height,
    height_gap_bounds,
    naive_height,
    point,
    torsion_subgroup,
)
from .exact import (
    PROBABLE_PRIME_BOUND,
    PROBABLE_PRIME_NOTE,
    CheckFailed,
    IntPoly,
    is_prime,
)
from .localglobal import everywhere_locally_solvable
from .quartic import SymQuartic, companion_curve

CACHE_ENV = "DEMJANENKO_CACHE"
# Part of every hasse-scan cache key, with the toolkit version: bump it
# whenever the computation of a verdict changes, so that no line written by
# an older algorithm is served.
HASSE_VERDICT_SCHEMA = 5

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_UNDETERMINED = 3
EXIT_CHECK_FAILED = 4


def rat(value) -> dict:
    if type(value) is int:      # every X_d coordinate: no Fraction needed
        return {"num": str(value), "den": "1"}
    f = value if isinstance(value, Fraction) else Fraction(value)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def envelope(command: str, inputs: str, payload, assumptions=()) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "payload": payload,
        "assumptions": list(assumptions),
        "toolkit_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _primality_assumptions(top: int) -> list:
    """The probable-prime note when a prime up to `top` may be one."""
    return [PROBABLE_PRIME_NOTE] if top >= PROBABLE_PRIME_BOUND else []


def _point_list(cert) -> list:
    return [[rat(x), rat(y)] for x, y in cert.sorted_points()]


def _parse_number(text: str, kind, usage: str):
    # kind(text) for kind int or Fraction; ValueError(usage) when text is
    # not such a number, so the message names the option.
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(usage) from None


def _parse_pair(text: str, usage: str) -> tuple[Fraction, Fraction]:
    # The two rationals of "X,Y" text; ValueError(usage) unless two are given.
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(usage)
    return tuple(_parse_number(part, Fraction, usage) for part in parts)


def _parse_ab(args) -> tuple[Fraction, Fraction]:
    # The rationals a and b of `quartic` and `heights`.
    return (_parse_number(args.a, Fraction, "a must be a rational number"),
            _parse_number(args.b, Fraction, "b must be a rational number"))


def _parse_point(text: str):
    return point(*_parse_pair(text, "point must be given as X,Y"))


# ---------------------------------------------------------------- commands


def cmd_quartic(args) -> tuple[dict, int]:
    F = SymQuartic(*_parse_ab(args), args.alpha)
    gen = _parse_point(args.generator) if args.generator else None
    cert = determine_points(F, gen, rank_claim=args.rank)
    payload = {
        "points": _point_list(cert),
        "count": len(cert.points),
        "index_bound": cert.index_bound,
        "n_window": cert.n_window,
        "status": cert.status,
    }
    env = envelope("quartic",
                   f"a={args.a} b={args.b} alpha={args.alpha} rank={args.rank}",
                   payload, cert.conditional_on)
    return env, EXIT_OK


def cmd_cheb(args) -> tuple[dict, int]:
    cert = chebyshev_curve_points(args.d, scan_cap=args.scan_cap)
    if args.d % 3 == 0:
        tag = "3 | d"
    elif args.d % 4 == 0:
        tag = "4 | d, 3 does not divide d"
    elif args.d % 5 == 0:
        tag = f"5 | d, d = {args.d % 4} mod 4"
    else:
        tag = "outside proven cases"
    payload = {
        "points": _point_list(cert),
        "count": len(cert.points),
        "case": tag,
        "status": cert.status,
        "index_bound": cert.index_bound,
        "n_window": cert.n_window,
        # affine model convention; the projective closure adds at most this
        "points_at_infinity": "[1, -1, 0]" if args.d % 2 else "none",
    }
    env = envelope("cheb", f"d={args.d}", payload, cert.conditional_on)
    code = EXIT_UNDETERMINED if cert.status != "certified" else EXIT_OK
    return env, code


def cmd_hasse_scan(args) -> tuple[dict, int]:
    if not (3 <= args.lo <= args.hi):
        raise ValueError("need 3 <= lo <= hi")
    cache = ScanCache(args.cache_dir, "hasse-scan")
    verdicts = []
    try:
        # The family primes are p = 1 mod 24: walk that class from lo on.
        for p in range(args.lo + (1 - args.lo) % 24, args.hi + 1, 24):
            if not is_prime(p):
                continue
            key = (f"hasse:v={__version__}:schema={HASSE_VERDICT_SCHEMA}"
                   f":p={p}:parity={args.assume_parity}")
            cached = cache.get(key)
            if cached is not None:
                verdicts.append(cached)
                continue
            v = hasse_candidate_verdict(p, args.assume_parity)
            record = {
                "p": p,
                "congruence_gate": v.congruence_gate,
                "locally_solvable": v.locally_solvable,
                "root_number": v.root_number,
                "selmer_bound": v.selmer_bound,
                "conditional_rank": v.conditional_rank,
                "conclusion": v.conclusion,
            }
            cache.put(key, record)
            verdicts.append(record)
    finally:
        cache.close()
    payload = {"primes_scanned": len(verdicts), "verdicts": verdicts}
    assumptions = (["parity assumption enabled"] if args.assume_parity else
                   ["parity not assumed: conclusions unconditional-unavailable"])
    assumptions += _primality_assumptions(args.hi)
    env = envelope("hasse-scan", f"lo={args.lo} hi={args.hi} "
                   f"parity={args.assume_parity}", payload, assumptions)
    return env, EXIT_OK


def cmd_heights(args) -> tuple[dict, int]:
    _require_tol(args.tol)
    F = SymQuartic(*_parse_ab(args), args.alpha)
    E = companion_curve(F)
    up, low = height_gap_bounds(E)
    payload = {
        "curve": repr(E),
        "gap_upper": up,
        "gap_lower": low,
        "torsion": ["infinity" if P is INF else [rat(P.x), rat(P.y)]
                    for P in torsion_subgroup(E)],
    }
    if args.point:
        P = _parse_point(args.point)
        payload["point"] = [rat(P.x), rat(P.y)]
        payload["naive_height"] = naive_height(P)
        payload["canonical_height"] = canonical_height(E, P, args.tol)
    env = envelope("heights",
                   f"a={args.a} b={args.b} alpha={args.alpha} point={args.point}",
                   payload)
    return env, EXIT_OK


def cmd_descent(args) -> tuple[dict, int]:
    p = args.p
    rn = root_number(p)
    payload = {
        "p": p,
        "root_number": {"W": rn.W, "W2": rn.W2, "Wp": rn.Wp,
                        "kodaira_at_2": rn.kodaira_at_2,
                        "kodaira_at_p": rn.kodaira_at_p,
                        "c4": rn.c4, "c6": rn.c6},
        "selmer_rank_bound": selmer_rank_bound(p),
        "quartic_residue": quartic_residue_criterion(p),
        "p_mod_16": p % 16,
    }
    env = envelope("descent", f"p={p}", payload, _primality_assumptions(p))
    return env, EXIT_OK


def _place(report) -> dict:
    out = dataclasses.asdict(report)
    if out["witness"] is not None:      # a tuple: written as a JSON list
        out["witness"] = list(out["witness"])
    return out


def cmd_local(args) -> tuple[dict, int]:
    ok, reports = everywhere_locally_solvable(args.p)
    payload = {
        "p": args.p,
        "everywhere_locally_solvable": ok,
        "places": [_place(r) for r in reports],
    }
    env = envelope("local", f"p={args.p}", payload,
                   _primality_assumptions(args.p))
    code = EXIT_OK if ok else EXIT_UNDETERMINED
    return env, code


def _tail_payload(tail) -> dict:
    out = {"values": [rat(x) for x in tail.values], "cycled": tail.cycled}
    if tail.cut:
        out["cut_at_bit_cap"] = TAIL_BIT_CAP
    return out


def cmd_orbit(args) -> tuple[dict, int]:
    f = IntPoly([_parse_number(c, int, "f must be given as comma-separated integers")
                 for c in args.f.split(",")])
    u, v = _parse_pair(args.shift, "shift must be given as U,V")
    pm = PolyMap(f, u, v)
    alpha = _parse_number(args.alpha, Fraction, "alpha must be a rational number")
    beta = _parse_number(args.beta, Fraction, "beta must be a rational number")
    tail_a = orbit_tail(pm, args.n, alpha, args.horizon)
    tail_b = orbit_tail(pm, args.n, beta, args.horizon)
    meet, exact = shifted_intersection(pm, tail_a, tail_b)
    payload = {
        "orbit_alpha": _tail_payload(tail_a),
        "orbit_beta": _tail_payload(tail_b),
        "intersection": [rat(x) for x in sorted(meet)],
        "exact": exact,
    }
    env = envelope("orbit", f"f={args.f} shift={args.shift} n={args.n} "
                   f"alpha={args.alpha} beta={args.beta}", payload)
    return env, EXIT_OK if exact else EXIT_UNDETERMINED


# ---------------------------------------------------------------- cache


# The last cache file read in this process: (path, its bytes up to and with
# the last b"\n", the entries those lines verified to).  One file at most.
_last_verified = None


def _json_copy(value):
    """A deep copy of a value parsed from JSON.  A dict of scalars, as every
    cached verdict record is, is copied in one `dict` call."""
    if type(value) is dict:
        if _SCALARS.issuperset(map(type, value.values())):
            return dict(value)
        return {k: _json_copy(v) for k, v in value.items()}
    if type(value) is list:
        return [_json_copy(v) for v in value]
    return value


def _unusable(exc: OSError) -> ValueError:
    # A cache location that cannot be opened or made is an input error.
    return ValueError(f"cannot use cache location {exc.filename}: {exc.strerror}")


def _blob_digest(blob: str) -> str:
    # The hash of a cache entry whose blob json.dumps([key, record],
    # sort_keys=True) is given: the first 16 hex digits of its SHA-256.
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ScanCache:
    """Append-only JSONL cache, one file per scan family, advisory-locked.
    Entries carry a hash of their key and payload; corrupted lines are
    skipped and recomputed rather than trusted.

    A load reads the file whole.  When its path is the one read last in
    this process and the file still starts with the same complete lines,
    their verified entries are reused and only the lines after them are
    parsed and hash-checked; any other file is checked line by line.  An
    unterminated last line is checked on every load and never reused.
    `get` returns a copy, so no caller can change what a later `get` or
    load serves; it is the only copy between the cache and a payload."""

    def __init__(self, cache_dir, family: str):
        base = cache_dir or os.environ.get(CACHE_ENV)
        self.path = None
        self.entries = {}
        self._fh = None                 # opened by the first put
        if base:
            self.path = os.path.join(base, f"{family}.jsonl")
            self._load()

    def _digest(self, key: str, record) -> str:
        return _blob_digest(json.dumps([key, record], sort_keys=True))

    def _load(self):
        global _last_verified
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise _unusable(exc) from None
        start = 0
        path, verified_bytes, verified = _last_verified or (None, b"", {})
        if path == self.path and data.startswith(verified_bytes):
            start = len(verified_bytes)
            self.entries.update(verified)
        end = data.rfind(b"\n") + 1
        if end > start:
            self._verify(data[start:end - 1].split(b"\n"))
        _last_verified = (self.path, data[:end], dict(self.entries))
        if end < len(data):
            self._verify([data[end:]])

    def _verify(self, lines):
        for raw in lines:
            # Each line is decoded on its own, so one bad byte costs only
            # its line; ValueError covers bad UTF-8 and bad JSON.
            try:
                entry = json.loads(raw.decode("utf-8"))
                if not (isinstance(entry, dict)
                        and isinstance(entry.get("key"), str)
                        and isinstance(entry.get("hash"), str)
                        and "record" in entry):
                    continue
                if entry["hash"] != self._digest(entry["key"], entry["record"]):
                    continue
            except (ValueError, RecursionError):
                continue
            self.entries[entry["key"]] = entry["record"]

    def get(self, key: str):
        return _json_copy(self.entries.get(key))

    def put(self, key: str, record):
        """Keep the record and append its line to the file, written and
        flushed under LOCK_EX before put returns.  The first put opens the
        file for append, making the directory if need be, and the later
        ones write to the same handle until `close`."""
        self.entries[key] = record
        if not self.path:
            return
        # The blob of `_digest` and the line json.dumps({"hash": ..., "key":
        # key, "record": record}, sort_keys=True), from one encoding each of
        # the key and the record.
        key_json, record_json = json.dumps(key), json.dumps(record, sort_keys=True)
        digest = _blob_digest(f"[{key_json}, {record_json}]")
        line = f'{{"hash": "{digest}", "key": {key_json}, "record": {record_json}}}\n'
        fh = self._fh
        if fh is None:
            try:
                try:
                    fh = open(self.path, "a")
                except FileNotFoundError:   # the first put makes the directory
                    os.makedirs(os.path.dirname(self.path), exist_ok=True)
                    fh = open(self.path, "a")
            except OSError as exc:
                raise _unusable(exc) from None
            self._fh = fh
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.write(line)
        fh.flush()
        fcntl.flock(fh, fcntl.LOCK_UN)

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------- driver


# What each command's parser reads as a value although it starts with "-":
# a minus sign, then a digit, or a point and a digit, as in -287/16 or
# -36,-84.  argparse before Python 3.13 takes only plain negative numbers
# for values, and any other such token for an unknown option.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symcurves",
        description="Exact rational-point toolkit for symmetric quartic "
                    "and Chebyshev curves")
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quartic", help="determine rational points of a "
                       "symmetric quartic via the two-cover enumeration")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("alpha", type=int)
    q.add_argument("--generator", help="X,Y generator of the free part")
    q.add_argument("--rank", type=int, default=1, choices=(0, 1),
                   help="externally certified rank bound")
    q.set_defaults(func=cmd_quartic)

    c = sub.add_parser("cheb", help="rational points of T_d(x) + T_d(y) = 1")
    c.add_argument("d", type=int)
    c.add_argument("--scan-cap", type=int, default=40)
    c.set_defaults(func=cmd_cheb)

    h = sub.add_parser("hasse-scan", help="local-global verdicts for the "
                       "twisted (-4,-6) family over a prime range")
    h.add_argument("lo", type=int)
    h.add_argument("hi", type=int)
    h.add_argument("--assume-parity", action="store_true")
    h.add_argument("--cache-dir")
    h.set_defaults(func=cmd_hasse_scan)

    e = sub.add_parser("heights", help="height report for a companion curve")
    e.add_argument("a")
    e.add_argument("b")
    e.add_argument("alpha", type=int)
    e.add_argument("--point", help="X,Y on the companion curve")
    e.add_argument("--tol", type=float, default=1e-8)
    e.set_defaults(func=cmd_heights)

    d = sub.add_parser("descent", help="root number and Selmer bound at p")
    d.add_argument("p", type=int)
    d.set_defaults(func=cmd_descent)

    l = sub.add_parser("local", help="everywhere-local solvability at p")
    l.add_argument("p", type=int)
    l.set_defaults(func=cmd_local)

    o = sub.add_parser("orbit", help="shifted orbit intersections")
    o.add_argument("--f", default="-2,0,1",
                   help="comma-separated coefficients, constant first")
    o.add_argument("--shift", default="1,-1", help="u,v for L(x) = u + v*x")
    o.add_argument("--n", type=int, default=2)
    o.add_argument("--alpha", default="0")
    o.add_argument("--beta", default="0")
    o.add_argument("--horizon", type=int, default=32)
    o.set_defaults(func=cmd_orbit)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true",
                       help="emit the full JSON envelope")
        p._negative_number_matcher = _NEGATIVE_VALUE
    ap.commands = sub.choices           # command name -> its own parser
    return ap


# `--json` output is byte-identical to json.dumps(env, indent=2,
# sort_keys=True).  Given `indent`, `json` writes through its pure-Python
# encoder (CPython before 3.13), so `_emit` writes through the C one: each
# container that holds no dict, list or tuple is one call to the C encoder
# made for its depth, whose item separator carries the newline and indent
# of that depth, and `_emit` walks the containers above such leaves itself.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (dict, list, tuple)


class _Levels(dict):
    """depth -> (C encoder for a leaf at that depth, the newline and indent
    before its closing bracket, before a member, and before a later member
    with its comma).  Built on first use; each is a function of the depth
    alone, so no output depends on which depths a process has built."""

    def __missing__(self, depth: int):
        outer = "\n" + "  " * depth
        level = self[depth] = (
            c_make_encoder(None, json.JSONEncoder().default,
                           encode_basestring_ascii, None, ": ",
                           ",\n" + "  " * (depth + 1), True, False, True),
            outer, outer + "  ", "," + outer + "  ")
        return level


_levels = _Levels()


def _json_key(key) -> str:
    # As `json` writes a key: a str as it is, an int, float, bool or None as
    # its JSON text, either one as a JSON string.
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = "".join(_levels[0][0](key, 0))
    return encode_basestring_ascii(key)


def _emit(value, depth: int, out: list) -> None:
    """Append the JSON text of the dict, list or tuple `value`, nested
    `depth` deep, to `out`.  A tuple is written as a list, as `json` does."""
    encode, outer, inner, sep = _levels[depth]
    is_dict = isinstance(value, dict)
    if _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        text = "".join(encode(value, 0))
        if len(text) > 2:       # not empty: brackets on lines of their own
            out += (text[0], inner, text[1:-1], outer, text[-1])
        else:
            out.append(text)
        return
    if is_dict:
        out.append("{")
        for i, (key, v) in enumerate(sorted(value.items())):
            out += (sep if i else inner, _json_key(key), ": ")
            if isinstance(v, _CONTAINERS):
                _emit(v, depth + 1, out)
            else:               # a scalar, or TypeError as from `json`
                out.append("".join(encode(v, 0)))
        out += (outer, "}")
    else:
        out.append("[")
        for i, v in enumerate(value):
            out.append(sep if i else inner)
            if isinstance(v, _CONTAINERS):
                _emit(v, depth + 1, out)
            else:
                out.append("".join(encode(v, 0)))
        out += (outer, "]")


def _render(env: dict, as_json: bool) -> str:
    if as_json:
        out = []
        _emit(env, 0, out)
        return "".join(out)
    lines = [f"{env['command']}  ({env['inputs']})"]
    payload = env["payload"]
    for key, value in payload.items():
        lines.append(f"  {key}: {json.dumps(value) if not isinstance(value, str) else value}")
    if env["assumptions"]:
        lines.append("  assumptions: " + "; ".join(env["assumptions"]))
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process, each command's parser with it: parse_args
    # fills a new Namespace on every call and looks up sys.stdout/sys.stderr
    # only when it prints.
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """`argv` parsed as `_parser().parse_args(argv)` would, with the same
    output and exit code on an error.  When argv[0] names a command, that
    command's parser reads the rest directly, as the top-level parser would
    hand it over; leftovers go to the top-level `error`, as there."""
    ap = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = ap.commands.get(argv[0]) if argv else None
    if command is None:
        return ap.parse_args(argv)
    args, extra = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        ap.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        env, code = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(_render(env, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
