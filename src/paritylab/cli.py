"""Command-line entry point: property suites, reductions, tradeoff sweeps,
crypto tools, and bound tables, all deterministically seeded.

Exit codes: 0 success, 1 check failure or I/O problem, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Callable

from . import crypto
from .bp import from_json_dict, to_json_dict
from .generators import derived_rng
from .gf2 import BitVector
from .learners import (
    TradeoffPoint,
    estimate_sample_complexity,
    exhaustive_learner,
    gaussian_learner,
    prefix_pivot_learner,
)
from .lowerbound import reach_probability_bound, tradeoff_exponent
from .reduction import reduce_to_affine
from .suites import run_all_suites

LEARNER_FACTORIES = {
    "gaussian": gaussian_learner,
    "prefix": prefix_pivot_learner,
    "exhaustive": exhaustive_learner,
}


def emit_report(report: dict, path: str | None) -> None:
    """Write a report as indented JSON with stable field order: the bytes
    of json.dumps(report, indent=2) and a newline."""
    _write_text(_json_text(report) + "\n", path)


def _json_text(value) -> str:
    """json.dumps(value, indent=2), without json's pure-Python encoder."""
    out: list[str] = []
    _json_chunks(value, "\n", out)
    return "".join(out)


def _json_chunks(value, newline: str, out: list[str]) -> None:
    """Append the text of json.dumps(value, indent=2) to out, with
    newline (a line break and the indent around value) at each break.

    An indent turns json's C encoder off for the whole document, so this
    writes the layout and the scalars itself: a list of plain ints is one
    join of int.__repr__ on "," + newline, and a scalar of an exact JSON
    type gets its _SCALAR_TEXT, the text json writes.  Anything else
    (a subclass, say) goes through json.dumps without indent, the C
    encoder, which raises TypeError for a type json rejects.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
        return
    if isinstance(value, dict):
        opening, closing = "{", "}"
        items = [(_json_key(key) + ": ", item) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        if value and set(map(type, value)) == _PLAIN_INT:
            inner = newline + "  "
            out += ("[", inner, ("," + inner).join(map(int.__repr__, value)), newline, "]")
            return
        opening, closing = "[", "]"
        items = zip(repeat(""), value)
    else:
        out.append(json.dumps(value))
        return
    if not value:
        out.append(opening + closing)
        return
    inner = newline + "  "
    sep = opening + inner
    for prefix, item in items:
        # a scalar item here, not in a call of its own
        text = _SCALAR_TEXT.get(type(item))
        if text is None:
            out += (sep, prefix)
            _json_chunks(item, inner, out)
        else:
            out += (sep, prefix, text(item))
        sep = "," + inner
    out.append(newline + closing)


def _float_text(x: float) -> str:
    """json's text of a float: its repr, or NaN, Infinity or -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


_SCALAR_TEXT: dict[type, Callable] = {
    str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}
_PLAIN_INT = frozenset({int})


def _json_key(key) -> str:
    """A dict key's text as json.dumps writes it: a str, or an int,
    float, bool or None as the quoted text of the value."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_text(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout for no path or "-"."""
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def key_to_hex(x: BitVector) -> str:
    return x.to_bytes().hex()


def key_from_hex(text: str, n: int) -> BitVector:
    raw = bytes.fromhex(text)
    x = BitVector.from_bytes(raw, n)
    if x.to_bytes() != raw:
        raise ValueError(f"key sets bits past coordinate {n}")
    return x


def _cmd_verify_lemmas(args) -> int:
    if args.r is not None and args.n is None:
        build_parser().error("--r needs --n")
    report = run_all_suites(args.seed, args.trials, ns=(args.n,) if args.n else None,
                            rs=None if args.r is None else (args.r,))
    emit_report(report, args.out)
    return 0 if report["ok"] else 1


def _cmd_reduce(args) -> int:
    with open(args.infile) as fh:
        doc = json.load(fh)
    bp, _, _ = from_json_dict(doc)
    red = reduce_to_affine(bp, args.r)
    out_doc = to_json_dict(red.program, labels=red.labels, gamma=red.gamma)
    emit_report(out_doc, args.out)
    if args.report:
        emit_report(red.report.to_dict(), args.report)
    return 0 if red.report.all_ok else 1


def _cmd_tradeoff(args) -> int:
    """One CSV row per learner.  A learner that hit --m-cap also gets one
    note line on stderr, since its row (m equal to --m-cap) has the form
    of a reached answer."""
    points = []
    for idx, name in enumerate(args.learners.split(",")):
        name = name.strip()
        if name not in LEARNER_FACTORIES:
            raise ValueError(f"unknown learner {name!r}; "
                             f"choose from {sorted(LEARNER_FACTORIES)}")
        learner = LEARNER_FACTORIES[name](args.n)
        point = estimate_sample_complexity(
            learner, args.target, derived_rng(args.seed, idx + 10),
            trials=args.trials, m_cap=args.m_cap, seed=args.seed)
        points.append(point)
    _write_text("\n".join([TradeoffPoint.CSV_HEADER, *(p.csv_row() for p in points)]) + "\n",
                args.out)
    for point in points:
        if point.capped:
            print(f"note: {point.learner} hit --m-cap {args.m_cap}: no probe's Wilson lower "
                  f"bound reached --target {args.target}; its row is the probe at m = {point.m}",
                  file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    reach, exponent = (args.k, args.m), (args.c, args.alpha)
    if None not in reach and exponent == (None, None):
        _write_text(f"{reach_probability_bound(args.n, args.m, args.k)}\n", args.out)
    elif None not in exponent and reach == (None, None):
        emit_report(tradeoff_exponent(args.c, args.alpha, args.n), args.out)
    else:
        build_parser().error("bounds needs either --k and --m, or --c and --alpha, not a mix")
    return 0


def _cmd_keygen(args) -> int:
    key = crypto.keygen(args.n, derived_rng(args.seed, 1))
    emit_report({"n": key.n, "key": key_to_hex(key.x)}, args.out)
    return 0


def _code_file(args, code: Callable[[crypto.SecretKey, bytes], bytes]) -> int:
    """crypto encrypt and decrypt: code the --in file's bytes under the
    --key of length --n, then write them to --out."""
    key = crypto.SecretKey(args.n, key_from_hex(args.key, args.n))
    with open(args.infile, "rb") as fh:
        data = code(key, fh.read())
    with open(args.out, "wb") as fh:
        fh.write(data)
    return 0


def _cmd_encrypt(args) -> int:
    return _code_file(args, lambda key, plaintext: crypto.encode_stream(
        key, plaintext, derived_rng(args.seed, 2)))


def _cmd_decrypt(args) -> int:
    return _code_file(args, crypto.decode_stream)


def _cmd_attack(args) -> int:
    attacker = crypto.window_attacker(args.n, args.memory_bits)
    report = crypto.run_attack(attacker, args.m, args.trials, derived_rng(args.seed, 3))
    emit_report(report.to_dict(), args.out)
    return 0


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type of an --n or --seed flag: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _parent(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one flag for the subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="paritylab",
        description="memory-bounded parity learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    n = _parent("--n", type=_at_least(1), required=True)
    seed = _parent("--seed", type=_at_least(0), required=True)
    out = _parent("--out", default=None)

    p = sub.add_parser("verify-lemmas", parents=[seed, out], help="run the property suites")
    # the reduction suite's r = n/2 + 1 must not exceed n
    p.add_argument("--n", type=_at_least(2), default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("reduce", parents=[out], help="simulate a program by an affine one")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("tradeoff", parents=[n, seed, out], help="sample-complexity sweep to CSV")
    p.add_argument("--learners", default="gaussian,prefix,exhaustive")
    p.add_argument("--target", type=float, default=0.9)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--m-cap", type=int, default=1 << 16)
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("bounds", parents=[n, out], help="reach-probability bound / exponent tables")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("crypto", help="bounded-storage encryption tools")
    csub = p.add_subparsers(dest="crypto_cmd", required=True)
    csub.add_parser("keygen", parents=[n, seed, out]).set_defaults(func=_cmd_keygen)
    # encrypt and decrypt read --in and write --out, both files
    files = argparse.ArgumentParser(add_help=False, parents=[n])
    files.add_argument("--key", required=True)
    files.add_argument("--in", dest="infile", required=True)
    files.add_argument("--out", required=True)
    csub.add_parser("encrypt", parents=[files, seed]).set_defaults(func=_cmd_encrypt)
    csub.add_parser("decrypt", parents=[files]).set_defaults(func=_cmd_decrypt)
    c = csub.add_parser("attack", parents=[n, seed, out])
    c.add_argument("--memory-bits", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--trials", type=int, default=2000)
    c.set_defaults(func=_cmd_attack)
    return parser


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a usage error, from argparse or a handler
        return exc.code if isinstance(exc.code, int) else 2
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
