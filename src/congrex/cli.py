"""Command-line front end.

All subcommands emit deterministic JSON (sorted keys) by default; ``--format
text`` prints a short human-readable summary instead.  Exit codes: 0 decided
or computed, 1 error, 2 not-applicable, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .algebra import DEFAULT_BUDGET, FiniteAlgebra, Partition, block_sizes, direct_product
from .algebra import require_int
from .analyzer import (
    congruence_split,
    decide_group,
    decide_product,
    group_witness_pipeline,
)
from .clones import (
    DEFAULT_COMP_BUDGET,
    DEFAULT_MEMBER_CAP,
    FiniteFunction,
    clone_closure,
    comp_fragment,
    pol_fragment,
    skew_congruences,
    tensor_fragments,
)
from .errors import (
    BudgetExceededError,
    CongrexError,
    InvalidInputError,
    NotApplicableError,
)
from .groups import parse_group_spec
from .lattice import (
    FiniteLattice,
    from_congruences,
    is_modular,
    splits,
    splits_strongly,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2
EXIT_BUDGET = 3


def budget_from_env(default: int | None = DEFAULT_BUDGET) -> int | None:
    """CONGREX_BUDGET as an int; default when it is unset or empty."""
    raw = os.environ.get("CONGREX_BUDGET")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"CONGREX_BUDGET is not an integer: {raw!r}") from exc


def read_json(path: str) -> dict:
    """The JSON object in a file; anything else is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path} does not hold a JSON object")
    return data


def load_algebra(token: str) -> FiniteAlgebra:
    """A group shortcut string, or a path to an algebra JSON file."""
    if os.path.exists(token):
        return FiniteAlgebra.from_json_dict(read_json(token))
    return parse_group_spec(token)


def load_lattice(token: str):
    """The lattice of a lattice JSON file (one with "leq"), else the algebra
    of an algebra JSON file or of a group shortcut string; a file is read
    once."""
    if not os.path.exists(token):
        return parse_group_spec(token)
    data = read_json(token)
    if "leq" in data:
        return FiniteLattice.from_json_dict(data)
    return FiniteAlgebra.from_json_dict(data)


def _int_row(obj, pad: str):
    """The json.dumps(obj, indent=2) text of a non-empty list or tuple of
    ints (bools excluded) nested at indent pad, else None."""
    if isinstance(obj, (list, tuple)) and obj and set(map(type, obj)) == {int}:
        inner = "\n  " + pad
        return "[" + inner + ("," + inner).join(map(repr, obj)) + "\n" + pad + "]"
    return None


class PartitionBlocks:
    """A payload value: the blocks of the partitions that the least-member
    rows of a 2-D array give, for each row the list of its blocks in order
    of least member, each block an ascending list, as tolist() builds it
    from Partitions.  emit writes it from the array in one _int_text pass."""

    def __init__(self, rows):
        self.rows = rows

    def tolist(self):
        return [[list(b) for b in Partition._of_row(r).blocks()] for r in self.rows]

    def matrices(self):
        """(shapes, values) as _int_text takes them: the blocks of each row
        as runs of equally large ones, and the members of all blocks in
        order, a stable argsort of each row."""
        k, n = self.rows.shape
        sizes = block_sizes(self.rows).ravel()
        least = np.flatnonzero(sizes)  # the least members, row by row
        keys = least // n * (n + 1) + sizes[least]  # (row, block size)
        first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each run starts
        shapes = [[] for _ in range(k)]
        for key, count in zip(keys[first].tolist(), np.diff(first, append=len(keys)).tolist()):
            shapes[key // (n + 1)].append((count, key % (n + 1)))
        return shapes, np.argsort(self.rows, axis=1, kind="stable").ravel()


def _int_text(shapes, values, pad: str) -> str:
    """The texts of json.dumps(m, indent=2) nested at indent pad, joined by
    ",\n" + pad, for the int matrices m whose entries are values (a 1-D
    int array), in row order.  The shape of each m is a list of runs of
    equally long rows, (rows, columns) pairs in order: [(r, c)] for an
    r x c matrix.

    Each row is written from one template with a slot as wide as the widest
    value per entry, all slots NUL bytes.  The values' digits go into the
    slots in one assignment, and when their widths differ the unused slot
    bytes are dropped in one compaction."""
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < values.size:
        digits = range(lo, hi + 1)
        # a signed difference may not fit a narrower dtype
        keys = (values if values.dtype.kind == "u" else values.astype(np.int64, copy=False)) - lo
    else:  # few values spread wide
        digits, keys = np.unique(values, return_inverse=True)
        digits = digits.tolist()
    digits = np.array([str(v).encode() for v in digits])  # NUL-padded to the widest
    outer, inner = pad.encode(), pad.encode() + b"  "
    sep = b",\n" + inner
    cell = b"\n" + inner + b"  " + b"\0" * digits.itemsize
    widths = {c for runs in shapes for _, c in runs}
    row = {c: b"[" + b",".join([cell] * c) + b"\n" + inner + b"]" for c in widths}
    text = []
    for *head, (r, c) in shapes:
        text += b",\n" + outer, b"[\n" + inner
        text += [(row[width] + sep) * count for count, width in head]
        text += (row[c] + sep) * (r - 1), row[c], b"\n" + outer + b"]"
    text = np.frombuffer(bytearray().join(text[1:]), dtype=np.uint8)
    text[np.flatnonzero(text == 0)] = np.take(digits, keys).view(np.uint8)
    if not digits.view(np.uint8).all():  # some value is narrower than its slot
        text = text[text != 0]
    return str(text, "ascii")


def _json_pieces(obj, pad: str, out: list) -> None:
    """Append to out the text of json.dumps(obj, sort_keys=True, indent=2)
    nested at indent pad, where obj may also hold 2-D int arrays, written as
    their lists of rows, and PartitionBlocks, written as their tolist().
    With an indent, json.dumps runs CPython's pure-Python encoder item by
    item; here a list of ints is one join, and a 2-D int array and a
    PartitionBlocks are each written by _int_text in one numpy pass.  Only
    scalars go through json.dumps.  Any other array raises TypeError, as
    json.dumps does."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        out.append("{\n" + inner)
        for i, key in enumerate(sorted(obj)):
            out.append((sep if i else "") + json.dumps(key) + ": ")
            _json_pieces(obj[key], inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(obj, dict):  # empty, or with keys that json converts
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad))
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.dtype.kind not in "iu":
            raise TypeError(f"cannot write a {obj.dtype} array of shape {obj.shape} as JSON")
        if obj.size:
            out.append(_int_text([[obj.shape]], obj.ravel(), pad))
        else:  # no rows, or rows without entries
            out.append(json.dumps(obj.tolist(), indent=2).replace("\n", "\n" + pad))
    elif isinstance(obj, PartitionBlocks):
        out += "[\n" + inner, _int_text(*obj.matrices(), inner), "\n" + pad + "]"
    elif not isinstance(obj, (list, tuple)) or not obj:
        out.append(json.dumps(obj))
    elif (row := _int_row(obj, pad)) is not None:
        out.append(row)
    else:
        out.append("[\n" + inner)
        for i, item in enumerate(obj):
            if i:
                out.append(sep)
            _json_pieces(item, inner, out)
        out.append("\n" + pad + "]")


def emit(payload, fmt: str, text_lines=None) -> None:
    """Print text_lines for --format text, else the payload as
    json.dumps(payload, default=lambda o: o.tolist(), sort_keys=True,
    indent=2) does for a payload of JSON values, 2-D int arrays and
    PartitionBlocks, with one write once the whole text is built; nothing
    is printed when a part of the payload cannot be encoded."""
    if fmt == "text" and text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        out = []
        _json_pieces(payload, "", out)
        out.append("\n")
        sys.stdout.write("".join(out))


def cmd_con(args) -> int:
    alg = load_algebra(args.input)
    rows = alg.congruence_rows(None if args.force else args.budget)
    payload = {
        "algebra": alg.name,
        "size": alg.size,
        "count": len(rows),
        "congruences": PartitionBlocks(rows),
    }
    text = None
    if args.format == "text":
        congs = map(str, map(Partition._of_row, rows))
        text = [f"{alg.name or 'algebra'}: {len(rows)} congruences", *congs]
    emit(payload, args.format, text)
    return EXIT_OK


def cmd_lattice(args) -> int:
    source = load_lattice(args.input)
    lat = source if isinstance(source, FiniteLattice) else None
    if lat is None:
        congs = source.congruence_rows(None if args.force else args.budget)
        if args.check == "modular":
            lat = from_congruences(congs)
    if args.check == "modular":
        result = is_modular(lat)
        emit({"check": "modular", "result": result}, args.format, [str(result)])
        return EXIT_OK
    strong = args.check == "splits-strongly"
    if lat is None:  # Con(A): the split checks build no lattice
        size, w = len(congs), congruence_split(source, congs)[0 if strong else 1]
    else:
        size, w = lat.size, (splits_strongly if strong else splits)(lat)
    payload = {
        "check": args.check,
        "witness": w.to_json_dict() if w else None,
        "size": size,
    }
    emit(payload, args.format, [f"{args.check}: {w.to_json_dict() if w else None}"])
    return EXIT_OK


def cmd_decide(args) -> int:
    if len(args.inputs) == 1:
        report = decide_group(load_algebra(args.inputs[0]), None if args.force else args.budget)
    else:
        factors = [load_algebra(t) for t in args.inputs]
        report = decide_product(
            factors,
            assume_nilpotent=args.assume_nilpotent_pp_factors,
            budget=None if args.force else args.budget,
        )
    payload = report.to_json_dict()
    emit(payload, args.format, [f"verdict: {report.verdict} ({report.route})"])
    return report.exit_code


def cmd_witness(args) -> int:
    payload = group_witness_pipeline(
        load_algebra(args.input),
        up_to_n=args.up_to_n,
        k=args.k,
        force=args.force,
        budget=args.budget,
    )
    emit(
        payload,
        args.format,
        [
            f"base {payload['base']}: a={payload['a']} b={payload['b']}",
            f"centrality: {payload['centrality']}",
            f"commutator witness arity: {payload['commutator_witness_arity']}",
        ],
    )
    return EXIT_OK


def cmd_clone(args) -> int:
    data = read_json(args.input)
    try:
        size = require_int(data["universe_size"], "universe_size")
        gens = [
            FiniteFunction(size, require_int(f["arity"], "arity"), f["table"])
            for f in data.get("functions", [])
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed generator JSON: {exc!r}") from exc
    frag = clone_closure(gens, args.max_arity, universe_size=size, member_cap=args.budget)
    emit(frag.to_json_dict(), args.format, [f"{frag.member_count()} members"])
    return EXIT_OK


def cmd_comp(args) -> int:
    alg = load_algebra(args.input)
    frag = comp_fragment(alg, args.max_arity, budget=args.budget, force=args.force)
    emit(frag.to_json_dict(), args.format, [f"{frag.member_count()} members"])
    return EXIT_OK


def cmd_pol(args) -> int:
    alg = load_algebra(args.input)
    frag = pol_fragment(alg, args.max_arity, member_cap=args.budget)
    emit(frag.to_json_dict(), args.format, [f"{frag.member_count()} members"])
    return EXIT_OK


def cmd_skew(args) -> int:
    left = load_algebra(args.left)
    right = load_algebra(args.right)
    prod = direct_product(left, right)
    congs = prod.congruence_rows(None if args.force else args.budget)
    skew = skew_congruences(prod, congs)
    payload = {
        "product": prod.name,
        "congruence_count": len(congs),
        "skew_count": len(skew),
        "skew_free": not skew,
        "skew_congruences": [[list(b) for b in c.blocks()] for c in skew],
    }
    emit(payload, args.format, [f"skew congruences: {len(skew)}"])
    return EXIT_OK


def cmd_tensor(args) -> int:
    left = load_algebra(args.left)
    right = load_algebra(args.right)
    frag_l = pol_fragment(left, args.max_arity, member_cap=args.budget)
    frag_r = pol_fragment(right, args.max_arity, member_cap=args.budget)
    tensored = tensor_fragments(frag_l, frag_r)
    prod = direct_product(left, right)
    frag_p = pol_fragment(prod, args.max_arity, member_cap=args.budget)
    equal = tensored == frag_p
    payload = {
        "left": left.name,
        "right": right.name,
        "max_arity": args.max_arity,
        "tensor_member_count": tensored.member_count(),
        "product_member_count": frag_p.member_count(),
        "equal": equal,
    }
    emit(payload, args.format, [f"tensor == pol(product): {equal}"])
    return EXIT_OK


class _SubcommandParser(argparse.ArgumentParser):
    """Reports an argument the subcommand does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args, unknown


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congrex",
        description=(
            "Decide whether finite nilpotent algebras have infinitely many "
            "polynomially inequivalent congruence preserving expansions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def common(p, budget: int, force: bool = True):
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--budget", type=int, default=None)
        if force:
            p.add_argument("--force", action="store_true")
        p.set_defaults(default_budget=budget)

    p = sub.add_parser("con", help="congruence lattice of an algebra")
    p.add_argument("input")
    common(p, DEFAULT_BUDGET)
    p.set_defaults(func=cmd_con)

    p = sub.add_parser("lattice", help="splitting/modularity checks")
    p.add_argument("input", help="lattice JSON file, algebra JSON, or group spec")
    p.add_argument(
        "--check",
        choices=["splits", "splits-strongly", "modular"],
        default="splits-strongly",
    )
    common(p, DEFAULT_BUDGET)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("decide", help="expansion verdict for a group or product")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--assume-nilpotent-pp-factors", action="store_true")
    common(p, DEFAULT_BUDGET)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("witness", help="build and verify the witness pipeline")
    p.add_argument("input")
    p.add_argument("--up-to-n", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    common(p, DEFAULT_BUDGET)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("clone", help="closure of a generator file")
    p.add_argument("input")
    p.add_argument("--max-arity", type=int, default=2)
    common(p, DEFAULT_MEMBER_CAP, force=False)
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("comp", help="congruence preserving functions")
    p.add_argument("input")
    p.add_argument("--max-arity", type=int, default=2)
    common(p, DEFAULT_COMP_BUDGET)
    p.set_defaults(func=cmd_comp)

    p = sub.add_parser("pol", help="polynomial functions")
    p.add_argument("input")
    p.add_argument("--max-arity", type=int, default=2)
    common(p, DEFAULT_MEMBER_CAP, force=False)
    p.set_defaults(func=cmd_pol)

    p = sub.add_parser("skew", help="skew congruences of a binary product")
    p.add_argument("left")
    p.add_argument("right")
    common(p, DEFAULT_BUDGET)
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("tensor", help="compare tensor of Pol fragments with Pol of product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-arity", type=int, default=2)
    common(p, DEFAULT_MEMBER_CAP, force=False)
    p.set_defaults(func=cmd_tensor)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget is None:
            args.budget = budget_from_env(args.default_budget)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except CongrexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
