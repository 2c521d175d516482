"""Finite algebras as operation tables, and their congruence arithmetic.

An algebra lives on the universe {0, ..., size-1}.  Every operation is a flat
row-major table, so all computations here are pure table lookups; nothing is
symbolic.  Congruences are represented as canonical partitions of the universe.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from functools import reduce

from .errors import BudgetExceededError, InvalidInputError

#: default work budget for congruence enumeration (union/join steps)
DEFAULT_BUDGET = 10**6


def budget_from_env(default: int = DEFAULT_BUDGET) -> int:
    raw = os.environ.get("CONGREX_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"CONGREX_BUDGET is not an integer: {raw!r}") from exc


class Partition:
    """An equivalence relation on {0, ..., n-1} in canonical form.

    ``block_id[x]`` is the index of the block containing ``x``; block indices
    are assigned in order of least member, so ``block_id[0] == 0`` and two
    partitions are equal iff their ``block_id`` tuples are equal.
    """

    __slots__ = ("block_id", "_blocks")

    def __init__(self, labels):
        labels = list(labels)
        relabel = {}
        block_id = []
        for lab in labels:
            if lab not in relabel:
                relabel[lab] = len(relabel)
            block_id.append(relabel[lab])
        self.block_id = tuple(block_id)
        self._blocks = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(size: int) -> "Partition":
        return Partition(range(size))

    @staticmethod
    def full(size: int) -> "Partition":
        return Partition([0] * size)

    @staticmethod
    def from_blocks(size: int, blocks) -> "Partition":
        labels = [None] * size
        for i, block in enumerate(blocks):
            for x in block:
                if labels[x] is not None:
                    raise InvalidInputError(f"element {x} occurs in two blocks")
                labels[x] = i
        if any(lab is None for lab in labels):
            raise InvalidInputError("blocks do not cover the universe")
        return Partition(labels)

    @staticmethod
    def from_pairs(size: int, pairs) -> "Partition":
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return Partition(find(x) for x in range(size))

    # -- basic queries -----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.block_id)

    @property
    def num_blocks(self) -> int:
        return max(self.block_id) + 1 if self.block_id else 0

    def blocks(self):
        if self._blocks is None:
            out = [[] for _ in range(self.num_blocks)]
            for x, lab in enumerate(self.block_id):
                out[lab].append(x)
            self._blocks = tuple(tuple(b) for b in out)
        return self._blocks

    def same(self, a: int, b: int) -> bool:
        return self.block_id[a] == self.block_id[b]

    def block_of(self, a: int):
        return self.blocks()[self.block_id[a]]

    def is_identity(self) -> bool:
        return self.num_blocks == self.size

    def is_full(self) -> bool:
        return self.num_blocks <= 1

    # -- lattice operations ------------------------------------------------

    def refines(self, other: "Partition") -> bool:
        """True iff self <= other in the refinement order."""
        seen = {}
        for x in range(self.size):
            lab = self.block_id[x]
            if lab in seen:
                if seen[lab] != other.block_id[x]:
                    return False
            else:
                seen[lab] = other.block_id[x]
        return True

    def meet(self, other: "Partition") -> "Partition":
        return Partition(zip(self.block_id, other.block_id))

    def join(self, other: "Partition") -> "Partition":
        n = self.size
        pairs = []
        first_self = {}
        for x in range(n):
            lab = self.block_id[x]
            if lab in first_self:
                pairs.append((first_self[lab], x))
            else:
                first_self[lab] = x
        first_other = {}
        for x in range(n):
            lab = other.block_id[x]
            if lab in first_other:
                pairs.append((first_other[lab], x))
            else:
                first_other[lab] = x
        return Partition.from_pairs(n, pairs)

    def composes_with(self, other: "Partition") -> bool:
        """True iff self o other == other o self (as relation composition).

        For congruences this witnesses permutability, which is equivalent to
        self o other == self v other.
        """
        join = self.join(other)
        for a in range(self.size):
            for b in range(self.size):
                if not join.same(a, b):
                    continue
                # (a, b) in self o other  <=>  exists z: a other z and z self b
                via = any(
                    other.same(a, z) and self.same(z, b) for z in range(self.size)
                )
                if not via:
                    return False
        return True

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Partition) and self.block_id == other.block_id

    def __hash__(self):
        return hash(self.block_id)

    def __lt__(self, other):
        return self.block_id < other.block_id

    def __repr__(self):
        body = "|".join(",".join(map(str, b)) for b in self.blocks())
        return f"Partition({body})"


class Operation:
    """A named finitary operation given by its flat row-major table."""

    __slots__ = ("name", "arity", "table")

    def __init__(self, name: str, arity: int, table):
        self.name = name
        self.arity = arity
        self.table = tuple(table)

    def __eq__(self, other):
        return (
            isinstance(other, Operation)
            and self.name == other.name
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.name, self.arity, self.table))

    def __repr__(self):
        return f"Operation({self.name!r}, {self.arity}, {list(self.table)})"


def _flat_index(args, size: int) -> int:
    """Row-major index (a1*size + a2)*size + ... of an argument tuple; with
    equally shaped intp arrays as arguments, elementwise for all at once."""
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


class FiniteAlgebra:
    """A finite algebra: a universe size and a list of operation tables."""

    def __init__(self, size: int, operations, name: str = ""):
        if size < 1:
            raise InvalidInputError("universe must be nonempty")
        self.size = size
        self.name = name
        ops = []
        for op in operations:
            if not isinstance(op, Operation):
                op = Operation(*op)
            if op.arity < 0:
                raise InvalidInputError(f"operation {op.name!r} has negative arity")
            if len(op.table) != size**op.arity:
                raise InvalidInputError(
                    f"operation {op.name!r}: table length {len(op.table)} "
                    f"!= {size}^{op.arity}"
                )
            if any(not (0 <= v < size) for v in op.table):
                raise InvalidInputError(f"operation {op.name!r}: entry out of range")
            ops.append(op)
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise InvalidInputError("duplicate operation names")
        self.operations = tuple(ops)
        self._by_name = {op.name: op for op in ops}
        self._translations = None
        #: set by direct_product: (kernel of first projection, of second)
        self.product_kernels = None
        #: set by the group shortcuts: the GroupStructure that checked the
        #: group axioms when the algebra was built
        self.group_structure = None

    # -- basic access ------------------------------------------------------

    def operation(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidInputError(f"unknown operation {name!r}") from None

    def apply(self, op_name: str, args) -> int:
        op = self.operation(op_name)
        args = tuple(args)
        if len(args) != op.arity:
            raise InvalidInputError(
                f"operation {op_name!r} has arity {op.arity}, got {len(args)} arguments"
            )
        if any(not (0 <= a < self.size) for a in args):
            raise InvalidInputError(f"argument out of range in {args}")
        return op.table[_flat_index(args, self.size)]

    def signature(self):
        return tuple(sorted((op.name, op.arity) for op in self.operations))

    # -- congruence machinery ----------------------------------------------

    def unary_translations(self):
        """All single-operation unary polynomial translations, as tuples.

        For each operation f and argument position i, every way of freezing
        the other positions with constants yields x |-> f(..., x, ...).
        Iterating these to a fixpoint generates the same congruences as
        arbitrary unary polynomials.
        """
        if self._translations is not None:
            return self._translations
        out = set()
        for op in self.operations:
            if op.arity == 0:
                continue
            for pos in range(op.arity):
                for rest in itertools.product(range(self.size), repeat=op.arity - 1):
                    table = []
                    for x in range(self.size):
                        args = rest[:pos] + (x,) + rest[pos:]
                        table.append(op.table[_flat_index(args, self.size)])
                    t = tuple(table)
                    if t != tuple(range(self.size)):
                        out.add(t)
        self._translations = tuple(sorted(out))
        return self._translations

    def principal_congruence(self, a: int, b: int) -> Partition:
        """Smallest congruence identifying a and b (Cg(a, b))."""
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise InvalidInputError("element out of range")
        translations = self.unary_translations()
        parent = list(range(self.size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[rx] = ry
            for t in translations:
                stack.append((t[x], t[y]))
        return Partition(find(x) for x in range(self.size))

    def is_congruence(self, theta: Partition) -> bool:
        if theta.size != self.size:
            raise InvalidInputError("partition size mismatch")
        for t in self.unary_translations():
            for block in theta.blocks():
                first = t[block[0]]
                if any(not theta.same(first, t[x]) for x in block[1:]):
                    return False
        return True

    def all_congruences(self, force: bool = False, budget: int | None = None):
        """The full congruence lattice Con(A), sorted canonically.

        Every congruence is a join of principal congruences, so the lattice
        is the closure of {0} and the distinct principal congruences under
        theta |-> theta v Cg(a, b).  A translation t that permutes A has its
        inverse among its powers, so Cg(t(a), t(b)) = Cg(a, b): one Cg is
        computed per orbit of pairs under the permutation translations.  The
        work counter counts joins and guards against blowing up on large
        inputs; pass ``force=True`` or raise the budget to override.
        """
        if budget is None:
            budget = budget_from_env()
        work = 0
        translations = self.unary_translations()
        estimate = self.size * self.size * max(1, len(translations))
        if estimate > budget and not force:
            raise BudgetExceededError(
                f"congruence enumeration estimate {estimate} exceeds budget {budget}"
            )
        perms = [t for t in translations if len(set(t)) == self.size]
        principals = {}  # distinct Cg(a, b) -> its first pair (a, b)
        done = set()
        for a in range(self.size):
            for b in range(a + 1, self.size):
                if (a, b) in done:
                    continue
                principals.setdefault(self.principal_congruence(a, b), (a, b))
                orbit = [(a, b)]
                done.add((a, b))
                while orbit:
                    x, y = orbit.pop()
                    for t in perms:
                        pair = (min(t[x], t[y]), max(t[x], t[y]))
                        if pair not in done:
                            done.add(pair)
                            orbit.append(pair)
        congs = {Partition.identity(self.size), *principals}
        worklist = list(principals)
        while worklist:
            theta = worklist.pop()
            for pi, (a, b) in principals.items():
                if theta.block_id[a] == theta.block_id[b]:
                    continue
                work += 1
                if work > budget and not force:
                    raise BudgetExceededError(
                        f"congruence join closure exceeded budget {budget}"
                    )
                joined = theta.join(pi)
                if joined not in congs:
                    congs.add(joined)
                    worklist.append(joined)
        return sorted(congs, key=lambda p: p.block_id)

    def quotient(self, theta: Partition) -> "FiniteAlgebra":
        """The quotient algebra A/theta on block indices 0..num_blocks-1."""
        if not self.is_congruence(theta):
            raise InvalidInputError("partition is not a congruence; quotient undefined")
        reps = [block[0] for block in theta.blocks()]
        k = theta.num_blocks
        ops = []
        for op in self.operations:
            table = []
            for args in itertools.product(range(k), repeat=op.arity):
                lifted = tuple(reps[i] for i in args)
                table.append(theta.block_id[op.table[_flat_index(lifted, self.size)]])
            ops.append(Operation(op.name, op.arity, table))
        name = f"{self.name}/~" if self.name else ""
        return FiniteAlgebra(k, ops, name=name)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "operations": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.operations
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteAlgebra":
        try:
            ops = [
                (op["name"], op["arity"], op["table"]) for op in data["operations"]
            ]
            return FiniteAlgebra(data["size"], ops, name=data.get("name", ""))
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed algebra JSON: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "FiniteAlgebra":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"invalid JSON: {exc}") from exc
        return FiniteAlgebra.from_json_dict(data)

    def __repr__(self):
        sig = ", ".join(f"{op.name}/{op.arity}" for op in self.operations)
        label = self.name or "FiniteAlgebra"
        return f"<{label}: size {self.size}, ops {sig}>"


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product, pair (x, y) encoded as x * |b| + y.

    Records the two projection kernels on the result: ``product_kernels[0]``
    identifies pairs with equal first coordinate (quotient isomorphic to a),
    ``product_kernels[1]`` pairs with equal second coordinate.
    """
    if a.signature() != b.signature():
        raise InvalidInputError(
            f"signature mismatch: {a.signature()} vs {b.signature()}"
        )
    size = a.size * b.size
    ops = []
    for op_a in a.operations:
        op_b = b.operation(op_a.name)
        table = []
        for args in itertools.product(range(size), repeat=op_a.arity):
            xs = tuple(arg // b.size for arg in args)
            ys = tuple(arg % b.size for arg in args)
            va = op_a.table[_flat_index(xs, a.size)]
            vb = op_b.table[_flat_index(ys, b.size)]
            table.append(va * b.size + vb)
        ops.append(Operation(op_a.name, op_a.arity, table))
    name = ""
    if a.name and b.name:
        name = f"{a.name}x{b.name}"
    prod = FiniteAlgebra(size, ops, name=name)
    first = Partition(x // b.size for x in range(size))
    second = Partition(x % b.size for x in range(size))
    prod.product_kernels = (first, second)
    return prod


def product_of(factors) -> FiniteAlgebra:
    """Left fold of direct_product over two or more factors."""
    factors = list(factors)
    if not factors:
        raise InvalidInputError("empty product")
    return reduce(direct_product, factors)


def quotient_index(alg: FiniteAlgebra, alpha: Partition, beta: Partition):
    """#(beta:alpha) = |A/alpha| / |A/beta|; an int when the ratio is exact."""
    if not alg.is_congruence(alpha) or not alg.is_congruence(beta):
        raise InvalidInputError("arguments must be congruences")
    ratio = Fraction(alpha.num_blocks, beta.num_blocks)
    return int(ratio) if ratio.denominator == 1 else ratio


def is_congruence_uniform(alg: FiniteAlgebra, congs=None) -> bool:
    """True iff every congruence of alg has equal-sized blocks."""
    if congs is None:
        congs = alg.all_congruences()
    for theta in congs:
        sizes = {len(block) for block in theta.blocks()}
        if len(sizes) > 1:
            return False
    return True
