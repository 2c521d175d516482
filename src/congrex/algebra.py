"""Finite algebras as operation tables, and their congruence arithmetic.

An algebra lives on the universe {0, ..., size-1}.  Every operation is a flat
row-major table, so all computations here are pure table lookups; nothing is
symbolic.  Congruences are represented as canonical partitions of the universe.

One kernel does the congruence arithmetic, on (rows x n) arrays in which each
element is labelled by the least member of its block: a canonical form, so two
rows are equal partitions iff their bytes are equal.  Pairs of classes are
merged by min-label hooking with pointer jumping, many partitions at once.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, InvalidInputError

#: default work budget for congruence enumeration (union/join steps)
DEFAULT_BUDGET = 10**6

#: entries per temporary array of the congruence kernel: 64 KB of intp,
#: which keeps the kernel's share of peak memory small and is no slower.
#: The principal rounds take _BLOCK // n rows at a time and translations in
#: chunks of _BLOCK // #pending pairs; the split hooks blocks of about
#: _BLOCK entries
_BLOCK = 1 << 13


class Partition:
    """An equivalence relation on {0, ..., n-1} in canonical form.

    ``block_id[x]`` is the index of the block containing ``x``; block indices
    are assigned in order of least member, so ``block_id[0] == 0`` and two
    partitions are equal iff their ``block_id`` tuples are equal.
    """

    __slots__ = ("block_id", "_blocks", "_least")

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
        self._least = None

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
                if type(x) is not int or not 0 <= x < size:
                    raise InvalidInputError(f"block element {x!r} is not in range({size})")
                if labels[x] is not None:
                    raise InvalidInputError(f"element {x} occurs in two blocks")
                labels[x] = i
        if any(lab is None for lab in labels):
            raise InvalidInputError("blocks do not cover the universe")
        return Partition(labels)

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

    @property
    def least(self):
        """The least-member row: an int32 array holding, at each x, the
        least member of the block of x."""
        if self._least is None:
            self._least = _least_members(np.array([self.block_id]))[0]
        return self._least

    # -- lattice operations ------------------------------------------------

    @staticmethod
    def _of_row(row) -> "Partition":
        """The partition of a least-member row, which it keeps."""
        p = Partition(row.tolist())
        p._least = row
        return p

    def _with(self, other: "Partition"):
        """The least-member rows of self and other, as two 1 x n arrays."""
        if other.size != self.size:
            raise InvalidInputError("partition size mismatch")
        return self.least[None], other.least[None]

    def refines(self, other: "Partition") -> bool:
        """True iff self <= other in the refinement order."""
        (mine,), (theirs,) = self._with(other)
        return bool((theirs[mine] == theirs).all())

    def meet(self, other: "Partition") -> "Partition":
        return Partition._of_row(_meet_rows(*self._with(other))[0])

    def join(self, other: "Partition") -> "Partition":
        return Partition._of_row(_join_rows(*self._with(other))[0])

    def composes_with(self, other: "Partition") -> bool:
        """True iff self o other == other o self (as relation composition).

        For congruences this witnesses permutability, which is equivalent to
        self o other == self v other.  (a, b) is in other o self iff some z
        has a other z and z self b: one product of the two n x n relations.
        """
        (mine,), (theirs,) = self._with(other)
        rel = [row[:, None] == row for row in (theirs, mine, self.join(other).least)]
        return bool(((rel[0] @ rel[1]) == rel[2]).all())

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
    """A named finitary operation given by its flat row-major table; in a
    FiniteAlgebra, the read-only array of table_array."""

    __slots__ = ("name", "arity", "table")

    def __init__(self, name: str, arity: int, table):
        self.name = name
        self.arity = arity
        self.table = table

    def __eq__(self, other):
        return (
            isinstance(other, Operation)
            and self.name == other.name
            and self.arity == other.arity
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.name, self.arity))

    def __repr__(self):
        return f"Operation({self.name!r}, {self.arity}, {np.asarray(self.table).tolist()})"


def _flat_index(args, size: int) -> int:
    """Row-major index (a1*size + a2)*size + ... of an argument tuple; with
    equally shaped int arrays as arguments, elementwise for all at once.
    The sum starts as an intp, so numpy arguments, arrays or scalars, are
    combined in intp: table values in a narrow dtype would wrap silently
    once size**len(args) passes its range."""
    idx = np.intp(0)
    for a in args:
        idx = idx * size + a
    return idx


def _grid(shape):
    """The argument tuples of a mixed-radix grid in row-major order, as one
    flat intp array per coordinate: _flat_index(_grid((s,) * n), s) is
    arange(s**n), so a table over A^n holds the value at the i-th tuple at i."""
    return [x.ravel() for x in np.indices(shape, dtype=np.intp)]


def _chunks(count: int, width: int):
    """Slices of range(count) of at most max(1, _BLOCK // width) items each,
    made one at a time as they are iterated over: a count such as the
    known^2 heads of a ternary generator may be too large to list."""
    step = max(1, _BLOCK // max(1, width))
    return (slice(s, s + step) for s in range(0, count, step))


def _least_members(labels):
    """Rows of labels in [0, n), relabelled by the least member of each block."""
    r, n = labels.shape
    flat = labels.astype(np.intp) + np.arange(0, r * n, n)[:, None]
    least = np.full(r * n, n, dtype=np.intp)
    np.minimum.at(least, flat.ravel(), np.tile(np.arange(n), r))
    return least[flat].astype(np.int32)


def _hook(forest, left, right):
    """Merge, in place, the classes of left[i] and right[i] in a forest of
    least-member labels over flat positions; the labels that stopped being
    roots, one or more times each, empty iff no two classes differed.

    Each round hooks the larger of two class labels under the smaller one
    (np.minimum.at keeps the least of competing hooks; the rest wait for the
    next round) and then jumps pointers until every label is a root again,
    so labels only decrease and stay the least member of their class."""
    hooked = []
    while True:
        a, b = forest.take(left), forest.take(right)
        differ = a != b
        if not differ.any():
            return np.concatenate(hooked) if hooked else np.empty(0, dtype=forest.dtype)
        a, b = a[differ], b[differ]
        hooked.append(np.maximum(a, b))
        np.minimum.at(forest, hooked[-1], np.minimum(a, b))
        while True:
            up = forest[forest]
            if (up == forest).all():
                break
            forest[:] = up


def _hook_rows(forest, base, rows):
    """_hook, for each row i, the moved entries x -> rows[i, x] (x != rows[i, x])
    at the flat positions base[i] + x of the forest."""
    moved = rows != np.arange(rows.shape[1])
    base = base[:, None]
    return _hook(forest, (base + np.arange(rows.shape[1]))[moved], (base + rows)[moved])


def _join_rows(left, right):
    """Least-member rows of left[i] v right[i]."""
    r, n = left.shape
    offset = np.arange(0, r * n, n)[:, None]
    forest = (left + offset).ravel().astype(np.intp)
    moved = (right != np.arange(n)).ravel()
    _hook(forest, np.flatnonzero(moved), (right + offset).ravel()[moved])
    return (forest.reshape(r, n) - offset).astype(np.int32)


def _meet_rows(left, right):
    """Least-member rows of left[i] ^ right[i]: x goes to the first element
    with x's pair of labels."""
    r, n = left.shape
    offset = np.arange(0, r * n, n)[:, None]
    keys = ((left + offset).astype(np.int64) * n + right).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return (first[inverse].reshape(r, n) - offset).astype(np.int32)


def _principal_rows(translations, a, b, n: int):
    """Least-member rows of Cg(a[i], b[i]): the least equivalences relating
    a[i] and b[i] that every translation t preserves.

    Semi-naive rounds: the classes of a row are the equivalence generated
    by the pairs (x, root of x), one for each x that some round hooked under
    a smaller root, so t preserves them iff t(x) ~ t(root of x) for those x.
    Each round therefore applies every translation to the x hooked in the
    round before, the first round to max(a, b) with root min(a, b), and a
    row that holds the full relation, n - 1 hooked x, gets no more rounds.
    Rows go in chunks of _BLOCK // n, translations in chunks of _BLOCK //
    #pending x, so every temporary stays near _BLOCK entries."""
    out = np.empty((len(a), n), dtype=np.int32)
    for s in _chunks(len(a), n):
        r = len(out[s])
        offset = np.arange(0, r * n, n)
        forest = np.arange(r * n)
        mark = np.zeros(r * n, dtype=bool)
        count = np.zeros(r, dtype=np.intp)  # the x hooked in each row
        pending = _hook(forest, a[s] + offset, b[s] + offset)
        while len(pending):
            mark[pending] = True  # each x once, in order
            pending = np.flatnonzero(mark)
            mark[pending] = False
            row = pending // n
            count += np.bincount(row, minlength=r)
            pending = pending[count[row] < n - 1]  # not in a full row
            if not len(pending):
                break
            x = pending % n
            base = pending - x
            y = forest[pending] - base  # the root of x
            pending = np.concatenate([pending[:0]] + [
                _hook(forest, (translations[t].take(x, axis=1) + base).ravel(),
                      (translations[t].take(y, axis=1) + base).ravel())
                for t in _chunks(len(translations), len(pending))
            ])
        out[s] = forest.reshape(r, n) - offset[:, None]
    return out


def principal_split(principals, first_a, first_b):
    """(strong, weak): the splits of Con(A) by the rules of
    lattice.splits_strongly and lattice.splits, each (delta, epsilon) as
    least-member rows or None, from the distinct principal congruences
    alone (_distinct_principal_rows: rows, first pairs).

    Cg(a, b) <= theta iff theta relates a and b, and every congruence is a
    join of principal ones.  So the atoms are the minimal principal rows,
    taken in lexicographic order (that of all_congruences).  For an atom
    epsilon, delta_eps is the join of the principal rows not above epsilon,
    and delta_eps v epsilon that of the strong split (Freese, Algebra
    Universalis 59, 2008); for each rule the first epsilon whose delta is
    below the full relation wins.

    The deltas of _BLOCK // max(n, #P) atoms at a time are one forest: the
    moved entries x -> P[x] of the principal rows P that they join are
    hooked in blocks of about _BLOCK entries, and after each block the atoms
    whose delta is already the full relation are dropped; then each delta
    that is left gives the weak split and, joined with its epsilon, the
    strong one."""
    k, n = principals.shape
    below = np.zeros(k, dtype=np.intp)  # the principal rows below each
    for s in _chunks(k, k):
        below += (principals.take(first_a[s], 1) == principals.take(first_b[s], 1)).sum(axis=1)
    atoms = np.flatnonzero(below == 1)
    atoms = atoms[_lex_order(principals[atoms])]
    weak = None
    for s in _chunks(len(atoms), max(n, k)):
        eps = atoms[s]
        # the rows not above each atom, row by row, all atoms together
        row, atom = np.nonzero(principals.take(first_a[eps], 1) != principals.take(first_b[eps], 1))
        offset = np.arange(0, len(eps) * n, n)
        delta, live = np.arange(len(eps) * n), np.ones(len(eps), dtype=bool)
        for u in _chunks(len(row), n):
            keep = live[atom[u]]
            _hook_rows(delta, offset[atom[u][keep]], principals[row[u][keep]])
            live &= delta.reshape(-1, n).max(axis=1) > offset
            if not live.any():  # every delta is the full relation
                break
        else:
            live, rows = np.flatnonzero(live), delta.reshape(-1, n)
            if weak is None:
                weak = (rows[live[0]] - offset[live[0]]).astype(np.int32), principals[eps[live[0]]]
            _hook_rows(delta, offset[live], principals[eps[live]])  # delta v epsilon
            live = live[rows[live].max(axis=1) > offset[live]]
            if len(live):
                strong = (rows[live[0]] - offset[live[0]]).astype(np.int32), principals[eps[live[0]]]
                return strong, weak
    return None, weak


def _fresh(seen: dict, rows):
    """Add the bytes of each row of a 2-D array to seen, in order (equal
    bytes, equal rows); the indices of the rows that were new, each
    distinct one once."""
    rows = np.ascontiguousarray(rows)
    out = []
    for i, key in enumerate(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist()):
        if key not in seen:
            seen[key] = None
            out.append(i)
    return out


def require_int(value, what: str) -> int:
    """value, if it is an int; a bool, or a float such as 1.0, is refused
    as input, never truncated."""
    if type(value) is not int:
        raise InvalidInputError(f"{what} is not an integer: {value!r}")
    return value


def table_array(table, size: int, arity: int, where: str = "", ndim: int = 1):
    """The one check of a table over A^arity, |A| = size: a sequence of
    Python ints (a bool, a float or a numpy scalar is refused, never
    converted) or an int ndarray of ndim dimensions, one table per row, of
    size**arity entries in range(size) each; where prefixes each message.
    Returns it as a read-only array in the least dtype that holds
    range(size), without a copy if it already is one."""
    require_int(size, "universe_size")
    require_int(arity, "arity")
    is_array = isinstance(table, np.ndarray)
    if is_array and (table.ndim != ndim or table.dtype.kind not in "iu"):
        what = "table" if ndim == 1 else "member tables"
        raise InvalidInputError(
            f"{where}{what} must be a {ndim}-D int array: {table.dtype} {table.shape}"
        )
    length = table.shape[-1] if is_array else len(table)
    if length != size**arity:
        raise InvalidInputError(f"{where}table length {length} != {size}^{arity}")
    if not is_array:
        if not set(map(type, table)) <= {int}:
            require_int(next(v for v in table if type(v) is not int), f"{where}table entry")
        table = np.array(table)  # an object array if an int passes int64
    if table.size and (table.min() < 0 or table.max() >= size):
        raise InvalidInputError(f"{where}entry out of range")
    dtype = np.min_scalar_type(size - 1)
    if table.dtype != dtype or table.flags.writeable:
        table = table.astype(dtype)
        table.flags.writeable = False
    return table


def _lex_order(rows):
    """np.lexsort(rows.T[::-1]) for a 2-D int array with columns and
    nonnegative entries: a stable argsort of the rows' big-endian bytes in
    their own width, which compare as the rows do, with one sort instead of
    one pass per column."""
    key = rows.astype(rows.dtype.newbyteorder(">"))
    return np.argsort(key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel(), kind="stable")


def _distinct_rows(rows):
    """The distinct rows of a 2-D array in lexicographic order: rows itself
    when its rows are already strictly increasing, else a new read-only
    array."""
    if not (rows.shape[1] and _increasing(rows)):
        rows = rows[np.lexsort(rows.T[::-1])]
        distinct = np.ones(len(rows), dtype=bool)
        distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[distinct]
        rows.flags.writeable = False
    return rows


def _increasing(rows) -> bool:
    """Whether the rows of a 2-D array with columns are in strictly increasing
    lexicographic order, judged at the first column where each pair of
    adjacent rows differs."""
    later, earlier = rows[1:], rows[:-1]
    col = (later != earlier).argmax(axis=1, keepdims=True)
    return bool((np.take_along_axis(later, col, 1) > np.take_along_axis(earlier, col, 1)).all())


class FiniteAlgebra:
    """A finite algebra: a universe size and a list of operation tables."""

    def __init__(self, size: int, operations, name: str = ""):
        if require_int(size, "universe size") < 1:
            raise InvalidInputError("universe must be nonempty")
        self.size = size
        self.name = name
        ops = []
        for op in operations:
            if not isinstance(op, Operation):
                op = Operation(*op)
            if require_int(op.arity, f"operation {op.name!r}: arity") < 0:
                raise InvalidInputError(f"operation {op.name!r} has negative arity")
            table = table_array(op.table, size, op.arity, f"operation {op.name!r}: ")
            ops.append(Operation(op.name, op.arity, table))
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise InvalidInputError("duplicate operation names")
        self.operations = tuple(ops)
        self._by_name = {op.name: op for op in ops}
        self._translations = None
        self._principals = None
        #: set by direct_product: (kernel of first projection, of second)
        self.product_kernels = None
        #: the GroupStructure that checked the group axioms, set by the
        #: group shortcuts or on first use by GroupStructure.of
        self.group_structure = None

    # -- basic access ------------------------------------------------------

    def operation(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidInputError(f"unknown operation {name!r}") from None

    def signature(self):
        return tuple(sorted((op.name, op.arity) for op in self.operations))

    # -- congruence machinery ----------------------------------------------

    def unary_translations(self):
        """All single-operation unary polynomial translations but the
        identity, as the sorted distinct rows of a (t x n) int32 array.

        For each operation f and argument position i, every way of freezing
        the other positions with constants yields x |-> f(..., x, ...).
        Iterating these to a fixpoint generates the same congruences as
        arbitrary unary polynomials.
        """
        if self._translations is None:
            n = self.size
            rows = [np.empty((0, n), dtype=np.min_scalar_type(n - 1))]
            for op in self.operations:
                table = op.table.reshape((n,) * op.arity)
                rows += [np.moveaxis(table, i, -1).reshape(-1, n) for i in range(op.arity)]
            rows = np.concatenate(rows)
            rows = rows[_lex_order(rows)]
            keep = (rows != np.arange(n)).any(axis=1)  # not the identity
            keep[1:] &= (rows[1:] != rows[:-1]).any(axis=1)  # nor a repeat
            self._translations = rows[keep].astype(np.int32)
        return self._translations

    def principal_congruence(self, a: int, b: int) -> Partition:
        """Smallest congruence identifying a and b (Cg(a, b))."""
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise InvalidInputError("element out of range")
        row = _principal_rows(self.unary_translations(), np.array([a]), np.array([b]), self.size)
        return Partition._of_row(row[0])

    def is_congruence(self, theta: Partition) -> bool:
        """True iff every translation t keeps t(x) in the block of t(y) for
        each x and the least member y of its block."""
        if theta.size != self.size:
            raise InvalidInputError("partition size mismatch")
        least = theta.least
        trans = self.unary_translations()
        return all(
            (least[trans[s]] == least[trans[s][:, least]]).all()
            for s in _chunks(len(trans), self.size)
        )

    def _orbit_representatives(self, trans):
        """Pairs (a, b), a < b, in increasing order, that meet every orbit of
        pairs under the translations that permute A: not necessarily one per
        orbit, nor only the least pair of each.

        Some permutation maps a to the least member r of its element orbit,
        so every pair orbit holds a candidate {r, c}.  Each candidate is
        merged with its images that are candidates (p(r) = r or p(c) = r)
        and the least of each class is kept, the least pair of each orbit
        among them.  Classes can be finer than the orbits (conjugate pairs
        of a non-abelian group), which only repeats Cg rows.  The cost is
        O(#element orbits * n * |perms|) entries."""
        n = self.size
        perms = trans[(np.sort(trans, axis=1) == np.arange(n)).all(axis=1)]
        orbit = np.arange(n)
        for s in _chunks(len(perms), n):
            _hook(orbit, np.tile(np.arange(n), len(perms[s])), perms[s].ravel())
        is_rep = orbit == np.arange(n)
        pairs = np.flatnonzero(np.triu(is_rep[:, None] | is_rep, 1))
        a, b = pairs // n, pairs % n
        forest = np.arange(n * n)
        for s in _chunks(len(perms), len(pairs)):
            x, y = perms[s][:, a], perms[s][:, b]
            keep = is_rep[x] | is_rep[y]
            image = np.minimum(x, y) * n + np.maximum(x, y)
            _hook(forest, np.broadcast_to(pairs, image.shape)[keep], image[keep])
        least = forest[pairs] == pairs
        return a[least], b[least]

    def _distinct_principal_rows(self, budget: int | None = DEFAULT_BUDGET):
        """(rows, first_a, first_b): the distinct principal congruences as
        least-member rows of an int32 array, in the order found, each with
        the first pair (a, b) that gave it; read-only, computed once and kept
        on the algebra.  Only that computation checks the estimate n^2 *
        #translations against the budget and refuses; None is no limit.

        A translation t that permutes A has its inverse among its powers, so
        Cg(t(a), t(b)) = Cg(a, b): Cg is computed only for pairs that meet
        every orbit of pairs under the permutation translations, not
        necessarily one per orbit nor the least pair of each
        (_orbit_representatives)."""
        if self._principals is None:
            n = self.size
            trans = self.unary_translations()
            estimate = n * n * max(1, len(trans))
            if budget is not None and estimate > budget:
                raise BudgetExceededError(
                    f"congruence enumeration estimate {estimate} exceeds budget {budget}"
                )
            a, b = self._orbit_representatives(trans)
            principals = _principal_rows(trans, a, b, n)
            new = _fresh({}, principals)
            self._principals = (principals[new], a[new], b[new])
            for rows in self._principals:
                rows.flags.writeable = False
        return self._principals

    def congruence_rows(self, budget: int | None = DEFAULT_BUDGET):
        """Con(A) as a read-only (k x n) int32 array of least-member rows in
        lexicographic order, which is the block_id order of all_congruences.

        Every congruence is a join of the distinct principal congruences P_i
        (_distinct_principal_rows), so Con(A) is generated from the identity
        by theta |-> theta v P_i, each congruence once, by Close-by-One
        (Kuznetsov 1993), level by level.  A theta that P_j produced is
        joined only with the P_i not below it with i > j, and the join is
        kept only if the least P_q it adds, P_q <= theta v P_i but not
        P_q <= theta, is P_i itself.  P_q <= theta iff theta relates the
        first pair (a_q, b_q) that gave P_q.

        The work counter is the sum, over the congruences but the identity,
        of the principal rows not below each: the joins of the closure that
        joins every congruence with every P_i not below it.  It guards
        against blowing up on large inputs; raise the budget, or pass None
        for no limit, to override.  Each congruence is counted when it is
        found, so the refusal comes before the joins it would make.  Thetas
        and joins go in chunks of _BLOCK // max(n, #P) rows, which keeps
        every temporary near _BLOCK entries however many P_i there are.
        """
        n = self.size
        principals, first_a, first_b = self._distinct_principal_rows(budget)
        index = np.arange(len(principals))
        width = max(n, len(principals))
        # the identity, which no P_q is below, as the level-0 parent
        level = np.arange(n, dtype=np.int32)[None], np.array([-1])
        levels, work = [], 0
        while len(level[0]):
            thetas, gen = level
            levels.append(thetas)
            parts = []
            for s in _chunks(len(thetas), width):
                below = thetas[s, first_a] == thetas[s, first_b]
                t, i = np.nonzero(~below & (index > gen[s, None]))
                for u in _chunks(len(t), width):
                    child = principals[i[u]]
                    if len(levels) > 1:  # the identity's joins are the P_i
                        child = _join_rows(thetas[s][t[u]], child)
                    child_below = child[:, first_a] == child[:, first_b]
                    keep = (child_below & ~below[t[u]]).argmax(axis=1) == i[u]
                    work += int((~child_below[keep]).sum())
                    if budget is not None and work > budget:
                        raise BudgetExceededError(
                            f"congruence join closure exceeded budget {budget}"
                        )
                    parts.append((child[keep], i[u][keep]))
            level = [np.concatenate(x) for x in zip(*parts)] if parts else [gen[:0]]
        rows = np.concatenate(levels)
        rows = rows[_lex_order(rows)]
        rows.flags.writeable = False
        return rows

    def all_congruences(self, budget: int | None = DEFAULT_BUDGET):
        """Con(A) as Partitions, in the order of congruence_rows (see there
        for the algorithm and the budget): a view for library callers."""
        return list(map(Partition._of_row, self.congruence_rows(budget)))

    def quotient(self, theta: Partition) -> "FiniteAlgebra":
        """The quotient algebra A/theta on block indices 0..num_blocks-1."""
        if not self.is_congruence(theta):
            raise InvalidInputError("partition is not a congruence; quotient undefined")
        reps = np.array([block[0] for block in theta.blocks()])
        ids = np.array(theta.block_id)
        ops = []
        for op in self.operations:
            args = [reps[x] for x in _grid((len(reps),) * op.arity)]
            table = ids[op.table[_flat_index(args, self.size)]]
            ops.append(Operation(op.name, op.arity, np.ravel(table)))
        name = f"{self.name}/~" if self.name else ""
        return FiniteAlgebra(len(reps), ops, name=name)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "operations": [
                {"name": op.name, "arity": op.arity, "table": op.table.tolist()}
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


def _pair_tables(left, right, size_a: int, size_b: int, arity: int):
    """Componentwise product tables over (A x B)^arity, the pair (x, y)
    encoded as x * |B| + y: the last axis of left holds tables over A^arity,
    that of right tables over B^arity, and the other axes broadcast.

    The row-major index of ((x1, y1), ..., (xk, yk)) is that of
    (x1, y1, ..., xk, yk) in the shape (|A|, |B|) * k, so the tables are one
    broadcast sum over that shape, in a dtype that holds |A| * |B|."""
    dtype = np.min_scalar_type(size_a * size_b)
    va = left.astype(dtype).reshape(left.shape[:-1] + (size_a, 1) * arity)
    vb = right.astype(dtype).reshape(right.shape[:-1] + (1, size_b) * arity)
    out = va * size_b + vb
    return out.reshape(out.shape[: out.ndim - 2 * arity] + (-1,))


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
        table = _pair_tables(op_a.table, op_b.table, a.size, b.size, op_a.arity)
        ops.append(Operation(op_a.name, op_a.arity, table))
    name = ""
    if a.name and b.name:
        name = f"{a.name}x{b.name}"
    prod = FiniteAlgebra(size, ops, name=name)
    first = Partition(x // b.size for x in range(size))
    second = Partition(x % b.size for x in range(size))
    prod.product_kernels = (first, second)
    return prod


def quotient_index(alg: FiniteAlgebra, alpha: Partition, beta: Partition):
    """#(beta:alpha) = |A/alpha| / |A/beta|; an int when the ratio is exact."""
    if not alg.is_congruence(alpha) or not alg.is_congruence(beta):
        raise InvalidInputError("arguments must be congruences")
    ratio = Fraction(alpha.num_blocks, beta.num_blocks)
    return int(ratio) if ratio.denominator == 1 else ratio


def least_rows(congs, size: int):
    """Partitions of a universe of the given size as a (k x size) int32
    array of least-member rows: congs itself if it already is such an array
    (congruence_rows), else the rows of its Partitions, in order; an empty
    congs gives 0 rows, and a partition of another size InvalidInputError."""
    if isinstance(congs, np.ndarray):
        rows = congs
    else:
        congs = list(congs)
        rows = [p.least for p in congs if p.size == size]
        rows = np.array(rows, dtype=np.int32).reshape(len(rows), size)
    if len(rows) != len(congs) or rows.shape[1:] != (size,):
        raise InvalidInputError(f"congruences on universes of different sizes, not all {size}")
    return rows


def block_sizes(rows):
    """sizes[i, x]: the number of elements that least-member row i labels
    x, the size of the block of x if x is its least member, else 0."""
    k, n = rows.shape
    flat = (rows + np.arange(0, k * n, n)[:, None]).ravel()
    return np.bincount(flat, minlength=k * n).reshape(k, n)


def is_congruence_uniform(alg: FiniteAlgebra, congs=None) -> bool:
    """True iff every congruence of alg has equal-sized blocks; congs is
    Con(alg), as congruence_rows or all_congruences gives it, or None to
    compute it.  Each x's block is as large as the block of 0."""
    rows = least_rows(alg.congruence_rows() if congs is None else congs, alg.size)
    sizes = np.take_along_axis(block_sizes(rows), rows, axis=1)
    return bool((sizes == sizes[:, :1]).all())
