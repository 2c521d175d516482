"""Clone fragments on a finite universe.

Functions are flat row-major tables; a fragment holds every member of a clone
up to an arity bound, the members of each arity as the rows of one array.
The k-ary part of the clone generated by F is exactly the subuniverse of
(A; F)^(A^k) generated by the k projections, with F acting coordinatewise on
value arrays over A^k (the construction behind the free-algebra computation
of Freese, Kiss and Valeriote, UACalc, 2011).  It is built in semi-naive
rounds: each applies F only to the argument tuples that hold a member found
in the round before, a broadcast block of tuples at a time, and to half of
them for a generator symmetric in its last two arguments.

On a group whose other operations are its inverse map and constants, the
k-ary part of Pol is instead the subgroup of G^(A^k) generated by the
projections and the constants; pol_fragment counts it from a Sims table
over the coordinates, refuses it over the member cap before listing any
member, and lists it as the products of the table's levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import FiniteAlgebra, Partition, _chunks, _distinct_rows, _flat_index, _fresh, _grid
from .algebra import _join_rows, _meet_rows, _pair_tables, least_rows, require_int, table_array
from .errors import BudgetExceededError, InvalidInputError, NotAGroupError
from .groups import GroupStructure

DEFAULT_MEMBER_CAP = 10**6
DEFAULT_COMP_BUDGET = 10**7


@dataclass(frozen=True, eq=False)
class FiniteFunction:
    """An m-ary function on {0..universe_size-1} as a flat row-major table,
    kept as the read-only array of table_array; functions are equal, and
    hash alike, when their universe sizes, arities and table bytes are."""

    universe_size: int
    arity: int
    table: np.ndarray

    def __post_init__(self):
        table = table_array(self.table, self.universe_size, self.arity)
        object.__setattr__(self, "table", table)

    def _key(self):
        return (self.universe_size, self.arity, self.table.tobytes())

    def __eq__(self, other):
        return isinstance(other, FiniteFunction) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __call__(self, *args) -> int:
        if len(args) != self.arity:
            raise InvalidInputError(f"arity {self.arity}, got {len(args)} arguments")
        if any(not (0 <= a < self.universe_size) for a in args):
            raise InvalidInputError(f"argument out of range in {args}")
        return int(self.table[_flat_index(args, self.universe_size)])

    @staticmethod
    def projection(universe_size: int, arity: int, index: int) -> "FiniteFunction":
        if not (0 <= index < arity):
            raise InvalidInputError("projection index out of range")
        return FiniteFunction(universe_size, arity, _grid((universe_size,) * arity)[index])

    @staticmethod
    def constant(universe_size: int, value: int, arity: int = 1) -> "FiniteFunction":
        return FiniteFunction(
            universe_size, arity, (value,) * (universe_size**arity)
        )

    @staticmethod
    def from_operation(universe_size: int, op) -> "FiniteFunction":
        return FiniteFunction(universe_size, op.arity, op.table)


def _retabulate(f: FiniteFunction, arity: int, argmap) -> FiniteFunction:
    """New function of the given arity whose grid coordinates feed f via argmap."""
    s = f.universe_size
    index = _flat_index(argmap(tuple(_grid((s,) * arity))), s)
    return FiniteFunction(s, arity, f.table[np.broadcast_to(index, (s**arity,))])


def rotate_args(f: FiniteFunction) -> FiniteFunction:
    """zeta: (x1,...,xn) -> f(x2,...,xn,x1); identity on unary functions."""
    if f.arity == 0:
        raise InvalidInputError("rotation undefined for nullary functions")
    if f.arity == 1:
        return f
    return _retabulate(f, f.arity, lambda a: a[1:] + (a[0],))


def swap_args(f: FiniteFunction) -> FiniteFunction:
    """tau: swap the first two arguments; identity on unary functions."""
    if f.arity == 0:
        raise InvalidInputError("swap undefined for nullary functions")
    if f.arity == 1:
        return f
    return _retabulate(f, f.arity, lambda a: (a[1], a[0]) + a[2:])


def diagonal_minor(f: FiniteFunction) -> FiniteFunction:
    """delta: identify the first two arguments; identity on unary functions."""
    if f.arity == 0:
        raise InvalidInputError("minor undefined for nullary functions")
    if f.arity == 1:
        return f
    return _retabulate(f, f.arity - 1, lambda a: (a[0],) + a)


def add_dummy_arg(f: FiniteFunction) -> FiniteFunction:
    """nabla: append one inessential argument."""
    return _retabulate(f, f.arity + 1, lambda a: a[:-1])


def compose_first(f: FiniteFunction, g: FiniteFunction) -> FiniteFunction:
    """f o g: substitute g into the first argument of f, remaining appended.

    (f o g)(x1..xm, y2..yn) = f(g(x1..xm), y2..yn); arity m + n - 1.
    """
    if f.universe_size != g.universe_size:
        raise InvalidInputError("universe size mismatch")
    if f.arity == 0:
        raise InvalidInputError("composition needs f of arity >= 1")
    s = f.universe_size
    m, n = g.arity, f.arity
    args = _grid((s,) * (m + n - 1))
    head = g.table[_flat_index(args[:m], s)]
    table = f.table[_flat_index([head] + args[m:], s)]
    return FiniteFunction(s, m + n - 1, np.ravel(table))


def _member_rows(size: int, arity: int, rows):
    """rows, a 2-D int array of function tables over A^arity (|A| = size),
    checked by table_array, then in lexicographic order without repeats.
    Rows already in strictly increasing order, as comp_fragment finds them,
    are not sorted again."""
    return _distinct_rows(table_array(np.asarray(rows), size, arity, ndim=2))


class CloneFragment:
    """All members of a clone with arity between 1 and max_arity.

    parts[k-1] holds the k-ary members as the rows of one read-only 2-D
    array of function tables, distinct and in lexicographic order."""

    def __init__(self, universe_size: int, max_arity: int, parts):
        if len(parts) != require_int(max_arity, "max_arity"):
            raise InvalidInputError(f"{len(parts)} arity parts for max_arity {max_arity}")
        self.universe_size = universe_size
        self.max_arity = max_arity
        self.parts = tuple(
            _member_rows(universe_size, k, rows) for k, rows in enumerate(parts, 1)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CloneFragment):
            return NotImplemented
        same = (self.universe_size, self.max_arity) == (other.universe_size, other.max_arity)
        return same and all(map(np.array_equal, self.parts, other.parts))

    def arity_part(self, arity: int):
        """The members of the given arity, as FiniteFunctions in table order."""
        if not (1 <= arity <= self.max_arity):
            raise InvalidInputError(f"arity {arity} outside fragment bound")
        size = self.universe_size
        return tuple(FiniteFunction(size, arity, row) for row in self.parts[arity - 1])

    @property
    def members(self):
        return tuple(self.arity_part(k) for k in range(1, self.max_arity + 1))

    def __contains__(self, f: FiniteFunction) -> bool:
        if f.universe_size != self.universe_size or not (1 <= f.arity <= self.max_arity):
            return False
        return bool((self.parts[f.arity - 1] == f.table).all(axis=1).any())

    def member_count(self) -> int:
        return sum(len(part) for part in self.parts)

    def function_set(self):
        return {f for part in self.members for f in part}

    def to_json_dict(self) -> dict:
        """The fragment with each arity part as its array, which cli.emit
        writes as lists of rows; elsewhere write it with json.dumps(...,
        default=np.ndarray.tolist)."""
        return {
            "universe_size": self.universe_size,
            "max_arity": self.max_arity,
            "members": {str(k): part for k, part in enumerate(self.parts, 1)},
        }


def _lift_generator(f: FiniteFunction) -> FiniteFunction:
    # nullary generators enter the closure as unary constants
    if f.arity == 0:
        return FiniteFunction.constant(f.universe_size, int(f.table[0]))
    return f


def _function_count(size: int, entries: int, cap: int):
    """size**entries, the number of functions whose tables have that many
    entries over A (|A| = size), if it is at most cap, else None; a count
    above cap is never built, as it can have millions of digits."""
    if entries * (size.bit_length() - 1) > cap.bit_length():
        return None  # size**entries >= 2**(entries * (bit_length - 1)) > cap
    total = size**entries
    return total if total <= cap else None


def _symmetric_in_last_two(g: FiniteFunction) -> bool:
    """Whether g(..., x, y) = g(..., y, x) for all arguments."""
    if g.arity < 2:
        return False
    t = g.table.reshape(-1, g.universe_size, g.universe_size)
    return bool((t == t.transpose(0, 2, 1)).all())


def _argument_blocks(index, size: int, arity: int, done: int, symmetric: bool):
    """The flat indices into a table of the given arity at every argument
    tuple of rows of index that holds a new row, in blocks of at most
    8 * _BLOCK indices (np.take widens each to an 8-byte intp), or one whole
    head row when one head has more.

    index holds value arrays as rows, each the values of an argument at
    every coordinate: the members of a clone closure, found in the last
    round from done on, or the tuples of a relation, all new (done = 0).
    A tuple is its head (all arguments but the last) and its last argument.
    The tuples with a new row are the disjoint boxes whose first new
    argument is the j-th: the arguments before it range over old rows, it
    over new ones and the rest over all; with done = 0 every box but the
    first argument's is empty.  The box of the last argument (old heads
    against new rows) comes first, then the boxes of new heads against all
    rows.  A block is a run of heads of one box against a slice of rows, as
    one broadcast.

    If the table is symmetric in its last two arguments, the last argument
    starts at the last head argument: g(..., a, b) = g(..., b, a)
    pointwise, so (..., b, a) with b > a adds nothing that (..., a, b) does
    not.  The last head argument varies slowest within a box, so a block's
    slice starts at its first head's, and the tuples below each head's own
    start are masked out."""
    known = len(index)
    for j in reversed(range(arity)):
        ranges = [(0, done)] * j + [(done, known)] + [(0, known)] * (arity - 1 - j)
        *heads, (lo, hi) = ranges
        if not heads:
            yield index[lo:hi]
            continue
        order = heads[-1:] + heads[:-1]
        shape = [b - a for a, b in order]
        count = math.prod(shape)
        for chunk in _chunks(count, (hi - lo) * index.shape[1] // 8):
            flat = np.arange(chunk.start, min(chunk.stop, count))
            coords = [c + a for c, (a, _) in zip(np.unravel_index(flat, shape), order)]
            coords = coords[1:] + coords[:1]  # back to argument order
            first = max(lo, int(coords[-1][0])) if symmetric else lo
            block = index[coords[0]][:, None]
            for c in coords[1:]:
                block = block * size + index[c][:, None]
            block = block * size + index[first:hi]
            yield block[coords[-1][:, None] <= np.arange(first, hi)] if symmetric else block


def _arity_part(gens, symmetric, size: int, arity: int, count: int, member_cap: int):
    """The k-ary part (k = arity) of the clone generated by gens, i.e. the
    subuniverse of (A; gens)^(A^k) generated by the projections and the
    k-ary generators, as the rows of one array.  Semi-naive: each round
    applies every generator only to argument tuples that hold a member found
    in the previous round, a block at a time (_argument_blocks);
    symmetric[i] says whether gens[i] is symmetric in its last two
    arguments.  Stops as soon as the part holds all |A|^(|A|^k) functions.
    Raises BudgetExceededError once count (the members of other arities)
    plus the members found exceed member_cap, checked after each block, so
    exactly when the whole part would."""
    n = size**arity
    dtype = np.min_scalar_type(size - 1)
    full = _function_count(size, n, member_cap)
    seen = {}  # the bytes of each member's value array, in order found

    def add(block) -> bool:
        """Whether the part is full once the new rows of block are added."""
        _fresh(seen, block)
        if count + len(seen) > member_cap:
            raise BudgetExceededError(f"clone closure exceeded member cap {member_cap}")
        return len(seen) == full

    def members():
        return np.frombuffer(b"".join(seen), dtype=dtype).reshape(len(seen), n)

    start = _grid((size,) * arity) + [g.table for g in gens if g.arity == arity]
    if add(np.stack(start).astype(dtype)):
        return members()
    done = 0
    while done < len(seen):
        rows = members()
        for g, sym in zip(gens, symmetric):
            # table indices stay below size**g.arity, so they fit its dtype
            index = rows.astype(np.min_scalar_type(len(g.table) - 1))
            for block in _argument_blocks(index, size, g.arity, done, sym):
                if add(np.take(g.table, block).reshape(-1, n)):
                    return members()
        done = len(rows)
    return members()


def clone_closure(
    gens,
    max_arity: int,
    universe_size: int | None = None,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> CloneFragment:
    """Every member of arity 1..max_arity of the clone generated by gens,
    i.e. of the least set of functions that contains the projections and gens
    and is closed under composition.  Each arity part is exact.

    Generators may have any arity; nullary ones count as constants.  Raises
    BudgetExceededError exactly when the members of all arities number more
    than member_cap, after the block of generator applications that passes
    it.  Whether each generator is symmetric in its last two arguments is
    checked once, here.
    """
    gens = [_lift_generator(f) for f in gens]
    if universe_size is None:
        if not gens:
            raise InvalidInputError("need universe_size when gens is empty")
        universe_size = gens[0].universe_size
    if require_int(universe_size, "universe_size") < 1:
        raise InvalidInputError("universe must be nonempty")
    if any(f.universe_size != universe_size for f in gens):
        raise InvalidInputError("generators live on different universes")
    if max_arity < 1:
        raise InvalidInputError("max_arity must be >= 1")
    symmetric = [_symmetric_in_last_two(g) for g in gens]
    parts = []
    for k in range(1, max_arity + 1):
        count = sum(map(len, parts))  # members of the lower arities
        parts.append(_arity_part(gens, symmetric, universe_size, k, count, member_cap))
    return CloneFragment(universe_size, max_arity, parts)


def _operation_clone(alg: FiniteAlgebra, max_arity: int, member_cap: int, extra=()):
    """The clone generated by the operations of alg and extra."""
    gens = [FiniteFunction.from_operation(alg.size, op) for op in alg.operations]
    return clone_closure(gens + list(extra), max_arity, alg.size, member_cap)


def _group_of(alg: FiniteAlgebra) -> GroupStructure | None:
    """The group of alg when each operation of alg is the group's
    multiplication, its inverse map or nullary, else None."""
    try:
        g = GroupStructure.of(alg)
    except NotAGroupError:
        return None
    return g if all(op.arity == 0 for op in g.extra_operations(alg)) else None


class _SimsTable:
    """A Sims table of a subgroup of G^N under the pointwise product, over
    the N coordinates in order (Furst, Hopcroft and Luks, FOCS 1980; Knuth,
    Combinatorica 11, 1991).  Level i holds at most one entry per value at
    coordinate i, each the identity before i.  entries holds them as rows
    in the order added and level their levels; slot[i * |G| + v] is the row
    of the entry of level i with value v there, or -1.

    With T_i the entries of level i and the identity, the products of one
    element of each T_i, in level order, are distinct members of the group
    the entries generate: two of them differ at the coordinate of the first
    level where their factors differ, as the factors above it are the
    identity there.  So order(), the product of the |T_i|, is a lower bound
    of the group's order at any time, and equals it once close() has run
    to the end."""

    def __init__(self, g: GroupStructure, count: int):
        self.g = g
        self.ldiv = g.mul_table[g.inv]  # ldiv[a, b] = a^-1 b
        self.entries = np.empty((0, count), dtype=g.mul_table.dtype)
        self.level = np.empty(0, dtype=np.intp)
        self.slot = np.full(count * g.size, -1, dtype=np.intp)

    def order(self) -> int:
        return math.prod((np.bincount(self.level) + 1).tolist())

    def sift(self, rows) -> None:
        """Sift each row of rows to the identity, adding entries where
        needed.  At its first coordinate i off the identity a row is divided
        on the left by the entry of its value there, v <- t^-1 v, which
        makes it the identity up to i + 1; all rows take a step at once.  A
        level and value with no entry make the first row with them the
        entry, which then divides itself to the identity."""
        e, n = self.g.identity, self.g.size
        moved = rows != e
        while (live := moved.any(axis=1)).any():
            rows, moved = rows[live], moved[live]
            first = moved.argmax(axis=1)
            key = first * n + rows[np.arange(len(rows)), first]
            slot = self.slot[key]
            if (missing := slot < 0).any():
                new, pick = np.unique(key[missing], return_index=True)
                self.slot[new] = len(self.entries) + np.arange(len(new))
                self.entries = np.concatenate([self.entries, rows[missing][pick]])
                self.level = np.concatenate([self.level, new // n])
                slot = self.slot[key]
            rows = self.ldiv[self.entries[slot], rows]
            moved = rows != e

    def close(self, limit: int) -> None:
        """Sift every product of two entries of which one is new, in both
        orders, a block of _chunks at a time, until a round adds no entry or
        order() passes limit.

        In the first case the products T_0 T_1 ... T_m are the group the
        entries generate.  Let P_i = T_i ... T_m; by downward induction
        P_(i+1) is a group, generated by the entries above level i.  For
        such an entry t and u in T_i, t u is the identity before i and sifts
        to the identity, so it lies in T_i P_(i+1); moving u leftwards
        through a product of such entries gives P_(i+1) T_i within
        T_i P_(i+1), and with T_i T_i within P_i this makes P_i closed under
        the product."""
        mul = self.g.mul_table
        done = 0
        while done < len(self.entries) and self.order() <= limit:
            stored = self.entries
            fresh = np.arange(len(stored)) >= done
            left, right = np.nonzero(fresh[:, None] | fresh)
            for chunk in _chunks(len(left), stored.shape[1]):
                self.sift(mul[stored[left[chunk]], stored[right[chunk]]])
                if self.order() > limit:
                    return
            done = len(stored)

    def members(self):
        """The products T_0 T_1 ... T_m as the rows of one array, by one
        broadcast product per level, over the columns from i on at level i:
        its factors are the identity before coordinate i."""
        count = self.entries.shape[1]
        rows = identity = np.full((1, count), self.g.identity, dtype=self.entries.dtype)
        for i in np.unique(self.level):
            factors = np.concatenate([identity, self.entries[self.level == i]])[:, i:]
            product = self.g.mul_table[rows[:, None, i:], factors[None]]
            rows = np.repeat(rows, len(factors), axis=0)
            rows[:, i:] = product.reshape(len(rows), -1)
        return rows


def _pol_table(g: GroupStructure, arity: int, limit: int) -> _SimsTable:
    """A Sims table of Pol_k(G), k = arity: the subgroup of G^(A^k)
    generated by the k projections and the constants, each of which sifts
    to a product of entries.  It is complete unless its order() is above
    limit."""
    count = g.size**arity
    table = _SimsTable(g, count)
    gens = _grid((g.size,) * arity) + [np.full(count, v) for v in range(g.size)]
    table.sift(np.stack(gens).astype(table.entries.dtype))
    table.close(limit)
    return table


def pol_fragment(
    alg: FiniteAlgebra, max_arity: int, member_cap: int = DEFAULT_MEMBER_CAP
) -> CloneFragment:
    """The polynomial clone of alg up to max_arity: the clone generated by
    the fundamental operations and every constant.

    On a group algebra (_group_of) each part Pol_k is the group of a Sims
    table (_pol_table), which counts its members before it lists them.
    BudgetExceededError is raised as soon as the members of arities 1..k
    number more than member_cap, before the k-ary members or any higher
    table are built; the message gives the count, a lower bound if the
    table stopped early.  Other algebras go through clone_closure, with the
    constants that are not nullary operations of alg already."""
    g = _group_of(alg)
    if g is None:
        nullary = {int(op.table[0]) for op in alg.operations if op.arity == 0}
        consts = [FiniteFunction.constant(alg.size, v) for v in range(alg.size) if v not in nullary]
        return _operation_clone(alg, max_arity, member_cap, consts)
    if max_arity < 1:
        raise InvalidInputError("max_arity must be >= 1")
    parts, total = [], 0
    for k in range(1, max_arity + 1):
        table = _pol_table(g, k, member_cap - total)
        total += table.order()
        if total > member_cap:
            raise BudgetExceededError(
                f"polynomial clone has at least {total} members up to arity {k}, "
                f"above the member cap {member_cap}"
            )
        parts.append(table.members())
    return CloneFragment(alg.size, max_arity, parts)


def _signature_reps(least, arity: int):
    """The flat index, for each argument tuple of the given arity, of the
    first tuple with its block signature under the partition of the
    least-member row least: the tuple of the least members of its
    coordinates' blocks, so never above the tuple itself."""
    least = least.astype(np.intp)
    return np.ravel(_flat_index(np.ix_(*[least] * arity), len(least)))


def is_congruence_preserving(f: FiniteFunction, rows) -> bool:
    """True iff componentwise alpha-related tuples map to alpha-related values,
    for every congruence alpha whose least-member row is in rows: iff f maps
    each argument tuple into the block of its value at the first tuple with
    the same block signature.  A function that preserves alpha and beta
    preserves alpha v beta, so for Con(A) the principal congruences suffice."""
    for least in rows:
        if len(least) != f.universe_size:
            raise InvalidInputError("congruence size mismatch")
        if not (least[f.table] == least[f.table[_signature_reps(least, f.arity)]]).all():
            return False
    return True


def comp_fragment(
    alg: FiniteAlgebra,
    max_arity: int,
    budget: int = DEFAULT_COMP_BUDGET,
    force: bool = False,
) -> CloneFragment:
    """All functions of arity <= max_arity preserving every congruence of alg.

    A function that preserves alpha and beta preserves alpha v beta, and
    every congruence is a join of principal ones, so Comp(alg) is the set of
    functions that preserve the distinct principal congruences; no join
    closure runs.  Each arity part is filled in row-major order of A^k: at
    tuple x, every row of partial tables takes each value that lies, for
    each principal alpha, in the alpha-block of its value at the first tuple
    with the block signature of x (_signature_reps), in increasing order, so
    the rows stay in lexicographic order.

    The budget bounds the rows of each level: a level is refused as soon as
    its rows counted so far, block by block, pass it.  The principal
    congruences are computed under the same budget, and force lifts only
    that limit (they get None).
    """
    if max_arity < 1:
        raise InvalidInputError("max_arity must be >= 1")
    s = alg.size
    least = alg._distinct_principal_rows(None if force else budget)[0]
    least = least[(least != 0).any(axis=1)]  # the full relation allows every value
    same = least[:, :, None] == least[:, None, :]
    dtype = np.min_scalar_type(s - 1)
    parts = []
    for arity in range(1, max_arity + 1):
        reps = np.array([_signature_reps(row, arity) for row in least]).reshape(-1, s**arity)
        columns = []  # the value at each tuple so far, one entry per row
        for x in range(s**arity):
            moved = np.flatnonzero(reps[:, x] != x)
            counts = np.empty(len(columns[0]) if columns else 1, dtype=np.intp)
            values, total = [], 0
            for rows in _chunks(len(counts), 1):  # 2^13 rows, |A| values each
                allowed = np.ones((len(counts[rows]), s), dtype=bool)
                for j in moved:
                    allowed &= same[j][columns[reps[j, x]][rows]]
                flat = np.flatnonzero(allowed)
                counts[rows] = np.bincount(flat // s, minlength=len(allowed))
                values.append((flat % s).astype(dtype))
                if (total := total + len(flat)) > budget:
                    raise BudgetExceededError(
                        f"comp enumeration needs at least {total} partial tables of {x + 1} "
                        f"entries at arity {arity}; budget is {budget} - lower the arity"
                    )
            columns = [np.repeat(c, counts) for c in columns] + [np.concatenate(values)]
        parts.append(np.stack(columns, axis=1))
    return CloneFragment(s, max_arity, parts)


# ---------------------------------------------------------------------------
# tensor construction on product universes


def tensor_function(c: FiniteFunction, d: FiniteFunction) -> FiniteFunction:
    """c (x) d on the product universe: acts as c on first coordinates and d
    on second, under the pair encoding (x, y) -> x * |B| + y."""
    if c.arity != d.arity:
        raise InvalidInputError("tensor requires equal arities")
    sa, sb = c.universe_size, d.universe_size
    return FiniteFunction(sa * sb, c.arity, _pair_tables(c.table, d.table, sa, sb, c.arity))


def tensor_fragments(cf: CloneFragment, df: CloneFragment) -> CloneFragment:
    """{c (x) d} over all equal-arity pairs of members of the two fragments."""
    if cf.max_arity != df.max_arity:
        raise InvalidInputError("fragments have different arity bounds")
    sa, sb = cf.universe_size, df.universe_size
    parts = [
        _pair_tables(cs[:, None], ds, sa, sb, k).reshape(len(cs) * len(ds), (sa * sb) ** k)
        for k, (cs, ds) in enumerate(zip(cf.parts, df.parts), 1)
    ]
    return CloneFragment(sa * sb, cf.max_arity, parts)


def tensor_generators(x_gens, y_gens, size_a: int, size_b: int):
    """The generating set for the tensor of two generated clones: every f in X
    paired with a first-coordinate projection, every g in Y likewise, plus the
    binary pi1 (x) pi2."""
    out = []
    for f in x_gens:
        f = _lift_generator(f)
        out.append(
            tensor_function(f, FiniteFunction.projection(size_b, f.arity, 0))
        )
    for g in y_gens:
        g = _lift_generator(g)
        out.append(
            tensor_function(FiniteFunction.projection(size_a, g.arity, 0), g)
        )
    out.append(
        tensor_function(
            FiniteFunction.projection(size_a, 2, 0),
            FiniteFunction.projection(size_b, 2, 1),
        )
    )
    return out


# ---------------------------------------------------------------------------
# product congruences and skew-freeness


def _product_congruences(rows, kernel_first: Partition, kernel_second: Partition):
    """Mask of the least-member rows theta that decompose over the two
    projection kernels, i.e. theta = (theta v ker1) ^ (theta v ker2); the
    kernels are checked once and all thetas are rebuilt at once."""
    size = kernel_first.size
    if kernel_second.size != size or rows.shape[1] != size:
        raise InvalidInputError("kernel size mismatch")
    if not kernel_first.meet(kernel_second).is_identity():
        raise InvalidInputError("kernels do not intersect trivially")
    if not kernel_first.join(kernel_second).is_full():
        raise InvalidInputError("kernels do not join to the full relation")
    kernels = (kernel_first.least, kernel_second.least)
    rebuilt = _meet_rows(*(_join_rows(rows, np.broadcast_to(k, rows.shape)) for k in kernels))
    return (rebuilt == rows).all(axis=1)


def is_product_congruence(
    theta: Partition, kernel_first: Partition, kernel_second: Partition
) -> bool:
    """True iff theta decomposes over the two projection kernels, i.e.
    theta = (theta v ker1) ^ (theta v ker2)."""
    return bool(_product_congruences(theta.least[None], kernel_first, kernel_second)[0])


def skew_congruences(prod: FiniteAlgebra, congs=None):
    """The congruences of a recorded product that are not product
    congruences, as Partitions in the order of congs: Con(prod) as
    congruence_rows or all_congruences gives it, or None to compute it."""
    if prod.product_kernels is None:
        raise InvalidInputError("algebra was not built by direct_product")
    rows = least_rows(prod.congruence_rows() if congs is None else congs, prod.size)
    product = _product_congruences(rows, *prod.product_kernels)
    return list(map(Partition._of_row, rows[~product]))


# ---------------------------------------------------------------------------
# relations and Mal'cev terms


@dataclass(frozen=True)
class Relation4:
    """A 4-ary relation over the universe, stored sorted and deduplicated;
    columns holds the tuples as a (4, |r|) array, and codes their row-major
    codes in ascending order and then |A|^4, which no tuple has."""

    universe_size: int
    tuples: tuple
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = np.array(self.tuples, dtype=np.intp).reshape(-1, 4).T
        codes = np.append(_flat_index(columns, self.universe_size), self.universe_size**4)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "codes", codes)

    @staticmethod
    def from_tuples(universe_size: int, tuples) -> "Relation4":
        tups = sorted(set(tuple(t) for t in tuples))
        for t in tups:
            if len(t) != 4 or any(not (0 <= v < universe_size) for v in t):
                raise InvalidInputError(f"bad relation tuple {t}")
        return Relation4(universe_size, tuple(tups))

    def _hold(self, codes):
        """Whether every one of the given row-major codes is a tuple's."""
        return np.array_equal(self.codes[np.searchsorted(self.codes, codes)], codes)

    def __contains__(self, t) -> bool:
        t = tuple(t)
        s = self.universe_size
        return len(t) == 4 and all(0 <= v < s for v in t) and self._hold(_flat_index(t, s))

    def __len__(self) -> int:
        return len(self.tuples)


def preserves_relation(f: FiniteFunction, r: Relation4) -> bool:
    """True iff r is closed under coordinatewise application of f.

    This is one round of the clone closure's kernel, _argument_blocks, with
    the tuples of r as rows and every row new: f is applied to at most the
    |r|^k choices of k tuples of r (k = f.arity), about half of them for an
    f symmetric in its last two arguments, a block at a time, and each
    block's image is one np.take.  A nullary f maps to its one constant
    tuple.  Membership is Relation4._hold.
    """
    if f.universe_size != r.universe_size:
        raise InvalidInputError("universe size mismatch")
    s = f.universe_size
    if f.arity == 0:
        return (int(f.table[0]),) * 4 in r
    rows = r.columns.T.astype(np.min_scalar_type(len(f.table) - 1))
    for block in _argument_blocks(rows, s, f.arity, 0, _symmetric_in_last_two(f)):
        image = np.take(f.table, block).reshape(-1, 4)
        if not r._hold(_flat_index(image.T, s)):
            return False
    return True


def _malcev_rows(tables, size: int):
    """Mask of the rows of tables (ternary function tables over A, |A| =
    size) with d(x, y, y) = x and d(x, x, y) = y."""
    x, y = _grid((size, size))
    xyy, xxy = _flat_index((x, y, y), size), _flat_index((x, x, y), size)
    return (tables[:, xyy] == x).all(axis=1) & (tables[:, xxy] == y).all(axis=1)


def is_malcev_function(d: FiniteFunction) -> bool:
    return d.arity == 3 and bool(_malcev_rows(d.table[None], d.universe_size)[0])


def group_malcev_function(alg) -> FiniteFunction | None:
    """x * y^-1 * z when alg carries a group structure, else None.

    alg is a FiniteAlgebra or an already built GroupStructure.
    """
    if isinstance(alg, GroupStructure):
        g = alg
    else:
        try:
            g = GroupStructure.of(alg)
        except NotAGroupError:
            return None
    x, y, z = _grid((g.size,) * 3)
    m = g.mul_table
    return FiniteFunction(g.size, 3, m[m[x, g.inv[y]], z])


def malcev_term(
    alg: FiniteAlgebra, member_cap: int = DEFAULT_MEMBER_CAP
) -> FiniteFunction | None:
    """A Mal'cev function d with d(x,y,y)=x and d(x,x,y)=y in the ternary
    part of the clone of term functions, or None when that clone has none.

    Groups short-circuit to x * y^-1 * z.  Raises BudgetExceededError when
    the closure passes member_cap.
    """
    d = group_malcev_function(alg)
    if d is not None:
        return d
    ternary = _operation_clone(alg, 3, member_cap).parts[2]
    hits = ternary[_malcev_rows(ternary, alg.size)]
    return FiniteFunction(alg.size, 3, hits[0]) if len(hits) else None
