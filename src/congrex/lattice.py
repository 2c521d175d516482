"""Finite bounded lattices and the splitting predicates.

A lattice is stored with its full order relation and meet/join tables, so the
predicates are plain table scans.  A lattice "splits" if it is the union of
two proper subintervals I[0, delta] and I[epsilon, 1]; it "splits strongly"
if moreover the subintervals overlap (epsilon <= delta).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .algebra import Partition, _chunks, _fresh, _grid, _join_rows, _least_members, _meet_rows
from .errors import InvalidInputError


@dataclass(frozen=True)
class SplitWitness:
    delta: int
    epsilon: int

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "epsilon": self.epsilon}


class FiniteLattice:
    """Bounded lattice on 0..size-1 given by its order relation."""

    def __init__(self, leq):
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
        n = len(leq)
        if any(len(row) != n for row in leq):
            raise InvalidInputError("leq must be a square boolean matrix")
        self.size = n
        self.leq = leq
        self._validate_order()
        self.bottom = self._extreme(lambda a, b: leq[a][b])
        self.top = self._extreme(lambda a, b: leq[b][a])
        self.meet, self.join = self._bound_tables()
        self._below_count = tuple(sum(leq[a][b] for a in range(n)) for b in range(n))

    def _validate_order(self):
        n = self.size
        if n == 0:
            raise InvalidInputError("lattice must be nonempty")
        L = np.array(self.leq, dtype=bool)
        if not L.diagonal().all():
            raise InvalidInputError("order not reflexive")
        if (L & L.T & ~np.eye(n, dtype=bool)).any():
            raise InvalidInputError("order not antisymmetric")
        reach = (L.astype(np.int32) @ L.astype(np.int32)) > 0
        if (reach & ~L).any():
            raise InvalidInputError("order not transitive")
        self._L = L

    def _extreme(self, below):
        for cand in range(self.size):
            if all(below(cand, other) for other in range(self.size)):
                return cand
        raise InvalidInputError("lattice is not bounded")

    def _bound_tables(self):
        # GLB of (a, b): among common lower bounds, the one dominating all
        # others; it has the strictly largest down-set, so argmax by down-set
        # size finds it, and a vectorized dominance check validates it.  One
        # row a at a time, so memory stays O(n^2).
        n = self.size
        L = self._L
        below_count = L.sum(axis=0)
        above_count = L.sum(axis=1)
        meet, join = [], []
        for a in range(n):
            lower = L[:, a][None, :] & L.T  # lower[b,c] = c<=a and c<=b
            upper = L[a][None, :] & L       # upper[b,c] = a<=c and b<=c
            meet_a = np.where(lower, below_count[None, :], -1).argmax(axis=1)
            join_a = np.where(upper, above_count[None, :], -1).argmax(axis=1)
            # validity: every common lower bound c must satisfy c <= meet[a,b]
            if not (np.all(~lower | L[:, meet_a].T) and np.all(~upper | L[join_a])):
                raise InvalidInputError("meet or join missing; not a lattice")
            meet.append(tuple(meet_a.tolist()))
            join.append(tuple(join_a.tolist()))
        return tuple(meet), tuple(join)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"size": self.size, "leq": [list(row) for row in self.leq]}

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteLattice":
        try:
            return FiniteLattice(data["leq"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed lattice JSON: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "FiniteLattice":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"invalid JSON: {exc}") from exc
        return FiniteLattice.from_json_dict(data)

    def __repr__(self):
        return f"<FiniteLattice: {self.size} elements>"


def chain(n: int) -> FiniteLattice:
    return FiniteLattice([[a <= b for b in range(n)] for a in range(n)])


def lattice_from_covers(n: int, covers) -> FiniteLattice:
    """Build a lattice from a cover list [(lower, upper), ...]."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a, b, c in itertools.product(range(n), repeat=3):
            if leq[a][b] and leq[b][c] and not leq[a][c]:
                leq[a][c] = True
                changed = True
    return FiniteLattice(leq)


def from_congruences(congs) -> FiniteLattice:
    """Order a meet/join closed set of partitions by refinement.

    a <= b iff b's labels are constant on a's blocks, i.e. B[b, least[a]]
    == B[b] for the least-member rows B, checked one row a at a time.
    Closure is checked on irreducibles only: b is the join of the
    join-irreducibles below it, so a v b is in the set for all a, b once
    a v j is for every join-irreducible j (one lower cover) not below a;
    dually for meets with meet-irreducibles (one upper cover).
    """
    congs = sorted(set(congs), key=lambda p: p.block_id)
    if not congs:
        raise InvalidInputError("empty congruence set")
    rows = _least_members(np.array([p.block_id for p in congs]))
    k, n = rows.shape
    leq = np.empty((k, k), dtype=bool)
    for s in _chunks(k, n):
        block = rows[s]
        for a in range(k):
            leq[a, s] = (block[:, rows[a]] == block).all(axis=1)
    try:
        lat = FiniteLattice(leq.tolist())
    except InvalidInputError as exc:
        raise InvalidInputError("congruence set is not meet/join closed") from exc
    L = lat._L
    strict = L & ~np.eye(k, dtype=bool)
    covers = strict & ~((strict.astype(np.int32) @ strict.astype(np.int32)) > 0)
    present = {}
    _fresh(present, rows)
    checks = [(_join_rows, j, ~L[j]) for j in np.flatnonzero(covers.sum(axis=0) == 1)]
    checks += [(_meet_rows, m, ~L[:, m]) for m in np.flatnonzero(covers.sum(axis=1) == 1)]
    for kernel, irreducible, outside in checks:
        others = np.flatnonzero(outside)
        for s in _chunks(len(others), n):
            pair = np.broadcast_to(rows[irreducible], (len(others[s]), n))
            if _fresh(present, kernel(rows[others[s]], pair)):
                raise InvalidInputError("congruence set is not meet/join closed")
    assert congs[lat.bottom] == Partition.identity(n)
    assert congs[lat.top] == Partition.full(n)
    return lat


def congruence_lattice(alg, **kwargs):
    """(lattice, congruence list) for alg, with matching element indexing."""
    congs = alg.all_congruences(**kwargs)
    return from_congruences(congs), congs


def _split_witness(l: FiniteLattice, strong: bool):
    if l.bottom == l.top:
        return None
    n = l.size
    eps_candidates = sorted(
        (e for e in range(n) if e != l.bottom),
        key=lambda e: (l._below_count[e], e),
    )
    for eps in eps_candidates:
        # every alpha not above eps must sit below delta, so the least
        # admissible delta is the join of all such alpha
        need = l.bottom
        for alpha in range(n):
            if not l.leq[eps][alpha]:
                need = l.join[need][alpha]
        if strong:
            need = l.join[need][eps]
        if need == l.top:
            continue
        deltas = [
            d
            for d in range(n)
            if d != l.top and l.leq[need][d] and (not strong or l.leq[eps][d])
        ]
        if not deltas:
            continue
        deltas.sort(key=lambda d: (-l._below_count[d], d))
        return SplitWitness(delta=deltas[0], epsilon=eps)
    return None


def splits_strongly(l: FiniteLattice):
    """Witness for I[0,delta] u I[epsilon,1] = L with 0 < eps <= delta < 1.

    Witness selection is deterministic: epsilon as low as possible, then delta
    as high as possible, ties by element index.
    """
    return _split_witness(l, strong=True)


def splits(l: FiniteLattice):
    """Like splits_strongly, but the subintervals need not overlap."""
    return _split_witness(l, strong=False)


def witness_is_valid(l: FiniteLattice, w: SplitWitness, strong: bool) -> bool:
    if not (w.epsilon != l.bottom and w.delta != l.top):
        return False
    if strong and not l.leq[w.epsilon][w.delta]:
        return False
    return all(
        l.leq[a][w.delta] or l.leq[w.epsilon][a] for a in range(l.size)
    )


def is_modular(l: FiniteLattice) -> bool:
    """a <= c  implies  a v (b ^ c) = (a v b) ^ c, for all triples."""
    for a, b, c in itertools.product(range(l.size), repeat=3):
        if l.leq[a][c]:
            if l.join[a][l.meet[b][c]] != l.meet[l.join[a][b]][c]:
                return False
    return True


def transposes_up(l: FiniteLattice, a: int, b: int, c: int, d: int) -> bool:
    """True iff I[a,b] transposes up to I[c,d]: a = b ^ c and b v c = d."""
    if not (l.leq[a][b] and l.leq[c][d]):
        raise InvalidInputError("arguments do not form intervals")
    return l.meet[b][c] == a and l.join[b][c] == d


def lattice_product(ls) -> FiniteLattice:
    """Componentwise product; element encoding is row-major over the factors."""
    ls = list(ls)
    if not ls:
        raise InvalidInputError("empty lattice product")
    coords = _grid([l.size for l in ls])
    leq = np.ones((len(coords[0]),) * 2, dtype=bool)
    for l, x in zip(ls, coords):
        leq &= l._L[np.ix_(x, x)]
    return FiniteLattice(leq.tolist())
