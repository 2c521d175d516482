"""Finite bounded lattices and the splitting predicates.

A lattice "splits" if it is the union of two proper subintervals
I[0, delta] and I[epsilon, 1]; it "splits strongly" if moreover the
subintervals overlap (epsilon <= delta).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .algebra import _chunks, _distinct_rows, _fresh, _grid, _join_rows, _meet_rows
from .algebra import least_rows, require_int
from .errors import InvalidInputError


def _meets(L: np.ndarray) -> np.ndarray:
    """Meet table of the reflexive, antisymmetric relation L (join: _meets(L.T)).

    The meet of a and b has the strictly largest down-set among their common
    lower bounds: an argmax of down-set sizes, 0 off them, finds it.  Checking
    D(meet) == D(a) & D(b) validates it and proves L transitive: c <= b <= a
    gives meet(a, b) = b, so D(b) = D(a) & D(b) lies in D(a); with a top, L is
    then a lattice.  Row by row in O(k^2) memory, in the least dtype for k.
    """
    L, LT = np.ascontiguousarray(L), np.ascontiguousarray(L.T)
    below = L.sum(axis=0, dtype=np.min_scalar_type(len(L)))
    meet = np.empty(L.shape, dtype=below.dtype)
    for a in range(len(L)):
        lower = L[:, a] & LT  # lower[b, c] = c <= a and c <= b
        meet[a] = (lower * below).argmax(axis=1)
        if not (lower == LT[meet[a]]).all():
            raise InvalidInputError("meet or join missing; not a lattice")
    return meet


def _join_irreducibles(L: np.ndarray) -> np.ndarray:
    """Join-irreducibles of the lattice order L (meet-irreducibles of L.T): the
    j with some x < j whose down-set is one smaller, the greatest below j."""
    below = L.sum(axis=0)
    return np.flatnonzero((L & (below[:, None] + 1 == below)).any(axis=0))


@dataclass(frozen=True)
class SplitWitness:
    delta: int
    epsilon: int

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "epsilon": self.epsilon}


class FiniteLattice:
    """Bounded lattice on 0..size-1 given by its order relation.

    ``leq`` is the k x k bool order, ``bottom``, ``top`` and ``size`` are ints,
    and ``meet`` and ``join`` are k x k tables in the least dtype that holds k.
    ``meet`` checks leq (see _meets), so ``join`` is built when first read.
    """

    def __init__(self, leq):
        if not (isinstance(leq, np.ndarray) and leq.dtype == bool):
            rows = [list(row) for row in leq]
            if any(len(row) != len(rows) for row in rows):
                raise InvalidInputError("leq must be a square boolean matrix")
            for v in itertools.chain.from_iterable(rows):
                if not isinstance(v, (bool, np.bool_)):
                    raise InvalidInputError(f"leq entry is not a boolean: {v!r}")
            leq = np.array(rows, dtype=bool).reshape(len(rows), len(rows))
        L = np.array(leq)
        k = len(L)
        if L.shape != (k, k):
            raise InvalidInputError("leq must be a square boolean matrix")
        if k == 0:
            raise InvalidInputError("lattice must be nonempty")
        if not L.diagonal().all():
            raise InvalidInputError("order not reflexive")
        if (L & L.T & ~np.eye(k, dtype=bool)).any():
            raise InvalidInputError("order not antisymmetric")
        bottom, top = np.flatnonzero(L.all(axis=1)), np.flatnonzero(L.all(axis=0))
        if not (len(bottom) and len(top)):
            raise InvalidInputError("lattice is not bounded")
        self.size, self.leq = k, L
        self.bottom, self.top = int(bottom[0]), int(top[0])
        self.meet = _meets(L)

    @functools.cached_property
    def join(self) -> np.ndarray:
        return _meets(self.leq.T)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"size": self.size, "leq": self.leq.tolist()}

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteLattice":
        try:
            lat = FiniteLattice(data["leq"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed lattice JSON: {exc}") from exc
        if "size" in data and require_int(data["size"], "size") != lat.size:
            raise InvalidInputError(
                f"size {data['size']} does not match the {lat.size} rows of leq"
            )
        return lat

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


def from_congruences(congs) -> FiniteLattice:
    """Order a meet/join closed set of partitions of one size, holding the
    identity and the full relation, by refinement: Partitions, or the
    least-member rows of a 2-D array (congruence_rows).  Element i is the
    i-th distinct partition in block_id order, the order of
    all_congruences and of the rows of congruence_rows.

    a <= b iff b's labels are constant on a's blocks, i.e. B[b, least[a]]
    == B[b] for the least-member rows B, checked one row a at a time.
    Closure is checked on irreducibles only: b is the join of the
    join-irreducibles below it, so a v b is in the set for all a, b once
    a v j is for every join-irreducible j not below a; dually for meets with
    meet-irreducibles.
    """
    congs = congs if isinstance(congs, np.ndarray) else list(congs)
    if not len(congs):
        raise InvalidInputError("empty congruence set")
    # lexicographic order is block_id order
    rows = _distinct_rows(least_rows(congs, congs[0].size))
    k, n = rows.shape
    if rows[0].any() or (rows[-1] != np.arange(n)).any():
        raise InvalidInputError("congruence set lacks the identity or the full relation")
    leq = np.empty((k, k), dtype=bool)
    for s in _chunks(k, n):
        block = rows[s]
        for a in range(k):
            leq[a, s] = (block[:, rows[a]] == block).all(axis=1)
    try:
        lat = FiniteLattice(leq)
    except InvalidInputError as exc:
        raise InvalidInputError("congruence set is not meet/join closed") from exc
    present = {}
    _fresh(present, rows)
    for kernel, order in ((_join_rows, leq), (_meet_rows, leq.T)):
        for j in _join_irreducibles(order):
            others = np.flatnonzero(~order[j])
            for s in _chunks(len(others), n):
                pair = np.broadcast_to(rows[j], (len(others[s]), n))
                if _fresh(present, kernel(rows[others[s]], pair)):
                    raise InvalidInputError("congruence set is not meet/join closed")
    return lat


def congruence_lattice(alg, **kwargs):
    """(lattice, congruence list) for alg, with matching element indexing."""
    congs = alg.all_congruences(**kwargs)
    return from_congruences(congs), congs


def _split_witness(l: FiniteLattice, strong: bool):
    # epsilon ranges over the atoms, ascending: an atom below a witness
    # epsilon is a witness with the same delta.  delta_eps, the least upper
    # bound of the x with epsilon not <= x (and of epsilon, if strong), is
    # the upper bound with the fewest elements below it.
    L, below = l.leq, l.leq.sum(axis=0)
    for eps in np.flatnonzero(below == 2):
        outside = ~L[eps]
        outside[eps] = strong
        delta = int(np.where(L[outside].all(axis=0), below, l.size + 1).argmin())
        if delta != l.top:
            return SplitWitness(delta=delta, epsilon=int(eps))
    return None


def splits_strongly(l: FiniteLattice):
    """Witness for I[0,delta] u I[epsilon,1] = L with 0 < eps <= delta < 1:
    the first atom epsilon, by index, whose delta_eps (the join of epsilon
    and every x not above it) is below the top, and delta = delta_eps, the
    least delta that splits with it."""
    return _split_witness(l, strong=True)


def splits(l: FiniteLattice):
    """Like splits_strongly, but the subintervals need not overlap, and
    delta_eps leaves epsilon out of the join."""
    return _split_witness(l, strong=False)


def is_modular(l: FiniteLattice) -> bool:
    """a <= c  implies  a v (b ^ c) = (a v b) ^ c, for all triples; one row
    a at a time, over [b, c] for the c above a."""
    L, M, J = l.leq, l.meet, l.join
    return all(
        bool((J[a][M[:, L[a]]] == M[np.ix_(J[a], L[a])]).all()) for a in range(l.size)
    )


def transposes_up(l: FiniteLattice, a: int, b: int, c: int, d: int) -> bool:
    """True iff I[a,b] transposes up to I[c,d]: a = b ^ c and b v c = d."""
    if any(not 0 <= require_int(x, "element") < l.size for x in (a, b, c, d)):
        raise InvalidInputError(f"element outside the {l.size} elements of the lattice")
    if not (l.leq[a, b] and l.leq[c, d]):
        raise InvalidInputError("arguments do not form intervals")
    return bool(l.meet[b, c] == a and l.join[b, c] == d)


def lattice_product(ls) -> FiniteLattice:
    """Componentwise product; element encoding is row-major over the factors."""
    ls = list(ls)
    if not ls:
        raise InvalidInputError("empty lattice product")
    coords = _grid([l.size for l in ls])
    leq = np.ones((len(coords[0]),) * 2, dtype=bool)
    for l, x in zip(ls, coords):
        leq &= l.leq[np.ix_(x, x)]
    return FiniteLattice(leq)
