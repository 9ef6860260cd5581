"""Finite set algebras of n-tuples over a small base.

Elements are subsets of a unit V ⊆ {0..k-1}^n, stored as integer bitmasks
indexed by the little-endian point index (coordinate 0 is the least
significant digit).  The unit must be closed under the right action of the
mode's generators ("locally square"), which makes substitution by preimage
well-defined inside V.
"""

from .monoid import (
    DIM_LIMIT,
    GenSym,
    NotGenerated,
    Transformation,
    apply_point,
    canonical_word,
    enumerate_monoid,
    generators,
    has_diagonals,
    normalize_mode,
)


def point_index(q, k):
    idx = 0
    for pos in range(len(q) - 1, -1, -1):
        idx = idx * k + q[pos]
    return idx


def point_coords(idx, n, k):
    out = []
    for _ in range(n):
        out.append(idx % k)
        idx //= k
    return tuple(out)


class NotLocallySquare(ValueError):
    """The would-be unit is not closed under some generator's action."""

    def __init__(self, point, sym):
        self.point = point
        self.sym = sym
        super().__init__(
            "unit is not closed: point %r leaves under %s" % (point, sym.token())
        )


def _closure_witness(n, k, unit_mask, mode):
    num = k**n
    for g in generators(n, mode):
        gt = g.tr(n)
        for p in range(num):
            if unit_mask >> p & 1:
                q = point_coords(p, n, k)
                if not unit_mask >> point_index(apply_point(q, gt), k) & 1:
                    return q, g
    return None


def is_locally_square(n, k, unit_mask, mode="full"):
    """None if closed under the mode's generator actions, else a witness
    (point, generator)."""
    return _closure_witness(n, k, unit_mask, normalize_mode(mode))


class ConcreteAlgebra:
    """℘(V) for a locally square V ⊆ ⁿk, with substitution by preimage."""

    def __init__(self, n, k, mode="full", unit=None, validate=True):
        self.n = n
        self.k = k
        self.mode = normalize_mode(mode)
        self.num_points = k**n
        if unit is None:
            unit = (1 << self.num_points) - 1 if self.num_points else 0
        self.unit = unit
        self.zero = 0
        self.one = unit
        self.unit_points = [p for p in range(self.num_points) if unit >> p & 1]
        if validate:
            witness = _closure_witness(n, k, unit, self.mode)
            if witness is not None:
                raise NotLocallySquare(*witness)
        self._tables = {}
        self._diag = {}

    # ---- Boolean structure ----

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b

    def compl(self, a):
        return self.unit ^ a

    # ---- substitution ----

    def _table_for(self, tau):
        """Where each point of the unit moves under tau, keyed by point."""
        tab = self._tables.get(tau)
        if tab is None:
            n, k = self.n, self.k
            tab = {
                p: point_index(apply_point(point_coords(p, n, k), tau), k)
                for p in self.unit_points
            }
            self._tables[tau] = tab
        return tab

    def subst(self, g, x):
        """S_g(x) = {q in V : q∘g in x}; g a generator symbol or any
        transformation of the mode's monoid."""
        if isinstance(g, GenSym):
            tau = g.tr(self.n)
        else:
            canonical_word(g, self.mode)  # raises NotGenerated outside the monoid
            tau = g
        tab = self._table_for(tau)
        out = 0
        for p in self.unit_points:
            if x >> tab[p] & 1:
                out |= 1 << p
        return out

    def diag(self, i, j):
        if not has_diagonals(self.mode):
            raise ValueError("diagonal elements need full_diagonal mode")
        key = (min(i, j), max(i, j))
        mask = self._diag.get(key)
        if mask is None:
            mask = 0
            for p in self.unit_points:
                q = point_coords(p, self.n, self.k)
                if q[i] == q[j]:
                    mask |= 1 << p
            self._diag[key] = mask
        return mask

    # ---- enumeration ----

    def size(self):
        return 1 << len(self.unit_points)

    def atoms(self):
        return [1 << p for p in self.unit_points]

    def elements(self, limit=20):
        pts = self.unit_points
        if len(pts) > limit:
            raise ValueError("too many elements to enumerate (2^%d)" % len(pts))
        out = []
        for bits in range(1 << len(pts)):
            m = 0
            b = bits
            i = 0
            while b:
                if b & 1:
                    m |= 1 << pts[i]
                b >>= 1
                i += 1
            out.append(m)
        return out

    def random_element(self, rng):
        pts = self.unit_points
        if not pts:
            return 0
        bits = rng.getrandbits(len(pts))
        m = 0
        for i, p in enumerate(pts):
            if bits >> i & 1:
                m |= 1 << p
        return m

    def __repr__(self):
        return "ConcreteAlgebra(n=%d, k=%d, mode=%s, |V|=%d)" % (
            self.n, self.k, self.mode, len(self.unit_points))


def small_algebra(n, k, mode="full", budget=10**6):
    """A_nk: the full set algebra over every point of ⁿk."""
    if k**n > budget:
        raise ValueError("point space %d exceeds budget" % (k**n,))
    return ConcreteAlgebra(n, k, mode, validate=False)


def make_relativized(n, k, unit, mode="full", budget=10**6):
    """℘(V) for V given as a bitmask or an iterable of point indices."""
    if k**n > budget:
        raise ValueError("point space %d exceeds budget" % (k**n,))
    if not isinstance(unit, int):
        mask = 0
        for p in unit:
            mask |= 1 << p
        unit = mask
    return ConcreteAlgebra(n, k, mode, unit=unit, validate=True)


def diag_element(algebra, i, j):
    return algebra.diag(i, j)


def relativization_hom(algebra, unit):
    """The map x ↦ x ∩ V from a concrete algebra onto its relativization.

    Returns (B, report), the report being the exact certificate of
    represent.hom_report for this bit gather.
    """
    from .represent import hom_report

    B = make_relativized(algebra.n, algebra.k, unit, algebra.mode)
    pts = B.unit_points
    return B, hom_report(algebra, B, lambda x: x & B.unit, gather=(pts, pts))


def generate_subalgebra(algebra, gens, budget=1 << 16):
    """Closure of gens ∪ {0,1} under meet, complement, and substitution."""
    els = {algebra.zero, algebra.one}
    els.update(gens)
    gsyms = generators(algebra.n, algebra.mode)
    if has_diagonals(algebra.mode):
        for i in range(algebra.n):
            for j in range(i + 1, algebra.n):
                els.add(algebra.diag(i, j))
    frontier = list(els)
    while frontier:
        fresh = []
        for x in frontier:
            cands = [algebra.compl(x)]
            cands.extend(algebra.subst(g, x) for g in gsyms)
            cands.extend(algebra.meet(x, y) for y in list(els))
            for c in cands:
                if c not in els:
                    els.add(c)
                    fresh.append(c)
                    if len(els) > budget:
                        raise ValueError("subalgebra closure exceeds budget")
        frontier = fresh
    return sorted(els)


def substitution_orbit(algebra, xs):
    """All s_τ(x) for τ in the mode's monoid and x among xs."""
    out = set()
    for tau in enumerate_monoid(algebra.n, algebra.mode):
        for x in xs:
            out.add(algebra.subst(tau, x))
    return sorted(out)


def boolean_closure(algebra, seeds, limit=20):
    """All Boolean combinations of the seed elements (with 0 and 1)."""
    atoms = algebra.atoms()
    regions = {}
    for a in atoms:
        key = tuple(1 if algebra.meet(a, s) == a else 0 for s in seeds)
        regions[key] = regions.get(key, algebra.zero) | a
    parts = sorted(regions.values())
    if len(parts) > limit:
        raise ValueError("too many regions to enumerate (2^%d)" % len(parts))
    out = []
    for bits in range(1 << len(parts)):
        m = algebra.zero
        for i, r in enumerate(parts):
            if bits >> i & 1:
                m |= r
        out.append(m)
    return sorted(set(out))


def subalgebra_size_bound(n, m):
    """Upper bound 2^(2^(m·n^n)) on an m-generated subalgebra's size."""
    return 2 ** (2 ** (m * n**n))


class Subalgebra:
    """A subuniverse of another algebra handle, sharing its operations."""

    def __init__(self, parent, elements):
        self.parent = parent
        self.universe = sorted(set(elements))
        self.n = parent.n
        self.mode = parent.mode
        self.zero = parent.zero
        self.one = parent.one
        if self.zero not in self.universe or self.one not in self.universe:
            raise ValueError("subuniverse must contain 0 and 1")

    def meet(self, a, b):
        return self.parent.meet(a, b)

    def join(self, a, b):
        return self.parent.join(a, b)

    def compl(self, a):
        return self.parent.compl(a)

    def subst(self, g, x):
        return self.parent.subst(g, x)

    def diag(self, i, j):
        return self.parent.diag(i, j)

    def size(self):
        return len(self.universe)

    def elements(self, limit=None):
        return list(self.universe)

    def atoms(self):
        nonzero = [x for x in self.universe if x != self.zero]
        out = []
        for x in nonzero:
            if not any(y != x and self.meet(x, y) == y for y in nonzero):
                out.append(x)
        return out

    def random_element(self, rng):
        return rng.choice(self.universe)

    def __repr__(self):
        return "Subalgebra(%d elements of %r)" % (len(self.universe), self.parent)


def algebra_to_json(algebra):
    return {
        "n": algebra.n,
        "k": algebra.k,
        "mode": algebra.mode,
        "unit": list(algebra.unit_points),
    }


def _int_in(value, lo, hi):
    return (isinstance(value, int) and not isinstance(value, bool)
            and lo <= value <= hi)


def json_int(data, key, lo, hi):
    """data[key] as an int in [lo, hi]; ValueError for anything else."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    if not _int_in(data.get(key), lo, hi):
        raise ValueError("field %r must be an integer in [%d, %d], got %r"
                         % (key, lo, hi, data.get(key)))
    return data[key]


def json_ints(values, lo, hi, what):
    """A JSON list of ints in [lo, hi], as a tuple; ValueError otherwise."""
    if not isinstance(values, list) or not all(
            _int_in(v, lo, hi) for v in values):
        raise ValueError("%s must be a list of integers in [%d, %d]"
                         % (what, lo, hi))
    return tuple(values)


def algebra_from_json(data):
    """A ConcreteAlgebra from algebra_to_json's format, rejecting any
    malformed field and any unit point outside ⁿk."""
    n = json_int(data, "n", 1, DIM_LIMIT)
    k = json_int(data, "k", 0, 10**6)
    if k**n > 10**6:
        raise ValueError("point space %d exceeds budget" % (k**n,))
    mask = 0
    for p in json_ints(data.get("unit"), 0, k**n - 1, "unit"):
        mask |= 1 << p
    return ConcreteAlgebra(n, k, data.get("mode", "full"), unit=mask)
