"""Exact linear algebra over the coefficient fields.

RowSpace keeps a growing span of vectors in reduced row echelon form.  Rows
stay fully reduced and pivot-monic, so the row set is a canonical basis of
the span no matter the insertion order, which makes spans usable as search
states.  A span holds one of two row kinds:

- dict rows, RowSpace(field): sparse {column: coeff} vectors whose column
  keys are coordinate indices; the pivot is the largest column.
- packed rows over F_2, from RowSpace.coordinates(field): a vector is an int
  read as a bit vector, bit i being coordinate i.  The pivot is the highest
  set bit, and reduction XORs in the rows whose pivot bits are set
  (Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS 37, 2010, on GF(2)
  linear algebra in machine words).

RowSpace.coordinates picks the kind from the field: packed over F_2, dict
rows with integer columns over any other field.  Both kinds give the same
span, the same pivots and the same rows, read through the vector map.  Both
kinds key a span as the set of its reduced rows (RowSpace.key), so the key
needs no sort.
"""

from __future__ import annotations

from .config import check_budget


class RowSpace:
    """A span in reduced row echelon form, as dict rows or packed F_2 rows.

    rows maps each pivot to its row.  Dict rows are keyed by the pivot
    column and carry coefficient 1 there; packed rows are keyed by the pivot
    bit (1 << column), and mask is the OR of those bits.  Every method takes
    and returns vectors of the span's own kind.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}
        self.packed = False
        self.mask = 0

    @classmethod
    def coordinates(cls, field) -> "RowSpace":
        """An empty span of coordinate vectors: packed over F_2, else dict
        rows keyed by coordinate index."""
        space = cls(field)
        space.packed = field.size == 2
        return space

    def copy(self) -> "RowSpace":
        out = RowSpace(self.field)
        if self.packed:
            out.packed = True
            out.mask = self.mask
            out.rows = dict(self.rows)
        else:
            out.rows = {p: dict(r) for p, r in self.rows.items()}
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec modulo the span (fresh; zero or empty iff contained)."""
        # rows are fully reduced, so one pass over pivot hits suffices
        if self.packed:
            rows = self.rows
            hits = vec & self.mask
            while hits:
                low = hits & -hits
                vec ^= rows[low]
                hits ^= low
            return vec
        F = self.field
        out = dict(vec)
        hits = [k for k in out if k in self.rows]
        for hit in hits:
            c = out.pop(hit)
            for col, rc in self.rows[hit].items():
                if col == hit:
                    continue
                s = F.sub(out.get(col, F.zero), F.mul(c, rc))
                if s == F.zero:
                    out.pop(col, None)
                else:
                    out[col] = s
        return out

    def insert(self, vec):
        """Add vec to the span.  Returns the new reduced row, or None."""
        if self.packed:
            # reduce, inlined: the search spends most of its time in insert
            rows = self.rows
            hits = vec & self.mask
            while hits:
                low = hits & -hits
                vec ^= rows[low]
                hits ^= low
            if not vec:
                return None
            pivot = 1 << (vec.bit_length() - 1)
            for p, row in rows.items():
                if row & pivot:
                    rows[p] = row ^ vec
            rows[pivot] = vec
            self.mask |= pivot
            return vec
        F = self.field
        red = self.reduce(vec)
        if not red:
            return None
        pivot = max(red)
        inv = F.inv(red[pivot])
        if inv != F.one:
            red = {k: F.mul(inv, v) for k, v in red.items()}
        for p, row in self.rows.items():
            c = row.get(pivot)
            if c is None:
                continue
            for col, rc in red.items():
                s = F.sub(row.get(col, F.zero), F.mul(c, rc))
                if s == F.zero:
                    row.pop(col, None)
                else:
                    row[col] = s
        self.rows[pivot] = red
        return red

    def close(self, vecs, images) -> None:
        """Insert vecs, then close the span under images, in place.

        images(row) yields the vectors the span must contain along with row
        (its images under every action); it gets a copy of each new row, last
        in first out.  Later inserts back-substitute into stored dict rows,
        so the worklist keeps copies of those (packed rows are immutable
        ints); mutated rows differ from their processed versions by multiples
        of rows that are themselves queued, which keeps the closure argument
        linear.
        """
        # plain loops: a comprehension here costs the quasilength search
        # about 1.5% wall time on CPython 3.11, which runs it as a call
        insert = self.insert
        fresh = int if self.packed else dict
        work = []
        for vec in vecs:
            row = insert(vec)
            if row:
                work.append(fresh(row))
        while work:
            for img in images(work.pop()):
                added = insert(img)
                if added:
                    work.append(fresh(added))

    def pivots(self) -> list:
        """Pivots, largest first: columns for dict rows, bits for packed."""
        return sorted(self.rows, reverse=True)

    def basis(self) -> list:
        return [self.rows[p] for p in self.pivots()]

    def key(self):
        """Canonical hashable snapshot of the span: the set of its reduced
        rows, which the span determines whatever the insertion order."""
        if self.packed:
            return frozenset(self.rows.values())
        return frozenset(frozenset(row.items()) for row in self.rows.values())


# ---------------------------------------------------------------------------
# dense helpers (coordinate vectors as lists, matrices as list-of-rows).
# mat_mul checks that module actions commute.  No engine code calls
# nullspace or mat_vec: the benchmark tracer (bench/tracer.py, TARGETS)
# wraps both by name, and the tests use nullspace as the dense reference
# for the RowSpace colon of the quasilength search.


def mat_vec(field, A, v):
    F = field
    out = []
    for row in A:
        s = F.zero
        for a, x in zip(row, v):
            if a != F.zero and x != F.zero:
                s = F.add(s, F.mul(a, x))
        out.append(s)
    return out


def mat_mul(field, A, B):
    F = field
    m = len(B[0]) if B else 0
    out = [[F.zero] * m for _ in A]
    for row, orow in zip(A, out):
        check_budget()
        for k, a in enumerate(row):
            if a == F.zero:
                continue
            brow = B[k]
            for j in range(m):
                b = brow[j]
                if b != F.zero:
                    orow[j] = F.add(orow[j], F.mul(a, b))
    return out


def nullspace(field, rows, ncols) -> list[list]:
    """Basis of {v : M v = 0}; canonical (one basis vector per free column,
    free coordinate set to 1, in increasing column order)."""
    F = field
    m = [list(r) for r in rows if any(c != F.zero for c in r)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(m)):
            if m[i][col] != F.zero:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = F.inv(m[r][col])
        if inv != F.one:
            m[r] = [F.mul(inv, c) for c in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != F.zero:
                c = m[i][col]
                m[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * ncols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(m[i][fc])
        basis.append(v)
    return basis
