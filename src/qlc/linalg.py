"""Exact linear algebra over the coefficient fields.

RowSpace keeps a growing span of sparse vectors in reduced row echelon form;
column keys are arbitrary hashable values (monomials during module spins,
integers for coordinate vectors), compared through a key function.  Because
rows stay fully reduced and pivot-monic, the row set is a canonical basis of
the span no matter the insertion order, which makes spans usable as search
states.
"""

from __future__ import annotations


class RowSpace:
    def __init__(self, field, colkey=None):
        self.field = field
        self.colkey = colkey if colkey is not None else lambda k: k
        self.rows: dict = {}  # pivot column -> {column: coeff}, pivot coeff 1

    def copy(self) -> "RowSpace":
        out = RowSpace(self.field, self.colkey)
        out.rows = {p: dict(r) for p, r in self.rows.items()}
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo the span (fresh dict; empty iff contained)."""
        F = self.field
        out = dict(vec)
        # rows are fully reduced, so one pass over pivot hits suffices
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

    def insert(self, vec: dict):
        """Add vec to the span.  Returns the new reduced row, or None."""
        F = self.field
        red = self.reduce(vec)
        if not red:
            return None
        pivot = max(red, key=self.colkey)
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
        in first out.  Later inserts back-substitute into stored rows, so the
        worklist keeps copies; mutated rows differ from their processed
        versions by multiples of rows that are themselves queued, which keeps
        the closure argument linear.
        """
        # plain loops: a comprehension here costs the quasilength search
        # about 1.5% wall time on CPython 3.11, which runs it as a call
        work = []
        for vec in vecs:
            row = self.insert(vec)
            if row:
                work.append(dict(row))
        while work:
            for img in images(work.pop()):
                added = self.insert(img)
                if added:
                    work.append(dict(added))

    def pivots(self) -> list:
        return sorted(self.rows, key=self.colkey, reverse=True)

    def basis(self) -> list[dict]:
        return [self.rows[p] for p in self.pivots()]

    def key(self) -> tuple:
        """Canonical hashable snapshot of the span."""
        items = []
        for p in self.pivots():
            row = self.rows[p]
            items.append(tuple(sorted(row.items(), key=lambda kv: self.colkey(kv[0]))))
        return tuple(items)


# ---------------------------------------------------------------------------
# dense helpers (coordinate vectors as lists, matrices as list-of-rows)


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


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
    n = len(A)
    m = len(B[0]) if B else 0
    out = [[F.zero] * m for _ in range(n)]
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            if a == F.zero:
                continue
            brow = B[k]
            orow = out[i]
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
