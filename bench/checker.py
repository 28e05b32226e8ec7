"""Independent checker for the benchmark's outputs.

It shares no code with ``nakct``: an algebra is just a kind and a Kupisch
series, and everything below is derived from those two values.

* A module is a pair (a, b): the uniserial with socle at vertex a and top at
  vertex b, in integer coordinates; over a cyclic algebra on m vertices,
  (a + m, b + m) is the same module, and ``norm`` puts a into 1..m.
* The modules are the quotients of the projectives: (b - t + 1, b) for each
  top b and each length 1 <= t <= c_b.
* A module is projective when it cannot grow at its socle end and injective
  when it cannot grow at its top end.
* Hom between uniserials counts the possible images: a common quotient of the
  source and submodule of the target, one for each length t with the top of
  the target's length-t submodule at the source's top vertex.
* Ext comes from dimension shifting, Ext^k(X, N) = Ext^1(Omega^(k-1) X, N),
  with Ext^1(Y, N) = hom(Omega Y, N) - hom(P(Y), N) + hom(Y, N) read off the
  long exact Hom sequence of 0 -> Omega Y -> P(Y) -> Y -> 0.

The benchmark checks the library's answers against these functions; the
self-test (``selftest.py``) shows on small algebras that the two agree.
"""

from __future__ import annotations

from math import gcd


class Nakayama:
    """A connected Nakayama algebra given by kind and Kupisch series."""

    def __init__(self, kind: str, kupisch):
        if kind not in ("acyclic", "cyclic"):
            raise ValueError(f"unknown kind {kind!r}")
        self.cyclic = kind == "cyclic"
        self.c = tuple(kupisch)
        self.m = len(self.c)
        self._omega = {}

    def entry(self, v: int) -> int:
        """Kupisch entry (length of the projective) at vertex v."""
        return self.c[(v - 1) % self.m]

    def norm(self, a: int, b: int) -> tuple[int, int]:
        if not self.cyclic:
            return a, b
        shift = (a - 1) // self.m * self.m
        return a - shift, b - shift

    def is_module(self, a: int, b: int) -> bool:
        if a > b:
            return False
        if not self.cyclic and (a < 1 or b > self.m):
            return False
        return b - a + 1 <= self.entry(b)

    def modules(self) -> list[tuple[int, int]]:
        out = set()
        for b in range(1, self.m + 1):
            for t in range(1, self.entry(b) + 1):
                out.add(self.norm(b - t + 1, b))
        return sorted(out)

    def is_projective(self, x) -> bool:
        a, b = x
        return not self.is_module(a - 1, b)

    def is_injective(self, x) -> bool:
        a, b = x
        return not self.is_module(a, b + 1)

    def cover(self, x) -> tuple[int, int]:
        b = x[1]
        return self.norm(b - self.entry(b) + 1, b)

    def omega(self, x):
        """First syzygy, or None when x is projective."""
        if x not in self._omega:
            a, b = x
            self._omega[x] = None if self.is_projective(x) else self.norm(b - self.entry(b) + 1, a - 1)
        return self._omega[x]

    def omega_power(self, x, k: int):
        for _ in range(k):
            if x is None:
                return None
            x = self.omega(x)
        return x

    def hom(self, x, y) -> int:
        a, b = x
        c, d = y
        count = 0
        for t in range(1, min(b - a, d - c) + 2):
            top = c + t - 1
            if (b - top) % self.m == 0 if self.cyclic else b == top:
                count += 1
        return count

    def ext(self, x, y, k: int) -> int:
        z = self.omega_power(x, k - 1)
        if z is None:
            return 0
        w = self.omega(z)
        value = (self.hom(w, y) if w is not None else 0) - self.hom(self.cover(z), y) + self.hom(z, y)
        if value < 0:
            raise ArithmeticError(f"negative Ext^1 dimension for {z}, {y}")
        return value

    def ext_upto(self, x, y, kmax: int) -> tuple[int, ...]:
        return tuple(self.ext(x, y, k) for k in range(1, kmax + 1))

    # -- resolution quiver and the Frobenius part ---------------------------

    def resolution_successor(self) -> dict[int, int]:
        """i -> the vertex of tau(soc P_i); absent when soc P_i is projective."""
        succ = {}
        for i in range(1, self.m + 1):
            socle = i - self.entry(i) + 1
            if not self.cyclic and socle == 1:
                continue
            succ[i] = (socle - 2) % self.m + 1
        return succ

    def cyclic_vertices(self) -> set[int]:
        """Vertices on a cycle of the resolution quiver: those that return to
        themselves after at most m steps."""
        succ = self.resolution_successor()
        out = set()
        for start in succ:
            v = start
            for _ in range(self.m):
                v = succ.get(v)
                if v is None:
                    break
                if v == start:
                    out.add(start)
                    break
        return out

    def f_objects(self) -> set[tuple[int, int]]:
        """Modules whose top and tau of socle are cyclic vertices."""
        cyc = self.cyclic_vertices()
        return {
            x
            for x in self.modules()
            if (x[1] - 1) % self.m + 1 in cyc and (x[0] - 2) % self.m + 1 in cyc
        }


def verify(alg: Nakayama, members, n: int, mode: str) -> str | None:
    """None when ``members`` is an n- (mode "n") or nZ-cluster tilting
    subcategory, else the first reason it is not."""
    members = {tuple(x) for x in members}
    ground = alg.modules()
    ground_set = set(ground)
    if not members <= ground_set:
        return f"not modules: {sorted(members - ground_set)[:3]}"
    for x in ground:
        if (alg.is_projective(x) or alg.is_injective(x)) and x not in members:
            return f"missing projective or injective {x}"
    kmax = n - 1
    nonzero = {}

    def hit(x, y) -> bool:
        key = (x, y)
        if key not in nonzero:
            nonzero[key] = any(alg.ext(x, y, k) for k in range(1, kmax + 1))
        return nonzero[key]

    ordered = sorted(members)
    for x in ordered:
        for y in ordered:
            if hit(x, y):
                return f"Ext between members {x}, {y}"
    for z in ground:
        if z in members:
            continue
        if not any(hit(x, z) for x in ordered):
            return f"{z} is Ext-orthogonal to the subcategory from the left"
        if not any(hit(z, x) for x in ordered):
            return f"{z} is Ext-orthogonal to the subcategory from the right"
    if mode == "nZ":
        for x in ordered:
            if alg.is_projective(x):
                continue
            image = alg.omega_power(x, n)
            if image is not None and image not in members:
                return f"Omega^{n} {x} = {image} is not a member"
    return None


def is_homogeneous(kind: str, c) -> int | None:
    """The Loewy length l when the relations are all paths of length l."""
    if kind == "cyclic":
        return c[0] if len(set(c)) == 1 else None
    l = max(c)
    if l >= 2 and all(x == min(j, l) for j, x in enumerate(c, start=1)):
        return l
    return None


def homogeneous_series(kind: str, m: int, l: int) -> tuple[int, ...]:
    if kind == "cyclic":
        return (l,) * m
    return tuple(min(j, l) for j in range(1, m + 1))


def homogeneous_admits_n_ct(kind: str, m: int, l: int, n: int) -> bool:
    """Existence of an n-cluster tilting subcategory over the homogeneous
    algebra (kind, m, l), by the theorem's divisibility conditions: with
    d = l(n - 1) + 2, the line needs l = 2 and n | m - 1, or n even and
    d | m - 1 - nl/2; the cycle needs d | 2m or d | gcd(n + 1, 2(l - 1)) m."""
    d = l * (n - 1) + 2
    if kind == "acyclic":
        if l == 2 and (m - 1) % n == 0:
            return True
        return n % 2 == 0 and (m - 1 - n * l // 2) % d == 0
    return (2 * m) % d == 0 or (gcd(n + 1, 2 * (l - 1)) * m) % d == 0


def canonical_rotation(kind: str, c) -> tuple[int, ...]:
    """Smallest rotation of a cyclic series (relabelling invariant)."""
    c = tuple(c)
    if kind != "cyclic":
        return c
    return min(c[s:] + c[:s] for s in range(len(c)))
