"""Arithmetic for multiplicative edge/vertex/path weights.

Weights live in a multiplicative group of positive reals.  Exact weights are
monomials ``prod g_i^(r_i)`` with rational exponents over the generators
declared in a :class:`GeneratorContext`; rational exponents keep square roots
inside the group.  Weights that are not monomials in the declared generators
use float mode, where equality is tolerance-based.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ContextMismatchError(ValueError):
    """Weights from different generator contexts were combined."""


class WeightFormatError(ValueError):
    """A weight text could not be parsed."""


@dataclass(frozen=True)
class GeneratorContext:
    """Declares the ambient group: named positive generators and a tolerance.

    The tolerance governs all float-mode comparisons: two values are equal
    when ``|v1 - v2| <= tolerance * max(v1, v2)``.
    """

    generators: tuple[tuple[str, float], ...]
    tolerance: float = 1e-9

    def __post_init__(self):
        gens = tuple((str(n), float(v)) for n, v in self.generators)
        object.__setattr__(self, "generators", gens)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique: %r" % (names,))
        for n, v in gens:
            if not _NAME_RE.match(n):
                raise ValueError("bad generator name %r" % n)
            if not (v > 0) or math.isinf(v):
                raise ValueError("generator %s must have a positive finite value" % n)
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    def value_of(self, name: str) -> float:
        for n, v in self.generators:
            if n == name:
                return v
        raise KeyError(name)

    def identity(self) -> "Weight":
        return Weight(self, (), 1.0)

    def exact(self, exponents: Mapping[str, Fraction | int] | None = None, **kw) -> "Weight":
        """Exact monomial weight from generator-name -> rational exponent."""
        exps: dict[str, Fraction] = {}
        for src in (exponents or {}), kw:
            for n, e in src.items():
                exps[n] = exps.get(n, Fraction(0)) + Fraction(e)
        order = {n: i for i, n in enumerate(self.names)}
        for n in exps:
            if n not in order:
                raise WeightFormatError("unknown generator %r" % n)
        items = tuple(
            (n, exps[n]) for n in sorted(exps, key=order.__getitem__) if exps[n] != 0
        )
        return Weight(self, items, _eval(items, self))

    def gen(self, name: str, power: Fraction | int = 1) -> "Weight":
        return self.exact({name: power})

    def float_weight(self, value: float) -> "Weight":
        value = float(value)
        if not (value > 0) or math.isinf(value):
            raise ValueError("weights must be positive finite reals, got %r" % value)
        return Weight(self, None, value)

    def close(self, v1: float, v2: float) -> bool:
        return abs(v1 - v2) <= self.tolerance * max(v1, v2)


def _eval(items, context: GeneratorContext) -> float:
    acc = 1.0
    for n, e in items:
        acc *= context.value_of(n) ** float(e)
    return acc


@dataclass(frozen=True)
class Weight:
    """A positive real, exact (monomial exponent vector) or float.

    Structural ``==``/``hash`` compare exponents (exact) or the raw value
    (float); use :meth:`eq` for the tolerance-aware comparison.
    """

    context: GeneratorContext
    exponents: tuple[tuple[str, Fraction], ...] | None  # None = float mode
    value: float

    @property
    def is_exact(self) -> bool:
        return self.exponents is not None

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"

    def _require_same_context(self, other: "Weight"):
        if self.context != other.context:
            raise ContextMismatchError(
                "weights belong to different generator contexts"
            )

    def __mul__(self, other: "Weight") -> "Weight":
        self._require_same_context(other)
        if self.is_exact and other.is_exact:
            if not other.exponents:
                return self
            if not self.exponents:
                return other
            # both exponent tuples are sorted by context order: merge directly
            order = {n: i for i, n in enumerate(self.context.names)}
            merged = []
            a, b = list(self.exponents), list(other.exponents)
            i = j = 0
            while i < len(a) and j < len(b):
                na, nb = a[i][0], b[j][0]
                if na == nb:
                    s = a[i][1] + b[j][1]
                    if s:
                        merged.append((na, s))
                    i += 1
                    j += 1
                elif order[na] < order[nb]:
                    merged.append(a[i])
                    i += 1
                else:
                    merged.append(b[j])
                    j += 1
            merged.extend(a[i:])
            merged.extend(b[j:])
            items = tuple(merged)
            return Weight(self.context, items, _eval(items, self.context))
        return self.context.float_weight(self.value * other.value)

    def inverse(self) -> "Weight":
        if self.is_exact:
            return self.context.exact({n: -e for n, e in self.exponents})
        return self.context.float_weight(1.0 / self.value)

    def __pow__(self, k) -> "Weight":
        if self.is_exact:
            return self.context.exact({n: e * Fraction(k) for n, e in self.exponents})
        return self.context.float_weight(self.value ** float(k))

    def sqrt(self) -> "Weight":
        if self.is_exact:
            return self.context.exact({n: e / 2 for n, e in self.exponents})
        return self.context.float_weight(math.sqrt(self.value))

    def eq(self, other: "Weight") -> bool:
        """Exact exponent comparison when both exact, else tolerance on value."""
        self._require_same_context(other)
        if self.is_exact and other.is_exact:
            return self.exponents == other.exponents
        return self.context.close(self.value, other.value)

    def is_identity(self) -> bool:
        if self.is_exact:
            return not self.exponents
        return self.context.close(self.value, 1.0)

    def key(self):
        """Deterministic sort/group key; exact and float keys never collide."""
        if self.is_exact:
            return ("e", self.exponents)
        return ("f", self.value)

    def text(self) -> str:
        if not self.is_exact:
            return format(self.value, ".17g")
        if not self.exponents:
            return "1"
        return " * ".join("%s^%s" % (n, e) for n, e in self.exponents)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        if self.context != other.context:
            return False
        if self.is_exact != other.is_exact:
            return False
        if self.is_exact:
            return self.exponents == other.exponents
        return self.value == other.value

    def __hash__(self):
        got = self.__dict__.get("_hash")
        if got is None:
            got = hash((self.exponents, None if self.is_exact else self.value))
            object.__setattr__(self, "_hash", got)
        return got

    def __repr__(self):
        return "Weight(%s)" % self.text()


def group_weights(weights: Iterable[Weight]) -> tuple[tuple[Weight, int], ...]:
    """Weights grouped by tolerance-aware equality, as (representative,
    multiplicity) pairs in ascending order of value."""
    groups: list[tuple[Weight, int]] = []
    for w in sorted(weights, key=lambda w: (w.value, w.key())):
        for i, (rep, m) in enumerate(groups):
            if rep.eq(w):
                groups[i] = (rep, m + 1)
                break
        else:
            groups.append((w, 1))
    return tuple(groups)


_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_weight(text: str, context: GeneratorContext) -> Weight:
    """Parse the serialized weight form.

    Exact weights look like ``q^2``, ``q^-1/2`` or ``a^1 * b^-1`` (generator
    names must be declared in the context); ``1`` is the identity.  Anything
    matching a plain decimal is a float weight.
    """
    text = text.strip()
    if not text:
        raise WeightFormatError("empty weight text")
    if text == "1":
        return context.identity()
    if _FLOAT_RE.match(text):
        try:
            return context.float_weight(float(text))
        except ValueError as exc:
            raise WeightFormatError(str(exc)) from exc
    exps: dict[str, Fraction] = {}
    for part in text.split("*"):
        part = part.strip()
        if not part:
            raise WeightFormatError("empty factor in weight %r" % text)
        name, sep, exp = part.partition("^")
        name = name.strip()
        if name not in context.names:
            raise WeightFormatError("unknown generator %r in weight %r" % (name, text))
        try:
            e = Fraction(exp.strip()) if sep else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise WeightFormatError("bad exponent in %r" % part) from exc
        exps[name] = exps.get(name, Fraction(0)) + e
    return context.exact(exps)


def _lattice_basis(rows: list[list[int]]) -> list[list[int]]:
    """Row-echelon basis (positive pivots) of the integer lattice the rows span."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    col = 0
    while rows and col < ncols:
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        if not live:
            rows = rest
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            if p[col] < 0:
                p = [-a for a in p]
            reduced = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col]:
                    reduced.append(rr)
                elif any(rr):
                    rest.append(rr)
            live = reduced
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-a for a in pivot]
        basis.append(pivot)
        rows = rest
        col += 1
    # back-reduce entries above later pivots into [0, pivot)
    pivots = [next(c for c in range(ncols) if row[c]) for row in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = pivots[j]
            q = basis[i][c] // basis[j][c]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return basis


def reduce_generators(
    weights: Iterable[Weight], context: GeneratorContext
) -> tuple[Weight, ...]:
    """Minimal generating set for the group generated by ``weights``.

    Exact mode reduces the exponent vectors to a lattice basis, so e.g.
    ``{x, x^-1, x^2}`` collapses to ``(x,)``.  Float mode falls back to
    tolerance deduplication, keeping the >1 member of each inverse pair and
    dropping values indistinguishable from 1.
    """
    ws = list(weights)
    if all(w.is_exact for w in ws):
        names = context.names
        vecs = []
        for w in ws:
            exps = dict(w.exponents)
            vecs.append([exps.get(n, Fraction(0)) for n in names])
        denom = 1
        for v in vecs:
            for e in v:
                denom = denom * e.denominator // math.gcd(denom, e.denominator)
        int_rows = [[int(e * denom) for e in v] for v in vecs]
        basis = _lattice_basis(int_rows)
        gens = []
        for row in basis:
            gens.append(
                context.exact({n: Fraction(a, denom) for n, a in zip(names, row)})
            )
        return tuple(gens)
    # float path: dedupe by tolerance on sorted values
    reps: list[float] = []
    for v in sorted(w.value for w in ws):
        v = v if v >= 1.0 else 1.0 / v
        if context.close(v, 1.0):
            continue
        if not any(context.close(v, r) for r in reps):
            reps.append(v)
    return tuple(context.float_weight(v) for v in reps)
