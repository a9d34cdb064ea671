"""Exact sparse multivariate polynomials over the rationals.

A monomial is a tuple of non-negative exponents indexed by the variable
list of a RingContext.  Polynomials are immutable sparse maps from
exponent tuples to nonzero Fractions.  No floats anywhere: every
coefficient is an exact rational.

The module also hosts the plain-text ideal format used by the CLI::

    # optional comments
    ring: x, y, z
    weights: 2, 0, -2
    gens:
    x*z - y^2
    3/4*x - y

Rationals are written p/q, powers with ^, and * is mandatory between
factors.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True when the monomial a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """Exponent vector of a/b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Exponents) -> int:
    return sum(a)


class RingContext:
    """Variable names, in order, with optional integer torus weights."""

    __slots__ = ("variables", "weights", "_index")

    def __init__(self, variables: Sequence[str], weights: Sequence[int] | None = None):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring context needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for name in variables:
            if not name or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"bad variable name {name!r}")
        if weights is not None:
            weights = tuple(int(w) for w in weights)
            if len(weights) != len(variables):
                raise ValueError("weights must match the variable count")
        self.variables = variables
        self.weights = weights
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero_exponents(self) -> Exponents:
        return (0,) * self.nvars

    def monomial_weight(self, exps: Exponents) -> int:
        if self.weights is None:
            raise ValueError("ring context has no weights")
        return sum(w * e for w, e in zip(self.weights, exps))

    # constructors ---------------------------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self.zero_exponents(): Fraction(1)})

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {self.zero_exponents(): Fraction(c)})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(v) for v in self.variables)

    def monomial(self, exps: Exponents, coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): Fraction(coeff)})

    def extended(self, name: str, weight: int = 0) -> "RingContext":
        """New context with one extra variable appended."""
        weights = None if self.weights is None else self.weights + (weight,)
        return RingContext(self.variables + (name,), weights)

    def restricted(self, keep: Sequence[int]) -> "RingContext":
        names = tuple(self.variables[i] for i in keep)
        weights = None if self.weights is None else tuple(self.weights[i] for i in keep)
        return RingContext(names, weights)

    def fresh_name(self, stem: str = "t") -> str:
        if stem not in self._index:
            return stem
        k = 0
        while f"{stem}{k}" in self._index:
            k += 1
        return f"{stem}{k}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingContext)
            and self.variables == other.variables
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.weights))

    def __repr__(self) -> str:
        if self.weights is None:
            return f"RingContext({', '.join(self.variables)})"
        ws = ", ".join(f"{v}:{w}" for v, w in zip(self.variables, self.weights))
        return f"RingContext({ws})"


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """Total multiplicative well-ordering given by a sort key on exponents.

    Larger key means larger monomial.
    """

    def key(self, exps: Exponents):
        raise NotImplementedError

    def greater(self, a: Exponents, b: Exponents) -> bool:
        return self.key(a) > self.key(b)

    def sort_desc(self, monomials: Iterable[Exponents]) -> list[Exponents]:
        return sorted(monomials, key=self.key, reverse=True)


class LexOrder(MonomialOrder):
    def key(self, exps: Exponents):
        return exps

    def __repr__(self):
        return "lex"

    def __eq__(self, other):
        return isinstance(other, LexOrder)

    def __hash__(self):
        return hash("lex")


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic order."""

    def key(self, exps: Exponents):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def __repr__(self):
        return "grevlex"

    def __eq__(self, other):
        return isinstance(other, GrevlexOrder)

    def __hash__(self):
        return hash("grevlex")


class WeightedOrder(MonomialOrder):
    """Weight vector first, ties broken by another order.

    Weights must be non-negative, otherwise 1 would not be minimal and
    division would not terminate.
    """

    def __init__(self, weights: Sequence[int], tiebreak: MonomialOrder):
        self.weights = tuple(int(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise ValueError("order weights must be non-negative")
        self.tiebreak = tiebreak

    def key(self, exps: Exponents):
        return (sum(w * e for w, e in zip(self.weights, exps)), self.tiebreak.key(exps))

    def __repr__(self):
        return f"weighted({self.weights}, {self.tiebreak!r})"

    def __eq__(self, other):
        return (
            isinstance(other, WeightedOrder)
            and self.weights == other.weights
            and self.tiebreak == other.tiebreak
        )

    def __hash__(self):
        return hash(("weighted", self.weights, self.tiebreak))


class BlockOrder(MonomialOrder):
    """Compare variable groups in sequence, each with its own inner order.

    The first group dominates, so a block order with group ``(i,)`` in
    front eliminates variable i.
    """

    def __init__(self, groups: Sequence[Sequence[int]], inners: Sequence[MonomialOrder]):
        groups = tuple(tuple(g) for g in groups)
        if len(groups) != len(inners):
            raise ValueError("one inner order per group")
        if not groups or any(not g for g in groups):
            raise ValueError("groups must be nonempty")
        seen: set[int] = set()
        for g in groups:
            if seen & set(g):
                raise ValueError("groups must be disjoint")
            seen |= set(g)
        self.groups = groups
        self.inners = tuple(inners)

    def key(self, exps: Exponents):
        return tuple(
            inner.key(tuple(exps[i] for i in group))
            for group, inner in zip(self.groups, self.inners)
        )

    def __repr__(self):
        return f"block({self.groups}, {self.inners!r})"

    def __eq__(self, other):
        return (
            isinstance(other, BlockOrder)
            and self.groups == other.groups
            and self.inners == other.inners
        )

    def __hash__(self):
        return hash(("block", self.groups, self.inners))


LEX = LexOrder()
GREVLEX = GrevlexOrder()


def block_split(nvars: int, split: int, first: MonomialOrder = GREVLEX,
                second: MonomialOrder = GREVLEX) -> BlockOrder:
    """Block order splitting the variable list at position ``split``."""
    if not 0 < split < nvars:
        raise ValueError("split must leave both blocks nonempty")
    return BlockOrder((tuple(range(split)), tuple(range(split, nvars))), (first, second))


def elimination_order(nvars: int, eliminate: Sequence[int]) -> BlockOrder:
    """Order whose dominant block is the variables to eliminate."""
    elim = tuple(sorted(set(eliminate)))
    keep = tuple(i for i in range(nvars) if i not in elim)
    if not elim or not keep:
        raise ValueError("elimination needs a proper nonempty variable subset")
    return BlockOrder((elim, keep), (GREVLEX, GREVLEX))


def variable_last_order(nvars: int, last: int) -> BlockOrder:
    """Graded order in which the given variable is revlex-cheapest.

    Used by the saturation fast path: for a standard-homogeneous
    polynomial the lead term is divisible by the last variable only if
    the whole polynomial is.  With no other variable it is the one
    order of a one-variable ring.
    """
    rest = tuple(i for i in range(nvars) if i != last)
    if not rest:
        return BlockOrder(((last,),), (LEX,))
    return BlockOrder((rest, (last,)), (GREVLEX, LEX))


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("context", "terms", "_hash")

    def __init__(self, context: RingContext, terms: Mapping[Exponents, Fraction]):
        clean: dict[Exponents, Fraction] = {}
        n = context.nvars
        for exps, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
            clean[tuple(exps)] = coeff
        self.context = context
        self.terms = clean
        self._hash = None

    # basic queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_degree(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        """Homogeneous for the standard grading (zero counts as yes)."""
        degs = {mono_degree(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def variables_occurring(self) -> set[str]:
        names = self.context.variables
        out: set[str] = set()
        for exps in self.terms:
            out.update(names[i] for i, e in enumerate(exps) if e)
        return out

    # ordered views ---------------------------------------------------------
    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Exponents, Fraction]]:
        return [(e, self.terms[e]) for e in order.sort_desc(self.terms)]

    def lead_term(self, order: MonomialOrder = GREVLEX) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def lead_monomial(self, order: MonomialOrder = GREVLEX) -> Exponents:
        return self.lead_term(order)[0]

    def lead_coefficient(self, order: MonomialOrder = GREVLEX) -> Fraction:
        return self.lead_term(order)[1]

    # arithmetic ------------------------------------------------------------
    def _check_context(self, other: "Polynomial") -> None:
        if self.context != other.context:
            raise ValueError("ring context mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, 0) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return Polynomial(self.context, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.context.zero()
            return Polynomial(self.context, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                acc = terms.get(e, 0) + c1 * c2
                if acc:
                    terms[e] = acc
                else:
                    terms.pop(e, None)
        return Polynomial(self.context, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = Fraction(other)
        return self * (1 / c)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.context.one()
        for _ in range(n):
            out = out * self
        return out

    def term_multiple(self, exps: Exponents, coeff: Fraction) -> "Polynomial":
        """self times the single term coeff * x^exps."""
        coeff = Fraction(coeff)
        if not coeff:
            return self.context.zero()
        return Polynomial(
            self.context, {mono_mul(e, exps): c * coeff for e, c in self.terms.items()}
        )

    # equality / hashing ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.context, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return format_polynomial(self)

    # torus weights ---------------------------------------------------------
    def weight_components(self) -> dict[int, "Polynomial"]:
        """Split into weight-homogeneous pieces, keyed by torus weight."""
        ctx = self.context
        if ctx.weights is None:
            raise ValueError("ring context has no weights")
        buckets: dict[int, dict[Exponents, Fraction]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(ctx.monomial_weight(e), {})[e] = c
        return {w: Polynomial(ctx, t) for w, t in sorted(buckets.items())}

    def is_weight_homogeneous(self) -> bool:
        return len(self.weight_components()) <= 1


def substitute_linear(p: Polynomial, images: Mapping[str, Polynomial],
                      target: RingContext | None = None) -> Polynomial:
    """Apply the ring map sending each variable to a linear form.

    Every variable occurring in p must be mapped; images must live in a
    common target context and have total degree at most one.
    """
    if target is None:
        for img in images.values():
            target = img.context
            break
        if target is None:
            raise ValueError("no images and no target context")
    for name, img in images.items():
        if img.context != target:
            raise ValueError(f"image of {name!r} lives in a different context")
        if img.total_degree() > 1:
            raise ValueError(f"image of {name!r} is not a linear form")
    missing = p.variables_occurring() - set(images)
    if missing:
        raise ValueError(f"unmapped variables: {sorted(missing)}")

    src_vars = p.context.variables
    power_cache: dict[tuple[str, int], Polynomial] = {}

    def image_power(name: str, n: int) -> Polynomial:
        key = (name, n)
        if key not in power_cache:
            power_cache[key] = images[name] ** n
        return power_cache[key]

    out = target.zero()
    for exps, coeff in p.terms.items():
        term = target.constant(coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * image_power(src_vars[i], e)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# text format

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<number>\d+(?:/\d+)?) |
        (?P<name>[A-Za-z_][A-Za-z0-9_]*) |
        (?P<caret>\^) |
        (?P<star>\*) |
        (?P<plus>\+) |
        (?P<minus>-)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text[pos:]!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        if kind is not None:
            tokens.append((kind, m.group(kind)))
    return tokens


def parse_polynomial(text: str, context: RingContext) -> Polynomial:
    """Parse a single polynomial in the plain-text format."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial")
    out = context.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        while i < n and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign")
        coeff = sign
        exps = [0] * context.nvars
        expect_factor = True
        while True:
            if not expect_factor:
                if i < n and tokens[i][0] == "star":
                    i += 1
                    expect_factor = True
                    continue
                break
            kind, value = tokens[i] if i < n else (None, None)
            if kind == "number":
                try:
                    coeff *= Fraction(value)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {value!r}") from None
                i += 1
            elif kind == "name":
                if value not in context.variables:
                    raise ValueError(f"unknown variable {value!r}")
                idx = context.index(value)
                power = 1
                i += 1
                if i < n and tokens[i][0] == "caret":
                    i += 1
                    if i >= n or tokens[i][0] != "number" or "/" in tokens[i][1]:
                        raise ValueError("exponent must be an integer")
                    power = int(tokens[i][1])
                    i += 1
                exps[idx] += power
            else:
                raise ValueError("expected a factor")
            expect_factor = False
        if i < n and tokens[i][0] not in ("plus", "minus"):
            raise ValueError(f"missing '*' before {tokens[i][1]!r}")
        out = out + context.monomial(tuple(exps), coeff)
    return out


def _format_monomial(exps: Exponents, variables: Sequence[str]) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for k, (exps, coeff) in enumerate(p.sorted_terms(order)):
        mono = _format_monomial(exps, p.context.variables)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if k == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


def format_ideal_text(context: RingContext, polys: Sequence[Polynomial],
                      order: MonomialOrder = GREVLEX) -> str:
    lines = [f"ring: {', '.join(context.variables)}"]
    if context.weights is not None:
        lines.append(f"weights: {', '.join(str(w) for w in context.weights)}")
    lines.append("gens:")
    for p in polys:
        lines.append(format_polynomial(p, order))
    return "\n".join(lines) + "\n"


def parse_ideal_text(text: str) -> tuple[RingContext, list[Polynomial]]:
    """Parse the ring/weights/gens file format."""
    ring_line: str | None = None
    weights_line: str | None = None
    gen_lines: list[str] = []
    seen_gens = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ring:"):
            if ring_line is not None:
                raise ValueError("repeated ring: line")
            ring_line = line[len("ring:"):].strip()
        elif line.startswith("weights:"):
            if weights_line is not None:
                raise ValueError("repeated weights: line")
            weights_line = line[len("weights:"):].strip()
        elif line.startswith("gens:"):
            seen_gens = True
        elif seen_gens:
            gen_lines.append(line)
        else:
            raise ValueError(f"unexpected line before gens: {raw!r}")
    if ring_line is None:
        raise ValueError("missing ring: line")
    variables = [v.strip() for v in ring_line.split(",") if v.strip()]
    weights = None
    if weights_line is not None:
        weights = [int(w.strip()) for w in weights_line.split(",") if w.strip()]
    context = RingContext(variables, weights)
    return context, [parse_polynomial(line, context) for line in gen_lines]
