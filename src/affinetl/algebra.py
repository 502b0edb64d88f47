"""
Elements of the Temperley-Lieb algebras over a Dynkin graph, as sparse linear
combinations of the idempotent-generator monomial basis {f_w : w FC}.

Multiplication is monomial: the product of two basis words rewrites, by the
two rules below, to a loop-parameter power times a single basis word.

  square    ... s .. X .. s ...  ->  drop the later s          (X commutes)
  sandwich  ... s .. t .. s ...  ->  drop t and the later s,   (t adjacent,
                                     gain one DELTA factor      rest commute)

On the affine cycle with two generators neither rule ever fires across a
nonempty gap, which leaves exactly the two idempotent relations.

The invertible generator systems g and T are linear combinations of f-basis
elements:  g = (q+1) f - 1  and  T = v g.

The integral generators e = (1+q) f satisfy e_s e_s = (1+q) e_s and
e_s e_t e_s = q e_s, so a product of e-words is q^loops (1+q)^squares times
one e-word, and g = e - 1, T = v (e - 1).  Over this basis the braid images,
the tower images and the trace all have coefficients in Z[v, 1/v]; the
braid-to-trace pipeline runs there, as plain dicts ``letters -> Laurent``
over one graph (an "e-element"), and never computes a gcd.  The invertible
generators are written once, as the e-basis table ``E_GENERATORS``, and
every product of them is the one fold :func:`e_word`.
"""
from __future__ import annotations

from .coxeter import (
    CoxeterGraph,
    _cartier_foata_letters,
    _check_len,
    _rightmost_redex,
    _tables,
    fc_word,
    parse_word,
    rotate as _rotate_word,
    reverse as _reverse_word,
    word_text,
)
from .errors import NotFcWord, ParseError, RankMismatch
from .scalars import (
    L_ONE,
    ONE,
    Laurent,
    Scalar,
    _ScalarParser,
    delta_pow,
    qp1_laurent_pow,
)


# ---------------------------------------------------------------------------
# word rewriting


def _reduce(tables, word: list) -> int:
    """Apply the rightmost redex of ``word``, in place, until none is left;
    returns the sandwich collapses made.  The result does not depend on that
    choice, since the rewriting is confluent.  Trusts the letters."""
    loops = 0
    while (hit := _rightmost_redex(*tables, word)) is not None:
        j, t = hit
        del word[j]
        if t is not None:
            del word[t]
            loops += 1
    return loops


def reduce_letters(g: CoxeterGraph, letters):
    """Rewrite a raw word to its normal form, checking its letters and its
    length: returns ``(k, word)``, the Cartier-Foata letters ``word`` of a
    basis word of ``g`` with the input monomial equal to DELTA^k times its
    monomial."""
    _check_len(len(letters))
    for s in letters:
        g.check_letter(s)
    word = list(letters)
    return _reduce(_tables(g), word), _cartier_foata_letters(g, word)


def word_product(g: CoxeterGraph, left: tuple, right: tuple):
    """The monomial kernel: append the letters of ``right`` to ``left`` one
    at a time, reducing after each.  Returns ``(loops, squares, word)``, the
    sandwich and square collapses made and the product's Cartier-Foata
    letters: f_left f_right = DELTA^loops f_word in the f-basis, and
    e_left e_right = q^loops (1+q)^squares e_word in the e-basis.  Trusts its
    operands to be basis words of ``g``; a reduced word past the cap raises
    ``LengthLimitExceeded``, in either order of the operands."""
    if not (left and right):
        return 0, 0, left or right
    tables, word, loops = _tables(g), list(left), 0
    for s in right:
        word.append(s)
        loops += _reduce(tables, word)
        _check_len(len(word))
    squares = len(left) + len(right) - len(word) - 2 * loops
    return loops, squares, _cartier_foata_letters(g, word)


# ---------------------------------------------------------------------------


class TLElement:
    """A finite linear combination of basis words, canonical letter tuples
    -> Scalar, over one graph.

    The constructor checks every key with :func:`fc_word`: a key with a bad
    letter raises ``InvalidGenerator``, one that is not FC or not in
    canonical form raises ``NotFcWord``.  Treat instances as immutable;
    several caches hand out shared objects.
    """

    __slots__ = ("graph", "terms")

    def __init__(self, graph: CoxeterGraph, terms: dict):
        for w in terms:
            if fc_word(graph, w) != w:
                raise NotFcWord(f"key {w} is not the canonical form of its word on {graph}")
        self.graph = graph
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def _canonical(cls, graph: CoxeterGraph, terms: dict) -> "TLElement":
        """Fast constructor for keys already canonical FC words of graph."""
        self = object.__new__(cls)
        self.graph = graph
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}
        return self

    @classmethod
    def zero(cls, graph) -> "TLElement":
        return cls._canonical(graph, {})

    @classmethod
    def one(cls, graph) -> "TLElement":
        return cls._canonical(graph, {(): ONE})

    @classmethod
    def monomial(cls, graph, letters, coeff: Scalar = ONE) -> "TLElement":
        return cls._canonical(graph, {fc_word(graph, letters): coeff})

    # -- linear structure ----------------------------------------------------

    def _require_same_graph(self, other):
        if self.graph != other.graph:
            raise RankMismatch(f"mixing {self.graph} with {other.graph}")

    def __add__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        self._require_same_graph(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Scalar(())) + c
        return TLElement._canonical(self.graph, out)

    def __neg__(self):
        return TLElement._canonical(self.graph, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "TLElement":
        c = Scalar._coerce(c)
        return TLElement._canonical(self.graph, {w: c * cw for w, cw in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TLElement):
            return multiply(self, other)
        if Scalar._coerce(other) is not None:
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if Scalar._coerce(other) is not None:
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined on elements")
        out = TLElement.one(self.graph)
        for _ in range(k):
            out = multiply(out, self)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TLElement)
            and self.graph == other.graph
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, letters) -> Scalar:
        return self.terms.get(fc_word(self.graph, letters), Scalar(()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_term_key)

    def __repr__(self):
        return f"TLElement({self.graph}, {format_element(self)})"

    def __str__(self):
        return format_element(self)


def _term_key(term):
    """Terms sort by the length of their word, then by its letters."""
    return len(term[0]), term[0]


def _product(g: CoxeterGraph, x: dict, y: dict, scale) -> dict:
    """The bilinear product of two term dicts over ``g``: per basis pair the
    words multiply through :func:`word_product`, and the coefficient is
    ``scale(cx * cy, loops, squares)``.  Zero terms are dropped."""
    out: dict = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            loops, squares, w = word_product(g, wx, wy)
            c = scale(cx * cy, loops, squares)
            acc = out.get(w)
            out[w] = c if acc is None else acc + c
    return {w: c for w, c in out.items() if c}


def _f_scale(c: Scalar, loops: int, squares: int) -> Scalar:
    """c DELTA^loops: ``c`` times the factor of an f-basis monomial product."""
    return c * delta_pow(loops) if loops else c


def multiply(x: TLElement, y: TLElement) -> TLElement:
    """Bilinear product in the f-basis."""
    x._require_same_graph(y)
    return TLElement._canonical(x.graph, _product(x.graph, x.terms, y.terms, _f_scale))


# ---------------------------------------------------------------------------
# e-elements: dicts letters -> Laurent over one graph, in the integral basis


def e_scale(c: Laurent, loops: int, squares: int) -> Laurent:
    """c q^loops (1+q)^squares: ``c`` times the factor of an e-basis
    monomial product."""
    if squares:
        c = c * qp1_laurent_pow(squares)
    return c.shift(2 * loops) if loops else c


def e_multiply(g: CoxeterGraph, x: dict, y: dict) -> dict:
    """Product of two e-elements over ``g``."""
    return _product(g, x, y, e_scale)


def e_to_element(g: CoxeterGraph, x: dict) -> TLElement:
    """The f-basis element of an e-element: e_w = (1+q)^|w| f_w."""
    return TLElement._canonical(g, {
        w: (c * qp1_laurent_pow(len(w))).to_scalar() for w, c in x.items()
    })


# ---------------------------------------------------------------------------
# generator systems

# e-basis coefficients (of e_s, of the empty word) of the invertible
# generators, by (system, sign): the one definition of g, g^-1, T and T^-1
#   g = e - 1,  g^-1 = e/q - 1,  T = v (e - 1),  T^-1 = e/v^3 - 1/v
E_GENERATORS = {
    ("g", 1): (L_ONE, -L_ONE),
    ("g", -1): (Laurent(-2, (1,)), -L_ONE),
    ("T", 1): (Laurent(1, (1,)), Laurent(1, (-1,))),
    ("T", -1): (Laurent(-3, (1,)), Laurent(-1, (-1,))),
}


def e_word(g: CoxeterGraph, system: str, letters) -> dict:
    """The product of the ``system`` generators along the signed letters
    ``(s, +1 or -1)``, as an e-element: a left fold of :func:`e_multiply`."""
    out = {(): L_ONE}
    for s, sign in letters:
        es, one = E_GENERATORS[system, sign]
        out = e_multiply(g, out, {(s,): es, (): one})
    return out


def gen(style: str, s: int, graph: CoxeterGraph) -> TLElement:
    """The generator ``s`` in one of the systems f, g, T, g_inv, T_inv.

    g satisfies g^2 = (q-1) g + q; T = v g; f = (g+1)/(q+1) is idempotent.
    """
    graph.check_letter(s)
    if style == "f":
        return TLElement._canonical(graph, {(s,): ONE})
    system, sign = style.removesuffix("_inv"), -1 if style.endswith("_inv") else 1
    if (system, sign) not in E_GENERATORS:
        raise ValueError(f"unknown generator style {style!r}")
    return e_to_element(graph, e_word(graph, system, [(s, sign)]))


def from_g_word(g: CoxeterGraph, w: tuple) -> TLElement:
    """The product of g-generators along the word, expanded in the f-basis."""
    return e_to_element(g, e_word(g, "g", [(s, 1) for s in w]))


def to_g_basis(x: TLElement) -> dict:
    """Coordinates of x in the g-word basis, by triangular elimination from
    the longest f-words downward.  Round-trips with :func:`from_g_word`."""
    rem = dict(x.terms)
    out: dict = {}
    while rem:
        w, c = max(rem.items(), key=_term_key)
        out[w] = lead = c * L_ONE.over_qp1_pow(len(w))
        for u, cu in from_g_word(x.graph, w).terms.items():
            c = rem.get(u, Scalar(())) - lead * cu
            if c.is_zero():
                rem.pop(u, None)
            else:
                rem[u] = c
    return out


def psi(x: TLElement, d: int = 1) -> TLElement:
    """Rotate every basis word around the affine cycle; an automorphism."""
    if not x.graph.is_affine:
        raise RankMismatch("psi is only defined on affine graphs")
    return TLElement._canonical(
        x.graph, {_rotate_word(x.graph, w, d): c for w, c in x.terms.items()})


def chi(x: TLElement) -> TLElement:
    """Reverse every basis word and bar every coefficient; an involution."""
    return TLElement._canonical(
        x.graph, {_reverse_word(x.graph, w): c.bar() for w, c in x.terms.items()})


# ---------------------------------------------------------------------------
# text and JSON forms


def _basis_terms(x: TLElement, basis: str) -> list:
    """The (word, coefficient) pairs of x in the f- or g-basis, in print order."""
    if basis == "g":
        return sorted(to_g_basis(x).items(), key=_term_key)
    if basis == "f":
        return x.sorted_terms()
    raise ValueError(f"unknown basis {basis!r}")


def format_element(x: TLElement, basis: str = "f") -> str:
    """``term (+ term)*`` with ``term = (scalar)*[letters]``; "0" when empty."""
    parts = []
    for w, c in _basis_terms(x, basis):
        body = word_text(x.graph, w)
        parts.append(body if c.is_one() else f"({c})*{body}")
    return " + ".join(parts) or "0"


def parse_element(text: str, graph: CoxeterGraph) -> TLElement:
    """Parse the element grammar in the f-basis, in one left-to-right pass:
    terms joined by runs of ``+`` and ``-``, each an optional scalar product
    and ``*``, then one or more ``[letters]`` groups, which multiply.  The
    text ``0`` is zero.

    >>> from .coxeter import affine
    >>> x = parse_element("(-1/q)*[s1 a s2] + (1/(1+q))*[s1 s2]", affine(3))
    >>> len(x.terms)
    2
    """
    if not text.strip():
        raise ParseError("empty element text")
    if text.strip() == "0":
        return TLElement.zero(graph)
    p, terms = _ScalarParser(), {}
    p.start(text)
    while True:
        sign, coeff, w = p.signs(), ONE, ()
        if p.peek() != "[":
            coeff = p.term()
            p.take("*")
        # a product stops only before "*[", so at least one group follows
        while p.at("["):
            ket = text.find("]", p.pos)
            if ket < 0:
                p.error("expected ']'")
            letters = parse_word(graph, text[p.pos + 1:ket])
            loops, _, w = word_product(graph, w, fc_word(graph, letters))
            if loops:
                coeff = p.mul(coeff, delta_pow(loops))
            p.pos = ket + 1
        _add_term(terms, p, w, coeff * sign)
        if not p.peek():
            return TLElement._canonical(graph, terms)
        if not p.at("+-"):
            p.error("expected '[' after ']'")


def _add_term(terms: dict, scalars: _ScalarParser, w: tuple, coeff: Scalar):
    """Add ``coeff * f_w`` to the terms of a parsed element; the products and
    sums of its coefficients are charged and degree-bounded like those inside
    a scalar text, so one budget covers the whole element."""
    terms[w] = scalars.add(terms[w], coeff) if w in terms else coeff


def element_to_json(x: TLElement, basis: str = "f") -> list:
    return [
        {"coeff": str(c), "word": [x.graph.letter_name(s) for s in w]}
        for w, c in _basis_terms(x, basis)
    ]


def element_from_json(data, graph: CoxeterGraph) -> TLElement:
    scalars, terms = _ScalarParser(), {}
    for item in data:
        w = fc_word(graph, [graph.parse_letter(tok) for tok in item["word"]])
        _add_term(terms, scalars, w, scalars.parse(item["coeff"]))
    return TLElement._canonical(graph, terms)
