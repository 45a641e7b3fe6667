"""Reduced words in the rank-2 free group and its complex group ring.

A word is its syllables, the maximal runs ``(generator, power)`` with
generator ``"u"`` or ``"v"`` and a nonzero integer power, kept freely reduced
at all times; a letter is a syllable of power +-1. Group-ring elements are
finite complex combinations of words with exact dictionary arithmetic; a
small text grammar round-trips through :func:`parse_element` /
:func:`format_element`.
"""

from __future__ import annotations

import cmath
import re

GENERATORS = ("u", "v")

# Canonical letter order u < u^-1 < v < v^-1, keyed by (generator, power > 0).
_LETTER_RANK = {("u", True): 0, ("u", False): 1, ("v", True): 2, ("v", False): 3}

# Largest |power| of a syllable given to the parser or to Word, so a word is at
# most (syllables given) * MAX_EXPONENT letters long. Parsing costs one step per
# syllable, evaluating one product per syllable, the ascent gradient one step
# per 64 letters.
MAX_EXPONENT = 2**16


class ParseError(ValueError):
    """Raised on malformed element text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _reduce(syllables):
    """Maximal runs of ``(generator, power)`` pairs: neighbouring runs of one
    generator merge, and a run whose power cancels lets its neighbours meet."""
    stack = []
    for gen, power in syllables:
        if stack and stack[-1][0] == gen:
            power += stack.pop()[1]
        if power:
            stack.append((gen, power))
    return tuple(stack)


class Word:
    """A freely reduced word, stored as its syllables; the empty word is the
    group identity. ``Word(pairs)`` reduces any ``(generator, power)`` pairs,
    letters included."""

    __slots__ = ("syllables", "_length")

    def __init__(self, syllables=(), *, _checked=False):
        if not _checked:
            syllables = tuple(syllables)
            for gen, power in syllables:
                if gen not in GENERATORS:
                    raise ValueError(f"unknown generator {gen!r}")
                if type(power) is not int or abs(power) > MAX_EXPONENT:
                    raise ValueError(f"power must be an int of size <= {MAX_EXPONENT}, got {power!r}")
        syllables = _reduce(syllables)
        object.__setattr__(self, "syllables", syllables)
        object.__setattr__(self, "_length", sum(abs(power) for _, power in syllables))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor, past the power
        # check: a merged run such as u^65536*u holds power 65537.
        return _word_from_syllables, (self.syllables,)

    @classmethod
    def identity(cls):
        return cls()

    @property
    def is_identity(self):
        return not self.syllables

    @property
    def letters(self):
        """The word expanded letter by letter, on each access."""
        return tuple((g, 1 if p > 0 else -1) for g, p in self.syllables for _ in range(abs(p)))

    def __len__(self):
        return self._length

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.syllables + other.syllables, _checked=True)

    def inverse(self):
        return Word([(gen, -power) for gen, power in reversed(self.syllables)], _checked=True)

    def generator_sums(self):
        """Total exponent of each generator: returns ``(sum_u, sum_v)``."""
        p = sum(power for gen, power in self.syllables if gen == "u")
        q = sum(power for gen, power in self.syllables if gen == "v")
        return p, q

    def sort_key(self):
        """Length, then letter order u < u^-1 < v < v^-1, read run by run: of two
        runs of one letter, the shorter is followed by the other generator, which
        ranks above u and below v, so the longer u-run and the shorter v-run
        sort first."""
        runs = ((_LETTER_RANK[g, p > 0], abs(p) if g == "v" else -abs(p)) for g, p in self.syllables)
        return self._length, tuple(runs)

    def __eq__(self, other):
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"Word({self.syllables!r})"

    def __str__(self):
        # A run longer than MAX_EXPONENT prints as factors that parse: u^65536*u.
        factors = []
        for gen, power in self.syllables:
            while power:
                k = max(-MAX_EXPONENT, min(power, MAX_EXPONENT))
                factors.append(gen if k == 1 else f"{gen}^{k}")
                power -= k
        return "*".join(factors) or "1"


def _word_from_syllables(syllables):
    return Word(syllables, _checked=True)


class GroupRingElement:
    """A finite complex combination of reduced words.

    Terms live in a plain dict ``{Word: complex}``; coefficients that are
    exactly zero are dropped so equality is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if not isinstance(word, Word):
                    raise TypeError(f"keys must be Word, got {type(word).__name__}")
                c = complex(coeff)
                if c != 0:
                    clean[word] = clean.get(word, 0j) + c
                    if clean[word] == 0:
                        del clean[word]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    def __reduce__(self):
        return GroupRingElement, (self.terms,)

    @classmethod
    def from_scalar(cls, value):
        return cls({Word.identity(): complex(value)})

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({word: complex(coeff)})

    @property
    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        """Terms in canonical order (word length, then letter order)."""
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def coefficient_l1(self):
        try:
            return sum(abs(c) for c in self.terms.values())
        except OverflowError:  # a modulus past the float range
            return cmath.inf

    def adjoint(self):
        """Conjugate coefficients and invert words."""
        return GroupRingElement(
            {word.inverse(): coeff.conjugate() for word, coeff in self.terms.items()}
        )

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out.get(word, 0j) + coeff
        return GroupRingElement(out)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GroupRingElement({w: c * other for w, c in self.terms.items()})
        if isinstance(other, GroupRingElement):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    prod = w1 * w2
                    out[prod] = out.get(prod, 0j) + c1 * c2
            return GroupRingElement(out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = GroupRingElement.from_scalar(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"GroupRingElement({format_element(self)!r})"

    def __str__(self):
        return format_element(self)


def _coerce(value):
    if isinstance(value, GroupRingElement):
        return value
    if isinstance(value, (int, float, complex)):
        return GroupRingElement.from_scalar(value)
    return NotImplemented


def unit():
    """The ring unit: the identity word with coefficient 1."""
    return GroupRingElement.from_scalar(1)


def generator(name, exponent=1):
    """A single generator (or inverse) as a ring element."""
    if exponent not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    return GroupRingElement.from_word(Word(((name, exponent),)))


def averaging_element():
    """u + u^-1 + v + v^-1, the self-adjoint sum over generators and inverses."""
    return (
        generator("u")
        + generator("u", -1)
        + generator("v")
        + generator("v", -1)
    )


# --------------------------------------------------------------------------
# Text format: parsing
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<imag>i)
  | (?P<letter>[uv])
  | (?P<op>[+\-*^()])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            kind = match.lastgroup
            value = match.group()
            if kind == "op":
                kind = value
            tokens.append((kind, value, pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self, ahead=0):
        i = self.index + ahead
        return self.tokens[i][0] if i < len(self.tokens) else None

    def next(self):
        if self.index >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind):
        token = self.next()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, got {token[1]!r}", token[2])
        return token

    def position(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][2]
        return len(self.text)

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def parse(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        # The terms are merged into one dict as repeated ``+`` would merge
        # them: a word keeps its first place, and a sum that is exactly zero
        # is dropped, so a later term of that word goes to the end.
        terms = dict((self.term() * sign).terms)
        while self.peek() is not None:
            kind = self.peek()
            if kind not in ("+", "-"):
                raise ParseError(f"expected '+' or '-', got {self.tokens[self.index][1]!r}", self.position())
            self.next()
            sign = -1 if kind == "-" else 1
            position = self.position()
            for word, coeff in (self.term() * sign).terms.items():
                total = terms.get(word, 0j) + coeff
                # Finite coefficients of one word can still sum past the float range.
                if not cmath.isfinite(total):
                    raise ParseError("coefficient overflow", position)
                if total != 0:
                    terms[word] = total
                else:
                    del terms[word]
        element = GroupRingElement(terms)
        # Terms of distinct words can still overflow together, in the l1 norm.
        if not cmath.isfinite(element.coefficient_l1()):
            raise ParseError("coefficient overflow", self.tokens[0][2])
        return element

    # term := coeff ['*' word] | word
    def term(self):
        kind = self.peek()
        if kind in ("number", "imag", "("):
            position = self.position()
            coeff = self.coefficient()
            if not cmath.isfinite(coeff):
                raise ParseError("coefficient overflow", position)
            if self.peek() == "*":
                self.next()
                return self.word() * coeff
            if self.peek() == "letter":
                raise ParseError("expected '*' between coefficient and word", self.position())
            return GroupRingElement.from_scalar(coeff)
        if kind == "letter":
            return self.word()
        if kind is None:
            raise ParseError("expected a term", self.position())
        raise ParseError(f"expected a term, got {self.tokens[self.index][1]!r}", self.position())

    # word := factor (['*'] factor)* | '1'
    def word(self):
        if self.peek() == "number":
            token = self.next()
            if float(token[1]) != 1.0:
                raise ParseError("only the word '1' may appear without a generator", token[2])
            return unit()
        syllables = [self.factor()]
        while self.peek() == "letter" or (self.peek() == "*" and self.peek(1) == "letter"):
            if self.peek() == "*":
                self.next()
            syllables.append(self.factor())
        return GroupRingElement.from_word(Word(syllables))

    # factor := ('u'|'v') ['^' signed-integer]
    def factor(self):
        token = self.expect("letter")
        exp = 1
        if self.peek() == "^":
            self.next()
            exp = self.signed_integer()
        return token[1], exp

    def signed_integer(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        token = self.expect("number")
        if not token[1].isdigit():
            raise ParseError(f"exponent must be an integer, got {token[1]!r}", token[2])
        # The length test comes first: int() refuses more than 4300 digits.
        digits = token[1].lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError("exponent overflow", token[2])
        return sign * int(digits)

    # coeff := number ['i'] | 'i' | '(' complex ')'
    def coefficient(self):
        kind = self.peek()
        if kind == "number":
            token = self.next()
            value = float(token[1])
            if self.peek() == "imag":
                self.next()
                return complex(0.0, value)
            return complex(value, 0.0)
        if kind == "imag":
            self.next()
            return 1j
        if kind == "(":
            self.next()
            value = self.complex_literal()
            self.expect(")")
            return value
        raise ParseError("expected a coefficient", self.position())

    def complex_literal(self):
        real = 0.0
        imag = 0.0
        seen_real = False
        seen_imag = False

        def part():
            sign = 1.0
            if self.peek() in ("+", "-"):
                sign = -1.0 if self.next()[0] == "-" else 1.0
            if self.peek() == "imag":
                self.next()
                return sign * 1.0, True
            token = self.expect("number")
            value = sign * float(token[1])
            if self.peek() == "imag":
                self.next()
                return value, True
            return value, False

        value, is_imag = part()
        if is_imag:
            imag, seen_imag = value, True
        else:
            real, seen_real = value, True
        if self.peek() in ("+", "-"):
            value, is_imag = part()
            if is_imag:
                if seen_imag:
                    raise ParseError("duplicate imaginary part", self.position())
                imag = value
            else:
                if seen_real:
                    raise ParseError("duplicate real part", self.position())
                real = value
        return complex(real, imag)


def parse_element(text):
    """Parse element text like ``"2*u*v^-1 - i*u"`` into a GroupRingElement."""
    if not isinstance(text, str):
        raise TypeError("element text must be a string")
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty input", 0)
    return parser.parse()


# --------------------------------------------------------------------------
# Text format: printing (canonical; parse(format_element(a)) == a)
# --------------------------------------------------------------------------


def _format_float(x):
    # repr() of a float is the shortest string that round-trips exactly.
    return repr(float(x))


def _format_term(word, coeff):
    """Return (sign, body) with sign in '+'/'-' and body carrying no sign."""
    word_txt = None if word.is_identity else str(word)
    re_, im = coeff.real, coeff.imag
    if im == 0:
        sign = "-" if re_ < 0 else "+"
        mag = abs(re_)
        if word_txt is not None and mag == 1.0:
            return sign, word_txt
        body = _format_float(mag)
    elif re_ == 0:
        sign = "-" if im < 0 else "+"
        mag = abs(im)
        body = "i" if mag == 1.0 else _format_float(mag) + "i"
    else:
        sign = "+"
        im_sign = "-" if im < 0 else "+"
        body = f"({_format_float(re_)}{im_sign}{_format_float(abs(im))}i)"
    if word_txt is not None:
        body = f"{body}*{word_txt}"
    return sign, body


def format_element(element):
    """Canonical text for an element; terms sorted by word length then letters."""
    if element.is_zero:
        return "0"
    parts = []
    for word, coeff in element.sorted_terms():
        sign, body = _format_term(word, coeff)
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
