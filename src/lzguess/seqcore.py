"""Alphabets, symbol sequences, deterministic bit sources, and exact dyadic
probabilities.

Everything downstream is driven by fair random bits, so every probability that
occurs is of the form m / 2**e.  :class:`DyadicProb` keeps such values exact
with arbitrary-precision integers at every n; only the moments evaluated from
them are floats, taken from log2 q so that no n underflows.
:class:`BitSource` is a counter-based generator (splitmix64) so that
substreams can be derived reproducibly for parallel Monte Carlo: substream k
of master seed s is completely determined by (s, k), independent of worker
count.  :func:`play` is the one Monte Carlo loop of the guessing game built
on those substreams.  :func:`forward` is the one exact forward pass: every
exact law in the package is a step generator over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence


class BudgetError(ValueError):
    """An exact enumeration was refused because it would be too large."""


# ---------------------------------------------------------------------------
# alphabets and sequences
# ---------------------------------------------------------------------------

class Alphabet:
    """An ordered alphabet of at least two distinct tokens.

    Tokens are single-character strings in text mode, arbitrary strings in
    symbol-per-line mode, or ints 0..255 in byte mode.  Token i maps to index
    i; sequences store indices only.
    """

    def __init__(self, tokens: Iterable):
        toks = tuple(tokens)
        if len(toks) < 2:
            raise ValueError("alphabet needs at least 2 tokens, got %d" % len(toks))
        if len(set(toks)) != len(toks):
            raise ValueError("alphabet tokens must be pairwise distinct")
        if len(toks) > 256:
            raise ValueError("alphabets larger than 256 tokens are not supported")
        self.tokens = toks
        self.size = len(toks)
        self._index = {t: i for i, t in enumerate(toks)}

    def index(self, token) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError("token %r is not in the alphabet" % (token,)) from None

    def __contains__(self, token) -> bool:
        return token in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:
        if self.size > 8:
            return "Alphabet(size=%d)" % self.size
        return "Alphabet(%r)" % (self.tokens,)

    @property
    def bits_per_symbol(self) -> int:
        """ceil(log2(size)): width of one fixed-width symbol field."""
        return max(1, (self.size - 1).bit_length())

    @classmethod
    def from_spec(cls, spec: str) -> "Alphabet":
        """Inline alphabet spec: one character per token, e.g. "ab"."""
        return cls(tuple(spec))

    @classmethod
    def bytes_alphabet(cls, allowed: bytes | None = None) -> "Alphabet":
        """Byte-mode alphabet: all 256 byte values, or a declared subset."""
        if allowed is None:
            return cls(tuple(range(256)))
        return cls(tuple(allowed))


BINARY = Alphabet(("0", "1"))
AB = Alphabet(("a", "b"))


class SymbolSeq:
    """An individual sequence over an alphabet, stored as an index array.

    Immutable; slicing returns a new SymbolSeq over the same alphabet.
    """

    __slots__ = ("alphabet", "indices")

    def __init__(self, alphabet: Alphabet, indices: bytes):
        if any(i >= alphabet.size for i in indices):
            raise ValueError("symbol index out of range for alphabet of size %d"
                             % alphabet.size)
        self.alphabet = alphabet
        self.indices = bytes(indices)

    @classmethod
    def from_tokens(cls, tokens: Sequence, alphabet: Alphabet) -> "SymbolSeq":
        return cls(alphabet, bytes(alphabet.index(t) for t in tokens))

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet) -> "SymbolSeq":
        return cls.from_tokens(tuple(text), alphabet)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SymbolSeq(self.alphabet, self.indices[i])
        return self.indices[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymbolSeq)
                and self.alphabet == other.alphabet
                and self.indices == other.indices)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.indices))

    def tokens(self) -> tuple:
        return tuple(self.alphabet.tokens[i] for i in self.indices)

    def render(self) -> str:
        """Inverse of ingest: the token stream as text.

        Single-character tokens are concatenated, multi-character tokens are
        joined by newlines, and byte tokens render as a hex string.
        """
        toks = self.tokens()
        if all(isinstance(t, int) for t in self.alphabet.tokens):
            return bytes(toks).hex()
        if all(isinstance(t, str) and len(t) == 1 for t in self.alphabet.tokens):
            return "".join(toks)
        return "\n".join(toks)

    def __repr__(self) -> str:
        if len(self) <= 32:
            return "SymbolSeq(%r)" % self.render()
        return "SymbolSeq(n=%d, %r...)" % (len(self), self.render()[:16])


def ingest(data, alphabet_spec=None, mode: str = "text") -> SymbolSeq:
    """Turn text, bytes, or symbol-per-line input into a SymbolSeq.

    mode "text": data is a str, one symbol per character.
    mode "lines": data is a str, one symbol per nonempty line.
    mode "bytes": data is bytes; the alphabet is all 256 byte values or the
    declared subset.

    alphabet_spec may be an Alphabet, an inline token string ("ab"), or None
    to infer the alphabet from the distinct tokens in order of first
    appearance.  Unknown tokens are rejected with their 1-based position.
    """
    if mode == "bytes":
        if not isinstance(data, (bytes, bytearray)):
            raise ValueError("bytes mode requires bytes input")
        tokens = list(data)
    elif mode == "lines":
        tokens = [ln for ln in str(data).splitlines() if ln != ""]
    elif mode == "text":
        tokens = list(str(data))
    else:
        raise ValueError("unknown ingest mode %r" % mode)

    if alphabet_spec is None:
        if mode == "bytes":
            alphabet = Alphabet.bytes_alphabet()
        else:
            seen = dict.fromkeys(tokens)
            if len(seen) < 2:
                raise ValueError("cannot infer an alphabet from %d distinct "
                                 "tokens" % len(seen))
            alphabet = Alphabet(tuple(seen))
    elif isinstance(alphabet_spec, Alphabet):
        alphabet = alphabet_spec
    elif isinstance(alphabet_spec, (bytes, bytearray)):
        alphabet = Alphabet.bytes_alphabet(bytes(alphabet_spec))
    else:
        alphabet = Alphabet.from_spec(str(alphabet_spec))

    out = bytearray()
    for pos, tok in enumerate(tokens, start=1):
        if tok not in alphabet:
            raise ValueError("unknown token %r at position %d" % (tok, pos))
        out.append(alphabet.index(tok))
    return SymbolSeq(alphabet, bytes(out))


# ---------------------------------------------------------------------------
# deterministic bit source
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15         # splitmix64 increment
_SUBSTREAM_GAMMA = 0xD1B54A32D192ED03  # odd constant for substream seeding


def _mix64(z: int) -> int:
    """splitmix64 finalizer (Steele, Lea, Flood 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_substream_seed(master_seed: int, substream: int) -> int:
    """The documented 64-bit mix used to key substream k of a master seed.

    seed_k = mix64(master + k * SUBSTREAM_GAMMA), all arithmetic mod 2**64.
    Stable by construction: it depends only on the two integers.
    """
    return _mix64((master_seed + substream * _SUBSTREAM_GAMMA) & _MASK64)


class BitSource:
    """An unlimited stream of fair bits, reproducible from (seed, substream).

    Word i of the stream is mix64(seed_k + (i + 1) * GOLDEN), a splitmix64
    sequence keyed by :func:`derive_substream_seed`.  Bits are consumed from
    each 64-bit word most-significant first, and multi-bit reads return the
    bits in draw order with the first-drawn bit most significant.

    Instances are single-owner; use one substream per Monte Carlo round for
    parallelism.
    """

    __slots__ = ("master_seed", "substream", "consumed", "_seed", "_word_index",
                 "_buffer", "_buffered")

    def __init__(self, master_seed: int, substream: int = 0):
        self.master_seed = master_seed & _MASK64
        self.substream = substream
        self.consumed = 0
        self._seed = derive_substream_seed(master_seed, substream)
        self._word_index = 0
        self._buffer = 0
        self._buffered = 0

    def _refill(self):
        self._word_index += 1
        word = _mix64((self._seed + self._word_index * _GOLDEN) & _MASK64)
        self._buffer = (self._buffer << 64) | word
        self._buffered += 64

    def next_bits(self, k: int) -> int:
        """The next k bits as an integer, first-drawn bit most significant."""
        if k == 0:
            return 0
        while self._buffered < k:
            self._refill()
        self._buffered -= k
        val = self._buffer >> self._buffered
        self._buffer &= (1 << self._buffered) - 1
        self.consumed += k
        return val

    def next_bit(self) -> int:
        return self.next_bits(1)

    def next_float(self) -> float:
        """A float in [0, 1) built from 53 bits."""
        return self.next_bits(53) / 9007199254740992.0


def play(attempt: Callable[[BitSource], bool], rounds: int, seed: int,
         cap: int, start: int = 0) -> Iterator[int]:
    """The guessing game: per round, the number of guesses G until
    `attempt` succeeds.

    Round k (from `start` on) draws all its guesses from substream k of
    `seed`, so a round's count does not depend on how rounds are split
    across workers.  A round is censored after `cap` failed guesses and
    yields cap + 1.
    """
    if cap < 1:
        raise ValueError("need cap >= 1")
    if rounds < 0:
        raise ValueError("need rounds >= 0, got %r" % (rounds,))
    for k in range(start, start + rounds):
        bits = BitSource(seed, substream=k)
        g = 1
        while not attempt(bits):
            if g >= cap:
                g = cap + 1
                break
            g += 1
        yield g


# ---------------------------------------------------------------------------
# exact dyadic probabilities
# ---------------------------------------------------------------------------

class DyadicProb:
    """An exact probability m / 2**e with arbitrary-precision integers.

    Canonical form keeps m odd unless e == 0 (so 0 is (0, 0) and 1 is (1, 0)).
    Sums and products of dyadic values are dyadic, so all probabilities of
    finite bit-driven processes stay representable exactly.
    """

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int):
        if m < 0 or e < 0:
            raise ValueError("dyadic probability needs m >= 0, e >= 0")
        while e > 0 and (m & 1) == 0:
            # normalize in large steps first
            shift = min(e, (m & -m).bit_length() - 1) if m else e
            m >>= shift
            e -= shift
        if m > (1 << e):
            raise ValueError("dyadic probability %d/2^%d exceeds 1" % (m, e))
        self.m = m
        self.e = e

    @classmethod
    def zero(cls) -> "DyadicProb":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "DyadicProb":
        return cls(1, 0)

    def is_zero(self) -> bool:
        return self.m == 0

    def __add__(self, other: "DyadicProb") -> "DyadicProb":
        e = max(self.e, other.e)
        m = (self.m << (e - self.e)) + (other.m << (e - other.e))
        return DyadicProb(m, e)

    def __mul__(self, other: "DyadicProb") -> "DyadicProb":
        return DyadicProb(self.m * other.m, self.e + other.e)

    def complement(self) -> "DyadicProb":
        """1 - p."""
        return DyadicProb((1 << self.e) - self.m, self.e)

    def _cmp_key(self, other: "DyadicProb"):
        e = max(self.e, other.e)
        return self.m << (e - self.e), other.m << (e - other.e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicProb):
            return NotImplemented
        return self.m == other.m and self.e == other.e

    def __hash__(self) -> int:
        return hash((self.m, self.e))

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other):
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other):
        a, b = self._cmp_key(other)
        return a >= b

    def as_fraction(self) -> Fraction:
        return Fraction(self.m, 1 << self.e)

    def __float__(self) -> float:
        if self.m == 0:
            return 0.0
        return math.ldexp(self._to_float_mantissa(), self._float_exp())

    def _to_float_mantissa(self) -> float:
        bl = self.m.bit_length()
        if bl <= 53:
            return float(self.m)
        return float(self.m >> (bl - 53))

    def _float_exp(self) -> int:
        bl = self.m.bit_length()
        if bl <= 53:
            return -self.e
        return bl - 53 - self.e

    def log2(self) -> float:
        """Base-2 log, accurate even when the value underflows a float."""
        if self.m == 0:
            return -math.inf
        bl = self.m.bit_length()
        top = self.m >> (bl - 53) if bl > 53 else self.m
        return math.log2(top) + (bl - top.bit_length()) - self.e

    def __repr__(self) -> str:
        return "DyadicProb(%d, 2**-%d)" % (self.m, self.e)


def forward(n: int, start, step) -> dict:
    """The one exact forward pass: the law at position n of a process fed
    fair bits, over positions 0..n.

    The process starts in state `start` at position 0.  `step(pos, state)`
    yields its moves as (next_pos, next_state, count, bits): `count` of the
    2**bits equally likely bit patterns move it to `next_state` at
    `next_pos`, with pos < next_pos <= n.  The mass of each (position,
    state) is a plain integer numerator over a power of two; two masses are
    aligned only where two paths meet, and each is checked to be at most 1
    before it is expanded.  Returns {state: DyadicProb} for the states
    reached at position n, empty when none is.
    """
    layers = {0: {start: (1, 0)}}
    for pos in range(n):
        for state, (m, e) in layers.pop(pos, {}).items():
            if m > 1 << e:
                raise ValueError("forward mass above 1 at position %d" % pos)
            if not m & 1:
                # drop factors of two once per state, so that masses stay
                # the size of their canonical form (m <= 2**e bounds shift)
                shift = (m & -m).bit_length() - 1
                m >>= shift
                e -= shift
            for nxt_pos, nxt, count, bits in step(pos, state):
                if not (pos < nxt_pos <= n and 0 < count <= 1 << bits):
                    raise ValueError("bad forward move from position %d: %r"
                                     % (pos, (nxt_pos, nxt, count, bits)))
                layer = layers.setdefault(nxt_pos, {})
                mm, ee = m * count, e + bits
                old = layer.get(nxt)
                if old is not None:
                    om, oe = old
                    if oe > ee:
                        mm, ee = (mm << (oe - ee)) + om, oe
                    else:
                        mm += om << (ee - oe)
                layer[nxt] = (mm, ee)
    return {state: DyadicProb(m, e)
            for state, (m, e) in layers.get(n, {}).items()}


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def thue_morse_bits(n: int) -> bytes:
    """First n terms of the Thue-Morse sequence: t(2k)=t(k), t(2k+1)=1-t(k)."""
    out = bytearray(n)
    for k in range(n):
        out[k] = bin(k).count("1") & 1
    return bytes(out)


def generate_corpus(kind: str, n: int, *, pattern: str | None = None,
                    p: float = 0.5, seed: int = 0,
                    path: str | None = None,
                    alphabet: Alphabet | None = None) -> SymbolSeq:
    """Deterministic test corpora.

    kind "periodic": repeat `pattern` up to length n.
    kind "bernoulli": i.i.d. symbols over {a, b} with P(b) = p, driven by
    BitSource(seed), reproducible.
    kind "thue_morse": the Thue-Morse sequence over {a, b}.
    kind "file": ingest the text file at `path` (alphabet inferred unless
    given).
    """
    if n < 1:
        raise ValueError("corpus length must be >= 1")
    if kind == "periodic":
        if not pattern:
            raise ValueError("periodic corpus needs a nonempty pattern")
        if alphabet is not None:
            alpha = alphabet
        elif len(set(pattern)) >= 2:
            alpha = Alphabet(tuple(dict.fromkeys(pattern)))
        else:
            alpha = AB
        reps = pattern * (n // len(pattern) + 1)
        return SymbolSeq.from_text(reps[:n], alpha)
    if kind == "bernoulli":
        if not 0.0 <= p <= 1.0:
            raise ValueError("bernoulli p must be in [0, 1]")
        alpha = alphabet or AB
        bits = BitSource(seed)
        out = bytes(1 if bits.next_float() < p else 0 for _ in range(n))
        return SymbolSeq(alpha, out)
    if kind == "thue_morse":
        alpha = alphabet or AB
        return SymbolSeq(alpha, thue_morse_bits(n))
    if kind == "file":
        if path is None:
            raise ValueError("file corpus needs a path")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
        seq = ingest(text, alphabet)
        return seq[:n] if len(seq) > n else seq
    raise ValueError("unknown corpus kind %r" % kind)


def parse_corpus_spec(spec: str, n: int) -> SymbolSeq:
    """Corpus spec strings used by the command line.

    "periodic:ab", "bernoulli:0.5:7" (p, seed), "thue_morse", "file:PATH".
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind == "periodic":
        if len(parts) != 2:
            raise ValueError("periodic spec is periodic:PATTERN")
        return generate_corpus("periodic", n, pattern=parts[1])
    if kind == "bernoulli":
        p = float(parts[1]) if len(parts) > 1 else 0.5
        seed = int(parts[2]) if len(parts) > 2 else 0
        return generate_corpus("bernoulli", n, p=p, seed=seed)
    if kind == "thue_morse":
        return generate_corpus("thue_morse", n)
    if kind == "file":
        return generate_corpus("file", n, path=spec.split(":", 1)[1])
    raise ValueError("unknown corpus spec %r" % spec)
