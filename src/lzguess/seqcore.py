"""Alphabets, symbol sequences, deterministic bit sources, and exact dyadic
probabilities.

Everything downstream is driven by fair random bits, so every probability that
occurs is of the form m / 2**e.  :class:`DyadicProb` keeps such values exact
with arbitrary-precision integers at every n; only the moments evaluated from
them are floats, taken from log2 q so that no n underflows.
:class:`BitSource` is a counter-based generator (splitmix64) so that
substreams can be derived reproducibly for parallel Monte Carlo: substream k
of master seed s is completely determined by (s, k), independent of worker
count.  :func:`play` is the one Monte Carlo engine of the guessing game.
It runs every guesser in one compiled form, an automaton whose states each
read a field of fair bits and look the raw field up in a table of next
states, FAIL and WIN, and it reads those bits a byte at a time from the
substreams' splitmix64 words, the bits :class:`BitSource` would deliver.
:func:`forward` is the one exact forward pass: every exact law in the
package is a step function over it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence

from .bytegame import FAIL, WIN, _WON, _ByteGame


class BudgetError(ValueError):
    """An exact enumeration was refused because it would be too large."""


class EmptyCorpusError(ValueError):
    """A file corpus holds no symbols."""


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
        if all(isinstance(t, int) for t in toks):
            if not all(0 <= t < 256 for t in toks):
                raise ValueError("byte tokens must be in range(0, 256)")
            self._render_kind = "bytes"
        elif all(isinstance(t, str) and len(t) == 1 for t in toks):
            self._render_kind = "chars"
        else:
            self._render_kind = "lines"

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

    @functools.cached_property
    def _codes(self):
        """The table that converts tokens to indices in one translate.

        ``chars``: a ``str.translate`` table from each token's code point
        to its index, and from every other character to 0x100, which
        Latin-1 cannot encode.  ``bytes``: a ``bytes.translate`` table
        from each token to its index, and from every other byte to 0xFF,
        which is no index of an alphabet of fewer than 256 tokens."""
        if self._render_kind == "chars":
            return _Codes((ord(t), i) for i, t in enumerate(self.tokens))
        table = bytearray(b"\xff" * 256)
        for i, t in enumerate(self.tokens):
            table[t] = i
        return bytes(table)

    @functools.cached_property
    def _glyphs(self):
        """The inverse of :attr:`_codes` for render: a ``str.translate``
        table from each index to its token, or a 256-byte
        ``bytes.translate`` table from each index to its byte; for other
        tokens, each token's text: a string as it is, a tuple (a pair of a
        pair alphabet) as its items' texts joined by commas."""
        if self._render_kind == "chars":
            return dict(enumerate(self.tokens))
        if self._render_kind == "bytes":
            return bytes(self.tokens).ljust(256, b"\x00")
        return tuple(t if isinstance(t, str) else
                     ",".join(map(str, t)) if isinstance(t, tuple) else str(t)
                     for t in self.tokens)


class _Codes(dict):
    """A ``str.translate`` table that sends every character it does not
    list to 0x100, so that the first one fails a Latin-1 encode."""

    __slots__ = ()

    def __missing__(self, key):
        return 0x100


_BYTES = bytes(range(256))


def _to_indices(tokens, alphabet: Alphabet) -> bytes:
    """The index of each token of `tokens`.

    The characters of a str over single-character tokens, and the bytes
    of data over byte tokens, convert in one C-level translate; other
    tokens map one by one.  An unknown token raises KeyError with its
    0-based position."""
    kind = alphabet._render_kind
    if kind == "chars" and isinstance(tokens, str):
        try:
            return tokens.translate(alphabet._codes).encode("latin-1")
        except UnicodeEncodeError as exc:
            raise KeyError(exc.start) from None
    if kind == "bytes" and isinstance(tokens, (bytes, bytearray)):
        indices = bytes(tokens.translate(alphabet._codes))
        if alphabet.size < 256:
            pos = indices.find(0xFF)
            if pos >= 0:
                raise KeyError(pos)
        return indices
    try:
        return bytes(map(alphabet._index.__getitem__, tokens))
    except KeyError:
        raise KeyError(next(pos for pos, tok in enumerate(tokens)
                            if tok not in alphabet)) from None


AB = Alphabet(("a", "b"))


class SymbolSeq:
    """An individual sequence over an alphabet, stored as an index array.

    Immutable; slicing returns a new SymbolSeq over the same alphabet,
    whose indices are not range-checked a second time.
    """

    __slots__ = ("alphabet", "indices")

    def __init__(self, alphabet: Alphabet, indices: bytes):
        """`indices` is bytes, a bytearray or any iterable of ints, each
        below the alphabet's size.  Bytes are range-checked in one
        translate that deletes every valid index."""
        if isinstance(indices, (bytes, bytearray)):
            bad = (alphabet.size < 256
                   and indices.translate(None, _BYTES[:alphabet.size]))
        else:
            indices = list(indices)     # an iterator is read once
            bad = indices and max(indices) >= alphabet.size
        if bad:
            raise ValueError("symbol index out of range for alphabet of size %d"
                             % alphabet.size)
        self.alphabet = alphabet
        self.indices = bytes(indices)

    @classmethod
    def _of(cls, alphabet: Alphabet, indices: bytes) -> "SymbolSeq":
        """A sequence from bytes already known to be in range, unchecked."""
        seq = object.__new__(cls)
        seq.alphabet = alphabet
        seq.indices = indices
        return seq

    @classmethod
    def from_tokens(cls, tokens: Sequence, alphabet: Alphabet) -> "SymbolSeq":
        try:
            indices = _to_indices(tokens, alphabet)
        except KeyError as exc:
            alphabet.index(tokens[exc.args[0]])     # raises for that token
            raise
        return cls._of(alphabet, indices)

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet) -> "SymbolSeq":
        """One symbol per character of `text`, converted as :func:`ingest`
        converts text; an unknown character raises ValueError ("token ...
        is not in the alphabet")."""
        return cls.from_tokens(text, alphabet)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SymbolSeq._of(self.alphabet, self.indices[i])
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

        Single-character tokens are concatenated and byte tokens render as
        a hex string, each in one C-level translate of the indices (for
        single characters, of their Latin-1 decoding); other tokens are
        joined by newlines, a pair of a pair alphabet as "a,b".
        """
        alphabet = self.alphabet
        kind = alphabet._render_kind
        if kind == "chars":
            return self.indices.decode("latin-1").translate(alphabet._glyphs)
        if kind == "bytes":
            return self.indices.translate(alphabet._glyphs).hex()
        return "\n".join(map(alphabet._glyphs.__getitem__, self.indices))

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

    Text over single-character tokens and bytes over byte tokens convert
    in one C-level translate each, with no Python code per symbol (see
    :attr:`Alphabet._codes`); lines, and text over multi-character
    tokens, map token by token.
    """
    if mode == "bytes":
        if not isinstance(data, (bytes, bytearray)):
            raise ValueError("bytes mode requires bytes input")
        tokens = data
    elif mode == "lines":
        tokens = [ln for ln in str(data).splitlines() if ln != ""]
    elif mode == "text":
        tokens = str(data)
    else:
        raise ValueError("unknown ingest mode %r" % mode)

    if alphabet_spec is None:
        if mode == "bytes":
            alphabet = Alphabet.bytes_alphabet()
        else:
            distinct = set(tokens)
            if len(distinct) < 2:
                raise ValueError("cannot infer an alphabet from %d distinct "
                                 "tokens" % len(distinct))
            if len(distinct) > 256:
                alphabet = Alphabet(distinct)      # raises: too many tokens
            elif mode == "text":
                # str.index finds each first appearance at C speed; a
                # list's index would rescan token by token, so lines keep
                # the one-pass dict
                alphabet = Alphabet(sorted(distinct, key=tokens.index))
            else:
                alphabet = Alphabet(tuple(dict.fromkeys(tokens)))
    elif isinstance(alphabet_spec, Alphabet):
        alphabet = alphabet_spec
    elif isinstance(alphabet_spec, (bytes, bytearray)):
        alphabet = Alphabet.bytes_alphabet(bytes(alphabet_spec))
    else:
        alphabet = Alphabet.from_spec(str(alphabet_spec))

    try:
        indices = _to_indices(tokens, alphabet)
    except KeyError as exc:
        pos = exc.args[0]
        raise ValueError("unknown token %r at position %d"
                         % (tokens[pos], pos + 1)) from None
    return SymbolSeq._of(alphabet, indices)


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

    __slots__ = ("consumed", "_seed", "_word_index", "_buffer", "_buffered")

    def __init__(self, master_seed: int, substream: int = 0):
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


_BLOCK = 1024                       # symbols a Bernoulli block decides
_BLOCK_WORDS = _BLOCK * 53 // 64    # the 848 whole words they read


@functools.lru_cache(maxsize=16)
def _lanes(words: int = _BLOCK_WORDS) -> tuple:
    """One 128-bit lane per word of a run of `words` words (at most a
    block's), word 0 in the top lane: 1 in each lane, i * GOLDEN mod 2**64
    in lane i, and 2**64 - 1 in each.  A shorter run is the top lanes of a
    block's, kept for the run lengths in use: play's blocks and the last,
    short block of a Bernoulli corpus."""
    if words < _BLOCK_WORDS:
        cut = 128 * (_BLOCK_WORDS - words)
        return tuple(lanes >> cut for lanes in _lanes())
    ones = int.from_bytes((bytes(15) + b"\x01") * _BLOCK_WORDS, "big")
    steps = b"".join(((i * _GOLDEN) & _MASK64).to_bytes(16, "big")
                     for i in range(_BLOCK_WORDS))
    return ones, int.from_bytes(steps, "big"), ones * _MASK64


def _stream_bytes(counter: int, words: int) -> bytes:
    """The splitmix64 words whose inputs are counter, counter + GOLDEN,
    ... (mod 2**64), `words` of them (at most 848), each as 8 big-endian
    bytes: the stream bits of a :class:`BitSource` from the word with
    input `counter` on, most significant first.

    The inputs sit in 128-bit lanes of one int (:func:`_lanes`), so each
    step of the finalizer is one shift, xor, multiply and mask of that
    int, and each word is the low 8 bytes of its lane."""
    ones, steps, lane = _lanes(words)
    z = ((counter & _MASK64) * ones + steps) & lane
    z = ((z ^ (z >> 30)) & lane) * 0xBF58476D1CE4E5B9 & lane
    z = ((z ^ (z >> 27)) & lane) * 0x94D049BB133111EB & lane
    raw = (z ^ (z >> 31)).to_bytes(16 * words, "big")
    # each lane's low 8 bytes, copied as they lie
    return memoryview(raw).cast("Q")[1::2].tobytes()


_PLAY_WORDS = 16       # splitmix64 words per block of a round's stream,
_FIRST_WORDS = 8       # but for its first block


def _wide(game, s, buf, avail, counter, g, cap):
    """Play `game` (a :class:`_ByteGame`) on from wide state s one field
    per step, as the tables give them, until the attempt ends: s starts
    with the `avail` bits of `buf`, then the stream's words from input
    `counter` on, one at a time.  A WIN ends the round, and so does a
    FAIL that takes g past the cap.  After any other FAIL a wide first
    state goes on here, and a narrow one goes back to the byte rows at
    the next byte boundary: (g, its row or _WON, an iterator of the whole
    bytes left in buf, counter)."""
    widths, tables = game.widths, game.tables
    back = game.settle(FAIL)[1]     # first, or the key of its row
    restart = back if back.__class__ is int else FAIL
    while True:
        width = widths[s]
        while avail < width:
            # BitSource's next word, _mix64 inlined
            z = counter & _MASK64
            counter += _GOLDEN
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            buf = buf << 64 | z ^ (z >> 31)
            avail += 64
        avail -= width
        s = tables[s][buf >> avail]
        buf &= (1 << avail) - 1
        if s >= 0:
            continue
        if s == WIN:
            return g, _WON, None, counter
        g += 1
        if g > cap:
            return g, _WON, None, counter
        if restart >= 0:
            s = restart
            continue
        end, m = back, avail & 7
        if m:                       # walk to the byte boundary
            avail -= m
            fails, end, unread = game.walk(back, m)[buf >> avail]
            g += fails
            avail += unread
            buf &= (1 << avail) - 1
        if end.__class__ is not int:
            return (g, game.index(end),
                    iter(buf.to_bytes(avail >> 3, "big")), counter)
        if end == WIN:
            return g, _WON, None, counter
        s = end                     # a wide state within the walk


def play(automaton, rounds: int, seed: int, cap: int,
         start: int = 0) -> Iterator[int]:
    """The guessing game: per round, the number of guesses G until an
    attempt of `automaton` wins.

    `automaton` is (widths, tables), the one form every guesser compiles
    to: state s reads a field of widths[s] fair bits, and tables[s],
    indexed by the raw field, holds the next state, FAIL or WIN.  Every
    attempt starts in state 0.  Round k (from `start` on) draws all its
    guesses from substream k of `seed`: the bits are those of
    ``BitSource(seed, k).next_bits``, most significant bit first, so a
    round's count does not depend on how rounds are split across workers.
    A round is censored after `cap` failed guesses and yields cap + 1.

    play runs the automaton a byte at a time.  A round's stream comes in
    blocks of _PLAY_WORDS splitmix64 words, _FIRST_WORDS for its first
    block (:func:`_stream_bytes`), and each byte is one lookup in the
    rows of a :class:`_ByteGame`: the fails the byte's 8 bits end and the
    row they lead to, wherever in a field the byte starts or ends.
    A field too wide and dense for such rows leaves the byte loop: it and
    the rest of its attempt are read one field per step, from words drawn
    one at a time (:func:`_wide`), so such a field costs what it
    costs read field by field; when the first state's field is one, every
    round is read so.  The cap is checked at WIN, at the end of each block
    and at each FAIL read field by field, so G = min(1 + fails before the
    WIN, cap + 1), as reading field by field gives.  If every attempt
    FAILs without reading a bit, every round yields cap + 1 at once, and
    if every attempt wins so, 1.
    """
    if cap < 1:
        raise ValueError("need cap >= 1")
    if rounds < 0:
        raise ValueError("need rounds >= 0, got %r" % (rounds,))
    game = _ByteGame(*automaton)
    if game.first < 0:                  # every attempt ends without a bit
        g = 1 if game.first == WIN else cap + 1
        for _ in range(rounds):
            yield g
        return
    start_key = game.settle(FAIL)[1]
    if start_key.__class__ is int:      # a wide first state
        for k in range(start, start + rounds):
            g = _wide(game, start_key, 0, 0,
                      derive_substream_seed(seed, k) + _GOLDEN, 1, cap)[0]
            yield g if g <= cap else cap + 1
        return
    rows, special = game.rows, game.special
    d0 = game.index(start_key)
    stride = _PLAY_WORDS * _GOLDEN
    for k in range(start, start + rounds):
        counter = derive_substream_seed(seed, k) + _GOLDEN   # word 1's input
        it = iter(_stream_bytes(counter, _FIRST_WORDS))
        counter += _FIRST_WORDS * _GOLDEN
        g, d, b = 1, d0, 0
        while True:
            while d < _WON:
                x = special[-2 - d]
                if x.__class__ is int:  # the row's first visit
                    game.build(x)
                    f, d = rows[x][b]
                    g += f
                else:                   # a wide field, read whole
                    s, r = x
                    rest = bytes(it)
                    g, d, it, counter = _wide(
                        game, s, (b & (1 << r) - 1) << 8 * len(rest)
                        | int.from_bytes(rest, "big"), r + 8 * len(rest),
                        counter, g, cap)
            if d == _WON:
                break
            for b in it:
                f, d = rows[d][b]
                g += f
                if d < 0:
                    break
            else:
                if g > cap:
                    break
                it = iter(_stream_bytes(counter, _PLAY_WORDS))
                counter += stride
        yield g if g <= cap else cap + 1


# ---------------------------------------------------------------------------
# exact dyadic probabilities
# ---------------------------------------------------------------------------

@functools.total_ordering
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicProb):
            return NotImplemented
        return self.m == other.m and self.e == other.e

    def __hash__(self) -> int:
        return hash((self.m, self.e))

    def __lt__(self, other):
        e = max(self.e, other.e)
        return self.m << (e - self.e) < other.m << (e - other.e)

    def as_fraction(self):
        """The value as a :class:`fractions.Fraction`.  No command calls
        it, so ``fractions`` (which loads ``decimal``) is imported here and
        not when the CLI starts."""
        from fractions import Fraction
        return Fraction(self.m, 1 << self.e)

    def __float__(self) -> float:
        # the top 53 bits of m, truncated, so that no numerator overflows
        shift = max(self.m.bit_length() - 53, 0)
        return math.ldexp(float(self.m >> shift), shift - self.e)

    def log2(self) -> float:
        """Base-2 log, accurate even when the value underflows a float."""
        if self.m == 0:
            return -math.inf
        bl = self.m.bit_length()
        top = self.m >> (bl - 53) if bl > 53 else self.m
        return math.log2(top) + (bl - top.bit_length()) - self.e

    def __repr__(self) -> str:
        return "DyadicProb(%d, 2**-%d)" % (self.m, self.e)


def _add(table: dict, key, m: int, e: int) -> None:
    """table[key] += m / 2**e, aligning the numerators only where a value
    is already there."""
    old = table.get(key)
    if old is not None:
        om, oe = old
        if oe > e:
            m, e = (m << (oe - e)) + om, oe
        else:
            m += om << (e - oe)
    table[key] = (m, e)


def forward(n: int, start, step) -> dict:
    """The one exact forward pass: the law at position n of a process fed
    fair bits, over positions 0..n.

    The process starts in state `start` at position 0.  `step(pos, state)`
    yields its moves as (first_pos, last_pos, next_state, count, bits):
    `count` of the 2**bits equally likely bit patterns move it to
    `next_state` at first_pos, and as many others to `next_state` at each
    later position up to last_pos, with pos < first_pos <= last_pos <= n.
    A single move has first_pos == last_pos.  The mass of each (position,
    state) is a plain integer numerator over a power of two; two masses are
    aligned only where two paths meet, and each is checked to be at most 1
    before it is expanded.

    A single move adds its term mass * count / 2**bits to its target, and
    a move over two positions adds it to both.  Each move is checked
    before its term is formed; then the factors of two of its count are
    folded into its exponent, and a count of 1 costs no multiply.  A move
    over three or more positions, a span, adds that one term to a running
    sum for its next state at first_pos and, tagged as an exit, subtracts
    it from that sum after last_pos.  Each position adds each open running
    sum once, so big-integer work is per span, not per position it covers,
    and nothing is done for spans while none is open.  Returns
    {state: DyadicProb} for the states reached at position n, empty when
    none is.
    """
    layers = {0: {start: (1, 0)}}
    sums = {}       # next state -> the open spans' terms, summed
    edges = {}      # position -> [(next state, term numerator, exponent,
                    #               whether the span leaves)]
    for pos in range(n):
        layer = layers.pop(pos, None)
        if edges or sums:
            layer = _arrive(pos, layer, sums, edges)
        if layer is None:
            continue
        for state, (m, e) in layer.items():
            if m.bit_length() > e and m != 1 << e:
                raise ValueError("forward mass above 1 at position %d" % pos)
            if not m & 1:
                # drop factors of two once per state, so that masses stay
                # the size of their canonical form (m <= 2**e bounds shift)
                shift = (m & -m).bit_length() - 1
                m >>= shift
                e -= shift
            for move in step(pos, state):
                first, last, nxt, count, bits = move
                if not (pos < first <= last <= n and 0 < count <= 1 << bits):
                    raise ValueError("bad forward move from position %d: %r"
                                     % (pos, move))
                if not count & 1:
                    # 2**bits bounds count, so bits stays >= 0
                    shift = (count & -count).bit_length() - 1
                    count >>= shift
                    bits -= shift
                mm, ee = (m * count if count > 1 else m), e + bits
                if last - first > 1:
                    edges.setdefault(first, []).append((nxt, mm, ee, False))
                    if last < n:
                        edges.setdefault(last + 1, []).append(
                            (nxt, mm, ee, True))
                    continue
                if first < last:
                    # two single moves cost no more adds than a span
                    _add(layers.setdefault(first, {}), nxt, mm, ee)
                # _add, inlined on the single-move path
                target = layers.setdefault(last, {})
                old = target.get(nxt)
                if old is not None:
                    om, oe = old
                    if oe > ee:
                        mm, ee = (mm << (oe - ee)) + om, oe
                    else:
                        mm += om << (ee - oe)
                target[nxt] = (mm, ee)
    layer = _arrive(n, layers.pop(n, None), sums, edges) or {}
    return {state: DyadicProb(m, e) for state, (m, e) in layer.items()}


def _arrive(pos, layer, sums, edges):
    """The layer at `pos` with the spans that reach it added in: first the
    spans' terms enter the running sums, or leave them by subtraction,
    then each open running sum joins its state once."""
    for nxt, mm, ee, leaves in edges.pop(pos, ()):
        if not leaves:
            _add(sums, nxt, mm, ee)
            continue
        # a span leaves only a sum it entered, so the sum is there
        om, oe = sums[nxt]
        if oe > ee:
            mm, ee = om - (mm << (oe - ee)), oe
        else:
            mm = (om << (ee - oe)) - mm
        if mm:
            sums[nxt] = (mm, ee)
        else:
            del sums[nxt]
    if sums:
        if layer is None:
            layer = {}
        for nxt, (mm, ee) in sums.items():
            _add(layer, nxt, mm, ee)
    return layer


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def thue_morse_bits(n: int) -> bytes:
    """First n terms of the Thue-Morse sequence: t(2k)=t(k), t(2k+1)=1-t(k).

    Built by doubling: t(2**k + i) = 1 - t(i) for i < 2**k.
    """
    out = b"\x00"
    while len(out) < n:
        out += out.translate(_FLIP)
    return out[:n]


_TO_SYMBOLS = bytes.maketrans(b"01", b"\x00\x01")


def _bernoulli_bits(n: int, p: float, seed: int) -> bytes:
    """n symbols, symbol j 1 exactly when ``BitSource(seed).next_float()``,
    drawn for the j-th time, is below p: when its 53 bits v_j, stream bits
    53j .. 53j+52, are below ceil(p * 2**53).

    A block of 1024 symbols reads 848 whole words, all from one call of
    :func:`_stream_bytes`, the lane-parallel generator that :func:`play`
    reads too.  Column i of the block, bit i of every v_j, is one int read
    off the block's stream bits as binary text, and the columns are
    compared with the threshold's bits, most significant first, until no
    v_j is undecided.
    """
    limit = math.ceil(p * 9007199254740992.0)
    if not 0 < limit < 1 << 53:
        return bytes([limit > 0]) * n
    cuts = format(limit, "053b")
    counter = derive_substream_seed(seed, 0) + _GOLDEN   # word 1's input
    out = []
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        w = -(-53 * m // 64)            # the words a last, short block reads
        text = format(int.from_bytes(_stream_bytes(counter, w), "big"),
                      "0%db" % (64 * w))
        less, undecided = 0, (1 << m) - 1
        for i, bit in enumerate(cuts):
            column = int(text[i:53 * m:53], 2)
            if bit == "1":
                less |= undecided & ~column
                undecided &= column
            else:
                undecided &= ~column
            if not undecided:
                break
        out.append(format(less, "0%db" % m).encode().translate(_TO_SYMBOLS))
        counter += _BLOCK_WORDS * _GOLDEN
    return b"".join(out)


def generate_corpus(kind: str, n: int, *, pattern: str | None = None,
                    p: float = 0.5, seed: int = 0,
                    path: str | None = None) -> SymbolSeq:
    """Deterministic test corpora.

    kind "periodic": repeat `pattern` up to length n.
    kind "bernoulli": i.i.d. symbols over {a, b} with P(b) = p: symbol k
    is b exactly when the k-th 53-bit draw of BitSource(seed), divided by
    2**53, is below p, that is ``BitSource(seed).next_float() < p`` drawn
    once per symbol (:func:`_bernoulli_bits` draws them a block at a time).
    kind "thue_morse": the Thue-Morse sequence over {a, b}.
    kind "file": ingest the text file at `path` (alphabet inferred).
    """
    if n < 1:
        raise ValueError("corpus length must be >= 1")
    if kind == "periodic":
        if not pattern:
            raise ValueError("periodic corpus needs a nonempty pattern")
        alpha = (Alphabet(tuple(dict.fromkeys(pattern)))
                 if len(set(pattern)) >= 2 else AB)
        reps = pattern * (n // len(pattern) + 1)
        return SymbolSeq.from_text(reps[:n], alpha)
    if kind == "bernoulli":
        if not 0.0 <= p <= 1.0:
            raise ValueError("bernoulli p must be in [0, 1]")
        return SymbolSeq._of(AB, _bernoulli_bits(n, p, seed))
    if kind == "thue_morse":
        return SymbolSeq(AB, thue_morse_bits(n))
    if kind == "file":
        if path is None:
            raise ValueError("file corpus needs a path")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
        if not text:
            raise EmptyCorpusError("file corpus %s is empty" % path)
        seq = ingest(text)
        return seq[:n] if len(seq) > n else seq
    raise ValueError("unknown corpus kind %r" % kind)


def parse_corpus_spec(spec: str, n: int) -> SymbolSeq:
    """Corpus spec strings used by the command line.

    "periodic:ab", "bernoulli:0.5:7" (p, seed), "thue_morse", "file:PATH".
    A field that the kind does not take is refused; everything after the
    first colon of a file spec is its path.
    """
    kind, *fields = spec.split(":")
    if kind == "periodic":
        if len(fields) != 1:
            raise ValueError("periodic spec is periodic:PATTERN")
        return generate_corpus("periodic", n, pattern=fields[0])
    if kind == "bernoulli":
        if len(fields) > 2:
            raise ValueError("bernoulli spec is bernoulli[:P[:SEED]]")
        p = float(fields[0]) if fields else 0.5
        seed = int(fields[1]) if len(fields) > 1 else 0
        return generate_corpus("bernoulli", n, p=p, seed=seed)
    if kind == "thue_morse":
        if fields:
            raise ValueError("thue_morse spec takes no fields")
        return generate_corpus("thue_morse", n)
    if kind == "file":
        if not fields:
            raise ValueError("file spec is file:PATH")
        return generate_corpus("file", n, path=spec.split(":", 1)[1])
    raise ValueError("unknown corpus spec %r" % spec)
