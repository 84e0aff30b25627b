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
states, FAIL and WIN, and it reads those bits inline from the substreams'
splitmix64 words, the bits :class:`BitSource` would deliver.
:func:`forward` is the one exact forward pass: every exact law in the
package is a step function over it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain


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
        ``bytes.translate`` table from each index to its byte."""
        if self._render_kind == "chars":
            return dict(enumerate(self.tokens))
        return bytes(self.tokens).ljust(256, b"\x00")


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
        single characters, of their Latin-1 decoding); multi-character
        tokens are joined by newlines.
        """
        alphabet = self.alphabet
        kind = alphabet._render_kind
        if kind == "chars":
            return self.indices.decode("latin-1").translate(alphabet._glyphs)
        if kind == "bytes":
            return self.indices.translate(alphabet._glyphs).hex()
        return "\n".join(map(alphabet.tokens.__getitem__, self.indices))

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


WIN, FAIL = -2, -1     # the automaton table entries that end an attempt
_START_BITS = 10       # the least number of bits play's start window covers


def _start_window(widths, tables, k: int, cap: int) -> list:
    """Per k-bit pattern, the walk of the automaton from state 0 over the
    complete fields in those bits, restarting at state 0 after each FAIL:
    (fails, bits used, state reached), stopping at WIN or at the first
    field that does not fit.  A walk with a FAIL that stops inside a later,
    unfinished attempt ends at its last FAIL instead, in state 0 with the
    bits up to that FAIL used, so the next lookup starts that attempt
    afresh; only a first attempt longer than k bits ends in a mid state.
    If every attempt FAILs without reading a bit, every pattern counts cap
    fails."""
    state = 0
    while state >= 0 and not widths[state]:
        state = tables[state][0]
    if state == FAIL:
        return [(cap, 0, FAIL)] * (1 << k)
    return _walks(widths, tables, {}, 0, k)


def _walks(widths, tables, memo, state, r):
    """The walks of :func:`_start_window` from `state` over every r-bit
    pattern, built once per (state, r) in `memo`.  A walk that FAILs and
    then stops inside the next attempt, with no FAIL or WIN of its own,
    ends at that FAIL: (1, bits up to it, 0).  Equal entries of a row
    share one list of walks, so a field as wide as r costs a lookup per
    entry, not a walk.  A module function, not a closure: a closure that
    calls itself is a reference cycle, which would keep every sub-walk
    alive until the next garbage collection."""
    out = memo.get((state, r))
    if out is None:
        width = widths[state]
        rest = r - width
        if rest < 0:
            out = [(0, 0, state)] * (1 << r)
        else:
            row, after = tables[state], {}
            for nxt in set(row):
                if nxt == WIN:
                    after[nxt] = [(0, width, WIN)] * (1 << rest)
                elif nxt == FAIL:
                    # the walk after a FAIL ends at that FAIL when the
                    # next attempt neither fails nor wins in the bits left
                    after[nxt] = [(f + 1, u + width, z) if f or z == WIN
                                  else (1, width, 0) for f, u, z in
                                  _walks(widths, tables, memo, 0, rest)]
                else:
                    after[nxt] = [(f, u + width, z) for f, u, z in
                                  _walks(widths, tables, memo, nxt, rest)]
            walks = map(after.__getitem__, row)
            # with no bits left after the field, one walk per entry
            out = (list(chain.from_iterable(walks)) if rest
                   else [walk for walk, in walks])
        memo[state, r] = out
    return out


def play(automaton, rounds: int, seed: int, cap: int,
         start: int = 0) -> Iterator[int]:
    """The guessing game: per round, the number of guesses G until an
    attempt of `automaton` wins.

    `automaton` is (widths, tables), the one form every guesser compiles
    to: state s reads a field of widths[s] fair bits, and tables[s],
    indexed by the raw field, holds the next state, FAIL or WIN.  Every
    attempt starts in state 0.  Round k (from `start` on) draws all its
    guesses from substream k of `seed`: the bits are those of
    ``BitSource(seed, k).next_bits``, read inline from the same
    splitmix64 words, most significant bit first, so a round's count does
    not depend on how rounds are split across workers.  A round is
    censored after `cap` failed guesses and yields cap + 1.

    Most attempts fail within their first few bits, so play first builds
    a start window over K = max(_START_BITS, widths[0]) bits: per K-bit
    pattern, the fails, the bits used and the state reached by walking
    its complete fields from state 0 (:func:`_start_window`).  An entry
    with a FAIL ends at its last FAIL, in state 0, so the attempt that
    its bits leave unfinished starts with the next lookup.  In state 0
    the loop peeks K bits, looks them up once, consumes only the bits
    used and adds the fails to the count, censoring once that passes the
    cap; an entry with no FAIL that stops in a mid state, a first attempt
    longer than K bits, goes on one field at a time.  Each field is read
    from the same bits and leads to the same state as one step per field
    would, so the counts are the same.
    """
    if cap < 1:
        raise ValueError("need cap >= 1")
    if rounds < 0:
        raise ValueError("need rounds >= 0, got %r" % (rounds,))
    widths, tables = automaton
    kb = max(_START_BITS, widths[0])
    window = _start_window(widths, tables, kb, cap)
    reads = [kb, *widths[1:]]       # bits each state peeks or reads
    mask = _MASK64
    # `avail` stays below kb + 64: reads refill only while short
    low = [(1 << a) - 1 for a in range(kb + 64)]
    for k in range(start, start + rounds):
        # BitSource.next_bits and _mix64 inlined: `counter` steps through
        # the words' splitmix64 inputs, and `buf` holds the `avail` unread
        # bits
        counter = derive_substream_seed(seed, k)
        buf = avail = 0
        g = 1
        state = 0
        while True:
            width = reads[state]
            while avail < width:
                counter = (counter + _GOLDEN) & mask
                z = ((counter ^ (counter >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                buf = (buf << 64) | z ^ (z >> 31)
                avail += 64
            if state:
                avail -= width
                state = tables[state][buf >> avail]
                buf &= low[avail]
                if state < 0:
                    if state == WIN:
                        break
                    if g >= cap:
                        g = cap + 1
                        break
                    g += 1
                    state = 0
            else:
                fails, used, state = window[buf >> (avail - kb)]
                avail -= used
                buf &= low[avail]
                if fails:
                    g += fails
                    if g > cap:
                        g = cap + 1
                        break
                if state == WIN:
                    break
        yield g


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


_BLOCK = 1024                       # symbols a Bernoulli block decides
_BLOCK_WORDS = _BLOCK * 53 // 64    # the 848 whole words they read
_TO_SYMBOLS = bytes.maketrans(b"01", b"\x00\x01")


@functools.cache
def _lanes() -> tuple:
    """One 128-bit lane per word of a block, word 0 in the top lane: 1 in
    each lane, i * GOLDEN mod 2**64 in lane i, and 2**64 - 1 in each."""
    ones = int.from_bytes((bytes(15) + b"\x01") * _BLOCK_WORDS, "big")
    steps = b"".join(((i * _GOLDEN) & _MASK64).to_bytes(16, "big")
                     for i in range(_BLOCK_WORDS))
    return ones, int.from_bytes(steps, "big"), ones * _MASK64


def _bernoulli_bits(n: int, p: float, seed: int) -> bytes:
    """n symbols, symbol j 1 exactly when ``BitSource(seed).next_float()``,
    drawn for the j-th time, is below p: when its 53 bits v_j, stream bits
    53j .. 53j+52, are below ceil(p * 2**53).

    A block of 1024 symbols reads 848 whole words.  The block's splitmix64
    inputs sit in 128-bit lanes of one int, so each step of the finalizer
    is one shift, xor, multiply and mask of that int; the words, joined
    most significant first, are the block's stream bits.  Column i of the
    block, bit i of every v_j, is one int read off the stream's binary
    text, and the columns are compared with the threshold's bits, most
    significant first, until no v_j is undecided.
    """
    limit = math.ceil(p * 9007199254740992.0)
    if not 0 < limit < 1 << 53:
        return bytes([limit > 0]) * n
    ones, steps, mask = _lanes()
    cuts = format(limit, "053b")
    counter = derive_substream_seed(seed, 0) + _GOLDEN   # word 1's input
    out = []
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        w = -(-53 * m // 64)            # the words a last, short block reads
        cut = 128 * (_BLOCK_WORDS - w)
        lane = mask >> cut
        z = ((counter & _MASK64) * (ones >> cut) + (steps >> cut)) & lane
        z = ((z ^ (z >> 30)) & lane) * 0xBF58476D1CE4E5B9 & lane
        z = ((z ^ (z >> 27)) & lane) * 0x94D049BB133111EB & lane
        raw = (z ^ (z >> 31)).to_bytes(16 * w, "big")
        words = bytearray(8 * w)
        for k in range(8):              # each lane's low 8 bytes
            words[k::8] = raw[8 + k::16]
        text = format(int.from_bytes(words, "big"), "0%db" % (64 * w))
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
