"""LZ78 incremental parsing and a concrete bit-exact code.

The incremental parse splits a sequence so that each phrase is the shortest
string not previously seen as a phrase; the last phrase may be incomplete.
The concrete code fixes one bit layout:

  * complete phrase j (1-indexed) is sent as a pointer to its parent node in
    ceil(log2(j)) bits (the dictionary holds j nodes at that moment, root
    included) followed by the innovation symbol in ceil(log2(alpha)) bits;
  * an incomplete final phrase, which always equals an existing node's word,
    is sent as that node's id in ceil(log2(t)) bits with no symbol, t being
    the final node count.

Given the target length n the decoder is deterministic, so the code is
prefix-free on each length-n alphabet power and satisfies Kraft's inequality.
It accepts exactly the streams the encoder writes: a pointer-symbol pair that
is already a phrase is a DecodeError, like a truncated stream.  Total length
grows like c*log(c) in the phrase count.

c_max_oracle computes the largest number of *distinct* phrases over all
partitions by memoized exhaustive search without pruning; it is exponential
and guarded to n <= 24.
"""

from __future__ import annotations

from dataclasses import dataclass

from .seqcore import Alphabet, BudgetError, SymbolSeq


class DecodeError(ValueError):
    """Corrupt or truncated code stream; carries the failing bit position."""

    def __init__(self, message: str, bit_position: int):
        super().__init__("%s (at bit %d)" % (message, bit_position))
        self.bit_position = bit_position


class BitReader:
    """Sequential reads from a '0'/'1' string, for the decoders."""

    __slots__ = ("bits", "pos")

    def __init__(self, bits: str):
        if bits.count("0") + bits.count("1") != len(bits):
            pos = next(i for i, c in enumerate(bits) if c not in "01")
            raise DecodeError("bit string holds %r" % bits[pos], pos)
        self.bits = bits
        self.pos = 0

    def take(self, k: int) -> int:
        """The next k bits as an integer, first bit most significant."""
        if self.pos + k > len(self.bits):
            raise DecodeError("stream truncated", len(self.bits))
        val = int(self.bits[self.pos:self.pos + k], 2) if k else 0
        self.pos += k
        return val


def _ptr_width(t: int) -> int:
    """Bits needed to index t dictionary nodes: ceil(log2(t))."""
    return (t - 1).bit_length()


class ParseTrie:
    """The phrase dictionary as a trie; node 0 is the root (empty word).

    Node ids are creation order, so node j is exactly the j-th complete
    phrase.  children[v] maps an edge symbol to the child id.
    """

    __slots__ = ("parent", "sym", "depth", "children")

    def __init__(self):
        self.parent = [-1]
        self.sym = [-1]
        self.depth = [0]
        self.children = [{}]

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, parent: int, sym: int) -> int:
        node = len(self.parent)
        self.parent.append(parent)
        self.sym.append(sym)
        self.depth.append(self.depth[parent] + 1)
        self.children.append({})
        self.children[parent][sym] = node
        return node

    def word(self, node: int) -> bytes:
        out = bytearray()
        while node:
            out.append(self.sym[node])
            node = self.parent[node]
        out.reverse()
        return bytes(out)

    def walk(self, indices, limit: int = 0):
        """Node ids along the path spelled by `indices` from the root.

        Yields (depth, node) pairs starting with (0, root) and stops at the
        first missing edge; a positive `limit` restricts to nodes with
        id < limit (used to replay historical trie states)."""
        node = 0
        d = 0
        yield d, node
        for c in indices:
            nxt = self.children[node].get(c)
            if nxt is None or (limit and nxt >= limit):
                return
            node = nxt
            d += 1
            yield d, node


@dataclass
class ParseResult:
    """Outcome of the incremental parse of one sequence."""

    seq: SymbolSeq
    boundaries: list[int]          # start offset of each phrase
    c_lz: int                      # phrase count, incomplete final included
    last_complete: bool
    trie: ParseTrie
    code_length_bits: int

    @property
    def complete_count(self) -> int:
        return self.c_lz - (0 if self.last_complete else 1)

    def phrases(self) -> list[SymbolSeq]:
        ends = self.boundaries[1:] + [len(self.seq)]
        return [self.seq[b:e] for b, e in zip(self.boundaries, ends)]

    def phrase_texts(self) -> list[str]:
        return [p.render() for p in self.phrases()]


def incremental_parse(seq: SymbolSeq) -> ParseResult:
    """Parse `seq` into shortest-new phrases and price the concrete code.

    >>> r = incremental_parse(SymbolSeq.from_text("abbabaabbaaabaa", AB))
    >>> r.phrase_texts()
    ['a', 'b', 'ba', 'baa', 'bb', 'aa', 'ab', 'aa']
    """
    trie = ParseTrie()
    boundaries = []
    node = 0
    start = 0
    bits = 0
    a_bits = seq.alphabet.bits_per_symbol
    for pos, c in enumerate(seq):
        if node == 0:
            boundaries.append(pos)
            start = pos
        child = trie.children[node].get(c)
        if child is None:
            bits += _ptr_width(len(trie)) + a_bits
            trie.add(node, c)
            node = 0
        else:
            node = child
    last_complete = node == 0
    if not last_complete:
        bits += _ptr_width(len(trie))
    c_lz = len(boundaries)
    if len(seq) == 0:
        last_complete = True
    return ParseResult(seq, boundaries, c_lz, last_complete, trie, bits)


def code_length(parse: ParseResult, alpha: int | None = None) -> int:
    """Exact bit length of the concrete code for a parsed sequence.

    Complete phrase j costs ceil(log2(j)) + ceil(log2(alpha)) bits; an
    incomplete final phrase costs ceil(log2(t)) bits, t = final node count.
    """
    if alpha is None or alpha == parse.seq.alphabet.size:
        return parse.code_length_bits
    a_bits = max(1, (alpha - 1).bit_length())
    bits = sum(_ptr_width(j) + a_bits for j in range(1, parse.complete_count + 1))
    if not parse.last_complete:
        bits += _ptr_width(parse.complete_count + 1)
    return bits


def encode(seq: SymbolSeq) -> str:
    """Encode a sequence; returns the code as a '0'/'1' string."""
    parse = incremental_parse(seq)
    trie = parse.trie
    a_bits = seq.alphabet.bits_per_symbol
    out = []
    node = 0
    t = 1
    for c in seq:
        child = trie.children[node].get(c)
        if child is not None and child < t:
            node = child
            continue
        # phrase complete: pointer to current node, then the innovation symbol
        out.append(format(node, "0%db" % _ptr_width(t)) if t > 1 else "")
        out.append(format(c, "0%db" % a_bits))
        t += 1
        node = 0
    if node != 0:
        out.append(format(node, "0%db" % _ptr_width(t)) if t > 1 else "")
    code = "".join(out)
    assert len(code) == parse.code_length_bits
    return code


def decode(bits: str, n: int, alphabet: Alphabet) -> SymbolSeq:
    """Invert :func:`encode` given the true sequence length n.

    Raises DecodeError with the failing bit position on a truncated or
    corrupt stream.
    """
    trie = ParseTrie()
    a_bits = alphabet.bits_per_symbol
    out = bytearray()
    reader = BitReader(bits)
    while len(out) < n:
        t = len(trie)
        ptr = reader.take(_ptr_width(t))
        if ptr >= t:
            raise DecodeError("pointer %d out of range for %d nodes" % (ptr, t),
                              reader.pos)
        word = trie.word(ptr)
        remaining = n - len(out)
        if len(word) == remaining:
            # incomplete final phrase: an existing node's word, no symbol
            out.extend(word)
            break
        if len(word) > remaining:
            raise DecodeError("phrase overruns the target length", reader.pos)
        sym = reader.take(a_bits)
        if sym >= alphabet.size:
            raise DecodeError("symbol %d outside alphabet" % sym, reader.pos)
        if sym in trie.children[ptr]:
            raise DecodeError("phrase already in dictionary", reader.pos)
        out.extend(word)
        out.append(sym)
        trie.add(ptr, sym)
    if reader.pos != len(bits):
        raise DecodeError("trailing bits after decoding", reader.pos)
    return SymbolSeq(alphabet, bytes(out))


def pack_bits(bits: str) -> bytes:
    """Pack a bit string into bytes behind an 8-byte little-endian bit count."""
    header = len(bits).to_bytes(8, "little")
    padded = bits + "0" * (-len(bits) % 8)
    body = bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))
    return header + body


def unpack_bits(blob: bytes) -> str:
    """Invert :func:`pack_bits`; anything pack_bits cannot have written
    (short or surplus bytes, nonzero padding) raises DecodeError."""
    if len(blob) < 8:
        raise DecodeError("missing bit-count header", 0)
    count = int.from_bytes(blob[:8], "little")
    body = blob[8:]
    if len(body) * 8 < count:
        raise DecodeError("packed stream shorter than its header claims",
                          len(body) * 8)
    if len(body) != -(-count // 8):
        raise DecodeError("bytes after the last packed bit", count)
    bits = "".join(format(byte, "08b") for byte in body)
    if "1" in bits[count:]:
        raise DecodeError("nonzero padding bits", count)
    return bits[:count]


# ---------------------------------------------------------------------------
# exhaustive oracle for the maximal distinct-phrase count
# ---------------------------------------------------------------------------

def c_max_oracle(seq: SymbolSeq, max_n: int = 24) -> int:
    """Largest number of distinct phrases whose concatenation equals `seq`.

    Exhaustive search over partitions with memoization on (position, set of
    used phrases short enough to still matter); there is no pruning, so the
    cost is exponential.  Guarded: refuses n > max_n; use c_lz as the
    surrogate there.
    """
    n = len(seq)
    if n > max_n:
        raise BudgetError(
            "c_max_oracle is exponential and capped at n=%d (got n=%d); "
            "use incremental_parse(...).c_lz as the computable surrogate"
            % (max_n, n))
    if n == 0:
        return 0
    x = seq.indices
    memo: dict = {}

    def dfs(pos: int, used: frozenset) -> int:
        """Max phrases coverable from pos, or -1 if no all-distinct
        completion exists.  Only used phrases short enough to recur matter,
        which is what makes the memo key collapse."""
        if pos == n:
            return 0
        rem = n - pos
        key = (pos, frozenset(p for p in used if len(p) <= rem))
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = -1
        for end in range(pos + 1, n + 1):
            phrase = x[pos:end]
            if phrase in used:
                continue
            sub = dfs(end, used | {phrase})
            if sub >= 0 and sub + 1 > result:
                result = sub + 1
        memo[key] = result
        return result

    return dfs(0, frozenset())
