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

Only the parse walks the sequence symbol by symbol, one child-dict lookup
per symbol; it adds each phrase's node where the walk falls off the trie,
with its depth, keeps the node where it ends, and after the walk sums the
depths into the phrase starts and prices the code in closed form.  The
encoder reads the code off the parse, one pointer-symbol field per phrase
and that tail node for an incomplete one.  The decoder reads all the
whole fields of one pointer width in one pass, then checks them phrase
by phrase and copies each pointer's word from where it first wrote that
word in its own output.

c_max_oracle computes the largest number of *distinct* phrases over all
partitions by memoized exhaustive search without pruning; it is exponential
and guarded to n <= 24.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .seqcore import Alphabet, BudgetError, SymbolSeq

_C_MAX_ORACLE_N = 24            # c_max_oracle refuses longer sequences


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

    __slots__ = ("parent", "sym", "children")

    def __init__(self):
        self.parent = [-1]
        self.sym = [-1]
        self.children = [{}]

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, parent: int, sym: int) -> int:
        node = len(self.parent)
        self.parent.append(parent)
        self.sym.append(sym)
        self.children.append({})
        self.children[parent][sym] = node
        return node

    def word(self, node: int) -> bytes:
        parent, sym = self.parent, self.sym
        out = bytearray()
        while node:
            out.append(sym[node])
            node = parent[node]
        out.reverse()
        return bytes(out)


class ParseResult(namedtuple("ParseResult",
                             "seq boundaries tail trie code_length_bits")):
    """Outcome of the incremental parse of one sequence.

    `seq` is the parsed :class:`SymbolSeq`, `boundaries` the list of each
    phrase's start offset, `tail` the trie node of an incomplete final
    phrase (0 when the last phrase is complete), `trie` the
    :class:`ParseTrie` of the complete phrases and `code_length_bits` the
    LZ78 code length of `seq`.
    """

    __slots__ = ()

    @property
    def c_lz(self) -> int:           # phrases, an incomplete final included
        return len(self.boundaries)

    @property
    def last_complete(self) -> bool:
        return self.tail == 0

    @property
    def complete_count(self) -> int:
        return len(self.trie) - 1

    def node_counts(self) -> list[int]:
        """t[e] = dictionary node count after the first e symbols."""
        ends = self.boundaries[1:] + [len(self.seq)]
        counts = []
        for t, (b, e) in enumerate(zip(self.boundaries, ends), 1):
            counts += [t] * (e - b)
        counts.append(len(self.trie))
        return counts

    def phrases(self) -> list[SymbolSeq]:
        ends = self.boundaries[1:] + [len(self.seq)]
        return [self.seq[b:e] for b, e in zip(self.boundaries, ends)]

    def phrase_texts(self) -> list[str]:
        """Each phrase rendered as :meth:`SymbolSeq.render` renders it.

        A ``chars`` alphabet renders one character per symbol and a
        ``bytes`` alphabet two hex digits, so those phrases are slices of
        one rendering of the whole sequence; ``lines`` phrases are joined
        one by one."""
        seq = self.seq
        kind = seq.alphabet._render_kind
        if kind == "lines":
            return [p.render() for p in self.phrases()]
        text = seq.render()
        k = 2 if kind == "bytes" else 1
        ends = self.boundaries[1:] + [len(seq)]
        return [text[k * b:k * e] for b, e in zip(self.boundaries, ends)]


def _ptr_bits_total(c: int) -> int:
    """Pointer bits of complete phrases 1..c: the sum of ceil(log2(j))."""
    if c < 2:
        return 0
    top = (c - 1).bit_length()       # the width of phrase c's pointer
    return top * c - (1 << top) + 1


def incremental_parse(seq: SymbolSeq) -> ParseResult:
    """Parse `seq` into shortest-new phrases and price the concrete code.

    One pass over the bare symbols walks the trie from the root with the
    current node's child dict in hand; a missing child completes a
    phrase and adds its node, one deeper than its parent; the pass ends
    at the `tail` node.  Complete phrase j is node j's word, so the
    phrase starts are the running sums of the node depths, summed once
    after the pass.  The code length follows from the phrase count in
    closed form.

    >>> r = incremental_parse(SymbolSeq.from_text("abbabaabbaaabaa", AB))
    >>> r.phrase_texts()
    ['a', 'b', 'ba', 'baa', 'bb', 'aa', 'ab', 'aa']
    """
    trie = ParseTrie()
    parent, sym, children = trie.parent, trie.sym, trie.children
    depth = [0]                      # per node: the length of its word
    root = kids = children[0]
    node = 0
    for c in seq.indices:
        child = kids.get(c)
        if child is None:
            kids[c] = len(parent)
            parent.append(node)
            sym.append(c)
            children.append({})
            depth.append(depth[node] + 1)
            node, kids = 0, root
        else:
            node, kids = child, children[child]
    boundaries = list(accumulate(depth[1:], initial=0))
    if not node:
        boundaries.pop()             # the last sum is n: no phrase starts there
    complete = len(parent) - 1
    bits = _ptr_bits_total(complete) + complete * seq.alphabet.bits_per_symbol
    if node:
        bits += _ptr_width(complete + 1)
    return ParseResult(seq, boundaries, node, trie, bits)


def encode(seq: SymbolSeq) -> str:
    """Encode a sequence; returns the code as a '0'/'1' string.

    The code is read off the parse trie one phrase at a time: complete
    phrase j is node j, sent as (parent[j], sym[j]), and an incomplete
    final phrase is the parse's `tail` node.
    """
    parse = incremental_parse(seq)
    trie = parse.trie
    parent, sym = trie.parent, trie.sym
    a_bits = seq.alphabet.bits_per_symbol
    # pointer and symbol of phrase j fill one field of ptr_width(j) + a_bits;
    # phrases lo..hi share pointer width `width`, so one format spec each
    out = []
    lo, width = 1, 0
    while lo < len(trie):
        hi = min(1 << width, len(trie) - 1)
        spec = "0%db" % (width + a_bits)
        out += [format(parent[j] << a_bits | sym[j], spec)
                for j in range(lo, hi + 1)]
        lo, width = hi + 1, width + 1
    if parse.tail:
        out.append(format(parse.tail, "0%db" % _ptr_width(len(trie))))
    code = "".join(out)
    assert len(code) == parse.code_length_bits
    return code


def decode(bits: str, n: int, alphabet: Alphabet) -> SymbolSeq:
    """Invert :func:`encode` given the true sequence length n.

    Phrases t..2**width share the pointer width `width`, so every whole
    field of that width left in the stream, pointer and symbol together,
    is read in one pass over its slices before the per-phrase checks run;
    only a final pointer without a symbol, or a truncated stream, is read
    field by field.  Each pointer's word is copied from where it was first
    written in the output.  Raises DecodeError with the failing bit
    position on a truncated or corrupt stream.
    """
    BitReader(bits)                 # rejects any character but '0' and '1'
    a_bits = alphabet.bits_per_symbol
    size = alphabet.size
    mask = (1 << a_bits) - 1
    end = len(bits)
    starts, lengths = [0], [0]      # per node: where its word is in `out`
    seen = set()                    # the field of every phrase
    out = bytearray()
    pos = 0
    t, width, step = 1, 0, 1        # node count, its pointer width, 2**width
    while len(out) < n:
        if t > step:
            width += 1
            step <<= 1
        # a phrase's pointer and symbol are one field, ptr << a_bits | sym
        span = width + a_bits
        whole = min(step + 1 - t, (end - pos) // span)
        if whole:
            fields = [int(bits[p:p + span], 2)
                      for p in range(pos, pos + whole * span, span)]
        elif pos + width > end:
            raise DecodeError("stream truncated", end)
        else:
            # a final pointer may have no symbol after it
            fields = [int(bits[pos:pos + width] + "0" * a_bits, 2)]
        for field in fields:
            remaining = n - len(out)
            if not remaining:
                break
            ptr = field >> a_bits
            pos += width
            if ptr >= t:
                raise DecodeError("pointer %d out of range for %d nodes"
                                  % (ptr, t), pos)
            start, length = starts[ptr], lengths[ptr]
            if length == remaining:
                # incomplete final phrase: an existing node's word, no symbol
                out += out[start:start + length]
                break
            if length > remaining:
                raise DecodeError("phrase overruns the target length", pos)
            pos += a_bits
            if pos > end:
                raise DecodeError("stream truncated", end)
            sym = field & mask
            if sym >= size:
                raise DecodeError("symbol %d outside alphabet" % sym, pos)
            if field in seen:
                raise DecodeError("phrase already in dictionary", pos)
            seen.add(field)
            starts.append(len(out))
            lengths.append(length + 1)
            out += out[start:start + length]
            out.append(sym)
            t += 1
    if pos != end:
        raise DecodeError("trailing bits after decoding", pos)
    return SymbolSeq(alphabet, bytes(out))


def pack_bits(bits: str) -> bytes:
    """Pack a bit string into bytes behind an 8-byte little-endian bit count."""
    header = len(bits).to_bytes(8, "little")
    if not bits:
        return header
    padded = bits + "0" * (-len(bits) % 8)
    return header + int(padded, 2).to_bytes(len(padded) // 8, "big")


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
    if not body:
        return ""
    bits = format(int.from_bytes(body, "big"), "0%db" % (len(body) * 8))
    if "1" in bits[count:]:
        raise DecodeError("nonzero padding bits", count)
    return bits[:count]


# ---------------------------------------------------------------------------
# exhaustive oracle for the maximal distinct-phrase count
# ---------------------------------------------------------------------------

def c_max_oracle(seq: SymbolSeq) -> int:
    """Largest number of distinct phrases whose concatenation equals `seq`.

    Exhaustive search over partitions with memoization on (position, set of
    used phrases short enough to still matter); there is no pruning, so the
    cost is exponential.  Guarded: refuses n > 24; use c_lz as the
    surrogate there.
    """
    n = len(seq)
    if n > _C_MAX_ORACLE_N:
        raise BudgetError(
            "c_max_oracle is exponential and capped at n=%d (got n=%d); "
            "use incremental_parse(...).c_lz as the computable surrogate"
            % (_C_MAX_ORACLE_N, n))
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
