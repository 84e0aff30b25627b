"""Guessing with a known side-information sequence.

The pair stream (x_1,y_1),...,(x_n,y_n) is parsed incrementally over the
product alphabet.  With c_j the number of distinct x-phrases paired with the
j-th distinct y-phrase, the conditional complexity is

    u(x, y) = sum_j c_j * log2(c_j)        (complete phrases only),

zero exactly when y determines x phrase by phrase (in particular u(x, x) = 0).

The concrete conditional code sends two fields per joint phrase.  The first
is a truncated-gamma index over the fused choices (y-prefix depth, innovation
symbol): y-prefix candidates are the distinct y-phrases prefixing the
remaining side information, ordered deepest first, and within each depth the
innovation symbol that would copy the aligned side-information symbol comes
first (a side symbol outside x's alphabet has no copy, and the symbols keep
their own order).  Deepest-plus-copy is index zero and costs a single bit, so
when y determines x the whole phrase costs one bit plus the second field.
The second field picks which x-phrase known for that y-prefix the new phrase
extends, in ceil(log2(count)) bits (zero when unique).  A short header
carries the number of complete phrases (padded by the symbol width; see the
dominance note below) so the decoder knows when the incomplete tail record
starts; the tail is just an index into the x-phrases of its y-part.  The
decoder sees y, so no lengths are ever transmitted.

The conditional sampler feeds the same fields from fair bits: truncated
gamma for the fused choice, modulo for the x-index.  Its dictionary is kept
equal to the joint incremental parse of what it has emitted against y, so
the exact conditional guess probability is a forward pass over positions.
It, like the exact law of a machine that reads side information
(``fsgm.FSGMSpec`` with a side alphabet), runs through
:func:`lzguess.seqcore.forward`, the package's one exact forward pass.
The game is played by ``guessers.Guesser(..., side=y)``, whole or in
blocks, on the same path as every other guesser, and
``bounds.sandwich_sweep`` on that guesser gives its conditional bounds.

Coder, decoder, sampler, exact law and :func:`joint_parse` read one
dictionary, :class:`_JointDict`: the joint parse as a
:class:`~lzguess.lz78.ParseTrie` over pair symbols a * beta + b, with the
y-word of each node, the nodes of each y-word in id order and the node
that created each y-word beside it.  The coder and decoder grow it phrase
by phrase and the sampler pair by pair; the exact law indexes the parse of
the whole pair stream and reads it, through node ids, as it stood after
each emitted prefix.
Every field's probability is at least 2**-(field width), and the padded
header covers the fused selector of the final overshooting draw, giving
cond_guess_prob(x|y) >= 2**-L(x|y) everywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .seqcore import Alphabet, BitSource, DyadicProb, SymbolSeq, forward
from .lz78 import (BitReader, DecodeError, ParseResult, ParseTrie,
                   incremental_parse)
from .guessers import _ptr_count


# ---------------------------------------------------------------------------
# joint parsing and conditional complexity
# ---------------------------------------------------------------------------

def pack_pairs(x: SymbolSeq, y: SymbolSeq) -> SymbolSeq:
    """The pair stream as one sequence over the product alphabet,
    pair (a, b) packed as a * beta + b."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    alpha, beta = x.alphabet.size, y.alphabet.size
    if alpha * beta > 256:
        raise ValueError("product alphabet too large (%d)" % (alpha * beta))
    tokens = tuple((a, b) for a in x.alphabet.tokens for b in y.alphabet.tokens)
    packed = bytes(a * beta + b for a, b in zip(x.indices, y.indices))
    return SymbolSeq(Alphabet(tokens), packed)


@dataclass
class JointParseResult:
    """Joint incremental parse of (x, y) with per-y-phrase counts.

    c_xy counts complete phrases; the possibly incomplete tail is excluded
    from the c_j counts (it duplicates an existing phrase prefix and would
    spoil u(x, x) = 0) and reported via last_complete/tail_len instead.
    """

    joint: ParseResult           # the parse of the packed pair stream
    c_xy: int
    y_phrases: list[bytes]       # distinct y-phrases in first-creation order
    c_j: list[int]               # x-phrase count per distinct y-phrase
    u: float
    last_complete: bool
    tail_len: int


def joint_parse(x: SymbolSeq, y: SymbolSeq) -> JointParseResult:
    parse = incremental_parse(pack_pairs(x, y))
    beta = y.alphabet.size
    trie = parse.trie
    dic = _JointDict(beta, trie)
    ywords = [b""]
    for v in dic.ymade[1:]:
        ywords.append(ywords[dic.ynode[trie.parent[v]]]
                      + bytes((trie.sym[v] % beta,)))
    c_j = [len(nodes) for nodes in dic.members[1:]]
    u = sum(c * math.log2(c) for c in c_j if c > 1)
    tail = 0 if parse.last_complete else len(x) - parse.boundaries[-1]
    return JointParseResult(parse, parse.complete_count, ywords[1:], c_j, u,
                            parse.last_complete, tail)


# ---------------------------------------------------------------------------
# the truncated-gamma index code over a finite chain
# ---------------------------------------------------------------------------

def chain_code_len(gap: int, size: int) -> int:
    """Bits used to index `gap` in a chain of `size` candidates."""
    if not 0 <= gap < size:
        raise ValueError("gap %d outside chain of size %d" % (gap, size))
    return len(chain_encode(gap, size))


def chain_encode(gap: int, size: int) -> str:
    v = gap + 1
    Z = size.bit_length() - 1
    z = v.bit_length() - 1
    if z < Z:
        suffix = format(v - (1 << z), "0%db" % z) if z else ""
        return "0" * z + "1" + suffix
    mz = size - (1 << Z) + 1
    w = (mz - 1).bit_length()
    suffix = format(v - (1 << Z), "0%db" % w) if w else ""
    return "0" * Z + suffix


def chain_gap_probs(size: int) -> list[DyadicProb]:
    """Distribution over gaps when the chain field is fed fair bits.

    Levels below the deepest are hit with exactly 2**-(code length); the top
    level folds surplus patterns by modulo, so every gap keeps probability
    at least 2**-(code length).
    """
    Z = size.bit_length() - 1
    mz = size - (1 << Z) + 1
    w = (mz - 1).bit_length()
    probs = []
    for gap in range(size):
        v = gap + 1
        z = v.bit_length() - 1
        if z < Z:
            probs.append(DyadicProb(1, 2 * z + 1))
        else:
            cnt = _ptr_count(v - (1 << Z), mz, w)
            probs.append(DyadicProb(cnt, Z + w))
    return probs


def chain_read(take, size: int) -> int:
    """One chain field read through `take(width)`, which returns the next
    width bits as an integer, first bit most significant.  A top-level
    value past the chain comes back as a gap >= size."""
    Z = size.bit_length() - 1
    z = 0
    while z < Z and take(1) == 0:
        z += 1
    if z < Z:
        return (1 << z) + (take(z) if z else 0) - 1
    return (1 << Z) + take((size - (1 << Z)).bit_length()) - 1


def chain_decode(reader: BitReader, size: int) -> int:
    gap = chain_read(reader.take, size)
    if gap >= size:
        raise DecodeError("chain index %d out of range"
                          % (gap + 1 - (1 << (size.bit_length() - 1))),
                          reader.pos)
    return gap


def chain_draw(bits: BitSource, size: int) -> int:
    """Random gap with the :func:`chain_gap_probs` law: a top-level value
    past the chain folds back modulo the top level's size."""
    gap = chain_read(bits.next_bits, size)
    if gap < size:
        return gap
    top = (1 << (size.bit_length() - 1)) - 1
    return top + (gap - top) % (size - top)


def _gamma_encode(v: int) -> str:
    z = v.bit_length() - 1
    return "0" * z + format(v, "b")


def _gamma_decode(reader: BitReader) -> int:
    z = 0
    while reader.take(1) == 0:
        z += 1
    return (1 << z) | (reader.take(z) if z else 0)


def _rank_sym(sym: int, ystar: int, alpha: int) -> int:
    """Copy-first symbol order: the aligned side-information symbol gets
    rank 0, the rest keep their relative order.  A side symbol outside the
    x alphabet (index >= alpha) has no copy candidate: rank = symbol."""
    if ystar >= alpha:
        return sym
    if sym == ystar:
        return 0
    return sym + 1 if sym < ystar else sym


def _unrank_sym(rank: int, ystar: int, alpha: int) -> int:
    if ystar >= alpha:
        return rank
    if rank == 0:
        return ystar
    return rank - 1 if rank - 1 < ystar else rank


# ---------------------------------------------------------------------------
# the joint dictionary behind the coder, decoder, sampler and exact law
# ---------------------------------------------------------------------------

class _JointDict:
    """The joint parse as one :class:`~lzguess.lz78.ParseTrie` over pair
    symbols a * beta + b, with a y-word index beside it.

    ynode[v] is the y-word of joint node v (a node of the y-word trie
    ychildren), members[w] the joint nodes with y-word w in id order,
    pos[v] the place of v in members[ynode[v]], and ymade[w] the joint
    node that created y-word w.  Ids are creation order, so the dictionary
    as it stood at node count t is the part with ids below t.  xwords[v],
    the x-word of node v, is kept for the nodes :meth:`feed` adds: the
    coder, decoder and sampler grow their dictionary that way, and the
    readers of an indexed parse need no x-words.
    """

    def __init__(self, beta: int, trie: ParseTrie | None = None):
        self.beta = beta
        self.trie = ParseTrie() if trie is None else trie
        self.xwords = [b""]
        self.ynode = [0]
        self.pos = [0]
        self.ychildren: list[dict] = [{}]
        self.ymade = [0]
        self.members = [[0]]
        for v in range(1, len(self.trie)):
            self._index(v)

    def _index(self, v: int):
        parent = self.trie.parent[v]
        ys = self.trie.sym[v] % self.beta
        up = self.ychildren[self.ynode[parent]]
        w = up.get(ys)
        if w is None:
            w = up[ys] = len(self.members)
            self.ychildren.append({})
            self.ymade.append(v)
            self.members.append([])
        self.ynode.append(w)
        self.pos.append(len(self.members[w]))
        self.members[w].append(v)

    def feed(self, cursor: int, xs: int, ys: int) -> int:
        """Advance the parse cursor by the pair (xs, ys): the child, or 0
        (the root) after a new node, which joins the index."""
        sym = xs * self.beta + ys
        child = self.trie.children[cursor].get(sym)
        if child is None:
            self._index(self.trie.add(cursor, sym))
            self.xwords.append(self.xwords[cursor] + bytes((xs,)))
            return 0
        return child

    def ypath(self, yidx: bytes, b: int, n: int, t: int = 0) -> list[int]:
        """The y-words prefixing y[b:n], the empty one first; a positive t
        keeps those created below node count t."""
        ychildren, ymade = self.ychildren, self.ymade
        path = [0]
        w = 0
        for i in range(b, n):
            w = ychildren[w].get(yidx[i])
            if w is None or (t and ymade[w] >= t):
                break
            path.append(w)
        return path


# ---------------------------------------------------------------------------
# the conditional code
# ---------------------------------------------------------------------------

def cond_code(x: SymbolSeq, y: SymbolSeq) -> str:
    """Encode x against known y; returns the code as a '0'/'1' string."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    alpha = x.alphabet.size
    a_bits = x.alphabet.bits_per_symbol
    xi, yi = x.indices, y.indices
    dic = _JointDict(y.alphabet.size)
    children = dic.trie.children
    records = []
    b = 0
    while b < n:
        node = 0
        d = 0
        while b + d < n:
            child = children[node].get(xi[b + d] * dic.beta + yi[b + d])
            if child is None:
                break
            node = child
            d += 1
        # the x-word x[b:b+d] by its place among the x-phrases of y[b:b+d]
        width = (len(dic.members[dic.ynode[node]]) - 1).bit_length()
        index = format(dic.pos[node], "0%db" % width) if width else ""
        if b + d == n:
            # incomplete tail: an existing phrase, sent by its index alone
            records.append(index)
            break
        chain = len(dic.ypath(yi, b, n))
        fused = ((chain - 1 - d) * alpha
                 + _rank_sym(xi[b + d], yi[b + d], alpha))
        records.append(chain_encode(fused, chain * alpha) + index)
        dic.feed(node, xi[b + d], yi[b + d])
        b += d + 1
    # the header value is shifted by the symbol width so its gamma length
    # also covers the fused selector of a final overshooting draw (dominance)
    n_complete = len(dic.trie) - 1
    return _gamma_encode((n_complete + 1) << a_bits) + "".join(records)


def _read_member(reader: BitReader, nodes: list[int], what: str) -> int:
    """The joint node a ceil(log2(len(nodes)))-bit index field picks."""
    idx = reader.take((len(nodes) - 1).bit_length())
    if idx >= len(nodes):
        raise DecodeError("%s index %d out of range" % (what, idx),
                          reader.pos)
    return nodes[idx]


def cond_decode(bits: str, y: SymbolSeq, n: int,
                x_alphabet: Alphabet | None = None) -> SymbolSeq:
    """Invert :func:`cond_code` given y and the true length n."""
    if len(y) < n:
        raise ValueError("side information shorter than the target")
    alphabet = x_alphabet or y.alphabet
    alpha = alphabet.size
    a_bits = alphabet.bits_per_symbol
    yi = y.indices
    reader = BitReader(bits)
    header = _gamma_decode(reader)
    if header & ((1 << a_bits) - 1):
        raise DecodeError("corrupt header", reader.pos)
    n_complete = (header >> a_bits) - 1
    dic = _JointDict(y.alphabet.size)
    out = bytearray()
    b = 0
    for _ in range(n_complete):
        if b >= n:
            raise DecodeError("more phrases than the target length admits",
                              reader.pos)
        path = dic.ypath(yi, b, n)
        chain = len(path)
        fused = chain_decode(reader, chain * alpha)
        d = chain - 1 - fused // alpha
        if b + d >= n:
            raise DecodeError("phrase overruns the target", reader.pos)
        sym = _unrank_sym(fused % alpha, yi[b + d], alpha)
        parent = _read_member(reader, dic.members[path[d]], "x-phrase")
        if dic.feed(parent, sym, yi[b + d]):
            raise DecodeError("phrase already in dictionary", reader.pos)
        out.extend(dic.xwords[-1])
        b += d + 1
    if b < n:
        path = dic.ypath(yi, b, n)
        if len(path) <= n - b:
            raise DecodeError("tail y-phrase unknown", reader.pos)
        out.extend(dic.xwords[_read_member(reader, dic.members[path[-1]],
                                           "tail")])
    if reader.pos != len(bits):
        raise DecodeError("trailing bits after decoding", reader.pos)
    return SymbolSeq(alphabet, bytes(out))


def cond_code_length(x: SymbolSeq, y: SymbolSeq) -> int:
    """L(x|y) in bits."""
    return len(cond_code(x, y))


def epsilon1(n: int) -> float:
    """The order log(log n)/log n redundancy allowance in
    L(x|y) <= u(x, y) + n * epsilon1(n).

    The constant 3.5 covers the per-phrase fused-selector and index fields
    on the corpus suite with margin; it is a calibrated engineering
    envelope, not a theorem.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    return 3.5 * math.log2(math.log2(n)) / math.log2(n)


# ---------------------------------------------------------------------------
# conditional sampler and exact conditional guess probability
# ---------------------------------------------------------------------------

def cond_sample(y: SymbolSeq, n: int, bits: BitSource,
                x_alphabet: Alphabet | None = None) -> SymbolSeq:
    """One guess drawn by feeding the conditional record fields fair bits.

    Dictionary state stays equal to the joint parse of (emitted, y), the
    exact analogue of the unconditional sampler.
    """
    if n < 1 or len(y) < n:
        raise ValueError("need 1 <= n <= len(y)")
    alphabet = x_alphabet or y.alphabet
    alpha = alphabet.size
    yi = y.indices
    dic = _JointDict(y.alphabet.size)
    cursor = 0
    out = bytearray()
    while len(out) < n:
        b = len(out)
        path = dic.ypath(yi, b, n)
        chain = len(path)
        fused = chain_draw(bits, chain * alpha)
        d = chain - 1 - fused // alpha
        # the deepest candidate fills the target exactly; its symbol is
        # surplus, so the rank convention there is immaterial
        ystar = yi[b + d] if b + d < n else 0
        sym = _unrank_sym(fused % alpha, ystar, alpha)
        nodes = dic.members[path[d]]
        width = (len(nodes) - 1).bit_length()
        u = dic.xwords[nodes[bits.next_bits(width) % len(nodes)]]
        for i, xs in enumerate((u + bytes([sym]))[:n - b]):
            out.append(xs)
            cursor = dic.feed(cursor, xs, yi[b + i])
    return SymbolSeq(alphabet, bytes(out))


def cond_guess_prob(x: SymbolSeq, y: SymbolSeq) -> DyadicProb:
    """Exact probability that :func:`cond_sample` emits x given y: a
    :func:`~lzguess.seqcore.forward` pass over emitted-prefix lengths.
    After e matching symbols the sampler's dictionary is the joint parse of
    (x, y) as it stood at node count t_at[e]."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    parse = incremental_parse(pack_pairs(x, y))
    pairs = memoryview(parse.seq.indices)
    t_at = parse.node_counts()
    dic = _JointDict(y.alphabet.size, parse.trie)
    alpha = x.alphabet.size
    xi, yi = x.indices, y.indices

    def step(b, _state):
        t = t_at[b]
        chain = len(dic.ypath(yi, b, n, t))
        fused_probs = chain_gap_probs(chain * alpha)
        # the depth-d candidate: x-word x[b:b+d] among the x-phrases of
        # y[b:b+d] that exist at node count t; d < chain, because a joint
        # node's y-word is no younger than the node
        for d, node in dic.trie.walk(pairs[b:], limit=t):
            c = bisect.bisect_left(dic.members[dic.ynode[node]], t)
            width = (c - 1).bit_length()
            cnt = _ptr_count(dic.pos[node], c, width)
            base = (chain - 1 - d) * alpha
            if b + d == n:
                # overshoot: the surplus symbol is discarded, any rank wins
                for f in fused_probs[base:base + alpha]:
                    yield n, None, f.m * cnt, f.e + width
                return
            f = fused_probs[base + _rank_sym(xi[b + d], yi[b + d], alpha)]
            yield b + d + 1, None, f.m * cnt, f.e + width

    return forward(n, None, step).get(None, DyadicProb.zero())
