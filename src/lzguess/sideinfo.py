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
the draws that keep matching a target x depend on the matched length
alone.  One draw rule, :func:`_cond_draws`, gives them for any matched
length asked for, the conditional twin of ``guessers._lz_draws_at``, and
this module has two readers of it.  The exact conditional guess
probability asks for each length its forward pass over positions
reaches; it, like the exact law of a machine that reads side
information (``fsgm.FSGMSpec`` with a side alphabet), runs through
:func:`lzguess.seqcore.forward`, the package's one exact forward pass.
:func:`_cond_automaton` compiles the lengths its states reach, the
chain field bit by bit and then the index field, to the automaton form
that ``seqcore.play``, the one Monte Carlo engine, runs for every
guesser; an attempt stops at the first field that leaves x.  The game is
played by ``guessers.Guesser(..., side=y)``, whole or in blocks, on the
same path as every other guesser, and ``bounds.sandwich_sweep`` on that
guesser gives its conditional bounds.

Coder, decoder, sampler, draw rule and :func:`joint_parse` read one
dictionary, :class:`_JointDict`: the joint parse as a
:class:`~lzguess.lz78.ParseTrie` over pair symbols a * beta + b, with the
y-word of each node and the nodes of each y-word in id order, the first
of them the node that created it.  The coder, the draw rule and
:func:`joint_parse` get the parse of the whole pair stream and its index
from one function, :func:`_joint_index`, and read it, through node ids, as
it stood when each phrase began: the coder one phrase at a time, the draw
rule at each matched length.  :func:`joint_parse` returns the index with
its counts, and the coder, given that result, reads it in place of
building its own, so a run that needs u(x, y) and the code builds one.
The decoder and the sampler, which do not know x, grow it through
:meth:`_JointDict.feed`, the decoder phrase by phrase and the sampler
pair by pair.
Every field's probability is at least 2**-(field width), and the padded
header covers the fused selector of the final overshooting draw, giving
cond_guess_prob(x|y) >= 2**-L(x|y) everywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .seqcore import (FAIL, WIN, Alphabet, BitSource, DyadicProb, SymbolSeq,
                      forward)
from .lz78 import (BitReader, DecodeError, ParseResult, ParseTrie,
                   incremental_parse)


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
    # every pair a * beta + b is below alpha * beta <= 256, so byte by byte
    # nothing carries: the stream packs as one big-integer multiply-add
    packed = (int.from_bytes(x.indices, "big") * beta
              + int.from_bytes(y.indices, "big")).to_bytes(len(x), "big")
    return SymbolSeq(Alphabet(tokens), packed)


@dataclass
class JointParseResult:
    """Joint incremental parse of (x, y) with per-y-phrase counts.

    c_xy counts complete phrases; the possibly incomplete tail is excluded
    from the c_j counts (it duplicates an existing phrase prefix and would
    spoil u(x, x) = 0) and reported via last_complete/tail_len instead.
    All three are read off `joint`.  `index` is the :class:`_JointDict`
    the counts were read from, which :func:`cond_code` can read again.
    """

    joint: ParseResult           # the parse of the packed pair stream
    c_j: list[int]               # x-phrase count per distinct y-phrase,
                                 # the y-phrases in first-creation order
    u: float
    index: _JointDict = field(repr=False, compare=False)  # of `joint`

    @property
    def c_xy(self) -> int:
        return self.joint.complete_count

    @property
    def last_complete(self) -> bool:
        return self.joint.last_complete

    @property
    def tail_len(self) -> int:
        joint = self.joint
        if joint.last_complete:
            return 0
        return len(joint.seq) - joint.boundaries[-1]


def joint_parse(x: SymbolSeq, y: SymbolSeq) -> JointParseResult:
    """The joint parse of (x, y), its counts c_j and u(x, y), and the
    index they were read from (:func:`_joint_index`)."""
    parse, dic = _joint_index(x, y)
    c_j = [len(nodes) for nodes in dic.members[1:]]
    u = sum(c * math.log2(c) for c in c_j if c > 1)
    return JointParseResult(parse, c_j, u, dic)


# ---------------------------------------------------------------------------
# the truncated-gamma index code over a finite chain
# ---------------------------------------------------------------------------

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


def _ptr_count(node: int, t: int, width: int) -> int:
    """How many raw `width`-bit field patterns map to `node` under mod t."""
    return ((1 << width) - 1 - node) // t + 1


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
    """One chain field read off `reader`, as :func:`chain_read` reads it,
    the unary prefix found with one search; a value past the chain is a
    DecodeError."""
    Z = size.bit_length() - 1
    start = reader.pos
    one = reader.bits.find("1", start, start + Z)
    if one >= 0:
        z = one - start
        reader.pos = one + 1
        return (1 << z) + reader.take(z) - 1
    reader.take(Z)
    gap = (1 << Z) + reader.take((size - (1 << Z)).bit_length()) - 1
    if gap >= size:
        raise DecodeError("chain index %d out of range" % (gap + 1 - (1 << Z)),
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
    ychildren), members[w] the joint nodes with y-word w in id order, so
    members[w][0] is the node that created y-word w, and pos[v] the place
    of v in members[ynode[v]].  Ids are creation order, so the dictionary
    as it stood at node count t is the part with ids below t.  xwords[v],
    the x-word of node v, is kept for the nodes :meth:`feed` adds: the
    decoder and sampler grow their dictionary that way, and the readers
    of an indexed parse (coder, draw rule, joint_parse) need no x-words.
    """

    def __init__(self, beta: int, trie: ParseTrie | None = None):
        self.beta = beta
        self.trie = trie = ParseTrie() if trie is None else trie
        self.xwords = [b""]
        self.ynode = ynode = [0]
        self.pos = pos = [0]
        self.ychildren = ychildren = [{}]
        self.members = members = [[0]]
        parent, sym = trie.parent, trie.sym
        for v in range(1, len(parent)):
            up = ychildren[ynode[parent[v]]]
            ys = sym[v] % beta
            w = up.get(ys)
            if w is None:
                # a one-element list holds one slot, not the four that
                # an append to an empty list reserves
                w = up[ys] = len(members)
                ychildren.append({})
                members.append([v])
                pos.append(0)
            else:
                nodes = members[w]
                pos.append(len(nodes))
                nodes.append(v)
            ynode.append(w)

    def feed(self, cursor: int, xs: int, ys: int) -> int:
        """Advance the parse cursor by the pair (xs, ys): the child, or 0
        (the root) after a new node, which joins the index as in
        :meth:`__init__`."""
        sym = xs * self.beta + ys
        child = self.trie.children[cursor].get(sym)
        if child is not None:
            return child
        trie = self.trie
        trie.children[cursor][sym] = node = len(trie.parent)
        trie.parent.append(cursor)
        trie.sym.append(sym)
        trie.children.append({})
        up = self.ychildren[self.ynode[cursor]]
        w = up.get(ys)
        if w is None:
            w = up[ys] = len(self.members)
            self.ychildren.append({})
            self.members.append([node])
            self.pos.append(0)
        else:
            self.pos.append(len(self.members[w]))
            self.members[w].append(node)
        self.ynode.append(w)
        self.xwords.append(self.xwords[cursor] + bytes((xs,)))
        return 0

    def ypath(self, yidx: bytes, b: int, n: int, t: int = 0,
              w: int = 0) -> list[int]:
        """The y-words that extend y-word w along y[b:n], w first: from the
        empty word, the y-words prefixing y[b:n].  A positive t keeps
        those created below node count t."""
        ychildren, members = self.ychildren, self.members
        path = [w]
        for i in range(b, n):
            w = ychildren[w].get(yidx[i])
            if w is None or (t and members[w][0] >= t):
                break
            path.append(w)
        return path


def _joint_index(x: SymbolSeq, y: SymbolSeq):
    """The pair stream of (x, y) packed and parsed, and the
    :class:`_JointDict` index of its parse."""
    parse = incremental_parse(pack_pairs(x, y))
    return parse, _JointDict(y.alphabet.size, parse.trie)


# ---------------------------------------------------------------------------
# the conditional code
# ---------------------------------------------------------------------------

def cond_code(x: SymbolSeq, y: SymbolSeq,
              parsed: JointParseResult | None = None) -> str:
    """Encode x against known y; returns the code as a '0'/'1' string.

    The records are read off the indexed joint parse: phrase t starts at
    boundaries[t-1] with t nodes in the dictionary; the walk of complete
    phrase t ends at parent[t], that of an incomplete one at the parse's
    tail.  The chain field is read from the y-words below node count t.
    A caller that already holds ``joint_parse(x, y)`` passes it as
    `parsed`, and its parse and index are read in place of building them
    again.
    """
    if parsed is None:
        parse, dic = _joint_index(x, y)
    else:
        parse, dic = parsed.joint, parsed.index
    n = len(x)
    alpha = x.alphabet.size
    a_bits = x.alphabet.bits_per_symbol
    xi, yi = x.indices, y.indices
    trie = parse.trie
    parent, members, ynode, pos = trie.parent, dic.members, dic.ynode, dic.pos
    ends = parse.boundaries[1:] + [n]
    records = []
    for t, (b, e) in enumerate(zip(parse.boundaries, ends), 1):
        if t < len(parent):
            node, d = parent[t], e - b - 1
        else:
            # incomplete tail: an existing phrase, sent by its index alone
            node, d = parse.tail, e - b
        # the x-word x[b:b+d] by its place among the x-phrases of y[b:b+d]
        width = (bisect.bisect_left(members[ynode[node]], t) - 1).bit_length()
        index = format(pos[node], "0%db" % width) if width else ""
        if b + d == n:
            records.append(index)
            break
        # the y-words of y[b:b+d] lie along the joint walk; go on from there
        chain = d + len(dic.ypath(yi, b + d, n, t, ynode[node]))
        fused = ((chain - 1 - d) * alpha
                 + _rank_sym(xi[b + d], yi[b + d], alpha))
        records.append(chain_encode(fused, chain * alpha) + index)
    # the header value is shifted by the symbol width so its gamma length
    # also covers the fused selector of a final overshooting draw (dominance)
    n_complete = len(trie) - 1
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


def _cond_draws(x: SymbolSeq, y: SymbolSeq):
    """The draws of :func:`cond_sample` that keep matching x given y, the
    one conditional draw rule behind its two readers, the exact law and
    the automaton.

    Returns at(b), which gives (size, moves) for a matched length b in
    0..n-1, `size` being the chain field's size chain * alpha after x[:b];
    the pair stream is checked and parsed before at returns.  Lengths may
    be asked for in any order, so a reader asks only for the lengths it
    reaches.  After b matching symbols the sampler's dictionary is the
    joint parse of (x, y) as it stood at node count t_at[b]; at(b) walks
    the pairs from b through its nodes, as ``_lz_draws_at`` walks x[e:].
    `moves` maps each chain value that keeps matching x to (width, c,
    pos, b'): the value picks depth d and the innovation symbol x[b+d],
    and a `width`-bit index v with v % c == pos picks the x-word x[b:b+d]
    among the c x-phrases of y[b:b+d], reaching b' = b+d+1.  At an
    overshoot (b+d == n) the surplus symbol is discarded, so the chain
    values of every rank win and b' = n.
    """
    n = len(x)
    parse, dic = _joint_index(x, y)
    pairs = parse.seq.indices
    t_at = parse.node_counts()
    children = parse.trie.children
    members, ynode, pos = dic.members, dic.ynode, dic.pos
    alpha = x.alphabet.size
    xi, yi = x.indices, y.indices

    def at(b):
        t = t_at[b]
        chain = len(dic.ypath(yi, b, n, t))
        moves, node = {}, 0
        # d < chain: a joint node's y-word is no younger than the node
        for d in range(n - b + 1):
            c = bisect.bisect_left(members[ynode[node]], t)
            base = (chain - 1 - d) * alpha
            if b + d == n:
                moves.update(dict.fromkeys(
                    range(base, base + alpha),
                    ((c - 1).bit_length(), c, pos[node], n)))
                break
            moves[base + _rank_sym(xi[b + d], yi[b + d], alpha)] = (
                (c - 1).bit_length(), c, pos[node], b + d + 1)
            node = children[node].get(pairs[b + d], t)
            if node >= t:
                break
        return chain * alpha, moves

    return at


def cond_guess_prob(x: SymbolSeq, y: SymbolSeq) -> DyadicProb:
    """Exact probability that :func:`cond_sample` emits x given y: a
    :func:`~lzguess.seqcore.forward` pass over emitted-prefix lengths b
    whose moves from b are the :func:`_cond_draws` at b."""
    at = _cond_draws(x, y)
    gap_probs = {}

    def step(b, _state):
        size, moves = at(b)
        probs = gap_probs.get(size)
        if probs is None:
            probs = gap_probs[size] = chain_gap_probs(size)
        for f, (width, c, pos, nxt) in moves.items():
            yield (nxt, nxt, None, probs[f].m * _ptr_count(pos, c, width),
                   probs[f].e + width)

    return forward(len(x), None, step).get(None, DyadicProb.zero())


def _cond_automaton(x: SymbolSeq, y: SymbolSeq):
    """The :func:`_cond_draws` of (x, y) as states of the automaton that
    :func:`~lzguess.seqcore.play` runs.

    At each matched length b the chain field is read the way
    :func:`chain_read` takes it: Z = floor(log2 size) one-bit unary
    states, where a 1 at the z-th picks level z and a 0 goes on, then the
    z-bit payload of level z or, after the last unary state, the top
    level's payload, folded as :func:`chain_draw` folds it.  A chain
    value leads to the index field of its move (none when that field is 0
    bits wide) and on to the first unary state of its next b, numbered
    when first reached; the depth-0 move from b - 1 reaches every b before
    the loop gets to it."""
    n = len(x)
    widths, tables = [], []
    starts = {}

    def state(width, table=None):
        widths.append(width)
        tables.append(table)
        return len(tables) - 1

    def start(b):
        if b == n:
            return WIN
        if b not in starts:
            starts[b] = state(1)
        return starts[b]

    at = _cond_draws(x, y)
    start(0)
    for b in range(n):
        size, moves = at(b)
        links = {}

        def link(gap):
            move = moves.get(gap)
            if move is None:
                return FAIL
            if move not in links:
                width, c, pos, nxt = move
                links[move] = state(width, [
                    start(nxt) if v % c == pos else FAIL
                    for v in range(1 << width)]) if width else start(nxt)
            return links[move]

        z_top = size.bit_length() - 1
        top = (1 << z_top) - 1
        width = (size - top - 1).bit_length()
        go = state(width, [link(top + v % (size - top))
                           for v in range(1 << width)]) if width else link(top)
        for z in reversed(range(z_top)):
            stop = state(z, [link((1 << z) - 1 + v) for v in range(1 << z)]
                         ) if z else link(0)
            unary = state(1) if z else start(b)
            tables[unary] = [go, stop]
            go = unary
    return widths, tables
