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
Every field's probability is at least 2**-(field width), and the padded
header covers the fused selector of the final overshooting draw, giving
cond_guess_prob(x|y) >= 2**-L(x|y) everywhere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .seqcore import Alphabet, BitSource, DyadicProb, SymbolSeq
from .lz78 import BitReader, DecodeError, ParseResult, incremental_parse
from .guessers import (LOG2E, _blocks, _parse_history, _ptr_count,
                       moment_log2)
from .bounds import block_entropy, delta_n_at


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
    packed = pack_pairs(x, y)
    parse = incremental_parse(packed)
    beta = y.alphabet.size
    trie = parse.trie
    ywords: dict[int, bytes] = {0: b""}
    order: list[bytes] = []
    counts: dict[bytes, int] = {}
    for node in range(1, parse.complete_count + 1):
        yw = ywords[trie.parent[node]] + bytes([trie.sym[node] % beta])
        ywords[node] = yw
        if yw not in counts:
            counts[yw] = 0
            order.append(yw)
        counts[yw] += 1
    c_j = [counts[w] for w in order]
    u = sum(c * math.log2(c) for c in c_j if c > 1)
    tail = 0 if parse.last_complete else len(x) - parse.boundaries[-1]
    return JointParseResult(parse, parse.complete_count, order, c_j, u,
                            parse.last_complete, tail)


# ---------------------------------------------------------------------------
# the truncated-gamma index code over a finite chain
# ---------------------------------------------------------------------------

def chain_code_len(gap: int, size: int) -> int:
    """Bits used to index `gap` in a chain of `size` candidates."""
    if not 0 <= gap < size:
        raise ValueError("gap %d outside chain of size %d" % (gap, size))
    v = gap + 1
    Z = size.bit_length() - 1
    z = v.bit_length() - 1
    if z < Z:
        return 2 * z + 1
    mz = size - (1 << Z) + 1
    return Z + (mz - 1).bit_length()


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


def chain_decode(reader: BitReader, size: int) -> int:
    Z = size.bit_length() - 1
    z = 0
    while z < Z and reader.take(1) == 0:
        z += 1
    if z < Z:
        v = (1 << z) + (reader.take(z) if z else 0)
    else:
        mz = size - (1 << Z) + 1
        w = (mz - 1).bit_length()
        val = reader.take(w)
        if val >= mz:
            raise DecodeError("chain index %d out of range" % val, reader.pos)
        v = (1 << Z) + val
    return v - 1


def chain_draw(bits: BitSource, size: int) -> int:
    """Random gap with the :func:`chain_gap_probs` law."""
    Z = size.bit_length() - 1
    z = 0
    while z < Z and bits.next_bits(1) == 0:
        z += 1
    if z < Z:
        return (1 << z) + (bits.next_bits(z) if z else 0) - 1
    mz = size - (1 << Z) + 1
    w = (mz - 1).bit_length()
    return (1 << Z) + (bits.next_bits(w) % mz) - 1


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
# shared dictionary state for coder, decoder, and sampler
# ---------------------------------------------------------------------------

class _CondDict:
    """Joint parse trie plus the y-phrase trie and per-y-phrase x lists."""

    def __init__(self):
        self.children: list[dict] = [{}]     # keyed by (x sym, y sym)
        self.xword: list[bytes] = [b""]
        self.yword: list[bytes] = [b""]
        self.D: dict[bytes, list[bytes]] = {b"": [b""]}
        self.ytrie: list[dict] = [{}]        # keyed by y sym
        self.cursor = 0                      # joint parse cursor

    def y_chain_depth(self, yidx: bytes, b: int, nmax: int) -> int:
        """Depth of the deepest distinct y-phrase prefixing y[b:nmax]."""
        node = 0
        d = 0
        while b + d < nmax:
            node = self.ytrie[node].get(yidx[b + d])
            if node is None:
                break
            d += 1
        return d

    def _add_node(self, parent: int, key: tuple, xw: bytes, yw: bytes):
        """Create the joint node for phrase (xw, yw) under `parent`."""
        self.children[parent][key] = len(self.children)
        self.children.append({})
        self.xword.append(xw)
        self.yword.append(yw)
        if yw in self.D:
            self.D[yw].append(xw)
        else:
            self.D[yw] = [xw]
            node = 0
            for c in yw:
                nxt = self.ytrie[node].get(c)
                if nxt is None:
                    nxt = len(self.ytrie)
                    self.ytrie.append({})
                    self.ytrie[node][c] = nxt
                node = nxt

    def insert_phrase(self, xw: bytes, yw: bytes):
        """Insert one complete joint phrase (its proper prefixes exist)."""
        node = 0
        for xs, ys in zip(xw[:-1], yw[:-1]):
            node = self.children[node].get((xs, ys))
            if node is None:
                raise DecodeError("phrase prefix missing from dictionary", 0)
        key = (xw[-1], yw[-1])
        if key in self.children[node]:
            raise DecodeError("phrase already in dictionary", 0)
        self._add_node(node, key, xw, yw)

    def feed_pair(self, xs: int, ys: int):
        """Advance the parse cursor by one emitted pair (sampler side)."""
        child = self.children[self.cursor].get((xs, ys))
        if child is None:
            self._add_node(self.cursor, (xs, ys),
                           self.xword[self.cursor] + bytes([xs]),
                           self.yword[self.cursor] + bytes([ys]))
            self.cursor = 0
        else:
            self.cursor = child


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
    state = _CondDict()
    records = []
    n_complete = 0
    b = 0
    while b < n:
        node = 0
        d = 0
        while b + d < n:
            child = state.children[node].get((xi[b + d], yi[b + d]))
            if child is None:
                break
            node = child
            d += 1
        if b + d == n and d > 0:
            # incomplete tail: an existing phrase's x-word, indexed within
            # the x-phrases of its y-part
            lst = state.D[yi[b:n]]
            idx = lst.index(xi[b:n])
            width = (len(lst) - 1).bit_length()
            records.append(format(idx, "0%db" % width) if width else "")
            b = n
            break
        chain = state.y_chain_depth(yi, b, n) + 1
        fused = ((chain - 1 - d) * alpha
                 + _rank_sym(xi[b + d], yi[b + d], alpha))
        lst = state.D[yi[b:b + d]]
        idx = lst.index(xi[b:b + d])
        width = (len(lst) - 1).bit_length()
        rec = [chain_encode(fused, chain * alpha),
               format(idx, "0%db" % width) if width else ""]
        records.append("".join(rec))
        state.insert_phrase(xi[b:b + d + 1], yi[b:b + d + 1])
        n_complete += 1
        b += d + 1
    # the header value is shifted by the symbol width so its gamma length
    # also covers the fused selector of a final overshooting draw (dominance)
    return _gamma_encode((n_complete + 1) << a_bits) + "".join(records)


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
    state = _CondDict()
    out = bytearray()
    b = 0
    for _ in range(n_complete):
        if b >= n:
            raise DecodeError("more phrases than the target length admits",
                              reader.pos)
        chain = state.y_chain_depth(yi, b, n) + 1
        fused = chain_decode(reader, chain * alpha)
        d = chain - 1 - fused // alpha
        if b + d >= n:
            raise DecodeError("phrase overruns the target", reader.pos)
        sym = _unrank_sym(fused % alpha, yi[b + d], alpha)
        lst = state.D[yi[b:b + d]]
        width = (len(lst) - 1).bit_length()
        idx = reader.take(width)
        if idx >= len(lst):
            raise DecodeError("x-phrase index %d out of range" % idx,
                              reader.pos)
        xw = lst[idx] + bytes([sym])
        state.insert_phrase(xw, yi[b:b + d + 1])
        out.extend(xw)
        b += d + 1
    if b < n:
        lst = state.D.get(yi[b:n])
        if lst is None:
            raise DecodeError("tail y-phrase unknown", reader.pos)
        width = (len(lst) - 1).bit_length()
        idx = reader.take(width)
        if idx >= len(lst):
            raise DecodeError("tail index %d out of range" % idx, reader.pos)
        out.extend(lst[idx])
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
    state = _CondDict()
    out = bytearray()
    while len(out) < n:
        b = len(out)
        chain = state.y_chain_depth(yi, b, n) + 1
        fused = chain_draw(bits, chain * alpha)
        d = chain - 1 - fused // alpha
        # the deepest candidate fills the target exactly; its symbol is
        # surplus, so the rank convention there is immaterial
        ystar = yi[b + d] if b + d < n else 0
        sym = _unrank_sym(fused % alpha, ystar, alpha)
        lst = state.D[yi[b:b + d]]
        width = (len(lst) - 1).bit_length()
        u = lst[bits.next_bits(width) % len(lst)]
        xblock = u + bytes([sym])
        for i, xs in enumerate(xblock):
            if len(out) == n:
                break
            out.append(xs)
            state.feed_pair(xs, yi[b + i])
    return SymbolSeq(alphabet, bytes(out))


class _CondHistory:
    """Time-indexed view of the dictionary along the joint parse of (x, y),
    for the forward pass: everything the sampler could know after emitting
    e matching symbols is a function of e."""

    def __init__(self, x: SymbolSeq, y: SymbolSeq):
        parse, t_at = _parse_history(pack_pairs(x, y))
        trie = parse.trie
        beta = y.alphabet.size
        self.trie = trie
        self.t_at = t_at
        self.beta = beta
        # y words per node, y-trie with establishment ids, D positions
        ywords = {0: b""}
        ytrie: list[dict] = [{}]
        yestab = [0]
        dcount: dict[bytes, int] = {b"": 1}
        pos_in_D = [0] * len(trie.parent)
        for v in range(1, len(trie.parent)):
            yw = ywords[trie.parent[v]] + bytes([trie.sym[v] % beta])
            ywords[v] = yw
            node = 0
            for cy in yw:
                nxt = ytrie[node].get(cy)
                if nxt is None:
                    nxt = len(ytrie)
                    ytrie.append({})
                    yestab.append(v)
                    ytrie[node][cy] = nxt
                node = nxt
            pos_in_D[v] = dcount.get(yw, 0)
            dcount[yw] = pos_in_D[v] + 1
        self.ytrie = ytrie
        self.yestab = yestab
        self.pos_in_D = pos_in_D
        self.ywords = ywords
        # D sizes over time: entries of D[w] are nodes in id order, so the
        # count visible at node-count t is how many of them have id < t
        self.d_entries: dict[bytes, list[int]] = {b"": [0]}
        for v in range(1, len(trie.parent)):
            self.d_entries.setdefault(ywords[v], []).append(v)

    def d_count(self, w: bytes, t: int) -> int:
        return bisect.bisect_left(self.d_entries.get(w, ()), t)

    def chain_depth(self, yidx: bytes, b: int, n: int, t: int) -> int:
        node = 0
        d = 0
        while b + d < n:
            nxt = self.ytrie[node].get(yidx[b + d])
            if nxt is None or self.yestab[nxt] >= t:
                break
            node = nxt
            d += 1
        return d


def cond_guess_prob(x: SymbolSeq, y: SymbolSeq) -> DyadicProb:
    """Exact probability that :func:`cond_sample` emits x given y."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    if n == 0:
        return DyadicProb.one()
    hist = _CondHistory(x, y)
    trie = hist.trie
    beta = hist.beta
    alpha = x.alphabet.size
    xi, yi = x.indices, y.indices

    p: list = [None] * (n + 1)
    p[0] = DyadicProb.one()
    success = DyadicProb.zero()
    for b in range(n):
        pb = p[b]
        if pb is None:
            continue
        t = hist.t_at[b]
        chain = hist.chain_depth(yi, b, n, t) + 1
        fused_probs = chain_gap_probs(chain * alpha)
        node = 0
        d = 0
        while True:
            # the depth-d candidate: x-word x[b:b+d] within D[y[b:b+d]]
            c = hist.d_count(hist.ywords[node], t) if node else 1
            width = (c - 1).bit_length()
            cnt = _ptr_count(hist.pos_in_D[node], c, width)
            p_idx = DyadicProb(cnt, width)
            base = (chain - 1 - d) * alpha
            if b + d == n:
                # overshoot: the surplus symbol is discarded, any rank wins
                p_fused = fused_probs[base]
                for r in range(1, alpha):
                    p_fused = p_fused + fused_probs[base + r]
                success = success + pb * p_fused * p_idx
                break
            rank = _rank_sym(xi[b + d], yi[b + d], alpha)
            gain = pb * fused_probs[base + rank] * p_idx
            tgt = b + d + 1
            p[tgt] = gain if p[tgt] is None else p[tgt] + gain
            nxt = trie.children[node].get(xi[b + d] * beta + yi[b + d])
            if nxt is None or nxt >= t or d + 1 >= chain:
                break
            node = nxt
            d += 1
    if p[n] is not None:
        success = success + p[n]
    return success


def cond_block_guess_prob(x: SymbolSeq, y: SymbolSeq, ell: int) -> DyadicProb:
    """Product of per-block conditional probabilities (dictionaries reset
    every ell symbols; a final short block uses its own length)."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    prob = DyadicProb.one()
    for b, e in _blocks(len(x), ell):
        prob = prob * cond_guess_prob(x[b:e], y[b:e])
    return prob


def cond_block_sample(y: SymbolSeq, n: int, ell: int, bits: BitSource,
                      x_alphabet: Alphabet | None = None) -> SymbolSeq:
    if ell < 1:
        raise ValueError("need ell >= 1")
    out = bytearray()
    for b, e in _blocks(n, ell):
        out.extend(cond_sample(y[b:e], e - b, bits, x_alphabet).indices)
    return SymbolSeq(x_alphabet or y.alphabet, bytes(out))


# ---------------------------------------------------------------------------
# conditional bounds
# ---------------------------------------------------------------------------

def cond_block_entropy(x: SymbolSeq, y: SymbolSeq, ell: int) -> float:
    """Conditional empirical entropy of ell-blocks: H(joint) - H(y-blocks)."""
    return block_entropy(pack_pairs(x, y), ell) - block_entropy(y, ell)


@dataclass
class CondBoundReport:
    """Conditional sandwich at one (s, ell, zeta)."""

    n: int
    zeta: float
    s: int
    ell: int
    u: float
    H_ell_cond: float
    q_log2: float
    measured: float
    converse_entropy: float
    converse_u: float
    direct: float

    @property
    def ordering_ok(self) -> bool:
        return (self.converse_entropy <= self.measured + 1e-12
                and self.converse_u <= self.measured + 1e-12
                and self.measured <= self.direct + 1e-12)


def cond_bounds(x: SymbolSeq, y: SymbolSeq, s: int, ell: int,
                zeta: float) -> CondBoundReport:
    """Converse and direct values around the conditional sampler's exponent.

    Unlike the unconditional case there is no maximization over ell: the
    block length is part of the machine model here.
    """
    return cond_bounds_sweep(x, y, s, [ell], [zeta])[0]


def cond_bounds_sweep(x: SymbolSeq, y: SymbolSeq, s: int, ells,
                      zetas) -> list[CondBoundReport]:
    """:func:`cond_bounds` for every (zeta, ell), zeta-major.  The joint
    parse and q are computed once, each block entropy once per ell."""
    n = len(x)
    jp = joint_parse(x, y)
    q = cond_guess_prob(x, y)
    q_log2 = q.log2()
    entropies = [(ell, cond_block_entropy(x, y, ell)) for ell in ells]
    reports = []
    for zeta in zetas:
        measured = moment_log2(q_log2, zeta) / n
        for ell, h in entropies:
            conv_h = max(zeta * (h - 3 * math.log2(s) - LOG2E) / ell
                         - (2 * LOG2E + zeta) / n, 0.0)
            # the c-log-c converse's delta_n over the product alphabet
            conv_u = max(zeta * (jp.u / n - delta_n_at(
                n, x.alphabet.size * y.alphabet.size, s, zeta, ell)), 0.0)
            direct = zeta * (jp.u / n + epsilon1(n))
            reports.append(CondBoundReport(n, zeta, s, ell, jp.u, h, q_log2,
                                           measured, conv_h, conv_u, direct))
    return reports


# ---------------------------------------------------------------------------
# conditional finite-state machines (block-oriented)
# ---------------------------------------------------------------------------

class CondFSGMSpec:
    """A machine reading one ell-block of side information per step and
    emitting one ell-block of output, consuming Delta(z, y-block) bits."""

    def __init__(self, x_alphabet: Alphabet, y_alphabet: Alphabet, ell: int,
                 state_names, initial, delta: dict, table: dict,
                 name: str = ""):
        self.x_alphabet = x_alphabet
        self.y_alphabet = y_alphabet
        self.ell = ell
        names = list(state_names)
        if initial not in names:
            raise ValueError("initial state %r not among states" % (initial,))
        yblocks = [bytes(t) for t in _all_blocks(y_alphabet.size, ell)]
        for z in names:
            for yb in yblocks:
                if (z, yb) not in delta:
                    raise ValueError("missing Delta(%r, %r)" % (z, yb))
                rows = table.get((z, yb))
                if rows is None or len(rows) != 1 << delta[(z, yb)]:
                    raise ValueError("state %r, y-block %r: table not total"
                                     % (z, yb))
                for xb, nxt in rows:
                    if len(xb) != ell:
                        raise ValueError("output block must have length ell")
                    if nxt not in names:
                        raise ValueError("next state %r undefined" % (nxt,))
        self.names = tuple(names)
        self.initial = initial
        self.delta = dict(delta)
        self.table = dict(table)
        self.name = name

    @property
    def state_count(self) -> int:
        return len(self.names)


def _all_blocks(size: int, ell: int):
    if ell == 0:
        yield ()
        return
    for rest in _all_blocks(size, ell - 1):
        for c in range(size):
            yield rest + (c,)


def cond_fsgm_run(spec: CondFSGMSpec, y: SymbolSeq, bits: BitSource,
                  n: int) -> SymbolSeq:
    """Drive the conditional machine for n = (multiple of ell) symbols."""
    if n % spec.ell:
        raise ValueError("ell=%d must divide n=%d" % (spec.ell, n))
    if len(y) < n:
        raise ValueError("side information shorter than n")
    z = spec.initial
    out = bytearray()
    for b in range(0, n, spec.ell):
        yb = y.indices[b:b + spec.ell]
        d = spec.delta[(z, yb)]
        xb, z = spec.table[(z, yb)][bits.next_bits(d)]
        out.extend(xb)
    return SymbolSeq(spec.x_alphabet, bytes(out))


def cond_fsgm_sequence_prob(spec: CondFSGMSpec, x: SymbolSeq,
                            y: SymbolSeq) -> DyadicProb:
    """Exact P(x|y) for the conditional machine, forward over states."""
    n = len(x)
    if n % spec.ell or len(y) != n:
        raise ValueError("need len(x) = len(y) = multiple of ell")
    fwd = {spec.initial: DyadicProb.one()}
    for b in range(0, n, spec.ell):
        xb = x.indices[b:b + spec.ell]
        yb = y.indices[b:b + spec.ell]
        nxt: dict = {}
        for z, p in fwd.items():
            d = spec.delta[(z, yb)]
            counts: dict = {}
            for out, zp in spec.table[(z, yb)]:
                if out == xb:
                    counts[zp] = counts.get(zp, 0) + 1
            for zp, m in counts.items():
                w = p * DyadicProb(m, d)
                nxt[zp] = nxt[zp] + w if zp in nxt else w
        if not nxt:
            return DyadicProb.zero()
        fwd = nxt
    total = DyadicProb.zero()
    for p in fwd.values():
        total = total + p
    return total


def cond_machine_from_fsgm(plain) -> CondFSGMSpec:
    """Embed a plain machine as an ell=1 conditional machine ignoring y."""
    y_alphabet = plain.alphabet
    delta = {}
    table = {}
    for zi, z in enumerate(plain.names):
        for yb in [bytes([c]) for c in range(y_alphabet.size)]:
            delta[(z, yb)] = plain.delta[zi]
            table[(z, yb)] = [(bytes([out]), plain.names[nxt])
                              for out, nxt in plain.table[zi]]
    return CondFSGMSpec(plain.alphabet, y_alphabet, 1, plain.names,
                        plain.initial, delta, table,
                        name="lifted-" + (plain.name or "fsgm"))


def copy_machine(alphabet: Alphabet, ell: int = 1) -> CondFSGMSpec:
    """Delta = 0 everywhere; the output block is the side-information block."""
    delta = {}
    table = {}
    for yb_t in _all_blocks(alphabet.size, ell):
        yb = bytes(yb_t)
        delta[("z", yb)] = 0
        table[("z", yb)] = [(yb, "z")]
    return CondFSGMSpec(alphabet, alphabet, ell, ["z"], "z", delta, table,
                        name="copy")
