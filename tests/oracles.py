"""Reference implementations that the tests hold the package to.

Each oracle computes what one ``lzguess`` function computes, in the
plainest way: straight from the definition, or as the function did before
a faster version replaced it.  Its docstring names the function it checks
as ``lzguess.<module>.<name>``; tests/test_tooling.py checks that every
such name resolves and that some test calls every oracle here.  Private
helpers (a leading underscore) serve the oracles only.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from lzguess.bytegame import _NARROW_BITS, _SPARSE_ENTRIES
from lzguess.fsgm import MAX_DELTA
from lzguess.guessers import _moment_from_log2, make_runner
from lzguess.lz78 import BitReader, DecodeError, ParseTrie
from lzguess.seqcore import (FAIL, WIN, Alphabet, BitSource, DyadicProb,
                             SymbolSeq, forward)
from lzguess.series import series_grid
from lzguess.sideinfo import (_JointDict, _gamma_encode, _rank_sym,
                              chain_encode, chain_read)


# --- seqcore -----------------------------------------------------------------

def ingest_per_token(data, alphabet_spec=None, mode="text"):
    """``lzguess.seqcore.ingest`` as it was before the C-level mapping: one
    dict probe per token, in a Python loop."""
    if mode == "bytes":
        tokens = list(data)
    elif mode == "lines":
        tokens = [ln for ln in str(data).splitlines() if ln != ""]
    else:
        tokens = list(str(data))
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


def render_per_symbol(seq):
    """``lzguess.seqcore.SymbolSeq.render`` as it was before the translate
    tables: one token lookup per symbol, in Python."""
    toks = [seq.alphabet.tokens[i] for i in seq.indices]
    kind = seq.alphabet._render_kind
    if kind == "bytes":
        return bytes(toks).hex()
    if kind == "chars":
        return "".join(toks)
    return "\n".join(toks)


def bernoulli_per_symbol(n, p, seed):
    """The Bernoulli corpus of ``lzguess.seqcore.generate_corpus``, one
    symbol at a time: symbol i is BitSource(seed)'s i-th float < p."""
    bits = BitSource(seed)
    return bytes(bits.next_float() < p for _ in range(n))


def forward_per_move(n, start, step):
    """``lzguess.seqcore.forward`` one big-integer update per single move,
    as it was before spans: the spans of `step` are expanded to one move
    per position they cover."""
    layers = {0: {start: (1, 0)}}
    for pos in range(n):
        for state, (m, e) in layers.pop(pos, {}).items():
            if m > 1 << e:
                raise ValueError("forward mass above 1 at position %d" % pos)
            for first, last, nxt, count, bits in step(pos, state):
                for nxt_pos in range(first, last + 1):
                    if not (pos < nxt_pos <= n and 0 < count <= 1 << bits):
                        raise ValueError(
                            "bad forward move from position %d: %r"
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


def play_by_runner(automaton, rounds, seed, cap, start=0):
    """``lzguess.seqcore.play`` as attempts of
    ``lzguess.guessers.make_runner``, one after another over
    BitSource(seed, k) for round k, each field read by one next_bits
    call: the guess count per round, cap + 1 for a round censored after
    cap failed guesses."""
    attempt = make_runner(automaton)
    out = []
    for k in range(start, start + rounds):
        bits, g = BitSource(seed, k), 1
        while g <= cap and not attempt(bits):
            g += 1
        out.append(g)
    return out


def narrow_by_count(widths, tables, s):
    """Whether ``lzguess.bytegame._ByteGame`` reads state s's field bit by
    bit: a field of few bits, or one with few non-FAIL entries."""
    return (widths[s] <= _NARROW_BITS
            or sum(t != FAIL for t in tables[s]) <= _SPARSE_ENTRIES)


def byte_entry_by_bits(widths, tables, narrow, key, byte):
    """The entry of ``lzguess.bytegame._ByteGame.build``'s row for `key`
    at `byte`, the byte's 8 bits read one at a time: (fails, where).
    where is WIN; ("wide", s, r) on reaching the start of a field that is
    not narrow (narrow[s] false), with r bits of the byte unread; or the
    stream's state after the byte: (s, j, v), j bits of s's field read, of
    value v, or (FAIL, r, 0) when every completion of those bits fails, r
    bits short of the field's end."""
    s, j, v = key
    skip, fails = (j, 0) if s == FAIL else (0, 0)
    for left in range(7, -1, -1):
        if skip:
            skip -= 1
            if skip:
                continue
            nxt = FAIL
        else:
            j, v = j + 1, 2 * v + (byte >> left & 1)
            if j < widths[s]:
                continue
            nxt = tables[s][v]
        # zero-width states followed, each FAIL starts over in state 0
        while nxt != WIN and (nxt == FAIL or not widths[nxt]):
            if nxt == FAIL:
                fails, nxt = fails + 1, 0
            else:
                nxt = tables[nxt][0]
        if nxt == WIN:
            return fails, WIN
        s, j, v = nxt, 0, 0
        if not narrow[s]:
            return fails, ("wide", s, left)
    if skip:
        return fails, (FAIL, skip, 0)
    rest = widths[s] - j
    if j and set(tables[s][v << rest:v + 1 << rest]) == {FAIL}:
        return fails, (FAIL, rest, 0)
    return fails, (s, j, v)


# --- lz78 --------------------------------------------------------------------

def encode_per_symbol(x):
    """``lzguess.lz78.encode`` as it was before it read the parse trie per
    phrase: x walked symbol by symbol, its dictionary grown as it goes."""
    children = [{}]
    a_bits = x.alphabet.bits_per_symbol
    out = []
    node = 0
    for c in x:
        child = children[node].get(c)
        if child is not None:
            node = child
            continue
        t = len(children)
        out.append(format(node, "0%db" % (t - 1).bit_length()) if t > 1 else "")
        out.append(format(c, "0%db" % a_bits))
        children[node][c] = t
        children.append({})
        node = 0
    if node != 0:
        t = len(children)
        out.append(format(node, "0%db" % (t - 1).bit_length()) if t > 1 else "")
    return "".join(out)


def decode_by_trie_walk(bits, n, alphabet):
    """``lzguess.lz78.decode`` as it was before it copied from its own
    output: each phrase rebuilt by ParseTrie.word."""
    trie = ParseTrie()
    a_bits = alphabet.bits_per_symbol
    out = bytearray()
    reader = BitReader(bits)
    while len(out) < n:
        t = len(trie)
        ptr = reader.take((t - 1).bit_length())
        if ptr >= t:
            raise DecodeError("pointer %d out of range for %d nodes" % (ptr, t),
                              reader.pos)
        word = trie.word(ptr)
        remaining = n - len(out)
        if len(word) == remaining:
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


def pack_bits_per_byte(bits):
    """``lzguess.lz78.pack_bits`` as it was before it went through one big
    integer."""
    padded = bits + "0" * (-len(bits) % 8)
    return len(bits).to_bytes(8, "little") + bytes(
        int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))


def parse_per_symbol(x):
    """``lzguess.lz78.incremental_parse`` as it was before its tight loop:
    the trie grows through ParseTrie.add and the code is priced phrase by
    phrase.  (boundaries, c_lz, last_complete, code_length_bits, and the
    trie's parent, sym and children lists.)"""
    trie = ParseTrie()
    boundaries, node, bits = [], 0, 0
    a_bits = x.alphabet.bits_per_symbol
    for pos, c in enumerate(x):
        if node == 0:
            boundaries.append(pos)
        child = trie.children[node].get(c)
        if child is None:
            bits += (len(trie) - 1).bit_length() + a_bits
            trie.add(node, c)
            node = 0
        else:
            node = child
    if node:
        bits += (len(trie) - 1).bit_length()
    return (boundaries, len(boundaries), node == 0, bits, trie.parent,
            trie.sym, trie.children)


# --- fsgm --------------------------------------------------------------------

def sequence_prob_per_state(spec, x, side=None):
    """``lzguess.fsgm.sequence_prob`` expanding every state, idle
    (Delta = 0) rows included, one position and one word at a time,
    where the package follows idle rows on the spot."""
    n = len(x)
    ys = bytes(n) if side is None else side.indices

    def step(pos, z):
        row = z + ys[pos]
        for out, nxt in spec.table[row]:
            if out == x.indices[pos]:
                yield (pos + 1, pos + 1, nxt if pos + 1 < n else None, 1,
                       spec.delta[row])

    start = spec.start if n else None
    return forward(n, start, step).get(None, DyadicProb.zero())


def block_law_per_block(ell, initial, delta, table, x, y):
    """The law of an ell-block conditional machine keyed by (state,
    y-block), as the removed ``cond_fsgm_sequence_prob`` computed it: a
    forward pass over (block start, state), one move per matching table
    entry.  ``lzguess.fsgm.sequence_prob`` on the packed blocks must
    equal it."""
    n = len(x)
    if n % ell or len(y) != n:
        raise ValueError("need len(x) = len(y) = multiple of ell")

    def step(b, z):
        nxt_b = b + ell
        xb = x.indices[b:nxt_b]
        yb = y.indices[b:nxt_b]
        for out, zp in table[(z, yb)]:
            if out == xb:
                yield (nxt_b, nxt_b, zp if nxt_b < n else None, 1,
                       delta[(z, yb)])

    start = initial if n else None
    return forward(n, start, step).get(None, DyadicProb.zero())


def fig1_word_expansion(bit_text: str, n_words: int | None = None) -> str:
    """The output of ``lzguess.fsgm.build_fig1_machine`` from its word map:
    parse the bit text into words from {0, 10, 11} (a leading 0 also
    consumes one wasted bit when read by the machine) and concatenate the
    mapped output words after the initial "ab"."""
    mapping = {"0": "ab", "10": "bac", "11": "ca"}
    out = ["ab"]
    i = 0
    while i + 2 <= len(bit_text) and (n_words is None or len(out) - 1 < n_words):
        pair = bit_text[i:i + 2]
        i += 2
        # each read takes two bits; a leading 0 means word '0', second bit wasted
        out.append(mapping["0" if pair[0] == "0" else pair])
    return "".join(out)


def tree_run(tspec, bits, n):
    """The tree semantics that ``lzguess.fsgm.expand_tree_machine`` pads
    to full depth, run directly: descend each tree bit by bit and stop at
    a leaf, so no bits are wasted."""
    z = tspec.initial
    out = bytearray()
    for _ in range(n):
        leaves = tspec.trees[z]
        path = ""
        while path not in leaves:
            path += str(bits.next_bits(1))
            if len(path) > MAX_DELTA:
                raise ValueError("tree descent ran away; tree invalid")
        token, z = leaves[path]
        out.append(tspec.alphabet.index(token))
    return SymbolSeq(tspec.alphabet, bytes(out))


# --- guessers and series -----------------------------------------------------

def process_distribution(alphabet, n):
    """The exact law of the LZ dictionary sampler,
    ``lzguess.guessers.lz_guess_prob``, by enumerating every draw path,
    re-derived from the definition: the dictionary is the
    incremental parse of the emitted output (found here by naive string
    reparsing), a draw reads ceil(log2 t) pointer bits (mod t) and
    ceil(log2 alpha) symbol bits (mod alpha), and the final draw may
    overshoot.  Exact rational arithmetic throughout."""
    alpha = alphabet.size
    a = alphabet.bits_per_symbol
    dist = {}

    def dictionary(out):
        words = [b""]
        seen = {b""}
        node = b""
        for c in out:
            cand = node + bytes([c])
            if cand in seen:
                node = cand
            else:
                words.append(cand)
                seen.add(cand)
                node = b""
        return words

    def rec(out, p):
        if len(out) >= n:
            key = bytes(out[:n])
            dist[key] = dist.get(key, Fraction(0)) + p
            return
        words = dictionary(out)
        t = len(words)
        width = (t - 1).bit_length()
        step = Fraction(1, 1 << (width + a))
        for raw_ptr in range(1 << width):
            for raw_sym in range(1 << a):
                w = words[raw_ptr % t] + bytes([raw_sym % alpha])
                rec(out + w, p * step)

    rec(b"", Fraction(1))
    return {SymbolSeq(alphabet, k): v for k, v in dist.items()}


def lz_draws_per_draw(x):
    """The per-draw LZ draw rule that the runs of
    ``lzguess.guessers._lz_draws_at`` replaced, over a parse trie of its
    own that grows one symbol of x at a time: yields (e, t, draws) per
    matched length e, one (node, sym, e', count, bits) per draw and the
    overshoot as (nodes, None, n, count, bits)."""
    n, idx = len(x), x.indices
    a_bits = x.alphabet.bits_per_symbol
    alpha = x.alphabet.size
    sym_counts = [((1 << a_bits) - 1 - s) // alpha + 1 for s in range(alpha)]
    children = [{}]             # the parse trie of x[:e], ids in order
    cursor = 0
    for e in range(n):
        t = len(children)
        width = (t - 1).bit_length()

        def ptr_count(node):
            return ((1 << width) - 1 - node) // t + 1
        draws = []
        node = 0
        for p in range(e, n):
            sym = idx[p]
            draws.append((node, sym, p + 1, ptr_count(node) * sym_counts[sym],
                          width + a_bits))
            node = children[node].get(sym)
            if node is None:
                break
        else:
            nodes = [node]
            for v in nodes:
                nodes.extend(children[v].values())
            draws.append((nodes, None, n, sum(map(ptr_count, nodes)), width))
        yield e, t, draws
        child = children[cursor].get(idx[e])
        if child is None:
            children[cursor][idx[e]] = t
            children.append({})
            cursor = 0
        else:
            cursor = child


def automaton_law(widths, tables):
    """Pr(an attempt wins) for an automaton of
    ``lzguess.guessers.compile_automaton``, every raw field equally
    likely: a dynamic program over its states in reverse topological
    order, which raises KeyError on a cycle."""
    win = {WIN: Fraction(1), FAIL: Fraction(0)}
    order, seen, stack = [], set(), [(0, False)]
    while stack:
        state, done = stack.pop()
        if done:
            order.append(state)
        elif state not in seen:
            seen.add(state)
            assert len(tables[state]) == 1 << widths[state]
            stack.append((state, True))
            stack.extend((nxt, False) for nxt in set(tables[state])
                         if nxt >= 0)
    for state in order:
        hits = Counter(tables[state])
        win[state] = sum(win[nxt] * c for nxt, c in hits.items()) / len(
            tables[state])
    return win[0]


def series_term_by_term(qf, zeta, tol=1e-12):
    """The series of ``lzguess.series.series_grid`` as one term per loop
    iteration: (value, rel_err, k), k being the term it stops at."""
    one_minus = 1.0 - qf
    total, term_geom, k = 0.0, qf, 1
    while True:
        total += (k ** zeta) * term_geom
        r = ((1.0 + 1.0 / k) ** zeta) * one_minus
        if r < 1.0:
            tail = (((k + 1) ** zeta) * term_geom * one_minus) / (1.0 - r)
            if tail <= tol * total:
                return total + 0.5 * tail, tail / total, k
        term_geom *= one_minus
        k += 1


def moment_series(qf, zeta):
    """The row (qf, zeta) of ``lzguess.series.series_grid`` alone, at zeta
    in {1, 2} too, where ``lzguess.guessers.moment_grid`` takes the closed
    forms; with moment_grid's fallback where the series cannot run."""
    return series_grid([(qf, zeta)])[0] or _moment_from_log2(qf, zeta)


def polylog_moment_log2(mp, q_log2, zeta):
    """``lzguess.guessers.moment_log2`` as log2 of (q/(1-q)) Li_{-zeta}(1-q)
    by mpmath.polylog at 40 digits; 1 - q is formed exactly first, which
    takes |q_log2| + 200 bits."""
    with mp.workprec(int(-q_log2) + 200):
        q = mp.mpf(2) ** q_log2
        z = 1 - q
    with mp.workdps(40):
        return mp.log(q / z * mp.polylog(-zeta, z), 2)


# --- sideinfo ----------------------------------------------------------------

class _Answers:
    """The bit source of :func:`sampler_law`: its k-th next_bits call is
    answered answers[k], or 0 past the list, and records its width."""

    __slots__ = ("answers", "widths")

    def __init__(self, answers):
        self.answers, self.widths = answers, []

    def next_bits(self, k):
        if not k:
            return 0
        widths = self.widths
        widths.append(k)
        i = len(widths) - 1
        return self.answers[i] if i < len(self.answers) else 0


def sampler_law(sample):
    """The exact law of sample(bits), a black box that reads fair bits
    through next_bits, such as ``lzguess.guessers.lz_sample`` or
    ``lzguess.sideinfo.cond_sample``: one run per sequence of answers to
    its calls, turned like an odometer over the call widths (the last
    call with an answer left is answered one higher, and the calls after
    it are answered 0 again).  Exact at any bit count.  Returns
    {output: DyadicProb}."""
    # runs are counted per (output, bits read), and each count becomes
    # one DyadicProb at the end, not one per run
    counts, outs = {}, {}
    answers = []
    bits = _Answers(answers)
    while True:
        widths = bits.widths = []
        out = sample(bits)
        key = out.indices, sum(widths)
        counts[key] = counts.get(key, 0) + 1
        outs[out.indices] = out
        answers += [0] * (len(widths) - len(answers))
        while answers and answers[-1] == (1 << widths[len(answers) - 1]) - 1:
            answers.pop()
        if not answers:
            break
        answers[-1] += 1
    law = {}
    for (indices, used), count in counts.items():
        out = outs[indices]
        law[out] = law.get(out, DyadicProb.zero()) + DyadicProb(count, used)
    return law


def chain_decode_per_bit(reader, size):
    """``lzguess.sideinfo.chain_decode`` as it was before it searched for
    the unary prefix: one take(1) per unary bit."""
    gap = chain_read(reader.take, size)
    if gap >= size:
        raise DecodeError("chain index %d out of range"
                          % (gap + 1 - (1 << (size.bit_length() - 1))),
                          reader.pos)
    return gap


def cond_code_by_feed(x, y):
    """``lzguess.sideinfo.cond_code`` as it was before it read the indexed
    joint parse: the dictionary grows phrase by phrase through
    _JointDict.feed, each phrase found by a walk from the root."""
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
        width = (len(dic.members[dic.ynode[node]]) - 1).bit_length()
        index = format(dic.pos[node], "0%db" % width) if width else ""
        if b + d == n:
            records.append(index)
            break
        chain = d + len(dic.ypath(yi, b + d, n, w=dic.ynode[node]))
        fused = ((chain - 1 - d) * alpha
                 + _rank_sym(xi[b + d], yi[b + d], alpha))
        records.append(chain_encode(fused, chain * alpha) + index)
        dic.feed(node, xi[b + d], yi[b + d])
        b += d + 1
    n_complete = len(dic.trie) - 1
    return _gamma_encode((n_complete + 1) << a_bits) + "".join(records)
