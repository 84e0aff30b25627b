"""Finite-state guessing machines driven by fair bits.

A machine is (states Z, initial z1, bit budget Delta(z), output f(z, w),
next state g(z, w)) with w ranging over the Delta(z)-bit words.  One step
reads Delta(z_i) fresh bits v_i and produces

    t_i = t_{i-1} + Delta(z_i)
    x_i = f(z_i, v_i)
    z_{i+1} = g(z_i, v_i)

Because the input bits are i.i.d. fair, the output law is a hidden-Markov
source with kernel P(x, z'|z) = m(x, z'|z) * 2**-Delta(z), where m counts the
Delta(z)-bit words w with f(z, w) = x and g(z, w) = z'.  That kernel gives an
exact forward algorithm for single-sequence probabilities and, at desk scale,
full output distributions in dyadic arithmetic; both run through
:func:`lzguess.seqcore.forward`, the package's one exact forward pass.

A machine given a side alphabet also reads y_i beside its state (Delta, f
and g take (z_i, y_i)), and the same pass gives the exact P(x|y).  An
ell-block conditional machine is one over block alphabets: pack the
ell-blocks of x and y into alpha**ell and beta**ell symbols.

Machines with variable per-state bit consumption (a prefix-free tree of words
at each state) are expanded to this fixed-Delta form by padding every tree to
full depth and letting all descendants of an original leaf inherit its
labels; the wasted bits are immaterial since randomness is unlimited.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

from .seqcore import (Alphabet, BitSource, BudgetError, DyadicProb, SymbolSeq,
                      forward)

MAX_DELTA = 16
DIST_BUDGET = 1 << 18  # alpha**n * states cap for full output enumeration


class FSGMSpec:
    """A validated machine: total transition tables, reachable states only.

    `delta` and `table` are keyed by state, or by (state, side-symbol
    index) given a `side_alphabet` of beta symbols.  Each table row has
    exactly 2**delta entries; entry w (the word read as an integer, first
    bit most significant) is `(output index, next state)`.  States that no
    side symbol reaches are pruned with a warning.  Stored rows are flat:
    state z reading side symbol b is row z * beta + b, and next states are
    stored times beta, so a plain machine (beta = 1) has rows by state.
    """

    def __init__(self, alphabet: Alphabet, state_names, initial,
                 delta: dict, table: dict, name: str = "",
                 side_alphabet: Alphabet | None = None):
        names = list(state_names)
        if initial not in names:
            raise ValueError("initial state %r not among states" % (initial,))
        beta = 1 if side_alphabet is None else side_alphabet.size
        keys_of = {z: [z] if side_alphabet is None else
                   [(z, b) for b in range(beta)] for z in names}
        for key in [key for z in names for key in keys_of[z]]:
            if key not in delta:
                raise ValueError("missing bit budget for state %r" % (key,))
            if not 0 <= delta[key] <= MAX_DELTA:
                raise ValueError("Delta(%r)=%d outside [0, %d]"
                                 % (key, delta[key], MAX_DELTA))
            rows = table.get(key)
            if rows is None or len(rows) != 1 << delta[key]:
                raise ValueError(
                    "state %r needs a total table with %d entries, got %d"
                    % (key, 1 << delta[key], 0 if rows is None else len(rows)))
            for out, nxt in rows:
                if not 0 <= out < alphabet.size:
                    raise ValueError("output index %d outside alphabet" % out)
                if nxt not in keys_of:
                    raise ValueError("next state %r undefined" % (nxt,))

        reachable = {initial}
        frontier = [initial]
        while frontier:
            z = frontier.pop()
            for _, nxt in [row for key in keys_of[z] for row in table[key]]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        dropped = [z for z in names if z not in reachable]
        if dropped:
            warnings.warn("pruning unreachable states %r" % (dropped,))
            names = [z for z in names if z in reachable]

        idx = {z: i for i, z in enumerate(names)}
        flat = [key for z in names for key in keys_of[z]]
        self.alphabet = alphabet
        self.side_alphabet = side_alphabet
        self.beta = beta
        self.names = tuple(names)
        self.initial = initial
        self.start = idx[initial] * beta
        self.delta = tuple(delta[key] for key in flat)
        self.table = tuple(tuple((out, idx[nxt] * beta)
                                 for out, nxt in table[key]) for key in flat)
        self.name = name
        self._kernels = None

    @property
    def state_count(self) -> int:
        return len(self.names)

    def kernels(self):
        """Per row: dict (output, next state) -> word count m(x, z'|z)."""
        if self._kernels is None:
            ker = []
            for rows in self.table:
                counts: dict = {}
                for out, nxt in rows:
                    counts[(out, nxt)] = counts.get((out, nxt), 0) + 1
                ker.append(counts)
            self._kernels = tuple(ker)
        return self._kernels

    def __repr__(self) -> str:
        return "FSGMSpec(%s, states=%d, alpha=%d)" % (
            self.name or "anonymous", self.state_count, self.alphabet.size)


def _side_indices(spec: FSGMSpec, side: SymbolSeq | None, n: int) -> bytes:
    """The side symbols read at 0..n-1; zeros for a plain machine."""
    if (side is None) != (spec.side_alphabet is None):
        raise ValueError("a machine takes a side sequence exactly when it "
                         "has a side alphabet")
    if side is None:
        return bytes(n)
    if side.alphabet != spec.side_alphabet or len(side) < n:
        raise ValueError("need a side sequence of length >= %d over the "
                         "side alphabet %r" % (n, spec.side_alphabet))
    return side.indices


@dataclass
class RunTrace:
    """One execution record: cursors, consumed words, state path, output."""

    cursors: list[int]        # t_0 .. t_n
    words: list[str]          # v_1 .. v_n as bit strings ('' when Delta=0)
    states: list[str]         # z_1 .. z_{n+1} by name
    output: SymbolSeq

    @property
    def bits_consumed(self) -> int:
        return self.cursors[-1]


def run(spec: FSGMSpec, bits: BitSource, n: int,
        side: SymbolSeq | None = None) -> RunTrace:
    """Drive the machine for n output symbols (reading side[:n])."""
    if n < 1:
        raise ValueError("need n >= 1")
    ys = _side_indices(spec, side, n)
    cursors = [0]
    words = []
    path = [spec.initial]
    out = bytearray()
    z = spec.start
    for b in ys[:n]:
        d = spec.delta[z + b]
        w = bits.next_bits(d)
        x, z = spec.table[z + b][w]
        out.append(x)
        cursors.append(cursors[-1] + d)
        words.append(format(w, "0%db" % d) if d else "")
        path.append(spec.names[z // spec.beta])
    return RunTrace(cursors, words, path, SymbolSeq(spec.alphabet, bytes(out)))


def sequence_prob(spec: FSGMSpec, x: SymbolSeq,
                  side: SymbolSeq | None = None) -> DyadicProb:
    """Exact P(x), or P(x|side), under the machine's output law: the
    forward algorithm as a :func:`~lzguess.seqcore.forward` pass.

    O(n * s^2) moves; returns zero for unreachable outputs.  The states
    reached at the end are merged into one, since nothing follows them.
    """
    n = len(x)
    ker = spec.kernels()
    xs, ys = x.indices, _side_indices(spec, side, n)

    def step(pos, z):
        row = z + ys[pos]
        for (out, zp), m in ker[row].items():
            if out == xs[pos]:
                yield pos + 1, zp if pos + 1 < n else None, m, spec.delta[row]

    start = spec.start if n else None
    return forward(n, start, step).get(None, DyadicProb.zero())


def output_distribution(spec: FSGMSpec, n: int) -> dict[SymbolSeq, DyadicProb]:
    """The exact law of the length-n output, as a dict over sequences: a
    :func:`~lzguess.seqcore.forward` pass over (prefix, state), whose final
    states are the prefixes alone.

    Enumeration is guarded by alpha**n * s; refuse and point to
    sequence_prob beyond that.
    """
    if spec.side_alphabet is not None:
        raise ValueError("output_distribution needs a plain machine")
    if n < 0:
        raise ValueError("need n >= 0, got %d" % n)
    size = spec.alphabet.size ** n * spec.state_count
    if size > DIST_BUDGET:
        raise BudgetError(
            "output_distribution would enumerate %d (prefix, state) pairs "
            "(budget %d); use sequence_prob for single sequences"
            % (size, DIST_BUDGET))
    ker = spec.kernels()

    def step(pos, state):
        prefix, z = state
        for (out, zp), m in ker[z].items():
            word = prefix + bytes([out])
            nxt = (word, zp) if pos + 1 < n else word
            yield pos + 1, nxt, m, spec.delta[z]

    start = (b"", spec.start) if n else b""
    return {SymbolSeq(spec.alphabet, word): p
            for word, p in forward(n, start, step).items()}


# ---------------------------------------------------------------------------
# tree machines: per-state prefix-free word trees expanded to fixed Delta
# ---------------------------------------------------------------------------

class TreeFSGMSpec:
    """Per state, a complete prefix-free set of binary words, each leaf
    labeled (output token, next state)."""

    def __init__(self, alphabet: Alphabet, initial, trees: dict, name: str = ""):
        self.alphabet = alphabet
        self.initial = initial
        self.trees = {z: dict(leaves) for z, leaves in trees.items()}
        self.name = name
        for z, leaves in self.trees.items():
            if not leaves:
                raise ValueError("state %r has an unlabeled leaf (empty tree)"
                                 % (z,))
            paths = sorted(leaves)
            for i, p in enumerate(paths):
                for q in paths[i + 1:]:
                    if q.startswith(p):
                        raise ValueError(
                            "tree at state %r is not prefix-free: %r, %r"
                            % (z, p, q))
            # completeness: the leaf depths must satisfy Kraft with equality
            depth = max(len(p) for p in paths)
            covered = sum(1 << (depth - len(p)) for p in paths)
            if covered != 1 << depth:
                raise ValueError(
                    "tree at state %r has an unlabeled leaf: word patterns "
                    "uncovered" % (z,))


def expand_tree_machine(tspec: TreeFSGMSpec) -> FSGMSpec:
    """Pad every tree to full depth; descendants inherit the leaf's labels.

    Delta(z) becomes the depth of the deepest leaf of the tree at z, and the
    extra bits read below an original leaf are wasted by construction.
    """
    delta = {}
    table = {}
    for z, leaves in tspec.trees.items():
        d = max(len(p) for p in leaves)
        delta[z] = d
        rows = [None] * (1 << d)
        for path, (token, nxt) in leaves.items():
            out = tspec.alphabet.index(token)
            pad = d - len(path)
            base = int(path, 2) << pad if path else 0
            for suffix in range(1 << pad):
                rows[base | suffix] = (out, nxt)
        table[z] = rows
    return FSGMSpec(tspec.alphabet, list(tspec.trees), tspec.initial,
                    delta, table, name=tspec.name or "expanded-tree")


def tree_run(tspec: TreeFSGMSpec, bits: BitSource, n: int) -> SymbolSeq:
    """Run the tree semantics directly: descend each tree bit by bit and
    stop at a leaf, so no bits are wasted.  Same output law as the expansion.
    """
    z = tspec.initial
    out = bytearray()
    for _ in range(n):
        leaves = tspec.trees[z]
        path = ""
        while path not in leaves:
            path += str(bits.next_bit())
            if len(path) > MAX_DELTA:
                raise ValueError("tree descent ran away; tree invalid")
        token, z = leaves[path]
        out.append(tspec.alphabet.index(token))
    return SymbolSeq(tspec.alphabet, bytes(out))


# ---------------------------------------------------------------------------
# the three-word example machine: 0 -> ab, 10 -> bac, 11 -> ca
# ---------------------------------------------------------------------------

def build_fig1_machine() -> FSGMSpec:
    """A 7-state machine realizing the variable-to-variable word mapping

        0 -> ab      10 -> bac      11 -> ca

    Timing convention: each output word is emitted over consecutive idle
    (Delta = 0) states, and the *last* symbol of a word is emitted by the
    state that also reads the next input word (Delta = 2, with the second
    bit wasted when the word is '0').  The machine starts at the head of the
    'ab' branch, so the output always opens with "ab": the first input word
    read then selects every later word.  Over the alphabet {a, b, c}:

        output(bits) = "ab" + map(w1) + map(w2) + ...

    where w1, w2, ... are the input words parsed from the bit stream.
    """
    abc = Alphabet(("a", "b", "c"))
    a, b, c = 0, 1, 2

    def reader(out):
        # words 00/01 restart the 'ab' branch; 10 and 11 select the others
        return [(out, "A"), (out, "A"), (out, "C"), (out, "F")]

    delta = {"A": 0, "B": 2, "C": 0, "D": 0, "E": 2, "F": 0, "G": 2}
    table = {
        "A": [(a, "B")],
        "B": reader(b),
        "C": [(b, "D")],
        "D": [(a, "E")],
        "E": reader(c),
        "F": [(c, "G")],
        "G": reader(a),
    }
    return FSGMSpec(abc, "ABCDEFG", "A", delta, table, name="three-word-map")


def fig1_word_expansion(bit_text: str, n_words: int | None = None) -> str:
    """Reference output for the example machine: parse the bit text into
    words from {0, 10, 11} (a leading 0 also consumes one wasted bit when
    read by the machine) and concatenate the mapped output words after the
    initial "ab"."""
    mapping = {"0": "ab", "10": "bac", "11": "ca"}
    out = ["ab"]
    i = 0
    while i + 2 <= len(bit_text) and (n_words is None or len(out) - 1 < n_words):
        pair = bit_text[i:i + 2]
        i += 2
        # each read takes two bits; a leading 0 means word '0', second bit wasted
        out.append(mapping["0" if pair[0] == "0" else pair])
    return "".join(out)


# ---------------------------------------------------------------------------
# machine description files
# ---------------------------------------------------------------------------

def format_machine(spec: FSGMSpec) -> str:
    """Serialize to the plain-text table format (see parse_machine); the
    format describes plain machines only."""
    if spec.side_alphabet is not None:
        raise ValueError("machine files describe plain machines only")
    lines = ["alphabet %s" % "".join(str(t) for t in spec.alphabet.tokens),
             "initial %s" % spec.initial]
    for zi, z in enumerate(spec.names):
        d = spec.delta[zi]
        for w in range(1 << d):
            word = format(w, "0%db" % d) if d else "-"
            out, nxt = spec.table[zi][w]
            lines.append("%s %s %s %s" % (z, word,
                                          spec.alphabet.tokens[out],
                                          spec.names[nxt]))
    return "\n".join(lines) + "\n"


def parse_machine(text: str, name: str = "") -> FSGMSpec:
    """Parse the machine table format.

    One header line `alphabet <tokens>`, one `initial <state>`, then one line
    per (state, word) pair: `state word output next`, where word is a binary
    string or '-' for the empty word.  Delta is derived from word lengths and
    must be consistent per state; partial tables are rejected.
    """
    alphabet = None
    initial = None
    rows: dict = {}
    delta: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("alphabet", "initial") and len(parts) < 2:
            raise ValueError("line %d: '%s' needs a value" % (ln, parts[0]))
        if parts[0] == "alphabet":
            alphabet = Alphabet.from_spec(parts[1])
            continue
        if parts[0] == "initial":
            initial = parts[1]
            continue
        if len(parts) != 4:
            raise ValueError("line %d: expected 'state word output next'" % ln)
        z, word, token, nxt = parts
        if word != "-" and word.strip("01"):
            raise ValueError("line %d: word %r is not binary or '-'"
                             % (ln, word))
        d = 0 if word == "-" else len(word)
        if z in delta and delta[z] != d:
            raise ValueError("line %d: state %s mixes word lengths %d and %d"
                             % (ln, z, delta[z], d))
        delta[z] = d
        w = 0 if word == "-" else int(word, 2)
        rows.setdefault(z, {})[w] = (token, nxt)
    if alphabet is None or initial is None:
        raise ValueError("machine file needs 'alphabet' and 'initial' headers")
    table = {}
    for z, d in delta.items():
        entries = rows[z]
        if len(entries) != 1 << d:
            raise ValueError("state %s has %d of %d required (state, word) "
                             "rows" % (z, len(entries), 1 << d))
        table[z] = [(alphabet.index(entries[w][0]), entries[w][1])
                    for w in range(1 << d)]
    return FSGMSpec(alphabet, list(delta), initial, delta, table, name=name)


# ---------------------------------------------------------------------------
# the guessing game against a machine
# ---------------------------------------------------------------------------

def runner(spec: FSGMSpec, x: SymbolSeq,
           side: SymbolSeq | None = None) -> Callable[[BitSource], bool]:
    """A single-guess attempt function: drive the machine against x and
    abort at the first mismatched symbol.  The unread bits are independent
    of that decision, so the success law per run is unchanged."""
    target = x.indices
    ys = _side_indices(spec, side, len(x))
    init, delta, table = spec.start, spec.delta, spec.table

    def attempt(bits: BitSource) -> bool:
        # the Monte Carlo hot path: a plain machine looks up no side symbol
        z = init
        for want in target:
            out, z = table[z][bits.next_bits(delta[z])]
            if out != want:
                return False
        return True

    def side_attempt(bits: BitSource) -> bool:
        z = init
        for want, b in zip(target, ys):
            out, z = table[z + b][bits.next_bits(delta[z + b])]
            if out != want:
                return False
        return True

    return attempt if spec.side_alphabet is None else side_attempt
