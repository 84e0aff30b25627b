import itertools
import os
import re
import shlex

import pytest

from lzguess.fsgm import FSGMSpec
from lzguess.seqcore import Alphabet, DyadicProb, SymbolSeq, forward


class FixedBits:
    """A scripted bit source for driving machines through exact inputs.

    Raises when the script runs out unless pad=True, which appends zeros.
    """

    def __init__(self, text, pad=False):
        self.text = text
        self.pos = 0
        self.consumed = 0
        self.pad = pad

    def next_bits(self, k):
        if k == 0:
            return 0
        chunk = self.text[self.pos:self.pos + k]
        if len(chunk) < k:
            if not self.pad:
                raise RuntimeError("scripted bits exhausted")
            chunk = chunk + "0" * (k - len(chunk))
        self.pos += k
        self.consumed += k
        return int(chunk, 2)

    def next_bit(self):
        return self.next_bits(1)


@pytest.fixture
def binary():
    return Alphabet(("0", "1"))


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


def all_seqs(alphabet, n):
    for combo in itertools.product(range(alphabet.size), repeat=n):
        yield SymbolSeq(alphabet, bytes(combo))


def seq(text, alphabet):
    return SymbolSeq.from_text(text, alphabet)


def xor_machine():
    """A binary side machine: two states, each reads one bit and emits it
    xor the side symbol; bit 0 moves to q, bit 1 to p."""
    binary = Alphabet(("0", "1"))
    keys = [(z, b) for z in ("p", "q") for b in (0, 1)]
    return FSGMSpec(binary, ["p", "q"], "p", {key: 1 for key in keys},
                    {(z, b): [(b, "q"), (1 - b, "p")] for z, b in keys},
                    name="xor", side_alphabet=binary)


def fig1_word_expansion(bit_text: str, n_words: int | None = None) -> str:
    """Reference output for the example machine, ``build_fig1_machine``:
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


def sequence_prob_per_state(spec, x, side=None):
    """Test-local copy of the machine law that expands every state, idle
    (Delta = 0) rows included, one position and one word at a time: the
    oracle for ``fsgm.sequence_prob``, which follows idle rows on the
    spot."""
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


def readme_commands():
    """The argv of every `lzguess ...` line in the README's "Command line"
    block, without the program name; backslash continuations are joined."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command line.*?```\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in commands if argv[:1] == ["lzguess"]]
