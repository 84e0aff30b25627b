import itertools
import os
import re
import shlex

import pytest

from lzguess.fsgm import FSGMSpec
from lzguess.seqcore import Alphabet, SymbolSeq


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
