"""Byte rows of a guessing automaton: the tables that
:func:`lzguess.seqcore.play` reads a byte of the stream at a time.

Every guesser compiles to one automaton, (widths, tables): state s reads a
field of widths[s] fair bits and looks the raw field up in tables[s], which
holds the next state or one of the entries FAIL and WIN that end an
attempt.  :class:`_ByteGame` turns it into rows of 256 byte entries, built
on first visit.
"""

from __future__ import annotations

WIN, FAIL = -2, -1     # the automaton table entries that end an attempt
_NARROW_BITS = 4       # a field this wide or narrower is read bit by bit,
_SPARSE_ENTRIES = 16   # as is one with at most this many non-FAIL entries
_WON = -1              # the byte row entry that ends a round


class _Pending:
    """A byte row not built yet: every byte reads the one entry that
    names it, so the first visit leaves the byte loop to build it."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def __getitem__(self, byte):
        return self.entry


class _ByteGame:
    """An automaton as a byte-stride automaton: per state of the bit
    stream between two bytes, a row of 256 entries (fails, next row), one
    per byte, in the list `rows`.

    A row's state is a key: (s, j, v) is state s with j bits of its field
    read, of value v; (FAIL, r, 0) is a prefix that no completion keeps
    from failing, r bits short of its end, so every such prefix of r bits
    left is the one state "skip r bits, then FAIL".  Zero-width states
    are followed on the spot, and a FAIL goes on to the first state of
    the next attempt.  Only a narrow field, of at most _NARROW_BITS bits
    or _SPARSE_ENTRIES non-FAIL entries, has keys with j > 0, so a field
    has at most about 16 keys per bit.  A wider field has no keys inside
    it: ``seqcore._wide`` reads it whole, and the fields after it one per
    step until the attempt ends, outside the byte rows.

    An entry's next row is an index into `rows`; or _WON when the byte
    reaches WIN (its fails are those before the WIN); or below -1, naming
    item -2 - next of `special`: an int, the index of a row not built
    yet, or (s, r), a wide field s reached with the last r bits of the
    byte unread.  A key's row is reserved as a :class:`_Pending` when an
    entry first names it, and built on its first visit from memoized
    4-bit walks (:meth:`walk`), so a game builds rows only where its
    bytes go.
    """

    __slots__ = ("widths", "tables", "first", "rows", "special", "built",
                 "_index", "_keys", "_narrow", "_live", "_settled",
                 "_walks", "_tails", "_escapes")

    def __init__(self, widths, tables):
        self.widths, self.tables = widths, tables
        state = 0
        while state >= 0 and not widths[state]:
            state = tables[state][0]
        # the state every attempt reads its first bit in, or the WIN or
        # FAIL every attempt ends in without reading a bit
        self.first = state
        self.rows, self.special, self.built = [], [], 0
        self._index, self._keys = {}, []
        self._narrow, self._live, self._settled = {}, {}, {}
        self._walks = [{} for _ in range(8)]   # per number of bits
        self._tails, self._escapes = {}, {}

    def _is_narrow(self, s):
        narrow = self._narrow.get(s)
        if narrow is None:
            row = self.tables[s]
            narrow = self._narrow[s] = (
                self.widths[s] <= _NARROW_BITS
                or len(row) - row.count(FAIL) <= _SPARSE_ENTRIES)
        return narrow

    def _prefixes(self, s):
        """The prefixes (1 << j | v) of state s's field, 0 < j < width,
        that some non-FAIL entry starts with."""
        live = self._live.get(s)
        if live is None:
            row, width = self.tables[s], self.widths[s]
            live = self._live[s] = set()
            for nxt in set(row) - {FAIL}:
                i = row.index(nxt)
                while True:
                    live.update(1 << j | i >> (width - j)
                                for j in range(1, width))
                    try:
                        i = row.index(nxt, i + 1)
                    except ValueError:
                        break
        return live

    def settle(self, nxt):
        """(fails, end) on reaching automaton entry `nxt`: zero-width states
        followed and a FAIL restarted; end is WIN, the key (s, 0, 0) of a
        narrow state s or the wide state s itself."""
        got = self._settled.get(nxt)
        if got is None:
            widths, tables = self.widths, self.tables
            s = nxt
            while s >= 0 and not widths[s]:
                s = tables[s][0]
            fails = 0
            if s == FAIL:
                fails, s = 1, self.first
            end = s if s == WIN or not self._is_narrow(s) else (s, 0, 0)
            got = self._settled[nxt] = (fails, end)
        return got

    def _step(self, key, bit):
        """(fails, end) after one more bit from `key`: end is a key, WIN or
        a wide state."""
        s, j, v = key
        if s == FAIL:
            return (0, (FAIL, j - 1, 0)) if j > 1 else self.settle(FAIL)
        j, v = j + 1, 2 * v + bit
        width = self.widths[s]
        if j == width:
            nxt = self.tables[s][v]
            return self._settled.get(nxt) or self.settle(nxt)
        if 1 << j | v in self._prefixes(s):
            return 0, (s, j, v)
        return 0, (FAIL, width - j, 0)

    def walk(self, key, m):
        """Per m-bit pattern from `key`, (fails, end, unread): the end of
        :meth:`_step` after its bits, or the WIN or wide state met with
        `unread` of them left."""
        memo = self._walks[m]
        out = memo.get(key)
        if out is None:
            out = []
            for bit in (0, 1):
                fails, end = self._step(key, bit)
                if end.__class__ is int:
                    out += [(fails, end, m - 1)] * (1 << (m - 1))
                elif m == 1:
                    out.append((fails, end, 0))
                else:
                    sub = self.walk(end, m - 1)
                    out += ([(fails + f, e, u) for f, e, u in sub] if fails
                            else sub)
            memo[key] = out
        return out

    def _code(self, special):
        self.special.append(special)
        return -1 - len(self.special)

    def index(self, key):
        """The index of key's row in `rows`, reserved on first call."""
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.rows)
            self._keys.append(key)
            self.rows.append(_Pending((0, self._code(i))))
        return i

    def escape(self, s, r):
        """The code of reaching wide state s with r bits of the byte left."""
        code = self._escapes.get((s, r))
        if code is None:
            code = self._escapes[s, r] = self._code((s, r))
        return code

    def _entry(self, fails, end, unread):
        if end.__class__ is not int:
            return fails, self.index(end)
        return fails, _WON if end == WIN else self.escape(end, unread)

    def _tail(self, key, fails):
        """The 16 entries of a byte whose first half leads to `key` with
        `fails` fails, per value of its second half."""
        tails = self._tails
        tail = tails.get((key, fails))
        if tail is None:
            if fails:
                tail = [(fails + f, d) for f, d in self._tail(key, 0)]
            else:
                index, tail = self._index, []
                for f, end, unread in self.walk(key, 4):
                    i = index.get(end)
                    tail.append(self._entry(f, end, unread) if i is None
                                else (f, i))
            tails[key, fails] = tail
        return tail

    def build(self, i):
        """Build row i in place of its :class:`_Pending`."""
        row, tails = [], self._tails
        for fails, end, unread in self.walk(self._keys[i], 4):
            if end.__class__ is int:
                row += [self._entry(fails, end, unread + 4)] * 16
            else:
                row += tails.get((end, fails)) or self._tail(end, fails)
        self.rows[i] = row
        self.built += 1
