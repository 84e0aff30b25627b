"""The float series of the geometric moments, summed for many rows at once.

For G geometric with success probability q, E[G^zeta] = sum_k k^zeta
(1-q)^(k-1) q.  ``lzguess.guessers.moment_grid``, behind the ``moments``
subcommand, reads this series for 2**-20 <= q < 1 and zeta not in
{1, 2}, about zeta/q terms a row.  :func:`series_grid` sums the rows of
one call in lockstep over the same chunks of k, so rows with one q share
that q's list of (1-q)^(k-1) q and rows with one zeta its list of
k**zeta, while each row's float sum stays that of a term-by-term loop.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import add, mul

# the relative error that stops a moment series: this float series, and
# the log-domain one of lzguess.guessers.moment_log2
REL_TOL = 1e-12
# the series' largest chunk of k: a series_grid call holds one list of
# this many floats per live zeta, and one for the current q
_SERIES_CHUNK = 4096


class MomentResult(namedtuple("MomentResult", "value rel_err")):
    """A moment, a float, and its certified relative error."""

    __slots__ = ()


def series_grid(rows) -> list:
    """E[G^zeta] or None for each row (qf, zeta), 0 < qf <= 1 and
    0 < zeta < inf, from the series sum_k k^zeta (1-q)^(k-1) q, stopped
    once a geometric tail bound certifies relative error below 1e-12.
    None leaves a row to ``lzguess.guessers.moment_log2``: below
    q = 2**-20, as the series needs about zeta/q terms, and where a
    k**zeta or a tail bound of the series overflows a double.

    Every row of the grid advances over the same chunks of k, which
    double up to _SERIES_CHUNK.  Per chunk each live zeta forms its
    k**zeta list once and each live q its (1-q)^(k-1) q list once; a row
    adds its products from the left, in the order of a term-by-term loop,
    with functools.reduce (not sum(), which compensates floats since
    Python 3.12), so the float result is that loop's.  Only in the chunk
    where a row stops is it bisected for the first k that stops it
    (:func:`_series_stop`).  Tests check it against such a loop and the
    closed forms.
    """
    # a row's key keeps zeta's type: an int zeta forms k**zeta as an int
    keys = [(qf, zeta, type(zeta)) for qf, zeta in rows]
    out, live = {}, {}          # live: qf -> {row key: running sum}
    for key in keys:
        qf = key[0]
        if qf == 1.0:
            out[key] = MomentResult(1.0, 0.0)
        elif qf < 2.0 ** -20:
            out[key] = None
        else:
            live.setdefault(qf, {})[key] = 0.0
    geom = {qf: qf for qf in live}      # q(1-q)^(k-1) at the chunk's k
    k, size = 1, 8
    while live:
        _series_chunk(k, size, live, geom, out)
        k += size
        size = min(2 * size, _SERIES_CHUNK)
    return [out[key] for key in keys]


def _series_chunk(k: int, size: int, live: dict, geom: dict, out: dict):
    """Advance the live rows of :func:`series_grid` over the terms
    k .. k+size-1; a row that stops, or that the series cannot give,
    leaves `live` for `out`.  A chunk's lists go when it returns."""
    pows = {}
    for zkey in {key[1:] for sums in live.values() for key in sums}:
        try:
            pows[zkey] = list(map(pow, range(k, k + size), repeat(zkey[0])))
        except OverflowError:
            pows[zkey] = None       # a k**zeta overflows before its term
    for qf, sums in list(live.items()):
        one_minus = 1.0 - qf
        geoms = list(accumulate(repeat(one_minus, size - 1), mul,
                                initial=geom[qf]))
        for key, total in list(sums.items()):
            zeta, terms = key[1], pows[key[1:]]
            if terms is not None:
                try:
                    end = reduce(add, map(mul, terms, geoms), total)
                    stop = _series_tail(k + size - 1, geoms[-1], end, zeta,
                                        one_minus)
                except OverflowError:
                    terms = None        # an int k**zeta, or a tail bound
            if terms is None:
                out[key] = None
            elif stop is None:
                sums[key] = end
                continue
            else:
                out[key] = _series_stop(k, terms, geoms, total, zeta,
                                        one_minus)
            del sums[key]
        if not sums:
            del live[qf]
        geom[qf] = geoms[-1] * one_minus
        del geoms                       # before the next q's list is built


def _series_stop(k: int, terms: list, geoms: list, total: float,
                 zeta: float, one_minus: float) -> MomentResult:
    """A row's value at the first term of the chunk from k that stops it,
    given its sum `total` before the chunk, whose last term stops it.
    Before the peak no term stops a row; past it, tail/total falls, so
    the terms that stop it are a suffix of the chunk, and the first of
    them, found by bisection, is the first of all.  Each probe adds the
    terms from the last known running sum on, in a term-by-term loop's
    order, so the bisection makes no list of running sums."""
    lo, hi = 0, len(terms) - 1
    before = total                  # the running sum before term k + lo
    while lo < hi:
        mid = (lo + hi) // 2
        partial = reduce(add, map(mul, islice(terms, lo, mid + 1),
                                  islice(geoms, lo, mid + 1)), before)
        if _series_tail(k + mid, geoms[mid], partial, zeta,
                        one_minus) is None:
            lo, before = mid + 1, partial
        else:
            hi = mid
    partial = before + terms[lo] * geoms[lo]
    tail = _series_tail(k + lo, geoms[lo], partial, zeta, one_minus)
    return MomentResult(partial + 0.5 * tail, tail / partial)


def _series_tail(k: int, geom: float, total: float, zeta: float,
                 one_minus: float):
    """The certified tail bound of the moment series after term k, whose
    geometric factor is `geom` and running sum `total`, or None if it
    does not yet stop the series.  :func:`series_grid` asks it once per
    row at the end of each chunk, and about log2 of the chunk's size
    times in the chunk where it stops the row."""
    # past the peak, terms shrink at least geometrically with ratio r
    r = ((1.0 + 1.0 / k) ** zeta) * one_minus
    if r < 1.0:
        tail = (((k + 1) ** zeta) * geom * one_minus) / (1.0 - r)
        if tail <= REL_TOL * total:
            return tail
    return None
