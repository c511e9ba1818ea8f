"""Truth tables of a CNF: the whole table packed into one int along a
variable order, and the order tables over all variable sets that the
minimum OBDD size is read from.

`bprog` builds OBDDs and checks equivalence from the packed table, which
needs no numpy.  The order tables are one numpy level walk, which ranks
each chunk's keys with one value sort of int64 words that pack a key
above its entry's position; this module imports numpy only inside it.
Both live apart from `bprog` to keep it under 4096 tokens: CPython's
parser grows its token array by doubling and allocates every new slot, so
a larger module adds about 230 KiB to the peak memory of each process
that compiles it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapacityError
from .instances import Cnf


def truth_table(f: Cnf, order: Sequence[int]) -> int:
    """Truth table of f as one int: bit k is f at assignment k, where index
    bit j, counted from the most significant of m, is the value of order[j].

    f is false exactly on its clauses' falsifying subcubes.  A clause's
    subcube is a bit pattern that repeats with period 2^(h+1), h the highest
    index bit its literals fix: it is built by doubling a one-bit pattern
    h+1 times, keeping one half at a fixed bit and both at a free one.
    Patterns of one period are ORed together, one running OR widens through
    the periods in ascending order to all 2^m bits, and the table is its
    complement.  A table too large for an int raises CapacityError.
    """
    m = f.num_vars
    bit = {v: m - 1 - j for j, v in enumerate(order)}  # v's index bit, from the least
    try:
        full = (1 << (1 << m)) - 1
        falsified: dict[int, int] = {}  # h+1 -> OR of the patterns of period 2^(h+1)
        for clause in f.clauses:
            fixed = {bit[abs(s) - 1]: s > 0 for s in clause}
            top = max(fixed, default=-1) + 1
            pattern = 1
            for b in range(top):
                positive = fixed.get(b)
                if positive is None:
                    pattern |= pattern << (1 << b)
                elif not positive:  # a negative literal is false where the bit is 1
                    pattern <<= 1 << b
            falsified[top] = falsified.get(top, 0) | pattern
        acc, period = 0, 0  # acc repeats every 2^period bits
        for top in sorted(falsified) + [m]:
            for b in range(period, top):
                acc |= acc << (1 << b)
            acc |= falsified.pop(top, 0)
            period = top
        return full ^ acc
    except (MemoryError, OverflowError):
        raise CapacityError(f"truth table of {m} variables does not fit in memory") from None


# Entries of one level derived per vectorised step.  This bounds the int64
# keys, gather indices and sort words to a few hundred KiB whatever the
# level's size, so peak memory is the two adjacent levels' id tables.
_COMPACTION_CHUNK = 1 << 13
# The most variables whose packed sort words fit in 63 bits (see order_tables).
_MAX_VARS = 22


def order_tables(f: Cnf) -> tuple:
    """Two int64 numpy arrays over the variable sets S (bit v of the index
    set iff v is in S): counts[S], the distinct non-constant residual
    functions of f over the assignments of S, which are the nodes at the
    OBDD level right after prefix set S; and below[S], the fewest nodes the
    levels after S can have, min over v outside S of counts[S|v] +
    below[S|v] (Bodlaender et al., ToCS 2012).  Only this function imports
    numpy.

    counts is the compaction of Friedman & Supowit (IEEE Trans. Computers
    39(5), 1990).  The table of S holds, for each assignment of S (bit i
    of the index is the i-th smallest variable of S), an id of the
    residual function: 0 is constant false, 1 constant true, and two
    entries of one table have equal ids exactly when their residuals are
    equal.  The table of the full set is the truth table, unpacked once
    from `truth_table`'s int into int32 ids.  The table of S comes from
    that of its parent S | {v}, v the lowest variable outside S: the
    residual under an assignment of S is the pair of residuals with v=0
    and v=1, so deduplicating the id pairs gives S's ids.

    One walk derives the levels |S| = m-1, ..., 0 in turn, counts and then
    below, whose every S|v lies on the level before.  A level is one flat
    int32 array of C(m,k) tables of 2^k entries, and only two adjacent
    levels are alive at once: at m=16 the largest pair (k=11 and k=10)
    holds 17.1M ids, 65 MiB.  All levels together hold 3^m entries,
    deduplicated one chunk of about _COMPACTION_CHUNK entries (one table,
    when a table is larger) at a time, so the time is O(m·3^m).

    A chunk's key is its row's index in the chunk times base², plus the
    id pair as a base-`base` number, base being one more than the largest
    parent id.  Each key is packed into one int64 word above the entry's
    position in the chunk, so one in-place value sort orders the keys and
    carries the positions along.  An entry's id is its key's rank among
    the chunk's distinct keys, plus 2, and the constant pairs take 0 and
    1: ids are ranks in key order.  A word needs the key bits plus the
    position bits.  base is at most 2 plus the entries of one chunk of
    the level above, so from m = 18 the widest word is at k = m-2, whose
    one-table chunks of 2^k entries have base <= 2^(k+1) + 2: 2k+3 key
    bits and k position bits, 3m-3 in all.  63 bits hold that through
    m = _MAX_VARS = 22; a larger m raises CapacityError before anything is
    allocated (at m = 22 the largest level pair already holds 40 GiB).
    """
    m = f.num_vars
    if m > _MAX_VARS:
        raise CapacityError(f"order tables: {m} variables exceeds {_MAX_VARS}, the most "
                            f"whose packed sort words fit in an int64")
    import numpy as np

    size = np.zeros(1 << m, dtype=np.int8)
    for v in range(m):  # the sets holding v are those without it, plus v
        size[1 << v:2 << v] = size[:1 << v] + 1
    by_level = np.argsort(size, kind="stable")  # level k is by_level[starts[k]:starts[k + 1]]
    starts = np.searchsorted(size[by_level], np.arange(m + 2))
    row = np.argsort(by_level) - starts[size]  # a set's table index within its level
    counts, below = np.zeros((2, 1 << m), dtype=np.int64)
    below[:-1] = 1 << 62  # unset: a set's own entry never wins a min before its level sets it

    # The truth table with variable i on index bit i, one int32 per entry.
    table = truth_table(f, tuple(reversed(range(m))))
    packed = np.frombuffer(table.to_bytes(((1 << m) + 7) // 8, "little"), dtype=np.uint8)
    parent = np.unpackbits(packed, count=1 << m, bitorder="little").astype(np.int32)
    base = 2  # every parent id is below base
    for k in range(m - 1, -1, -1):
        level_sets = by_level[starts[k]:starts[k + 1]]
        width = 1 << k
        level = np.empty(len(level_sets) * width, dtype=np.int32)
        a = np.arange(width, dtype=np.int64)
        rows_per_chunk = max(1, _COMPACTION_CHUNK >> k)
        positions = np.arange(rows_per_chunk * width, dtype=np.int64)
        shift = (len(positions) - 1).bit_length()  # a packed word's position bits
        next_base = 2
        for r0 in range(0, len(level_sets), rows_per_chunk):
            s = level_sets[r0:r0 + rows_per_chunk]
            bit = (~s & (s + 1))[:, None]  # the lowest variable outside s
            # Parent index of assignment a with v=0: the bits of a at and
            # above v's rank move up one place to make room for v.
            at = a & -bit
            at += a
            at += (row[s | bit[:, 0]] << (k + 1))[:, None]
            pair = parent[at].astype(np.int64)
            pair *= base
            at += bit
            pair += parent[at]
            # Tagging each pair with its row lets one sort dedupe every row.
            span = base * base
            pair += (np.arange(len(s), dtype=np.int64) * span)[:, None]
            word = pair.ravel()
            word <<= shift
            word |= positions[:len(word)]
            word.sort()
            pos = word & (1 << shift) - 1
            word >>= shift  # the keys, ascending
            new = np.empty(len(word), dtype=bool)  # where a key differs from the one before
            new[0] = True
            np.not_equal(word[1:], word[:-1], out=new[1:])
            uniq = word[new]
            residue = uniq % span
            # ids[j] is the id of the j-th distinct key, counting from 1.
            ids = np.arange(1, len(uniq) + 2, dtype=np.int32)
            ids[1:][residue == 0] = 0
            ids[1:][residue == base + 1] = 1
            level[r0 * width:(r0 + len(s)) * width][pos] = ids[np.cumsum(new)]
            varying = uniq[ids[1:] > 1]
            counts[s] = np.bincount(varying // span, minlength=len(s))
            next_base = max(next_base, len(uniq) + 2)
        parent, base = level, next_base
        t = level_sets[:, None] | 1 << np.arange(m)  # S|v for each v; S, still unset, if v in S
        below[level_sets] = (counts[t] + below[t]).min(axis=1)
        del t  # so the next level's two id tables are the peak
    return counts, below
