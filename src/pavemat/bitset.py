"""Subsets of a ground set {0..d-1} as plain int bitmasks.

Python ints are arbitrary width, so the same fast path covers any ground
size; popcounts use ``int.bit_count``.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, filterfalse
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def as_mask(s: int | Iterable[int]) -> int:
    return s if isinstance(s, int) else mask_of(s)


# Entry b lists the set bits of the byte value b, ascending: the entries from
# 2**i on are the first 2**i entries with bit i added.
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _bit in range(8):
    _BYTE_BITS += [b + (_bit,) for b in _BYTE_BITS]
del _bit


def bit_list(mask: int, offset: int = 0) -> list[int]:
    """Set bit positions plus offset, ascending, read a byte at a time."""
    out = []
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        for b in _BYTE_BITS[byte]:
            out.append(offset + b)
        offset += 8
    return out


def bits_tuple(mask: int) -> tuple[int, ...]:
    return tuple(bit_list(mask))


# Rows per piece of written label text: about 180 kB for 4-element rows at
# the depth of a listing's circuits.
_ROWS_PER_PIECE = 2048


# Byte value b maps to 255 minus b with its bits reversed: the byte's lowest
# bit becomes its highest, and a set bit sorts low.
_ORDER_BYTES = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def sort_key(mask: int) -> tuple[int, bytes]:
    """Canonical ordering key: by size, then lexicographically by the
    ascending member lists.

    Of two masks of one size, A comes first exactly when the lowest bit of
    A ^ B is in A. The key's bytes run from bit 0 up, each mapped through
    _ORDER_BYTES, so they first differ at the byte of that bit and there put
    A's low. Of two masks of one size neither byte string is a prefix of the
    other, as the shorter would then hold fewer bits.
    """
    low_first = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return (mask.bit_count(), low_first.translate(_ORDER_BYTES))


def canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate and sort into canonical order."""
    return tuple(sorted(set(masks), key=sort_key))


def subsets_of_size(mask: int, r: int) -> Iterator[int]:
    """The r-subsets of mask in lexicographic order of their elements."""
    return map(sum, combinations([1 << e for e in bit_list(mask)], r))


def capped_subsets(
    ground: int, r: int, caps: Iterable[tuple[int, int]], within: Sequence[int] | None = None
) -> list[int]:
    """The r-subsets of ground holding fewer than t elements of each capped
    mask, for every (mask, t) in caps, and lying inside one of the masks in
    within (with within None, no such condition), in lexicographic order.
    A cap holding fewer than t elements of ground never binds; a cap with
    t <= 0 is broken by every set, and an empty within list holds no set, so
    the result is then empty. _capped_walk lists them."""
    return next(_capped_walk(ground, r, caps, within, None), [])


def capped_rows(
    ground: int,
    r: int,
    caps: Iterable[tuple[int, int]],
    within: Sequence[int] | None,
    before: str,
    sep: str,
    end: str,
) -> Iterator[str]:
    """A row of text for each set of capped_subsets(ground, r, caps,
    within), in order: before, the 1-based labels of its elements joined by
    sep, then end. Written by the walk with no mask list between, the rows
    that differ only in their last element by one str.join, in nonempty
    pieces of _ROWS_PER_PIECE rows or fewer than d more, the last fewer."""
    return map("".join, _capped_walk(ground, r, caps, within, (before, sep, end)))


def _capped_walk(
    ground: int,
    r: int,
    caps: Iterable[tuple[int, int]],
    within: Sequence[int] | None,
    text: tuple[str, str, str] | None,
) -> Iterator[list]:
    """The sets of capped_subsets as rows: with text None their masks, all
    in one list; with text (before, sep, end) the text of each, before, its
    1-based labels joined by sep, then end, in lists of strings holding
    _ROWS_PER_PIECE rows or fewer than d more, the last list fewer. No list
    is empty. The one walk serves both forms.

    A depth-first walk over the elements of ground in ascending order, which
    never forms a set that breaks a cap. A cap is full once the set holds
    t - 1 of its elements, and from then on its mask is blocked for the rest
    of that branch; a cap with t = 1 is blocked from the start. Likewise the
    room of a set is the union of the within masks that contain it, and the
    elements outside its room are blocked. A branch is entered only while
    enough unblocked elements are left above it.

    The walk carries the row of each set it extends, to which each element
    adds its head: its mask, or its label and sep. The rows that end in the
    unblocked elements above the last one taken share that row and head, the
    lead. As masks they are made by one C-level extend, the lead plus each
    such element. As text each row is the lead and the element's last text,
    its label and end, so all of them are the lead and the last texts joined
    by the lead: two strings, made by one str.join over a slice of the last
    texts when no element above is blocked. The walk keeps its own stack of
    the sets still to extend, so it can stop after any batch to yield.
    """
    live: list[tuple[int, int]] = []
    blocked = 0
    for mask, t in caps:
        if t <= 0:
            return
        inside = mask & ground
        if inside.bit_count() < t:
            continue
        if t == 1:
            blocked |= inside
        else:
            live.append((inside, t - 2))
    owners = 0  # the within masks containing the set so far, as index bits
    if within is not None:
        if not within:
            return
        owners = (1 << len(within)) - 1
        blocked |= ground & ~reduce(or_, within, 0)
    elems = [1 << e for e in bit_list(ground)]
    if text is None:
        if r <= 1:
            rows = [0] if r == 0 else list(filterfalse(blocked.__and__, elems))
            if rows:
                yield rows
            return
        start, heads = 0, elems
    else:
        before, sep, end = text
        labels = list(map(str, bit_list(ground, 1)))
        lasts = [label + end for label in labels]
        last = dict(zip(elems, lasts)).__getitem__
        if r <= 1:
            texts = [end] if r == 0 else list(map(last, filterfalse(blocked.__and__, elems)))
            if texts:
                yield [before, before.join(texts)]
            return
        start, heads = before, [label + sep for label in labels]
    d = len(elems)
    # For each element: the caps holding it, each with the number of its
    # elements a set holds when the element would fill it; the within masks
    # holding it, as index bits; the elements above it, as a list and as a
    # mask.
    holders = [[cap for cap in live if cap[0] & b] for b in elems]
    homes = [sum(1 << j for j, w in enumerate(within) if w & b) for b in elems] if owners else []
    tails = [elems[i + 1 :] for i in range(d)]
    above = [ground & ~((b << 1) - 1) for b in elems]
    outside: dict[int, int] = {}  # index bits -> the elements of ground outside their union
    out: list = []
    count = 0  # the rows in out, when written as text
    # The sets still to extend, the next one last: each as the index to go
    # on from, its mask and row, how many elements it still needs (two or
    # more), the elements blocked for it and its owners.
    todo = [(0, 0, start, r, blocked, owners)]
    while todo:
        first, acc, row, need, blocked, owners = todo.pop()
        # the rows in ascending order; the sets to extend pushed in
        # descending order, so that they are popped in ascending order
        order = range(first, d - 1) if need == 2 else range(d - need, first - 1, -1)
        for i in order:
            b = elems[i]
            if b & blocked:
                continue
            inner = blocked
            for mask, full in holders[i]:
                if (acc & mask).bit_count() == full:
                    inner |= mask
            own = owners
            if owners:
                own = owners & homes[i]
                if own != owners:
                    shut = outside.get(own)
                    if shut is None:
                        shut = outside[own] = ground & ~reduce(or_, (within[j] for j in bit_list(own)), 0)
                    inner |= shut
            if need == 2:
                lead = row + heads[i]
                if text is None:
                    out.extend(map(lead.__add__, filterfalse(inner.__and__, tails[i])))
                    continue
                if above[i] & inner:
                    texts = list(map(last, filterfalse(inner.__and__, tails[i])))
                else:
                    texts = lasts[i + 1 :]
                if texts:
                    out += (lead, lead.join(texts))
                    count += len(texts)
                    if count >= _ROWS_PER_PIECE:
                        yield out
                        out, count = [], 0
            elif (above[i] & ~inner).bit_count() >= need - 1:
                todo.append((i + 1, acc | b, row + heads[i], need - 1, inner, own))
    if out:
        yield out


def overlaps(masks: Iterable[int]) -> tuple[int, int, int]:
    """The elements in at least one, two and three of the masks."""
    once = twice = thrice = 0
    for m in masks:
        thrice |= twice & m
        twice |= once & m
        once |= m
    return once, twice, thrice


def remap(mask: int, table: Sequence[int] | Mapping[int, int]) -> int:
    """Relabel a mask: bit i becomes bit table[i]."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << table[low.bit_length() - 1]
    return out
