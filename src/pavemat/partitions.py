"""Set partitions as restricted growth strings (RGS).

A code a[0..m-1] with a[0] = 0 and a[i] <= 1 + max(a[:i]) names the partition
whose blocks are the level sets of a; codes are enumerated in lexicographic
order, from the one-block partition to the discrete one.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def iter_rgs(m: int) -> Iterator[list[int]]:
    """All restricted growth strings of length m, lex order.

    The yielded list is a reused buffer; copy it if you keep it.
    """
    a = [0] * m
    if m <= 1:
        yield a
        return
    b = [1] * m
    while True:
        yield a
        j = m - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        nb = b[j] + 1 if a[j] == b[j] else b[j]
        for t in range(j + 1, m):
            a[t] = 0
            b[t] = nb


def rgs_to_blocks(code: Sequence[int]) -> list[list[int]]:
    blocks: list[list[int]] = []
    for i, c in enumerate(code):
        if c == len(blocks):
            blocks.append([])
        blocks[c].append(i)
    return blocks
