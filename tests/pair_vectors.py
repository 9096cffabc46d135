"""Pair views of 2n-bit noise vectors, whose pair j sits at bits (j, n + j)."""
from slpn.gf2 import BitVec


def from_pairs(pairs) -> BitVec:
    n = len(pairs)
    v = 0
    for j, (a, b) in enumerate(pairs):
        v |= ((a & 1) << j) | ((b & 1) << (n + j))
    return BitVec(2 * n, v)


def pair(v: BitVec, j: int) -> tuple[int, int]:
    return v.bit(j), v.bit(v.nbits // 2 + j)


def pairs(v: BitVec) -> list[tuple[int, int]]:
    return [pair(v, j) for j in range(v.nbits // 2)]
