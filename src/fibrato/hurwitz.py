"""Branch data for candidate branched covers of curves.

A branch datum records a degree-d cover of a genus-g_target curve with m
branch points and one partition of d per branch point (the local degrees).
Compatibility is the Euler-characteristic identity

    2 - 2*g_source - m_parts = d * (2 - 2*g_target - m),

where m_parts is the total number of parts over all branch points.  For an
integer g_source it forces m*d - m_parts to be even; solve_source_genus,
where the genus is unknown, tests that parity first, so the genus it solves
for is an integer.  ramification_genus recomputes the genus by the classical
summation over local degrees as an independent cross-check.  Both raise
IncompatibleDatum, naming the failed condition, when no cover exists.

Realizability only imports a sufficient criterion — a full cyclic branch
point over the projective line — so the answer is Realizable or Unknown,
never "No".
"""

from __future__ import annotations

from dataclasses import dataclass

from .fibration import _index_entries, _index_fields

__all__ = [
    "BranchDatum",
    "REALIZABLE",
    "UNKNOWN",
    "is_compatible",
    "solve_source_genus",
    "is_realizable",
    "ramification_genus",
    "IncompatibleDatum",
]

REALIZABLE = "Realizable"
UNKNOWN = "Unknown"


class IncompatibleDatum(ValueError):
    """No cover carries this branch datum: m*d - m_parts is odd, the solved
    genus is negative, or realizability was asked of an incompatible datum.
    The text says which."""


@dataclass(frozen=True)
class BranchDatum:
    """A candidate branched cover: source genus (or None while unsolved),
    target genus, branch-point count, degree, and local degrees."""

    g_source: int | None
    g_target: int
    m: int
    d: int
    partitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _index_fields(self, ("g_target", "m", "d") if self.g_source is None else (
            "g_source", "g_target", "m", "d"))
        object.__setattr__(self, "partitions", tuple(
            _index_entries("partitions", p) for p in self.partitions))
        if self.g_source is not None and self.g_source < 0:
            raise ValueError("source genus must be non-negative")
        if self.g_target < 0:
            raise ValueError("target genus must be non-negative")
        if self.d < 2:
            raise ValueError("degree must be at least 2")
        if self.m != len(self.partitions):
            raise ValueError("need exactly one partition per branch point")
        for p in self.partitions:
            if not p or any(x < 1 for x in p):
                raise ValueError("partition parts must be positive")
            if sum(p) != self.d:
                raise ValueError(f"partition {p} does not sum to the degree {self.d}")

    @property
    def total_parts(self) -> int:
        """Total number of preimages of branch points (often written with a
        tilde over m)."""
        return sum(len(p) for p in self.partitions)


def is_compatible(b: BranchDatum) -> bool:
    """The Euler-characteristic identity; at an integer source genus it
    implies that m*d - m_parts is even."""
    if b.g_source is None:
        raise ValueError("compatibility needs a known source genus")
    return 2 - 2 * b.g_source - b.total_parts == b.d * (2 - 2 * b.g_target - b.m)


def solve_source_genus(g_target: int, m: int, d: int, partitions) -> int:
    """The unique source genus admitted by the datum, if one exists."""
    probe = BranchDatum(None, g_target, m, d, tuple(partitions))
    if (m * d - probe.total_parts) % 2 != 0:
        raise IncompatibleDatum(f"m*d - parts = {m * d - probe.total_parts} is odd")
    # The parity test makes 2*g even, so this division is exact.
    g = (2 - probe.total_parts - d * (2 - 2 * g_target - m)) // 2
    if g < 0:
        raise IncompatibleDatum(f"solved genus {g} is negative")
    return g


def ramification_genus(g_target: int, d: int, partitions) -> int:
    """Independent Riemann-Hurwitz evaluation: genus from the summation of
    (local degree - 1) over all preimages of branch points."""
    ram = sum(part - 1 for p in partitions for part in p)
    doubled = d * (2 * g_target - 2) + ram + 2
    if doubled % 2 != 0:
        raise IncompatibleDatum(f"total ramification {ram} has the wrong parity")
    g = doubled // 2
    if g < 0:
        raise IncompatibleDatum(f"summation genus {g} is negative")
    return g


def is_realizable(b: BranchDatum) -> str:
    """Realizable when the target is the projective line and some branch
    point is fully cyclic (its partition is the single part (d)); Unknown
    otherwise."""
    if not is_compatible(b):
        raise IncompatibleDatum("realizability is only defined for compatible data")
    if b.g_target == 0 and any(p == (b.d,) for p in b.partitions):
        return REALIZABLE
    return UNKNOWN

