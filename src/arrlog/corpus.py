"""Named fixture arrangements and seeded generated families."""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, LinearForm3, arrangement, \
    intersection_points, parse_factored
from .rng import XorShift64

# resampling budgets: draws per random line set, line sets per generic one
LINE_ATTEMPTS = 1000
GENERIC_ATTEMPTS = 200


class BudgetExhausted(RuntimeError):
    """A generator drew its whole resampling budget without a result."""


@dataclass(frozen=True)
class Fixture:
    name: str
    factored: str
    verdict: str
    exponents: tuple[int, int]
    level: int

    def build(self) -> Arrangement:
        return Arrangement(tuple(parse_factored(self.factored)), self.name)

    def document(self) -> dict:
        return {"name": self.name, "factored": self.factored}


FIXTURES: tuple[Fixture, ...] = (
    Fixture("nf6", "xyz(x+4y)(x+5y+z)(y+z)", "nearly-free", (3, 3), 3),
    Fixture("pog6a", "xyz(x+y)(-x+2y+z)(x+2y+z)", "plus-one-generated", (3, 3), 4),
    Fixture("pog6b", "xyz(x+y)(-x+2y+z)(x-2y+z)", "plus-one-generated", (3, 3), 4),
    Fixture("generic4", "xyz(x+y+z)", "nearly-free", (2, 2), 2),
    Fixture("pog6c", "xyz(x+z)(-x+y+2z)(x+y+2z)", "plus-one-generated", (3, 3), 4),
    Fixture("pog7", "xyz(x-y)(x+y)(y+z)(x+4y+z)", "plus-one-generated", (3, 4), 5),
)


def fixture(name: str) -> Fixture:
    for f in FIXTURES:
        if f.name == name:
            return f
    raise KeyError(name)


# ---------------------------------------------------------------------------
# generated families

def pencil(n: int) -> Arrangement:
    """n lines through the point (0:0:1)."""
    if n < 1:
        raise ValueError("need at least one line")
    rows = [[1, 0, 0], [0, 1, 0]][: min(n, 2)]
    rows += [[1, k, 0] for k in range(1, n - 1)]
    return arrangement(rows[:n], f"pencil-{n}")


def near_pencil(n: int) -> Arrangement:
    """n - 1 lines through (0:0:1) plus the transversal z = 0."""
    if n < 3:
        raise ValueError("a near-pencil needs at least 3 lines")
    base = pencil(n - 1)
    return Arrangement(base.lines + (LinearForm3.make([0, 0, 1]),),
                       f"near-pencil-{n}")


def _random_lines(n: int, rng: XorShift64):
    lines: list[LinearForm3] = []
    for _ in range(LINE_ATTEMPTS):
        if len(lines) == n:
            break
        coeffs = tuple(rng.randint(-9, 9) for _ in range(3))
        if not any(coeffs):
            continue
        form = LinearForm3.from_ints(coeffs)
        if form not in lines:
            lines.append(form)
    if len(lines) != n:
        raise BudgetExhausted("resampling budget exhausted")
    return lines


def random_arrangement(n: int, seed: int) -> Arrangement:
    """n distinct random lines with small integer coefficients."""
    rng = XorShift64(seed)
    return Arrangement(tuple(_random_lines(n, rng)), f"random-{n}-{seed}")


def generic(n: int, seed: int = 1) -> Arrangement:
    """n random lines in general position (no three concurrent)."""
    rng = XorShift64(seed)
    for _ in range(GENERIC_ATTEMPTS):
        A = Arrangement(tuple(_random_lines(n, rng)), f"generic-{n}")
        if all(p.multiplicity == 2 for p in intersection_points(A)):
            return A
    raise BudgetExhausted("could not reach general position within budget")


def random_corpus(count: int, max_lines: int, seed: int) -> list[Arrangement]:
    """Deterministic batch of random arrangements with 3..max_lines lines."""
    if max_lines < 3:
        raise ValueError("max_lines must be at least 3")
    rng = XorShift64(seed)
    out = []
    for i in range(count):
        n = rng.randint(3, max_lines)
        lines = tuple(_random_lines(n, rng))
        out.append(Arrangement(lines, f"random-{i}"))
    return out
