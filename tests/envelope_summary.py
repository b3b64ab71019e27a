"""Verdicts and accuracy of `pfl block` over the accuracy envelope.

The envelope is |γ| ∈ {0.1, …, 0.9} × M ∈ 1..30 at phase 0, 270 points.
Each point is built and verified as `pfl block` does, on the Cholesky
level core, and the script prints:

* how many points are certified (every check passes), refused (an exit-2
  error, tallied by its message) and failing (some check fails);
* a tally of the first failing check, in report order;
* the points whose outcome (refusal or set of failing checks) changes when
  |γ| moves by one ulp either way;
* the worst ``c_matrix`` and ``sqrt_S_e`` over the certified points against
  their closed forms ``Sym^M(U)`` and ``Sym^M(P)`` (`oracles.cholesky_polar`),
  relative to max(1, largest entry).

The script is informational and gates nothing; the flip list is pinned in
tier-1 by `test_blocks.py::TestOneUlpFlips`.  Run it with:

    PYTHONPATH=src python3 tests/envelope_summary.py
"""

import math
import re
from collections import Counter

import numpy as np

from oracles import cholesky_polar, sym_power
from pseudofermion.blocks import (
    EQUALITY_TOL,
    build_block_system,
    realize_basis_cholesky,
    verify_block_system,
)
from pseudofermion.overlaps import LEVEL_CAP, gram_block

# |gamma| in 0.1 .. 0.9 and every level up to the cap.
ENVELOPE = [(r / 10, m) for r in range(1, 10) for m in range(1, LEVEL_CAP + 1)]


def outcome(r: float, m: int):
    """The level system and its failing checks in report order, or the refusal's message."""
    try:
        system = build_block_system(realize_basis_cholesky(gram_block(m, r)))
    except ValueError as exc:
        return None, str(exc)
    residuals = verify_block_system(system)
    return system, tuple(name for name, value in residuals.items() if not value <= EQUALITY_TOL)


def relative_error(got: np.ndarray, exact: np.ndarray) -> float:
    """``max|got - exact|`` relative to ``max(1, max|exact|)``."""
    return float(np.abs(got - exact).max() / max(1.0, np.abs(exact).max()))


def verdict(result) -> tuple:
    # A refusal by the kind its message names (the text before the colon).
    system, detail = result
    return detail if system is not None else detail.partition(":")[0]


def flips(r: float, m: int, result) -> bool:
    """Whether the outcome ``result`` at (r, m) changes when |γ| moves by one ulp either way."""
    neighbours = (math.nextafter(r, 0.0), math.nextafter(r, 1.0))
    return any(verdict(outcome(q, m)) != verdict(result) for q in neighbours)


def main() -> None:
    counts, refusals, first, flipping = Counter(), Counter(), Counter(), []
    worst = {"c_matrix": (0.0, None), "sqrt_S_e": (0.0, None)}
    wrong = Counter()
    for r, m in ENVELOPE:
        system, detail = outcome(r, m)
        if system is None:
            counts["refused"] += 1
            refusals[re.sub(r"level \d+", "level M", detail.partition(":")[0])] += 1
        elif detail:
            counts["failing"] += 1
            first[detail[0]] += 1
        else:
            counts["certified"] += 1
            p, u = cholesky_polar(r)
            for name, t in (("c_matrix", u), ("sqrt_S_e", p)):
                err = relative_error(system.core[name], sym_power(t, m))
                wrong[name] += err > 1e-11
                worst[name] = max(worst[name], (err, (r, m)), key=lambda item: item[0])
        if flips(r, m, (system, detail)):
            flipping.append((r, m))

    print(f"envelope: |gamma| 0.1 .. 0.9 x M 1 .. {LEVEL_CAP} at phase 0, {len(ENVELOPE)} points")
    print(", ".join(f"{key} {counts[key]}" for key in ("certified", "refused", "failing")))
    for message, count in refusals.most_common():
        print(f"  refused {count}: {message}")
    for name, count in first.most_common():
        print(f"  first failing check {name}: {count}")
    print(f"one-ulp flips of |gamma|: {len(flipping)}: {', '.join(map(str, flipping))}")
    for name, (err, point) in worst.items():
        print(f"certified {name} against its closed form: worst {err:.2e} at {point}, "
              f"{wrong[name]} points above 1e-11")


if __name__ == "__main__":
    main()
