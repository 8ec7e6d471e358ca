"""Re-check a false predicate verdict from the raw ring JSON, without ringlab.

Each check evaluates the witness once against the `add`/`mul` tables, so a
wrong verdict from the program cannot hide behind the program's own code.
"""
from __future__ import annotations


def _is_nilpotent(mul, zero: int, x: int) -> bool:
    acc = x
    for _ in range(len(mul)):
        if acc == zero:
            return True
        acc = mul[acc][x]
    return acc == zero


def recheck(ring: dict, predicate: str, witness: list, delta: list) -> str | None:
    """None when the witness refutes `predicate` on `ring`, else the reason it does not."""
    mul, zero = ring["mul"], ring["zero"]
    n = len(mul)
    if any(not (isinstance(w, int) and 0 <= w < n) for w in witness):
        return f"witness {witness} out of range for order {n}"
    if predicate in ("reversible", "delta-reversible"):
        a, b = witness
        if mul[a][b] != zero:
            return f"ab = {mul[a][b]} is not zero"
        if predicate == "reversible" and mul[b][a] == zero:
            return "ba is zero"
        if predicate == "delta-reversible" and mul[b][a] in set(delta):
            return f"ba = {mul[b][a]} lies in delta"
        return None
    if predicate == "abelian":
        e, x = witness
        if mul[e][e] != e:
            return f"{e} is not idempotent"
        if mul[e][x] == mul[x][e]:
            return f"{e} commutes with {x}"
        return None
    if predicate == "reduced":
        (x,) = witness
        if x == zero or not _is_nilpotent(mul, zero, x):
            return f"{x} is not a nonzero nilpotent"
        return None
    raise ValueError(f"no witness check for {predicate!r}")
