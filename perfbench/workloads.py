"""The benchmark's workloads, as permrat CLI argument lists.

Each workload is a list of Command objects: one permrat process each, run in
order.  The seed only picks map parameters (b by index, or a trace value);
campaign configurations stay fixed because their reports are the contract.
`smoke=True` gives a tiny configuration of the same shape for the self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from permrat.field import absolute_trace, make_field


@dataclass
class Command:
    """One permrat invocation; `expect` carries what the checks need."""

    argv: list[str]
    progress: bool = False
    expect: dict = field(default_factory=dict)


def _draw_b_index(rng: random.Random, p: int, n: int, traces) -> int:
    """A random element index whose absolute trace lies in `traces`."""
    ctx = make_field(p, n)
    while True:
        i = rng.randrange(ctx.order)
        if absolute_trace(ctx.element(i)) in traces:
            return i


def _permcheck(rng, p, n, traces) -> Command:
    b = _draw_b_index(rng, p, n, traces)
    return Command(["permcheck", "--p", str(p), "--n", str(n), "--b-index", str(b)],
                   expect={"b_index": b})


def _nonzero(p):
    return range(1, p)


def perm_full(rng, smoke):
    # Full scans of permuting maps: every b with nonzero trace permutes for
    # p = 2, 3, and over F_{p^2} exactly the b with trace +-1 do.  p = 401
    # stands in for p ~ 1000, whose pure scan alone takes ~25 s.
    fields = [(2, 8), (3, 5), (13, 2)] if smoke else [(2, 16), (3, 10), (401, 2)]
    cmds = [_permcheck(rng, p, n, _nonzero(p) if p <= 3 else (1, p - 1))
            for p, n in fields]
    base = ["verify", "baseline"]
    cmds.append(Command(base + ["--n2-max", "4", "--n3-max", "3"] if smoke else base))
    return cmds


def perm_collide(rng, smoke):
    if smoke:
        argvs = [["verify", "thm11", "--primes", "5"],
                 ["verify", "thm31", "--p-max", "13", "--full-primes", "3"],
                 ["verify", "remark43", "--q-list", "9"],
                 ["conjecture", "--n", "3", "--primes", "5"],
                 ["conjecture", "--n", "4", "--primes", "5"]]
    else:
        argvs = [["verify", "thm11"], ["verify", "thm31"], ["verify", "remark43"],
                 ["conjecture", "--n", "3"], ["conjecture", "--n", "4"]]
    return [Command(a, progress=True) for a in argvs]


def curves(rng, smoke):
    if smoke:
        argvs = [["weil-audit", "--p-max", "7", "--f-degrees", "2",
                  "--ident-p-max", "3", "--eq28-p-max", "7"],
                 ["verify", "lemma22", "--p-max", "13"],
                 ["verify", "lemmaL", "--p-max", "13"]]
        p, n = 5, 2
    else:
        argvs = [["weil-audit"], ["verify", "lemma22"], ["verify", "lemmaL"]]
        p, n = 7, 3
    cmds = [Command(a, progress=True) for a in argvs]
    b = _draw_b_index(rng, p, n, _nonzero(p))
    cmds.append(Command(["count", "--p", str(p), "--n", str(n), "--builtin", "F",
                         "--b-index", str(b)], expect={"b_index": b, "field": (p, n)}))
    return cmds


def spot_check(rng, smoke):
    if smoke:
        reps = [(2, 8, 1), (3, 4, 1), (3, 4, 2), (5, 2, 1)]
        pc = (5, 3)
    else:
        reps = [(2, 18, 1), (2, 16, 1), (3, 9, 1), (3, 8, 4), (5, 5, 1)]
        pc = (5, 5)
    cmds = [Command(["reps", "--p", str(p), "--n", str(n)] + (["--d", str(d)] if d > 1 else []))
            for p, n, d in reps]
    t = rng.randrange(1, pc[0])
    cmds.append(Command(["permcheck", "--p", str(pc[0]), "--n", str(pc[1]), "--b-trace", str(t)],
                        expect={"trace": t}))
    return cmds


_BUILDERS = {"perm-full": perm_full, "perm-collide": perm_collide,
             "curves": curves, "spot-check": spot_check}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, smoke: bool = False) -> list[Command]:
    """The commands of workload `name`; the same seed gives the same commands."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), smoke)
