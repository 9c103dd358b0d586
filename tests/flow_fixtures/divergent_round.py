"""Seeded SY defect in a round step handed to the round driver.

Parsed by the flow verifier in tests — never imported or executed.  Only
``run_rounds`` ever calls the step, but it is module-level, so the
verifier checks it like any other function; a closure passed to the
driver would never be analysed.  ``divergent_round_clean.py`` holds the
corrected twin.
"""

from repro.collectives import setd
from repro.faults.rounds import run_rounds


def graft_round(st):
    """SY01: a thread whose own block still moves runs a setd, the
    others a barrier — their collective sequences diverge."""
    rt, d = st.rt, st.d
    mine = d.local_view(rt.me)
    if mine.any():
        setd(rt, d, st.targets, st.values)
    else:
        rt.barrier()
    return not rt.allreduce_flag(mine.any())


def solve(st):
    return run_rounds(st, graft_round, name="fixture", bound=8, refs=())
