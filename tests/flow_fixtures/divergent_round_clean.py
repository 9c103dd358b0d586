"""Clean twin of ``divergent_round.py``: every thread runs the round's
setd, and the convergence verdict is a uniform allreduce."""

from repro.collectives import setd
from repro.faults.rounds import run_rounds


def graft_round(st):
    rt, d = st.rt, st.d
    mine = d.local_view(rt.me)
    setd(rt, d, st.targets, st.values)
    return not rt.allreduce_flag(mine.any())


def solve(st):
    return run_rounds(st, graft_round, name="fixture", bound=8, refs=())
