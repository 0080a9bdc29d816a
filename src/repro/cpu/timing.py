"""Dataflow timing model.

Approximates an out-of-order superscalar core as a dataflow machine
constrained by:

- the frontend **issue width** (4 uops/cycle on Haswell): the issue
  pointer advances uops/width per instruction — multi-uop wrapper
  sequences (extract, broadcast, checks) consume proportionally more
  frontend bandwidth, which is the paper's main overhead mechanism
  (§VII-A, Table III's instruction-increase column);
- the **reorder buffer** (192 entries): an instruction cannot issue
  until the instruction ROB_SIZE places earlier has retired, bounding
  how much latency (cache misses, divides) can be overlapped. The ROB
  is a fixed ring of retire frontiers (``_rob``, pre-filled with 0.0)
  and the index of its oldest slot (``_ri``); the pre-fill stands in
  for the entries before the first ROB_SIZE instructions, and never
  delays one, because ``issue_time`` is never negative;
- **operand readiness**: an instruction starts no earlier than its
  latest operand's completion;
- **structural hazards**: two load ports, one store-data port, the
  unpipelined divider, and the 3-wide vector ALU port group (scalar
  ALU ops get all 4 slots; vector ops only 3 — one reason Table III
  shows lower ILP for ELZAR than for native or SWIFT-R);
- **branch mispredictions**: the issue pointer stalls until the branch
  resolves plus a refill penalty.

Port clocks live in ``_port_free``, pre-filled at 0.0 with every port
name of the cost model plus ``vecalu``, so the dict's key set never
changes. The compiled engine holds the ring index and each clock a
region uses in locals and stores them back at its exits; this layout
is the one both engines read and write.

Total cycles = the latest completion time observed; ILP = executed
instructions / cycles.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..avx.costs import BRANCH_MISS_PENALTY, ISSUE_WIDTH, ROB_SIZE, CostModel

#: Default for ``TimingModel.issue``'s ``port`` parameter: look the port
#: up in the cost model by opcode. Callers that pre-resolve the lookup
#: (the compiled engine's record functions and call epilogues) pass the
#: ``(name, busy)`` tuple — or None — directly.
_PORT_LOOKUP = object()


class TimingModel:
    def __init__(
        self,
        cost_model: CostModel,
        issue_width: int = ISSUE_WIDTH,
        rob_size: int = ROB_SIZE,
        branch_miss_penalty: float = BRANCH_MISS_PENALTY,
    ):
        self.costs = cost_model
        self.issue_width = issue_width
        self.rob_size = rob_size
        self.branch_miss_penalty = branch_miss_penalty
        self.issue_time = 0.0
        self.finish_time = 0.0
        self.issued = 0
        self.uops_issued = 0
        ports = [p[0] for p in cost_model.ports.values()] + ["vecalu"]
        self._port_free: Dict[str, float] = dict.fromkeys(ports, 0.0)
        self._rob: List[float] = [0.0] * rob_size
        self._ri = 0
        #: Ring successor of each ROB index: one subscript advances it.
        self._rob_next = tuple(range(1, rob_size)) + (0,)
        self._retire_frontier = 0.0

    def copy(self) -> "TimingModel":
        """Independent copy (resume states); the cost model is
        read-only and shared."""
        new = object.__new__(TimingModel)
        new.__dict__.update(self.__dict__)
        new._port_free = dict(self._port_free)
        new._rob = list(self._rob)
        return new

    # Core accounting ----------------------------------------------------------

    def issue(
        self,
        opcode: str,
        latency: float,
        operand_times: Sequence[float],
        extra_latency: float = 0.0,
        uops: int = 1,
        is_vector: bool = False,
        port=_PORT_LOOKUP,
    ) -> float:
        """Issue one instruction; returns its completion time.

        Ports are bandwidth clocks: a unit serves work at a bounded
        sustained rate but out of order. Its clock advances only by the
        work enqueued (never to a late op's start time), so one
        late-arriving operand cannot serialize independent iterations
        behind it; the unit's total busy time is the binding constraint,
        exactly like a throughput model.

        Hot path: called once per dynamic instruction, so attribute
        traffic is minimised. The compiled engine inlines this sequence
        statement for statement, and the engines must produce
        bit-identical cycle counts.
        """
        self.issued += 1
        self.uops_issued += uops
        start = self.issue_time
        # ROB: wait for the instruction rob_size places earlier to
        # retire.
        rob = self._rob
        ri = self._ri
        oldest = rob[ri]
        if oldest > start:
            start = oldest
        for t in operand_times:
            if t > start:
                start = t
        if port is _PORT_LOOKUP:
            port = self.costs.ports.get(opcode)
        if port is not None:
            port_free = self._port_free
            name = port[0]
            clock = port_free[name]
            if clock > start:
                start = clock
            port_free[name] = clock + port[1]
        if is_vector:
            port_free = self._port_free
            clock = port_free["vecalu"]
            if clock > start:
                start = clock
            port_free["vecalu"] = clock + self.costs.vector_alu_rtp * uops
        done = start + latency + extra_latency
        if done > self.finish_time:
            self.finish_time = done
        # In-order retirement frontier (monotone completion).
        frontier = self._retire_frontier
        if done > frontier:
            self._retire_frontier = frontier = done
        rob[ri] = frontier
        self._ri = self._rob_next[ri]
        self.issue_time += uops / self.issue_width
        return done

    def branch_mispredict(self, resolve_time: float) -> None:
        """Frontend refill stall after a mispredicted branch."""
        restart = resolve_time + self.branch_miss_penalty
        if restart > self.issue_time:
            self.issue_time = restart

    # Results --------------------------------------------------------------------

    @property
    def cycles(self) -> float:
        return max(self.finish_time, self.issue_time)

    @property
    def ilp(self) -> float:
        """x86-equivalent instructions per cycle (what perf-stat's
        instructions/cycles ratio measures in Table III)."""
        cycles = self.cycles
        if cycles <= 0:
            return 0.0
        return self.uops_issued / cycles
