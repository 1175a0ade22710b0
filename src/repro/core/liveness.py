"""Compile-time live-register analysis (paper V-A, Figures 7 and 9).

A register is live at a program point if it may be read by a subsequent
instruction before being overwritten -- the classic backward may-liveness
dataflow.  The paper describes the same rule operationally: "a register is
regarded as alive if it is used as the source operand of any following
instructions until the register is used again as a destination".

For a warp stalled at PC ``p`` the registers that must be preserved across a
CTA switch are exactly ``live_in(p)``: the instruction at ``p`` has not issued
yet, so its own sources are included (Fig 7: a warp stalled at 0x0000 keeps
R0 because the instruction at 0x0000 reads it).

The solver iterates to a fixpoint over the CFG, which realizes the paper's
Fig 9 traversal rules: a diverging branch merges liveness from both paths up
to the reconvergence point, and a loop body is effectively visited once since
a second pass adds no new facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.bitvector import BITVECTOR_STORAGE_BYTES, EMPTY, LiveBitVector
from repro.isa.cfg import ControlFlowGraph, EdgeKind


@dataclass(frozen=True)
class LivenessTable:
    """Per-instruction live-in vectors for one kernel CFG.

    ``vectors[i]`` is the live set at the linear instruction index ``i``.
    This is what the launch step writes to the reserved off-chip area, and
    what the RMU's bit-vector cache serves at runtime.
    """

    vectors: Tuple[LiveBitVector, ...]
    num_registers: int
    #: Decoded live registers by PC, filled by :meth:`registers_at_pc`.
    _decoded: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def live_at_index(self, index: int) -> LiveBitVector:
        return self.vectors[index]

    def live_at_pc(self, pc: int) -> LiveBitVector:
        if pc % 4 or not 0 <= pc // 4 < len(self.vectors):
            raise ValueError(f"invalid pc 0x{pc:04x}")
        return self.vectors[pc // 4]

    def registers_at_pc(self, pc: int) -> Tuple[int, ...]:
        """The live register numbers at ``pc`` in ascending order (the RMU's
        register index decoder output), decoded once per table."""
        registers = self._decoded.get(pc)
        if registers is None:
            registers = self._decoded[pc] = self.live_at_pc(pc).registers()
        return registers

    def live_count_at_index(self, index: int) -> int:
        return self.vectors[index].count()

    @property
    def num_instructions(self) -> int:
        return len(self.vectors)

    @property
    def storage_bytes(self) -> int:
        """Off-chip bytes consumed by the stored vectors (12 B each, V-F)."""
        return BITVECTOR_STORAGE_BYTES * len(self.vectors)

    def mean_live_fraction(self) -> float:
        """Average live registers / allocated registers across instructions."""
        if not self.vectors or self.num_registers == 0:
            return 0.0
        total = sum(vec.count() for vec in self.vectors)
        return total / (len(self.vectors) * self.num_registers)


class LivenessAnalysis:
    """Backward may-liveness over a frozen structured CFG."""

    def __init__(self, cfg: ControlFlowGraph) -> None:
        if not cfg.frozen:
            raise ValueError("liveness analysis requires a frozen CFG")
        self._cfg = cfg
        self._predecessors = self._build_predecessors()

    def _build_predecessors(self) -> Dict[int, List[int]]:
        preds: Dict[int, List[int]] = {b.block_id: [] for b in self._cfg.blocks}
        for block in self._cfg.blocks:
            for succ in block.successors:
                preds[succ].append(block.block_id)
        return preds

    def run(self, regs_per_thread: int) -> LivenessTable:
        """Solve to a fixpoint and return per-instruction live-in vectors."""
        cfg = self._cfg
        live_in: Dict[int, LiveBitVector] = {
            b.block_id: EMPTY for b in cfg.blocks
        }
        live_out: Dict[int, LiveBitVector] = dict(live_in)

        # Iterate in reverse block order (close to reverse post-order for the
        # structured layouts we generate) until nothing changes.
        changed = True
        while changed:
            changed = False
            for block in reversed(cfg.blocks):
                out_vec = EMPTY
                for succ in block.successors:
                    out_vec = out_vec | live_in[succ]
                in_vec = self._transfer_block(block.block_id, out_vec)
                if out_vec != live_out[block.block_id]:
                    live_out[block.block_id] = out_vec
                    changed = True
                if in_vec != live_in[block.block_id]:
                    live_in[block.block_id] = in_vec
                    changed = True

        vectors: List[LiveBitVector] = [EMPTY] * cfg.num_instructions
        for block in cfg.blocks:
            live = live_out[block.block_id]
            first = cfg.first_index(block.block_id)
            for offset in range(len(block.instructions) - 1, -1, -1):
                instr = block.instructions[offset]
                if instr.dest is not None:
                    live = live.without_register(instr.dest)
                live = live | LiveBitVector.from_registers(instr.srcs)
                vectors[first + offset] = live
        return LivenessTable(vectors=tuple(vectors),
                             num_registers=regs_per_thread)

    def _transfer_block(self, block_id: int,
                        live_out: LiveBitVector) -> LiveBitVector:
        """Apply the block's instructions backward to a live-out set."""
        live = live_out
        for instr in reversed(self._cfg.blocks[block_id].instructions):
            if instr.dest is not None:
                live = live.without_register(instr.dest)
            live = live | LiveBitVector.from_registers(instr.srcs)
        return live

    # ------------------------------------------------------------------
    # Fig 9 traversal-cost accounting (blocks visited per analysis point)
    # ------------------------------------------------------------------
    def blocks_visited_from(self, block_id: int) -> int:
        """Number of distinct blocks a Fig-9 style traversal visits starting
        at ``block_id`` (each block at most once, per the paper's loop rule).
        """
        seen = set()
        stack = [block_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            block = self._cfg.blocks[current]
            if block.edge_kind is not EdgeKind.EXIT:
                stack.extend(block.successors)
        return len(seen)
