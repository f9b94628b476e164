"""And-Inverter Graphs with structural hashing.

The modern home of Boolean matching is an AIG-based technology mapper
(the "NPN matching in ABC" the reproduction notes mention): the subject
logic is an AIG, k-feasible cuts are enumerated per node, each cut's
local function is matched against the cell library, and a covering is
chosen.  This module is the AIG substrate: two-input AND nodes with
complemented edges, structurally hashed, with constant propagation and
the conversions the mapper needs.

Literal encoding: literal ``2*v`` is node ``v``, ``2*v + 1`` is its
complement.  Node 0 is the constant **false**, so literal 1 is constant
true.
"""

from __future__ import annotations


from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.benchcircuits.netlist import Gate, Netlist
from repro.boolfunc.truthtable import TruthTable

FALSE = 0
TRUE = 1


def lit(var: int, complemented: bool = False) -> int:
    """Build a literal from a node id."""
    return (var << 1) | int(complemented)


def lit_var(literal: int) -> int:
    return literal >> 1


def lit_compl(literal: int) -> bool:
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    return literal ^ 1


class Aig:
    """A structurally hashed And-Inverter Graph.

    Node ids: 0 is the constant-false node; ``1..n_inputs`` are the
    primary inputs; AND nodes follow in topological order.
    """

    def __init__(self, n_inputs: int, input_names: Optional[Sequence[str]] = None):
        self.n_inputs = n_inputs
        self.input_names = (
            list(input_names)
            if input_names is not None
            else [f"i{k}" for k in range(n_inputs)]
        )
        if len(self.input_names) != n_inputs:
            raise ValueError("input name count mismatch")
        # fanins[v] = (lit0, lit1) for AND nodes; inputs/constant have none.
        self._fanins: Dict[int, Tuple[int, int]] = {}
        self._strash: Dict[Tuple[int, int], int] = {}
        self._next_id = n_inputs + 1
        self.outputs: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def input_literal(self, index: int) -> int:
        """The positive literal of primary input ``index``."""
        if not 0 <= index < self.n_inputs:
            raise ValueError(f"input index {index} out of range")
        return lit(1 + index)

    def and_(self, a: int, b: int) -> int:
        """AND of two literals (hashed, constant-folded, normalized)."""
        self._check_literal(a)
        self._check_literal(b)
        if a > b:
            a, b = b, a
        if a == FALSE or a == lit_not(b):
            return FALSE
        if a == TRUE:
            return b
        if a == b:
            return a
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = self._next_id
            self._next_id += 1
            self._fanins[node] = key
            self._strash[key] = node
        return lit(node)

    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, lit_not(b)), self.and_(lit_not(a), b))

    def mux_(self, sel: int, if0: int, if1: int) -> int:
        return self.or_(self.and_(lit_not(sel), if0), self.and_(sel, if1))

    def and_many(self, literals: Iterable[int]) -> int:
        acc = TRUE
        for l in literals:
            acc = self.and_(acc, l)
        return acc

    def or_many(self, literals: Iterable[int]) -> int:
        acc = FALSE
        for l in literals:
            acc = self.or_(acc, l)
        return acc

    def xor_many(self, literals: Iterable[int]) -> int:
        acc = FALSE
        for l in literals:
            acc = self.xor_(acc, l)
        return acc

    def add_output(self, name: str, literal: int) -> None:
        self._check_literal(literal)
        self.outputs.append((name, literal))

    def _check_literal(self, literal: int) -> None:
        var = lit_var(literal)
        if var >= self._next_id:
            raise ValueError(f"literal {literal} references unknown node")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def is_input(self, node: int) -> bool:
        return 1 <= node <= self.n_inputs

    def is_and(self, node: int) -> bool:
        return node in self._fanins

    def fanins(self, node: int) -> Tuple[int, int]:
        return self._fanins[node]

    def and_nodes(self) -> List[int]:
        """All AND node ids in topological (creation) order.

        Ids are handed out in increasing order and ``_fanins`` is filled
        in that order, so its insertion order is already topological.
        """
        return list(self._fanins)

    def num_ands(self) -> int:
        return len(self._fanins)

    def node_level(self) -> Dict[int, int]:
        """Logic depth per node (inputs and constant at level 0)."""
        level = {FALSE: 0}
        for k in range(1, self.n_inputs + 1):
            level[k] = 0
        for node in self.and_nodes():
            a, b = self._fanins[node]
            level[node] = 1 + max(level[lit_var(a)], level[lit_var(b)])
        return level

    def transitive_fanin(self, node: int) -> Set[int]:
        """All nodes (incl. inputs) in the cone of ``node``."""
        seen: Set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current in self._fanins:
                a, b = self._fanins[current]
                stack.append(lit_var(a))
                stack.append(lit_var(b))
        return seen

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def simulate(self, assignment: int) -> Dict[int, int]:
        """Evaluate every node for one input assignment (bit ``k`` of
        ``assignment`` = input ``k``)."""
        value = {FALSE: 0}
        for k in range(self.n_inputs):
            value[1 + k] = (assignment >> k) & 1
        for node in self.and_nodes():
            a, b = self._fanins[node]
            va = value[lit_var(a)] ^ int(lit_compl(a))
            vb = value[lit_var(b)] ^ int(lit_compl(b))
            value[node] = va & vb
        return value

    def literal_table(self, literal: int, max_inputs: int = 16) -> TruthTable:
        """Global truth table of a literal over all primary inputs."""
        if self.n_inputs > max_inputs:
            raise ValueError("AIG too wide for dense evaluation")
        n = self.n_inputs
        tables: Dict[int, TruthTable] = {FALSE: TruthTable.zero(n)}
        for k in range(n):
            tables[1 + k] = TruthTable.var(n, k)
        for node in self.and_nodes():
            a, b = self._fanins[node]
            ta = tables[lit_var(a)]
            if lit_compl(a):
                ta = ~ta
            tb = tables[lit_var(b)]
            if lit_compl(b):
                tb = ~tb
            tables[node] = ta & tb
        result = tables[lit_var(literal)]
        return ~result if lit_compl(literal) else result

    def cut_function(self, node: int, leaves: Sequence[int]) -> TruthTable:
        """Local function of ``node`` over the given cut ``leaves``.

        The leaves (node ids) become the variables, in the given order;
        every path from ``node`` must terminate in a leaf (guaranteed
        for cuts produced by :mod:`repro.aig.cuts`).  Evaluation uses an
        explicit stack, so whole-cone "cuts" of arbitrarily deep AIGs
        (the verifier's case) cannot hit the recursion limit.

        This re-simulates the cone from scratch, so it is the reference
        path — :meth:`MappingResult.verify`, :meth:`cone_function` and
        the differential tests — not the mapper's: the mapper reads the
        table each :class:`~repro.aig.cuts.Cut` carries from enumeration.
        """
        k = len(leaves)
        tables: Dict[int, TruthTable] = {FALSE: TruthTable.zero(k)}
        for pos, leaf in enumerate(leaves):
            tables[leaf] = TruthTable.var(k, pos)

        stack = [node]
        while stack:
            current = stack[-1]
            if current in tables:
                stack.pop()
                continue
            if current not in self._fanins:
                raise ValueError(f"node {current} is not covered by the cut")
            a, b = self._fanins[current]
            pending = [v for v in (lit_var(a), lit_var(b)) if v not in tables]
            if pending:
                stack.extend(pending)
                continue
            ta = tables[lit_var(a)]
            if lit_compl(a):
                ta = ~ta
            tb = tables[lit_var(b)]
            if lit_compl(b):
                tb = ~tb
            tables[current] = ta & tb
            stack.pop()
        return tables[node]

    def cone_inputs(self, node: int) -> List[int]:
        """Primary-input node ids in the cone of ``node``, ascending."""
        return sorted(
            v for v in self.transitive_fanin(node) if 1 <= v <= self.n_inputs
        )

    def cone_function(self, literal: int, max_inputs: int = 16) -> Tuple[TruthTable, Tuple[int, ...]]:
        """Global function of ``literal`` over its own input cone.

        Returns ``(table, leaves)`` where ``leaves`` are the cone's
        primary-input node ids (ascending) and variable ``i`` of the
        table is leaf ``leaves[i]``.  Unlike :meth:`literal_table` this
        scales with the *cone* width, not the full input count, so
        narrow outputs of very wide netlists stay cheap.  Raises
        :class:`ValueError` when the cone exceeds ``max_inputs``.
        """
        leaves = self.cone_inputs(lit_var(literal))
        if len(leaves) > max_inputs:
            raise ValueError(
                f"cone of literal {literal} spans {len(leaves)} inputs "
                f"(> cap {max_inputs})"
            )
        table = self.cut_function(lit_var(literal), leaves)
        return (~table if lit_compl(literal) else table), tuple(leaves)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "Aig":
        """Convert a gate-level netlist (all supported ops) to an AIG."""
        aig = cls(len(netlist.inputs), netlist.inputs)
        literals: Dict[str, int] = {
            name: aig.input_literal(idx) for idx, name in enumerate(netlist.inputs)
        }

        def build(net: str) -> int:
            if net in literals:
                return literals[net]
            gate = netlist.gates[net]
            ins = [build(f) for f in gate.fanins]
            op = gate.op
            if op == "CONST0":
                result = FALSE
            elif op == "CONST1":
                result = TRUE
            elif op == "BUF":
                result = ins[0]
            elif op == "NOT":
                result = lit_not(ins[0])
            elif op == "AND":
                result = aig.and_many(ins)
            elif op == "NAND":
                result = lit_not(aig.and_many(ins))
            elif op == "OR":
                result = aig.or_many(ins)
            elif op == "NOR":
                result = lit_not(aig.or_many(ins))
            elif op == "XOR":
                result = aig.xor_many(ins)
            elif op == "XNOR":
                result = lit_not(aig.xor_many(ins))
            elif op == "MUX":
                result = aig.mux_(ins[0], ins[1], ins[2])
            elif op == "MAJ":
                a, b, c = ins
                result = aig.or_many(
                    [aig.and_(a, b), aig.and_(a, c), aig.and_(b, c)]
                )
            elif op == "SOP":
                terms = []
                for row in gate.cover:
                    factors = []
                    for pos, ch in enumerate(row):
                        if ch == "1":
                            factors.append(ins[pos])
                        elif ch == "0":
                            factors.append(lit_not(ins[pos]))
                    terms.append(aig.and_many(factors))
                result = aig.or_many(terms)
                if not gate.cover_value:
                    result = lit_not(result)
            else:  # pragma: no cover - netlist validates ops
                raise ValueError(f"unsupported op {op}")
            literals[net] = result
            return result

        for out in netlist.outputs:
            aig.add_output(out, build(out))
        return aig

    @classmethod
    def from_truthtable(cls, f: TruthTable, name: str = "f") -> "Aig":
        """Build an AIG for one function via Shannon decomposition."""
        aig = cls(f.n)
        cache: Dict[Tuple[int, int], int] = {}

        def build(bits: int, var: int) -> int:
            if var == f.n:
                return TRUE if bits else FALSE
            key = (bits, var)
            hit = cache.get(key)
            if hit is not None:
                return hit
            from repro.utils import bitops

            lo_bits = bitops.restrict(bits, f.n, var, 0)
            hi_bits = bitops.restrict(bits, f.n, var, 1)
            if lo_bits == hi_bits:
                result = build(lo_bits, var + 1)
            else:
                lo = build(lo_bits, var + 1)
                hi = build(hi_bits, var + 1)
                result = aig.mux_(aig.input_literal(var), lo, hi)
            cache[key] = result
            return result

        aig.add_output(name, build(f.bits, 0))
        return aig

    def to_netlist(self, name: str = "aig") -> Netlist:
        """Lower the AIG to a NOT/AND netlist."""
        netlist = Netlist(name, list(self.input_names), [o for o, _ in self.outputs])
        net_of: Dict[int, str] = {
            1 + k: self.input_names[k] for k in range(self.n_inputs)
        }
        if any(lit_var(l) == FALSE for _, l in self.outputs) or any(
            FALSE in (lit_var(a), lit_var(b)) for a, b in self._fanins.values()
        ):
            netlist.add_gate(Gate("__const0", "CONST0"))
            net_of[FALSE] = "__const0"

        def literal_net(literal: int) -> str:
            base = net_of[lit_var(literal)]
            if not lit_compl(literal):
                return base
            inv = f"{base}__n"
            if inv not in netlist.gates:
                netlist.add_gate(Gate(inv, "NOT", (base,)))
            return inv

        for node in self.and_nodes():
            a, b = self._fanins[node]
            net = f"n{node}"
            netlist.add_gate(Gate(net, "AND", (literal_net(a), literal_net(b))))
            net_of[node] = net
        for out_name, literal in self.outputs:
            netlist.add_gate(Gate(out_name, "BUF", (literal_net(literal),)))
        return netlist
