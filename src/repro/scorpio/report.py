"""Analysis results: significance reports and rankings.

A :class:`SignificanceReport` bundles everything ``ANALYSE()`` produces:
the raw DynDFG (Figure 3a), the simplified graph (Figure 3b), the variance
scan (``Gout``), and convenient per-label significance views that the
programmer uses to assign task significances (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyndfg import DynDFG
from .significance import normalise
from .variance import VarianceScan

__all__ = ["SignificanceReport"]


@dataclass
class SignificanceReport:
    """Full result of one significance analysis run."""

    raw_graph: DynDFG
    simplified_graph: DynDFG
    scan: VarianceScan
    input_ids: list[int]
    intermediate_ids: list[int]
    output_ids: list[int]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynDFG:
        """``Gout`` of Algorithm 1 (simplified, truncated at variance)."""
        return self.scan.graph

    @property
    def partition_level(self) -> int | None:
        """Level ``L`` with significance variance > δ, or ``None``."""
        return self.scan.found_level

    def significance_of(self, label: str) -> float:
        """Significance of the (single) node registered under ``label``."""
        nodes = self.raw_graph.labelled(label)
        if not nodes:
            raise KeyError(f"no registered variable named {label!r}")
        if len(nodes) > 1:
            raise KeyError(
                f"label {label!r} is ambiguous ({len(nodes)} nodes); "
                "use labelled_significances()"
            )
        return nodes[0].significance or 0.0

    def labelled_significances(self) -> dict[str, float]:
        """Significance per registered label (inputs + intermediates).

        Repeated labels accumulate (useful when a loop registers the same
        name for every iteration's value).
        """
        out: dict[str, float] = {}
        for node in self.raw_graph:
            if node.label is None or node.id in self.output_ids:
                continue
            out[node.label] = out.get(node.label, 0.0) + (
                node.significance or 0.0
            )
        return out

    def normalised_significances(self) -> dict[str, float]:
        """Labelled significances scaled to sum to 1 (Figure 3 style)."""
        return normalise(self.labelled_significances())

    def input_significances(self) -> dict[str, float]:
        """Significance per registered *input* variable."""
        input_ids = set(self.input_ids)
        return {
            (n.label or f"x{n.id}"): (n.significance or 0.0)
            for n in self.raw_graph
            if n.id in input_ids
        }

    def ranking(self) -> list[tuple[str, float]]:
        """Labelled significances, most significant first."""
        items = sorted(
            self.labelled_significances().items(),
            key=lambda kv: kv[1],
            reverse=True,
        )
        return items

    def task_partition(self) -> list:
        """Nodes at the partition level — candidate task outputs (S5)."""
        return self.scan.task_nodes

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self, normalised: bool = True) -> str:
        """Human-readable summary (what dco/scorpio prints at ANALYSE)."""
        sigs = (
            self.normalised_significances()
            if normalised
            else self.labelled_significances()
        )
        lines = ["significance analysis report", "=" * 32]
        lines.append(
            f"tape nodes: {len(self.raw_graph)}  "
            f"simplified: {len(self.simplified_graph)}  "
            f"height: {self.simplified_graph.height}"
        )
        if self.partition_level is not None:
            lines.append(
                f"variance level L = {self.partition_level} "
                f"(delta = {self.scan.delta:g})"
            )
        else:
            lines.append(
                "no significance variance found down to the inputs "
                f"(delta = {self.scan.delta:g})"
            )
        kind = "normalised " if normalised else ""
        lines.append(f"{kind}significances:")
        width = max((len(k) for k in sigs), default=0)
        for label, value in sorted(
            sigs.items(), key=lambda kv: kv[1], reverse=True
        ):
            lines.append(f"  {label:<{width}}  {value:.6f}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """DOT rendering of ``Gout`` (simplified + truncated graph)."""
        return self.graph.to_dot(title="Gout")
