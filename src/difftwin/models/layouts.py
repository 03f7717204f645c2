"""Frozen per-machine state vector layouts.

Observation matrices, exchange formats and model rows are all indexed
against these layouts, so coordinate order is part of the public contract.
Fusion runs on the concatenated vector [x_next; x_cur]; `nxt`/`cur` map a
coordinate name into the respective block.

`SIZES` and `MATERIALS` are the only spelled-out copies of the class
vocabulary; every other module reads them or these layouts. A drum outlet
is named by the size class it collects and a sorter outlet by the material
it collects, so the outlet names are `SIZES` and `MATERIALS` as well;
`MID_LINE` is the drum outlet that feeds the conveyor and the sorter.
"""

from __future__ import annotations

from dataclasses import dataclass

SIZES = ("S", "M", "L")
MATERIALS = ("NFM", "FM")
MID_LINE = SIZES[1]

HISTORY_SLOTS = 8
STEP_SECONDS = 30.0


@dataclass(frozen=True)
class StateLayout:
    """Ordered coordinate names for one machine's per-step state.

    input_coords are the flow coordinates where new material enters (weakly
    predicted across steps); output_coords the remaining non-history flows;
    hist_classes x history_len coordinates follow the shift-register
    prediction. param_coords are machine setpoints.
    """

    machine: str
    names: tuple
    input_coords: tuple
    output_coords: tuple
    param_coords: tuple
    hist_classes: tuple = ()
    history_len: int = 0

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        """Concatenated dimension [x_next; x_cur]."""
        return 2 * self.n

    def index(self, name: str) -> int:
        return self.names.index(name)

    def cur(self, name: str) -> int:
        return self.n + self.index(name)

    def nxt(self, name: str) -> int:
        return self.index(name)

    def concat_names(self) -> list:
        return [f"next.{c}" for c in self.names] + [f"cur.{c}" for c in self.names]


def hist_name(cls: str, slot: int) -> str:
    return f"hist.{cls}.{slot}"


def siever_layout(history_len: int = HISTORY_SLOTS) -> StateLayout:
    names = []
    for cls in SIZES:
        names += [hist_name(cls, h) for h in range(history_len)]
    outs = [f"out.{o}.{cls}" for o in SIZES for cls in SIZES]
    names += outs
    names.append("speed")
    return StateLayout(
        machine="siever",
        names=tuple(names),
        input_coords=tuple(hist_name(cls, 0) for cls in SIZES),
        output_coords=tuple(outs),
        param_coords=("speed",),
        hist_classes=SIZES,
        history_len=history_len,
    )


def conveyor_layout(history_len: int = HISTORY_SLOTS) -> StateLayout:
    names = []
    for cls in SIZES:
        names += [hist_name(cls, h) for h in range(history_len)]
    outs = [f"out.{cls}" for cls in SIZES]
    names += outs
    return StateLayout(
        machine="conveyor",
        names=tuple(names),
        input_coords=tuple(hist_name(cls, 0) for cls in SIZES),
        output_coords=tuple(outs),
        param_coords=(),
        hist_classes=SIZES,
        history_len=history_len,
    )


def magsorter_layout() -> StateLayout:
    ins = [f"in.{m}.{p}" for m in MATERIALS for p in SIZES]
    outs = [f"out.{m}.{o}.{p}" for m in MATERIALS for o in MATERIALS for p in SIZES]
    names = tuple(ins + outs + ["height"])
    return StateLayout(
        machine="magsorter",
        names=names,
        input_coords=tuple(ins),
        output_coords=tuple(outs),
        param_coords=("height",),
    )
