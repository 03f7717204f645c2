"""Black-box magnetic sorter model.

Eighteen residual rows, built once as a table that `evaluate` and
`jacobian` both read. Four network rows predict the per-outlet
true/false-positive totals from the class input totals and the magnet
height. Six per-material, per-size mass-conservation rows say that a
class's input equals its flow out of both outlets. The two
input-independence rows and six output-independence rows take one bilinear
form, r = x[a] * total[g] - x[b] * total[h], where total[g] sums the
coordinates of index group g. Independence between size class and
ferromagnetism links the size-resolved state to the size-blind network.
"""

from __future__ import annotations

import numpy as np

from .base import DifferentiableModel
from .layouts import MATERIALS, SIZES, StateLayout, magsorter_layout
from .mlp import MlpModel, mlp_forward, mlp_jacobian

CONSERVATION_VAR = 1e-4  # (kg/s)^2
INDEPENDENCE_VAR = 1e-8  # (kg^2/s^2)^2


class MagsorterModel(DifferentiableModel):
    def __init__(self, mlp: MlpModel, layout: StateLayout):
        if mlp.residual_cov is None:
            raise ValueError("magsorter model needs a trained network with residual_cov")
        self.mlp = mlp
        self.layout = layout
        inp = {(m, p): layout.cur(f"in.{m}.{p}") for m in MATERIALS for p in SIZES}
        out = {(m, o, p): layout.cur(f"out.{m}.{o}.{p}")
               for m in MATERIALS for o in MATERIALS for p in SIZES}
        nfm, fm = MATERIALS

        # Network rows: totals over sizes per (material, outlet) in the
        # network's output order, TP and FP at the FM outlet, then at the NFM
        # outlet; "TP" means material matching the outlet.
        self._targets = np.zeros((4, layout.dim))
        for row, (m, o) in enumerate(((fm, fm), (nfm, fm), (nfm, nfm), (fm, nfm))):
            for p in SIZES:
                self._targets[row, out[(m, o, p)]] = 1.0
        self._u_rows = np.zeros((3, layout.dim))
        for p in SIZES:
            self._u_rows[0, inp[(fm, p)]] = 1.0
            self._u_rows[1, inp[(nfm, p)]] = 1.0
        self._u_rows[2, layout.cur("height")] = 1.0

        # Conservation per material and size: input = NFM outlet + FM outlet.
        self._cons_in = np.array(list(inp.values()))
        self._cons_out = [np.array([out[(m, o, p)] for m, p in inp]) for o in MATERIALS]

        # Index groups: the per-size input totals (NFM, FM), then per
        # material its flows over sizes at each outlet.
        groups = {p: tuple(inp[(m, p)] for m in MATERIALS) for p in SIZES}
        groups.update({(m, o): tuple(out[(m, o, p)] for p in SIZES)
                       for m in MATERIALS for o in MATERIALS})
        self._groups = list(groups.values())
        at = {key: i for i, key in enumerate(groups)}
        # Bilinear rows (a, g, b, h). Input independence: the NFM share is the
        # same in neighbouring size classes. Output independence: each
        # material's size distribution is the same at both outlets.
        self._bilinear = [
            (inp[(nfm, pa)], at[pb], inp[(nfm, pb)], at[pa]) for pa, pb in zip(SIZES, SIZES[1:])
        ]
        for m, other in zip(MATERIALS, MATERIALS[::-1]):
            self._bilinear += [
                (out[(m, other, p)], at[(m, m)], out[(m, m, p)], at[(m, other)]) for p in SIZES
            ]

        n_cons = len(inp)
        var = [0.0] * 4 + [CONSERVATION_VAR] * n_cons + [INDEPENDENCE_VAR] * len(self._bilinear)
        self.out_dim = len(var)
        self.noise_cov = np.diag(var)
        self.noise_cov[:4, :4] = mlp.residual_cov
        self._cons_rows = np.arange(4, 4 + n_cons)
        self._bilinear_row0 = 4 + n_cons

    def _totals(self, x):
        return [sum(x[i] for i in g) for g in self._groups]

    def evaluate(self, x):
        r = np.zeros(self.out_dim)
        r[:4] = mlp_forward(self.mlp, self._u_rows @ x) - self._targets @ x
        nfm_ix, fm_ix = self._cons_out
        r[self._cons_rows] = x[self._cons_in] - x[nfm_ix] - x[fm_ix]
        total = self._totals(x)
        for row, (a, g, b, h) in enumerate(self._bilinear, start=self._bilinear_row0):
            r[row] = x[a] * total[g] - x[b] * total[h]
        return r

    def jacobian(self, x):
        jac = np.zeros((self.out_dim, self.layout.dim))
        jac[:4, :] = mlp_jacobian(self.mlp, self._u_rows @ x) @ self._u_rows - self._targets
        jac[self._cons_rows, self._cons_in] = 1.0
        for ix in self._cons_out:
            jac[self._cons_rows, ix] = -1.0
        total = self._totals(x)
        for row, (a, g, b, h) in enumerate(self._bilinear, start=self._bilinear_row0):
            for i in self._groups[g]:
                jac[row, i] += x[a]
            for i in self._groups[h]:
                jac[row, i] += -x[b]
            jac[row, a] += total[g]
            jac[row, b] += -total[h]
        return jac


def magsorter_model(mlp: MlpModel, layout: StateLayout | None = None) -> MagsorterModel:
    """Process model for the magnetic sorter: network prediction rows plus
    conservation and independence constraints."""
    return MagsorterModel(mlp, layout or magsorter_layout())
