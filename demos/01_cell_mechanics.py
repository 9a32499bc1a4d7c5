#!/usr/bin/env python3
"""A tour of the peephole LSTM cell: gates, memory, and the inner activation.

Run: python3 demos/01_cell_mechanics.py
"""

import numpy as np

from stlstm import CellParams, CellState, sequence_forward
from stlstm.cell import init_cell_into

rng = np.random.default_rng(0)

# --- 1. With every weight at zero, the gates sit at sigma(0) = 0.5 and the
#        cell/hidden state stay at zero (tanh inner activation).
p = CellParams.zeros(4, 3)
(trace,), state = sequence_forward(p, [np.ones(3)], "tanh")
print("zero-parameter cell:")
print("  input gate :", trace.i)
print("  cell state :", state.c)
print("  hidden     :", state.h)

# --- 2. A saturated forget gate (+20 bias) makes the cell a near-perfect
#        memory: whatever was stored stays, step after step.
p = CellParams.zeros(4, 3)
p.b_f[...] = 20.0
stored = np.array([0.3, -0.7, 1.2, 0.05])
state = CellState(c=stored.copy(), h=np.zeros(4))
for step in range(5):
    _, state = sequence_forward(p, [rng.normal(size=3)], "tanh", init=state)
print("\nmemory retention over 5 steps with a saturated forget gate:")
print("  stored :", stored)
print("  kept   :", state.c)
print("  drift  :", np.max(np.abs(state.c - stored)))

# --- 3. The inner activation swaps the cell-candidate and cell-output
#        nonlinearity. tanh keeps hidden states in (-1, 1); sigmoid keeps
#        them in (0, 1): same weights, different response.
p = CellParams.zeros(6, 2)
init_cell_into(p, rng)
xs = [rng.normal(size=2) for _ in range(10)]
for act in ("tanh", "sigmoid"):
    traces, final = sequence_forward(p, xs, act)
    hs = np.array([t.h for t in traces])
    print(f"\n{act} inner activation over 10 steps:")
    print(f"  hidden range: [{hs.min():+.3f}, {hs.max():+.3f}]")
    print(f"  final h     : {final.h}")

# --- 4. State carry-over composes exactly: running 4 then 6 steps with the
#        carried state reproduces the single 10-step pass bit for bit.
_, full = sequence_forward(p, xs, "tanh")
_, first = sequence_forward(p, xs[:4], "tanh")
_, resumed = sequence_forward(p, xs[4:], "tanh", init=first)
print("\nsplit-and-carry equals one pass:", np.array_equal(full.h, resumed.h))
