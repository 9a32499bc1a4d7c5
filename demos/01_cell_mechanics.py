#!/usr/bin/env python3
"""A tour of the peephole LSTM cell: gates, memory, and the inner activation.

Every cell runs on the layer engine, ``stlstm.cell.layer_forward``, which
takes K cells' inputs as a (K, T, B, d) array: here one cell (K = 1) over
one window (B = 1) of T steps.

Run: python3 demos/01_cell_mechanics.py
"""

import numpy as np

from stlstm import CellState
from stlstm.cell import LayerParams, init_cell_into, layer_forward

rng = np.random.default_rng(0)

# --- 1. With every weight at zero, the gates sit at sigma(0) = 0.5 and the
#        cell/hidden state stay at zero (tanh inner activation).
layer = LayerParams.zeros(1, 4, 3)  # one cell of 4 neurons reading 3 inputs
_, state, trace = layer_forward(layer, np.ones((1, 1, 1, 3)), "tanh")
print("zero-parameter cell:")
print("  input gate :", trace.gates[0, 0, 0, 0])  # step 0, gate i, cell 0, window 0
print("  cell state :", state.c[0, 0])
print("  hidden     :", state.h[0, 0])

# --- 2. A saturated forget gate (+20 bias) makes the cell a near-perfect
#        memory: whatever was stored stays, step after step.
layer = LayerParams.zeros(1, 4, 3)
layer.cell(0).b_f[...] = 20.0  # the cell's per-gate tensors are views into the layer
stored = np.array([0.3, -0.7, 1.2, 0.05])
state = CellState(c=stored.reshape(1, 1, 4).copy(), h=np.zeros((1, 1, 4)))
for step in range(5):
    _, state, _ = layer_forward(layer, rng.normal(size=(1, 1, 1, 3)), "tanh", init=state)
print("\nmemory retention over 5 steps with a saturated forget gate:")
print("  stored :", stored)
print("  kept   :", state.c[0, 0])
print("  drift  :", np.max(np.abs(state.c[0, 0] - stored)))

# --- 3. The inner activation swaps the cell-candidate and cell-output
#        nonlinearity. tanh keeps hidden states in (-1, 1); sigmoid keeps
#        them in (0, 1): same weights, different response.
layer = LayerParams.zeros(1, 6, 2)
init_cell_into(layer.cell(0), rng)
X = rng.normal(size=(1, 10, 1, 2))
for act in ("tanh", "sigmoid"):
    H, final, _ = layer_forward(layer, X, act)
    print(f"\n{act} inner activation over 10 steps:")
    print(f"  hidden range: [{H.min():+.3f}, {H.max():+.3f}]")
    print(f"  final h     : {final.h[0, 0]}")

# --- 4. State carry-over composes exactly: running 4 then 6 steps with the
#        carried state reproduces the single 10-step pass bit for bit.
_, full, _ = layer_forward(layer, X, "tanh")
_, first, _ = layer_forward(layer, X[:, :4], "tanh")
_, resumed, _ = layer_forward(layer, X[:, 4:], "tanh", init=first)
print("\nsplit-and-carry equals one pass:", np.array_equal(full.h, resumed.h))
