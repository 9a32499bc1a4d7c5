#!/usr/bin/env python3
"""A tour of the peephole LSTM cell: gates, memory, and the inner activation.

Every cell runs on the layer engine, ``stlstm.cell.layer_forward``, which
takes K cells' inputs as a (K, T, B, d) array: here one cell (K = 1) over
one window (B = 1) of T steps.

Run: python3 demos/01_cell_mechanics.py
"""

import numpy as np

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
#        memory: what step 0's input writes stays, step after step, while
#        the zero inputs after it write nothing (tanh(0) = 0).
layer = LayerParams.zeros(1, 4, 3)
cell = layer.cell(0)  # the cell's per-gate tensors are views into the layer
cell.b_f[...] = 20.0
cell.W_xc[...] = rng.uniform(-1.0, 1.0, size=(4, 3))
X = np.zeros((1, 6, 1, 3))
X[0, 0, 0] = rng.normal(size=3)
_, state, trace = layer_forward(layer, X, "tanh")
stored = trace.c[1, 0, 0]  # the cell state after step 0
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

# --- 4. Every run starts from the zero state, and step t reads only the
#        steps before it: the first 4 steps alone reproduce the first 4
#        hidden states of the 10-step pass bit for bit.
H_full, _, _ = layer_forward(layer, X, "tanh")
H_first, _, _ = layer_forward(layer, X[:, :4], "tanh")
print("\na short run is a prefix of the long one:", np.array_equal(H_first, H_full[:4]))
