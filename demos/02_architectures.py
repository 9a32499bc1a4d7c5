#!/usr/bin/env python3
"""The two architectures, their parameter budgets, and the equivalence theorem.

The spatio-temporal variant gives each location its own small layer-1
cell; concatenating those hidden states and feeding the shared second
layer makes it exactly a stacked LSTM whose layer-1 weights are
block-diagonal. Fewer cross-location weights, same expressive wiring.

Run: python3 demos/02_architectures.py
"""

import numpy as np

from stlstm import ModelSpec, block_diagonal_embed, model_forward, param_count, random_model_params

C, M = 5, 18  # five locations, eighteen variables each

# --- 1. Parameter budgets across the layer-1 width grid.
print(f"{'n1':>5} {'n2':>5} {'stacked':>10} {'st_stacked':>11} {'saving':>7}")
for n1 in (20, 40, 80, 160, 320, 640):
    n2 = 64
    a = param_count(ModelSpec(kind="stacked", locations=C, vars_per_location=M, n1=n1, n2=n2))
    b = param_count(ModelSpec(kind="st_stacked", locations=C, vars_per_location=M, n1=n1, n2=n2))
    saving = 1.0 - b["total"] / a["total"]
    print(f"{n1:>5} {n2:>5} {a['total']:>10,} {b['total']:>11,} {saving:>6.0%}")

# --- 2. The block-diagonal embedding: rewrite an st model as a stacked one
#        and watch the predictions agree to machine precision.
spec = ModelSpec(kind="st_stacked", locations=C, vars_per_location=3, n1=20, n2=8, seq_len=10)
rng = np.random.default_rng(1)
params = random_model_params(spec, rng)
embedded_spec, embedded = block_diagonal_embed(spec, params)

# the model runs a batch of windows, time-major: (T, B, c*m)
windows = rng.normal(size=(50, spec.seq_len, spec.input_dim)).transpose(1, 0, 2)
a, _ = model_forward(spec, params, windows)
b, _ = model_forward(embedded_spec, embedded, windows)
worst = np.max(np.abs(a - b))
print(f"\nblock-diagonal embedding: max |pred difference| over 50 windows = {worst:.2e}")

# --- 3. What the embedding built: location blocks on the diagonal, zeros
#        everywhere else.
W = embedded.layer1[0].W_hi
nc = spec.loc_neurons
mask = np.zeros_like(W, dtype=bool)
for k in range(C):
    mask[k * nc:(k + 1) * nc, k * nc:(k + 1) * nc] = True
print(f"recurrent matrix is {W.shape[0]}x{W.shape[1]}; "
      f"off-diagonal blocks all zero: {bool(np.all(W[~mask] == 0.0))}")
