#!/usr/bin/env python3
"""Finite-difference verification of the TCN backward pass."""

from twistnet.data import PRODUCT_SIGN, Pipeline, synth_interaction
from twistnet.featcomb import CombinationSpec
from twistnet.model import ModelConfig, build_tcn
from twistnet.ndcore import Rng
from twistnet.train import find_check_batch, grad_check_report

# A small interaction task, combined with m=2 and normalized, mirrors the
# conditions the network is meant for.
raw = synth_interaction(200, 6, PRODUCT_SIGN, 0.1, Rng(0))
_, ds = Pipeline.fit(raw, CombinationSpec(m=2))

model = build_tcn(ds.n_features, ds.n_classes, ModelConfig(seed=0))
print(f"model: {model.parameter_count()} parameters,",
      f"{len(model.layers)} layers, input dim {ds.n_features}")

# Central differences sit on both sides of each weight, so a batch whose
# pre-activations hug a relu kink would produce one-sided slopes and a bogus
# mismatch. find_check_batch walks the rows and keeps a safe run.
xb, yb = find_check_batch(model, ds.features, ds.labels)
print(f"check batch: {xb.shape[0]} rows clear of rectifier kinks")

overall, per_kind = grad_check_report(model, xb, yb)
for kind, err in per_kind.items():
    print(f"  {kind:10s}", f"max rel err {err:.3e}" if err is not None
          else "no parameters")
print(f"overall {overall:.3e} (threshold 1e-4) ->",
      "ok" if overall < 1e-4 else "MISMATCH")

# Sanity check on the checker itself: a corrupted gradient must be caught.
bad, _ = grad_check_report(model, xb, yb, corruption=0.5)
print(f"with a corrupted gradient: {bad:.3e} ->",
      "caught" if bad > 1e-2 else "MISSED")
