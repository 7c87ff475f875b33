"""Federated sub-Nyquist wideband spectrum sensing simulator.

Library layout:

- ``signal_model``: occupancy vectors, PU placement, received-signal and
  noise generators
- ``multicoset``: coset sampling instants, measurement matrix, per-coset DFT,
  pseudo-inverse recovery, feature normalization
- ``tensornet``: the occupancy-detector CNN with exact backprop, SGD,
  training loop and checkpoint codec
- ``pruning``: magnitude pruning of the hidden FC layer plus fine-tuning
- ``federation``: multi-SU adaptation rounds over in-process or socket
  transports
- ``baselines``: sparsity-aware SOMP support recovery
- ``harness``: configuration, datasets, metrics, one function per pipeline
  stage and the end-to-end pipeline
- ``rules``: the number rule and field bounds of the checked dataclasses
- ``cli``: the ``ftlwss`` command
"""

from . import baselines, codec, federation, harness, multicoset, pruning, signal_model, tensornet

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "codec",
    "federation",
    "harness",
    "multicoset",
    "pruning",
    "signal_model",
    "tensornet",
    "__version__",
]
