"""Desk-scale offline RL laboratory: behavior-prior state representations,
conservative offline agents, and spectral/bound diagnostics."""

import os

# On the MLP kernels' small matrices a second OpenBLAS thread only spins. This
# takes effect only if numpy is not loaded yet; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
