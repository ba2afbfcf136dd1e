import os

# The MLP kernels multiply tiny matrices, where a second OpenBLAS thread only
# spins: it doubles CPU time for no wall-clock gain, and on a shared 2-core box
# the spinning threads can stretch a training run by an order of magnitude.
# One thread gives bit-identical results. This must run before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
