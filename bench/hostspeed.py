"""Host speed, measured so that times can be scaled to a reference host.

The shared machines this benchmark runs on change speed by up to 40% over
minutes as neighbours load the host, and nothing inside one run averages
that out. A fixed kernel that slows down and speeds up with the host is
timed before and after each timed piece of work; the work's time is
multiplied by the kernel's reference time over the mean of those two
kernel times, so it reads as the time on a host where the kernel takes
its reference time. The kernels use numpy only, so a change to
``docgraph`` cannot change them, and scaling cannot favour either side
of a comparison; it only reduces host noise.

The host slows different kinds of work differently, so each workload is
scaled by the kernel shaped like its bound work (measured on 2 shared
vCPUs, quartile spread over median of 25-second windows, raw → scaled):

- ``lstm_step``: small-matrix numpy and interpreter work, like one step of
  the tape-free sentence LSTM. Scoring: 0.30 → 0.08. Set-up (parsing and
  tokenizing) is scaled by it on every workload.
- ``adam``: streaming updates with fresh multi-megabyte temporaries, like
  Adam over the embedding and the dense backward gradients. Training:
  0.19 → 0.07 on train_long, 0.06-0.09 → 0.03-0.04 on train_short (where
  ``lstm_step`` made it worse, 0.18).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((200, 400))
_X = _rng.standard_normal((1, 200))
_ADAM_SIZE = 500_000
_G = _rng.standard_normal(_ADAM_SIZE)


def _lstm_step() -> None:
    h = _X
    for _ in range(1000):
        z = h @ _W
        h = np.tanh(z[:, :200]) * (1.0 / (1.0 + np.exp(-z[:, 200:])))
        _ = {"sum": float(h.sum())}, [i * 2 for i in range(20)]


def _adam() -> None:
    g = _G
    p, m, v = np.zeros(_ADAM_SIZE), np.zeros(_ADAM_SIZE), np.zeros(_ADAM_SIZE)
    for _ in range(12):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p = p - 0.001 * m / (np.sqrt(v) + 1e-8)


# name: (kernel, its time on the reference host in seconds)
KERNELS = {"lstm_step": (_lstm_step, 0.025), "adam": (_adam, 0.1)}


def kernel_seconds(kernel) -> float:
    """Best of three timings of ``kernel`` (brief interruptions excluded)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class Scaler:
    """Timings of one kernel between consecutive pieces of timed work."""

    def __init__(self, name: str):
        self.run, self.reference_s = KERNELS[name]
        self.kernel = [kernel_seconds(self.run)]

    def after(self) -> float:
        """Time the kernel again and return the factor for the work since
        the previous timing."""
        self.kernel.append(kernel_seconds(self.run))
        return self.reference_s / statistics.fmean(self.kernel[-2:])
