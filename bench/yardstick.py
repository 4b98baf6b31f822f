"""The yardstick: a fixed reference kernel, timed beside the workloads.

On a shared virtual machine speed swings by up to 2x over spans of 0.3 s
to minutes, many of them longer than one run, so a wall time moves
between runs by as much as the machine does.  A piece of work's time
divided by the kernel's time at the same moment is a count of kernel
runs, and the swings move both times alike.

The kernel does the kind of work ``tangoseg`` does: it counts the 2- to
6-grams of a fixed text of 1,500 ideographs in a fresh dict and looks
grams up, in about 10 ms on a 2-vCPU Xeon.  It is benchmark code, so a
change to the package cannot move it, except through the state the
package leaves behind in the caches and the heap; see ``README.md``.
"""

import random
import signal
import statistics
import time
from contextlib import nullcontext

TEXT_CHARS = 1_500
# Kernel runs every SAMPLE_PERIOD_S seconds during sampled work: about a tenth
# of its time.
SAMPLE_PERIOD_S = 0.1
# A fixed scale that turns kernel runs into seconds, for metrics that must read
# in seconds: about the kernel's time on a 2-vCPU Xeon.
REF_KERNEL_S = 0.01


def kernel_ns(text: str) -> int:
    t0 = time.perf_counter_ns()
    counts: dict[str, int] = {}
    for n in range(2, 7):
        for i in range(len(text) - n + 1):
            gram = text[i:i + n]
            counts[gram] = counts.get(gram, 0) + 1
    wins = 0
    for k in range(6, len(text) - 6):
        for n in range(2, 7):
            wins += counts.get(text[k - n:k], 1) > counts.get(text[k - 1:k - 1 + n], 1)
    return time.perf_counter_ns() - t0


class Yardstick:
    """``ns()`` runs the kernel once and returns its time in ns."""

    def __init__(self):
        rng = random.Random("yardstick")
        self.text = "".join(chr(0x4E00 + rng.randrange(3000)) for _ in range(TEXT_CHARS))

    def ns(self) -> int:
        return kernel_ns(self.text)


class Sampler:
    """Runs the kernel from a timer signal every ``SAMPLE_PERIOD_S`` seconds
    of wall time while the work inside ``with`` runs.

    Python runs a signal handler between two bytecodes of the main thread,
    so the samples fall inside long calls into the package and follow the
    machine's speed through a call, not only around it.
    """

    def __init__(self, yardstick: Yardstick):
        self.yardstick = yardstick
        self.samples: list[int] = []  # kernel run times, in ns

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.yardstick.ns())

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)



def timed(yardstick: Yardstick, sample: bool, fn, *args):
    """``fn(*args)``, measured: (its result, its seconds, its size in kernel runs).

    With ``sample``, the kernel runs from the timer during the call; the
    seconds leave those runs out, and the size is the seconds over their
    mean time.  Without, or for a call too short to be sampled, one kernel
    run right after the call is the measure.  Work a tracer records is not
    sampled, so that its spans hold no kernel time.
    """
    sampler = Sampler(yardstick)
    t0 = time.perf_counter_ns()
    with sampler if sample else nullcontext():
        out = fn(*args)
    work_ns = time.perf_counter_ns() - t0 - sum(sampler.samples)
    return out, work_ns / 1e9, work_ns / statistics.mean(sampler.samples or [yardstick.ns()])
