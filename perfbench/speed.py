"""Host speed, measured with a fixed reference kernel inside each child.

The benchmark runs on a few virtual cores of a shared machine whose
speed drifts from minute to minute by 20-40%, and CPU time drifts with
it: the CPU seconds of one child's interpreter start moved from 0.25 to
0.35 between two invocations.  The kernel below does not depend on the
program under test.  Each child process times it before and after its
mining session, and the benchmark rescales that run's CPU seconds to the
speed at which the kernel takes ``REFERENCE_S``.  Timed in the parent
process instead, the kernel did not track the child's speed.
"""

import statistics
import time

#: CPU seconds of one kernel call at the nominal speed: the median
#: measured on an idle two-core x86-64 virtual machine.
REFERENCE_S = 0.0100
#: Kernel calls timed at each end of a child run.
SAMPLES_PER_RUN = 8


class Speed:
    """Kernel timings of one invocation and the scale they give."""

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).random((140, 30))
        self.samples = []

    def kernel(self):
        """Small NumPy reductions driven from a Python loop, like the sweep loop."""
        import numpy as np

        rows = self.matrix
        total = 0.0
        for i in range(1400):
            row = rows[i % rows.shape[0]]
            total += float(np.abs(row - row.mean()).sum())
            for j in range(40):
                total += j * 0.5
        return total

    def sample(self):
        for _ in range(SAMPLES_PER_RUN):
            began = time.process_time()
            self.kernel()
            self.samples.append(time.process_time() - began)

    def scale(self):
        """Factor turning this invocation's CPU seconds into nominal ones."""
        return REFERENCE_S / statistics.median(self.samples)
