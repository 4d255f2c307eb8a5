"""A fixed piece of work that does not involve the program, run as a fresh
process to gauge the machine's current speed.

It does what a `pseudosusp` command does at a smaller size: start Python,
import numpy, and run Python arithmetic, exact `Fraction` sums and numpy
array passes.  The benchmark times it before each round and scales
the round's end-to-end times by how long it took (see `run.end_to_end`).
"""

from fractions import Fraction

import numpy as np

acc = 0
for i in range(300_000):
    acc += i * i % 7
f = Fraction(0)
for i in range(9_000):
    f = (f + Fraction(i % 7, 3 + i % 5)) % 1
x = np.linspace(0.0, 1.0, 600_000)
np.interp(x[::-1], x, np.sqrt(x)).sum()
np.sort(x * 7.0 % 1.0)
