"""A fixed computation that measures how fast the machine runs right now.

The benchmark runs it as a child just before each op of an untraced
pass and reports pass times as multiples of its time.  It uses nothing
from bellshift, so no change to the program moves it, and it mixes the
two kinds of work the ops do: big-integer additions (rows of Aitken's
Bell triangle) and a small-integer interpreter loop.
"""

from itertools import accumulate

row = [1]
for _ in range(300):
    row = list(accumulate(row, initial=row[-1]))
acc = 0
for i in range(300_000):
    acc += i * i % 7
print(acc, row[0] % 1000)
