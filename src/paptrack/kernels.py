# read by perfbench/run.py:environment(), which stamps it on every result
USE_NUMBA = False
