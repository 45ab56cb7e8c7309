"""Time one command-line style set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SURVEY.xyz [SURVEY.xyz ...]

Imports lrterrain from SRC_DIR and the scipy modules it loads lazily, then
reads every survey with ``read_survey``.  Prints the elapsed seconds.
"""
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import lrterrain
    import scipy.spatial  # noqa: F401  (idw_prior, deconfliction pairs)
    import scipy.stats  # noqa: F401  (deconfliction t quantiles)

    for path in sys.argv[2:]:
        lrterrain.read_survey(path)
    print(repr(time.perf_counter() - t0))
