"""The name of the refinement engine.

Refinement is signature rounds in numpy and Python (see refine); there
is no compiled engine.  tests/test_acceptance.py and perfbench/worker.py
read HAVE_NUMBA, and perfbench/ records active_engine(), so both stay.
"""

HAVE_NUMBA = False


def active_engine() -> str:
    """The name of the refinement: "numpy", the name the benchmark
    records and `dlbisim bench --engine` accepts."""
    return "numpy"
