"""The one walk over a layered DP's generator, shared by the sparse solvers."""

from collections import deque
from itertools import islice


def drive(layers, size, stop=None, keep=1):
    """Pull at most `stop` layers (all when None) from the generator `layers`
    and return (kept, sizes): the last `keep` layers (all when None), oldest
    first, and size(layer) for every pulled layer in pull order.  A layer
    past `keep` is let go before the generator builds the next one."""
    kept, sizes = deque(maxlen=keep), []
    for layer in islice(layers, stop):
        sizes.append(size(layer))
        kept.append(layer)
    return list(kept), sizes
