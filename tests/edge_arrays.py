"""A graph's edge arrays in a form that compares with ``==``."""


def edge_arrays(graph) -> tuple:
    """The graph's ``u``, ``v`` and ``w`` arrays as lists."""
    return graph.u.tolist(), graph.v.tolist(), graph.w.tolist()


def triple_arrays(triples) -> tuple:
    """The ``u``, ``v`` and ``w`` lists of ``(u, v, w)`` triples, in order."""
    return tuple(map(list, zip(*triples))) if triples else ([], [], [])
