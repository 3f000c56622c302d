"""Set-up probe: a fresh interpreter imports dpl and loads the registry.

    python3 perfbench/probe.py reduction|direct 0|1

It times, from its own first statement, importing dpl, loading and parsing
every registry identity, and importing the modules of the route (dpl.direct
and numpy for "direct"). With trace 1 it reports spans of the DSL parser
instead. It prints one JSON object.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402


def main(route: str, trace: bool) -> dict:
    import dpl  # noqa: F401
    tracer = None
    if trace:
        from tracer import SETUP_TARGETS, Tracer
        tracer = Tracer()
        tracer.install(SETUP_TARGETS)
    from dpl.registry import registry_get, registry_ids
    ids = registry_ids()
    for ident in ids:
        registry_get(ident)
    if route == "direct":
        import dpl.direct  # noqa: F401
        import numpy  # noqa: F401
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "identities": len(ids)}
    if tracer is not None:
        out["per_layer"] = tracer.metrics(SETUP_TARGETS)
        out["absent"] = tracer.absent
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], sys.argv[2] == "1")
    import json
    print(json.dumps(result))
