"""Run one greenstone CLI command with spans around the public functions of
each layer, then write the spans.

    python3 perfbench/trace_job.py SPANS_STEM JOB_ID -- CLI_ARGS...

Every public name listed in ``spans.LAYERS`` is replaced by a timed wrapper
wherever a greenstone module binds it (``greenstone.props.green_structure``
as well as ``greenstone.green.green_structure``), so calls between modules
are timed too.  Claim checkers are wrapped in the registry, and the corpus
builders on ``verify.Env``.  The program's own code is unchanged.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

from spans import CORPUS_METHODS, LAYERS, Recorder


def install(rec: Recorder, instances: dict) -> None:
    modules = {m: importlib.import_module(f"greenstone.{m}") for m in [*LAYERS, "verify"]}
    originals = {}
    for layer, names in LAYERS.items():
        for name in names:
            fn = getattr(modules[layer], name)
            originals[id(fn)] = (fn, rec.wrap(f"{layer}.{name}", fn))
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "greenstone":
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    verify = modules["verify"]
    for method in CORPUS_METHODS:
        setattr(verify.Env, method,
                rec.wrap(f"verify.Env.{method}", getattr(verify.Env, method)))
    for cid, claim in list(verify.REGISTRY.items()):
        timed = rec.wrap(f"verify.claim.{cid}", claim.checker)

        def checker(env, cid=cid, timed=timed):
            outcome = timed(env)
            instances[cid] = outcome.instances
            return outcome

        verify.REGISTRY[cid] = dataclasses.replace(claim, checker=checker)


def main() -> int:
    stem, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_job.py SPANS_STEM JOB_ID -- CLI_ARGS...")
    rec = Recorder()
    instances: dict[str, int] = {}
    install(rec, instances)
    import greenstone.cli
    import greenstone.green

    code = greenstone.cli.main(argv)
    cached = getattr(greenstone.green, "_green_structure_cached", None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    cache = {"hits": info.hits, "misses": info.misses} if info else None
    sys.stdout.flush()
    rec.write(Path(stem), job, {"exit": code, "cache": cache, "instances": instances})
    return code


if __name__ == "__main__":
    sys.exit(main())
