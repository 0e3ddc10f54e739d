"""The per-layer tracer in bench/layertrace.py patches tauseq by name, so
every name it lists must still exist: otherwise `bench/run.py --trace 1`
breaks on the first traced run."""

import importlib
import importlib.util
import pathlib

LAYERTRACE = (pathlib.Path(__file__).resolve().parent.parent / "bench" /
              "layertrace.py")


def _targets():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for modname, attr, cls, _ in targets:
        home = importlib.import_module(f"tauseq.{modname}")
        if cls is None:
            fn = getattr(home, attr, None)
        else:
            # methods are wrapped where the class itself defines them
            fn = vars(getattr(home, cls, object)).get(attr)
        assert callable(fn), (modname, cls, attr)
