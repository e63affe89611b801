"""The end-to-end benchmark's layer table still resolves.

``benchmarks/e2e/layers.py`` wraps each entry point named in its
``LAYERS`` table on the class that defines it, and counts the results of
those in ``COUNTED``.  Deleting, renaming or inheriting one of them
breaks the traced benchmark run; this test makes that a tier-1 failure
too.
"""

from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def test_tracer_installs_and_uninstalls_every_layer_entry_point(
        monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    from layers import COUNTED, LAYERS, Tracer, _resolve

    targets = sorted({t for entries in LAYERS.values() for t in entries}
                     | COUNTED)
    originals = {t: _resolve(t)[2] for t in targets}
    tracer = Tracer()
    tracer.install()
    try:
        for target, func in originals.items():
            assert _resolve(target)[2] is not func, target
    finally:
        tracer.uninstall()
    for target, func in originals.items():
        assert _resolve(target)[2] is func, target
