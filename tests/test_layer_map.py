"""Every public function of a layer module is named in the benchmark's layer map.

The benchmark's tracer wraps the functions its layer map names; a public
function missing from it would go untraced, and the benchmark's self-test
refuses that.  Running the same check here catches it in the test suite.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_map_names_every_public_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    selftest.check_layer_map()
