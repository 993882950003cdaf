"""The package names the benchmark's traced runs wrap.

``perfbench/layers.py`` installs its timing wrappers by ``getattr`` on
module attributes of the package, so a renamed or deleted attribute breaks
every ``--trace 1`` run of the benchmark; this test makes it break here.
"""

import pathlib

import cqdeph
import cqdeph.cli  # noqa: F401  (the package does not import its CLI)

_PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_layers_install_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    import layers
    import spans

    modules = (cqdeph.cli, cqdeph.bath, cqdeph.kernels, cqdeph.dynamics,
               cqdeph.validation)
    before = [dict(vars(m)) for m in modules]
    patch = layers.install(spans.Tracer("t"), cqdeph)
    wrapped = [name for m, saved in zip(modules, before)
               for name, value in vars(m).items() if saved.get(name) is not value]
    patch.restore()
    assert {"load_config", "run", "q1_grid", "q2_grid", "quad_ohmic",
            "dephasing_multipliers", "finite_bath_oracle"} <= set(wrapped)
    assert [dict(vars(m)) for m in modules] == before
