"""The benchmark's tracer still fits the library.

perfbench/tracer.py patches methods by name on their classes and rebinds
every module-level function listed in a layer's __all__.  A method that is
renamed or removed, or an __all__ entry that no longer resolves, breaks
traced benchmark runs; these tests fail first.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import gcakit
from gcakit import GcaSpec, MonomialMatrix, Phase, validate_tmatrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings() -> dict:
    """Every attribute of every loaded gcakit module and patched class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "gcakit" or name.startswith("gcakit.")):
            for attr, val in vars(mod).items():
                out[(name, attr)] = id(val)
    for cls in (MonomialMatrix, Phase):
        for attr, val in vars(cls).items():
            out[(cls.__qualname__, attr)] = id(val)
    return out


def test_every_public_name_resolves():
    missing = [name for name in gcakit.__all__ if not hasattr(gcakit, name)]
    assert missing == []
    assert len(set(gcakit.__all__)) == len(gcakit.__all__)


def test_tracer_installs_counts_and_uninstalls():
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer()
    tracer.install()  # imports every layer module, gcakit.cli included
    try:
        assert hasattr(MonomialMatrix.__dict__["__matmul__"], "__wrapped__")
        spec = GcaSpec(validate_tmatrix([[0, 1], [-1, 0]], 3), (3, 3))
        # looked up on the package, which reads the binding the tracer replaced
        gcakit.build_representation(spec)
        tracer.end_call()
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["build_representation"] == 1
    assert counts["verify_relations"] >= 1
    assert counts["MonomialMatrix.__matmul__"] > 0
    assert counts["weyl_word"] > 0


def test_uninstall_restores_every_binding():
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.uninstall()
    first = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert _bindings() != first
    tracer.uninstall()
    assert _bindings() == first


def test_names_read_while_traced_are_not_kept_wrapped():
    # a fresh process, so that no name was read through the package before
    script = (
        "import importlib.util, sys\n"
        "import gcakit\n"
        "spec = importlib.util.spec_from_file_location('perfbench_tracer', sys.argv[1])\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "def traced(v):\n"
        "    return getattr(v, '__qualname__', '').startswith('Tracer.')\n"
        "tracer = mod.Tracer()\n"
        "tracer.install()\n"
        "print(sum(traced(getattr(gcakit, n)) for n in gcakit.__all__))\n"
        "tracer.uninstall()\n"
        "for n, m in gcakit._HOME.items():\n"
        "    v = getattr(gcakit, n)\n"
        "    if v is not getattr(sys.modules['gcakit.' + m], n) or traced(v):\n"
        "        print(n)\n"
    )
    src = str(Path(gcakit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    wrapped, *kept = proc.stdout.split()
    assert int(wrapped) > 0  # the tracer was seen through the package
    assert kept == []
