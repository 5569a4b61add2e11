"""What each import loads: the package and the CLI import their modules on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frobjets

SRC = str(Path(frobjets.__file__).resolve().parents[1])
COMPUTING = {
    "acceptance", "bounds", "cartier", "fano", "jets", "models", "monomials", "principal_parts",
}


def loaded_after(code):
    """The frobjets submodules loaded once `code` has run in a fresh interpreter."""
    script = (
        f"import json, sys\n{code}\n"
        "print(json.dumps(sorted(m[9:] for m in sys.modules if m.startswith('frobjets.'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_bare_package_loads_no_submodule():
    assert loaded_after("import frobjets") == set()


def test_cli_loads_no_computing_module():
    assert loaded_after("import frobjets.cli") == {"cli", "serialize"}


@pytest.mark.parametrize(
    "command, parameters, modules",
    [
        ("inclusion-check", {"n": 2, "l": 1, "e": 1, "p": 2}, {"monomials"}),
        ("jets", {"model": "pn:2", "m": 4, "l": 1}, {"jets", "models", "monomials"}),
        ("seshadri", {"model": "pn:2", "m_max": 5, "p": 2}, {"bounds", "jets", "models", "monomials"}),
        ("cartier", {"n": 1, "p": 2, "e": 1, "box": 2}, {"cartier", "monomials"}),
        ("pp", {"n": 2, "l": 2}, {"principal_parts", "monomials"}),
        ("mori-endgame", {"a": "2,1,1"}, {"principal_parts", "monomials"}),
        ("fano", {"json": '{"n": 2, "char": 3}'}, {"fano", "monomials"}),
    ],
)
def test_each_command_loads_only_its_modules(command, parameters, modules):
    code = (
        "from frobjets.cli import RunConfig, run\n"
        f"assert run(RunConfig({command!r}, {parameters!r}))[0] == 0"
    )
    assert loaded_after(code) == {"cli", "serialize"} | modules


def test_exports_resolve_to_their_definitions():
    modules = {name: getattr(frobjets, name) for name in COMPUTING}
    for name in frobjets.__all__:
        homes = [module for module in modules.values() if name in vars(module)]
        assert homes and all(getattr(frobjets, name) is vars(m)[name] for m in homes), name
    assert set(frobjets.__all__) <= set(dir(frobjets))
    assert len(set(frobjets.__all__)) == len(frobjets.__all__)
    namespace = {}
    exec("from frobjets import *", namespace)
    assert set(frobjets.__all__) <= set(namespace)


def test_submodule_attribute_after_bare_import():
    assert loaded_after("import frobjets\nassert frobjets.monomials.WORK_LIMIT == 10**6") == {
        "monomials", "serialize"
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'frobjets' has no attribute 'no_such_name'"):
        frobjets.no_such_name
    assert not hasattr(frobjets, "no_such_name")
