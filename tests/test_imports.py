import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in isolated mode (-I), so that neither the environment nor the
# user's site directory adds modules, and list the modules that importing
# klpoly loads beyond those the interpreter already had.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import klpoly
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# The same for a run of ``python -m klpoly`` with the arguments that
# follow the source directory: the command's own output comes first,
# then one line naming every module the run loaded.
CLI_PROBE = """
import runpy
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
sys.argv = ["klpoly", *sys.argv[2:]]
try:
    runpy.run_module("klpoly", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
print(" ".join(sorted(set(sys.modules) - before)))
"""

# After a bare ``import klpoly``: the public names dir() lists, whether
# the two deferred submodules are loaded, the public names a star import
# binds, and whether the names it loaded resolve to the submodules' own
# objects.
DEFERRED_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import klpoly
print(sorted(set(klpoly.__all__) - set(dir(klpoly))))
print("klpoly.families" in sys.modules, "klpoly.verify" in sys.modules)
star = {}
exec("from klpoly import *", star)
print(sorted(set(klpoly.__all__) ^ (star.keys() - {"__builtins__"})))
verify, families = sys.modules["klpoly.verify"], sys.modules["klpoly.families"]
print(
    klpoly.verify_regular_closed_forms is verify.verify_regular_closed_forms,
    klpoly.FamilySpec is families.FamilySpec,
    klpoly.verify is verify,
    klpoly.families is families,
)
"""

# The modules of the package that ``import klpoly`` loads: the recursion
# and what it stands on, but neither the families nor the verification
# batches.
CORE_MODULES = [
    "klpoly", "klpoly.bruhat", "klpoly.kl", "klpoly.perm", "klpoly.polynomial",
]

# Standard-library modules that cost most of the start-up time when
# klpoly used them: dataclasses pulls in inspect, which pulls in ast and
# dis, and json is needed only for JSON output.
SLOW_MODULES = ("dataclasses", "inspect", "ast", "dis", "json")


# Modules that no annotation needs at run time (every module postpones
# its annotations) and that only the sampled inversion check uses.
LAZY_MODULES = ("typing", "random")


def _probe(code, *flags):
    """The output of ``code`` run in isolated mode with the given extra
    flags and the source directory as its argument."""
    return subprocess.run(
        [sys.executable, "-I", *flags, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def _loaded_by_import(*flags):
    return _probe(PROBE, *flags).split()


def _run_cli(*args):
    """The output lines of ``python -m klpoly *args`` and the modules
    the run loaded."""
    *lines, loaded = subprocess.run(
        [sys.executable, "-I", "-c", CLI_PROBE, str(SRC), *args],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    return lines, loaded.split()


def test_import_loads_only_the_standard_library():
    out = _loaded_by_import()
    assert "klpoly" in out
    foreign = [
        name for name in out
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name != "klpoly" and not name.startswith("klpoly.")
    ]
    assert not foreign


def test_import_loads_none_of_the_slow_modules():
    out = _loaded_by_import()
    assert "klpoly" in out
    assert [name for name in SLOW_MODULES if name in out] == []


def test_import_loads_neither_typing_nor_random():
    # -S skips the site directories, whose .pth files may preload them.
    out = _loaded_by_import("-S")
    assert "klpoly" in out
    assert [name for name in LAZY_MODULES if name in out] == []


def test_import_loads_only_the_recursion():
    out = _loaded_by_import("-S")
    assert [name for name in out if name.partition(".")[0] == "klpoly"] == (
        CORE_MODULES
    )


def test_deferred_names_resolve_on_first_use():
    lines = _probe(DEFERRED_PROBE, "-S").splitlines()
    assert lines == ["[]", "False False", "[]", "True True True True"]


def test_cli_loads_json_only_for_json_output():
    lines, loaded = _run_cli("kl", "2143", "4231")
    assert lines == ["1 + q"]
    assert "klpoly.cli" in loaded
    assert [name for name in SLOW_MODULES if name in loaded] == []
    lines, loaded = _run_cli("kl", "2143", "4231", "--json")
    assert lines == ["[1, 1]"]
    assert "json" in loaded


DEFERRED_MODULES = ["klpoly.families", "klpoly.verify"]


# Each command of the CLI, and the deferred modules its run loads.
CLI_RUNS = [
    (("kl", "2143", "4231"), []),
    (("inv-kl", "2143", "4231"), []),
    (("mu", "2143", "4231"), []),
    (("leq", "2143", "4231"), []),
    (("interval", "2143", "4231"), []),
    (("smooth", "4231"), []),
    (("picture", "2143", "4231"), []),
    # The package loads both deferred modules on first use of either.
    (("family", "x:2,2"), DEFERRED_MODULES),
    (("closed-form", "x:2,2"), DEFERRED_MODULES),
    (("lemma", "1", "2", "2"), DEFERRED_MODULES),
    (("verify", "smoothness", "--n", "2"), DEFERRED_MODULES),
]


@pytest.mark.parametrize(
    "args, deferred", CLI_RUNS, ids=[args[0] for args, _ in CLI_RUNS]
)
def test_cli_loads_the_deferred_modules_only_where_used(args, deferred):
    lines, loaded = _run_cli(*args)
    assert lines
    assert [name for name in DEFERRED_MODULES if name in loaded] == deferred


def test_all_is_sorted_unique_and_resolves():
    import klpoly

    names = klpoly.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(klpoly, name)] == []
    star = {}
    exec("from klpoly import *", star)
    assert star.keys() - {"__builtins__"} == set(names)
    assert set(names) <= set(dir(klpoly))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        klpoly.no_such_name
    # The size of the public API; a change to it is a deliberate edit here.
    assert len(names) == 57
