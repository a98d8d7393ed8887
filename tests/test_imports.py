import subprocess
import sys
from pathlib import Path

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


def test_import_loads_only_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "klpoly" in out
    foreign = [
        name for name in out
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name != "klpoly" and not name.startswith("klpoly.")
    ]
    assert not foreign
