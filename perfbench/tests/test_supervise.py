"""The supervising parent outlives every process the run started."""
import subprocess
import sys
import textwrap
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]

#: Exits at once, leaving an orphaned grandchild that writes ``done`` late.
ORPHANING = textwrap.dedent("""
    import subprocess, sys
    subprocess.Popen([sys.executable, "-c",
                      "import sys, time; time.sleep(0.5); "
                      "open(sys.argv[1], 'w').write('done')", sys.argv[1]])
    sys.exit(3)
""")


def supervised(script: Path, *args: str) -> subprocess.CompletedProcess:
    # In a child of its own: supervise makes its caller a subreaper.
    call = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import common; "
            f"sys.exit(common.supervise(__import__('pathlib').Path("
            f"{str(script)!r}), {list(args)!r}))")
    return subprocess.run([sys.executable, "-c", call], timeout=60)


def test_supervise_waits_for_orphaned_grandchildren(tmp_path):
    script = tmp_path / "orphaning.py"
    script.write_text(ORPHANING)
    marker = tmp_path / "marker"
    done = supervised(script, str(marker))
    assert done.returncode == 3
    assert marker.read_text() == "done"


def test_supervise_marks_the_measuring_child(tmp_path):
    script = tmp_path / "env.py"
    script.write_text("import os, sys\n"
                      "sys.exit(0 if os.environ.get('PERFBENCH_MEASURING')"
                      " == '1' else 4)\n")
    assert supervised(script).returncode == 0
