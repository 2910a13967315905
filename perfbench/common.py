"""Paths, environment, provenance and child processes of the benchmark.

Everything the benchmark writes goes under ``perfbench/out/`` of the
checkout it runs in, temporary files included: ``TMPDIR`` points there, so
the table arena's segment registry (``repro-arena-<uid>.json``) and every
temporary store live inside the checkout too.
"""
from __future__ import annotations

import ctypes
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

#: Program knobs that must keep their defaults for the numbers to mean
#: anything: a set variable would change what is measured.
KNOBS = ("REPRO_WORKERS", "REPRO_TABLE_ARENA", "REPRO_STORE_FSYNC",
         "REPRO_FAULT_PLAN")

#: Name prefix of the table arena's shared-memory segments, and where
#: Linux shows them.
ARENA_PREFIX = "rpa"
SHM = Path("/dev/shm")

#: How long a child process may take before the benchmark gives up on it.
CHILD_TIMEOUT_S = 120.0

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36

#: Set in the environment of the measuring process by :func:`supervise`.
MEASURING = "PERFBENCH_MEASURING"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, knob set, ...)."""


def prepare(name: str) -> Path:
    """Check the checkout and environment; return an empty work directory.

    Puts ``src/`` first on the import path of this process and of every
    child, and points ``TMPDIR`` inside ``perfbench/out/``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run the benchmark "
                         f"from a full checkout of the repository")
    knobs = [knob for knob in KNOBS if knob in os.environ]
    if knobs:
        raise BenchError(f"unset {', '.join(knobs)}: the benchmark measures "
                         f"the program at its defaults")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("REPRO_QUIET", None)  # the server's address is logged
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from "
                         f"{SRC}")
    work = OUT / name
    remove_tree(work)
    work.mkdir(parents=True)
    return work


def purge_arena() -> None:
    """Drop this process's tables and unlink every table-arena segment.

    The process-wide table cache is cleared first: its arrays are views
    into the segments being unmapped.  The arena only purges segments its
    registry lists, and the registry lives in the temporary directory of
    whichever process built them; segments built under another ``TMPDIR``
    (a test run, another checkout) are found by name in ``/dev/shm`` and
    unlinked too, or a "cold" start would attach to them.
    """
    from multiprocessing import shared_memory

    from repro.core.backends import clear_table_cache
    from repro.core.table_arena import segment_name

    clear_table_cache(purge_arena=True)
    if not segment_name(("probe",)).startswith(ARENA_PREFIX):
        raise BenchError(f"table-arena segments no longer start with "
                         f"{ARENA_PREFIX!r}; update ARENA_PREFIX")
    if not SHM.is_dir():
        return
    for entry in SHM.glob(ARENA_PREFIX + "*"):
        try:
            segment = shared_memory.SharedMemory(name=entry.name)
        except OSError:
            continue  # gone already
        segment.close()
        segment.unlink()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM line in {path}")


def steal_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far (``/proc/stat``).

    Time the hypervisor gave other guests: on a shared host it explains a
    run that was slow for reasons outside the program.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


#: Clock ticks per second of ``/proc/stat``.
CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def stolen_s() -> float:
    """CPU seconds the hypervisor has given other guests so far, all CPUs."""
    return steal_ticks()[0] / CLK_TCK


def mark() -> Tuple[float, float]:
    """The start of a timed interval: ``(perf_counter, stolen_s)``."""
    return time.perf_counter(), stolen_s()


def net_seconds(start: Tuple[float, float],
                end: Optional[Tuple[float, float]] = None) -> float:
    """Wall seconds from ``start`` to ``end`` (now), less host steal time.

    On a shared host a CPU-bound operation's wall time includes the time
    the hypervisor ran other guests instead (``steal`` in ``/proc/stat``);
    subtracting it reads the interval as an unshared machine would.  Steal
    is counted over every CPU, so at most half the interval is taken off:
    a steal burst on an otherwise idle CPU cannot wipe a reading out.
    """
    end = end or mark()
    wall = end[0] - start[0]
    return wall - min(max(0.0, end[1] - start[1]), wall / 2.0)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_commit() -> str:
    """Commit of the checkout, or a note that it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """Experiment info: versions, engine, arena state, machine and seed."""
    import numpy

    import repro
    from repro.core.backends import describe_backends
    from repro.core.table_arena import arena_stats

    engine = next((entry.get("engine") for entry in describe_backends()
                   if entry["name"] == "compiled"), None)
    arena = arena_stats()
    return {
        "experiment_date": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "repro_version": repro.__version__,
        "numpy_version": numpy.__version__,
        "python_version": platform.python_version(),
        "kernel_engine": engine,
        "arena": {"enabled": arena["enabled"],
                  "registry_segments": arena["registry_segments"]},
        "nproc": nproc(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(),
    }


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
def become_subreaper() -> None:
    """Adopt this process's orphaned descendants, so they can be waited for.

    A child's own helper processes (the ``multiprocessing`` resource tracker
    of the measuring process, a ``repro serve`` or a cold-start child) end a
    moment after the child does; without this they would be handed to init,
    out of reach of :func:`reap_children`.  A no-op where ``prctl`` is
    unavailable.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every child, adopted orphans included, has ended.

    Whatever still runs after ``timeout`` seconds is killed, and so is
    anything adopted meanwhile; the call returns only when no child is
    left.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def supervise(script: Path, argv: Sequence[str]) -> int:
    """Run ``script argv`` in a child; return once all it started has ended.

    The measuring process starts helpers of its own: cold-start
    interpreters, a server, spawned workers and its ``multiprocessing``
    resource tracker, which interpreter shutdown can start afresh after
    every explicit stop.  This parent starts none of them.  It adopts every
    orphaned descendant, waits for the child and then for each adopted
    process, so nothing the run started outlives it.  SIGTERM and SIGINT
    are passed on to the child.
    """
    become_subreaper()
    child = subprocess.Popen([sys.executable, str(script), *argv],
                             env={**os.environ, MEASURING: "1"})

    def forward(signum, _frame) -> None:
        if child.poll() is None:
            child.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        reap_children()
    return code if code >= 0 else 128 - code  # killed by signal -code


def python_child(args: Sequence[str], log: Path) -> subprocess.Popen:
    """Start a fresh interpreter; stdout is piped, stderr goes to ``log``."""
    with open(log, "ab") as err:
        return subprocess.Popen([sys.executable, *args], cwd=str(ROOT),
                                stdout=subprocess.PIPE, stderr=err,
                                text=True)


def first_line(process: subprocess.Popen, stream: str = "stdout",
               prefix: str = "", timeout: float = CHILD_TIMEOUT_S
               ) -> Tuple[float, str]:
    """Block until ``process`` writes a line starting with ``prefix``.

    Returns the ``perf_counter`` time the line arrived and the line.  A
    child silent for ``timeout`` seconds is killed.
    """
    pipe = getattr(process, stream)
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        while True:
            line = pipe.readline()
            if not line:
                raise BenchError(f"child {process.args!r} ended (code "
                                 f"{process.poll()}) before printing a "
                                 f"{prefix or 'result'} line")
            if line.startswith(prefix):
                return time.perf_counter(), line
    finally:
        watchdog.cancel()


def stop(process: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM the child (if still running) and wait until it has ended."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        return process.wait(timeout=timeout)


def drain(process: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S
          ) -> List[str]:
    """Remaining stdout lines of a child that is finishing on its own."""
    try:
        rest, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError(f"child {process.args!r} did not finish within "
                         f"{timeout:g}s") from None
    if process.returncode != 0:
        raise BenchError(f"child {process.args!r} exited with code "
                         f"{process.returncode}")
    return rest.splitlines()


def cold_start(workload: str, seed: int, work: Path,
               trace: Optional[Path] = None,
               store: Optional[Path] = None) -> Tuple[float, Dict]:
    """Purged arena, fresh interpreter -> the workload's first result.

    Runs ``coldstart.py``; returns the seconds from spawning it to its
    result line (less host steal time, :func:`net_seconds`), and the
    decoded result.
    """
    purge_arena()
    args = [str(BENCH / "coldstart.py"), workload, "--seed", str(seed)]
    if store is not None:
        args += ["--store", str(store)]
    if trace is not None:
        args += ["--trace", str(trace)]
    started = mark()
    child = python_child(args, work / "coldstart.log")
    try:
        arrived, line = first_line(child, prefix="RESULT ")
    except BenchError:
        stop(child)
        raise
    seconds = net_seconds(started, (arrived, stolen_s()))
    drain(child)
    return seconds, json.loads(line[len("RESULT "):])


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
