"""verify.run_suite on forked workers: the same report bytes for any worker
count, child failures raised in the parent, and no child left behind."""

import os
import select
import signal
import subprocess
import sys
import time

import pytest

import chaoscope.cli as cli
from chaoscope import verify

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def counted_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_bytes(results, path):
    verify.save_results(results, path)
    return path.read_bytes()


def test_report_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    serial = [verify._SUITE_FN[name](instances=3, seed=4) for name in verify.SUITES]
    want = report_bytes(serial, tmp_path / "serial.json")
    for count, fork_calls in ((1, 0), (2, 1), (8, 3)):
        with monkeypatch.context() as m:
            cpus(m, count)
            forks = counted_forks(m)
            got = report_bytes(verify.run_suite("all", instances=3, seed=4),
                               tmp_path / f"w{count}.json")
        assert got == want, count
        assert len(forks) == fork_calls, count
        assert_no_children()
    # one suite, or no os.fork, runs in this process alone
    cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    (one,) = verify.run_suite("bounds", instances=3, seed=4)
    assert one.to_json_dict() == serial[-1].to_json_dict()
    monkeypatch.delattr(os, "fork")
    assert report_bytes(verify.run_suite("all", instances=3, seed=4),
                        tmp_path / "nofork.json") == want
    assert forks == []


@pytest.fixture
def rigged(monkeypatch):
    """Replace every suite by a stub that runs sides["parent"](name) in this
    process and sides["child"](name) in a forked worker.  While "armed", the
    suite the parent takes waits until a child has taken one, so a child
    always runs; that disarms it."""
    cpus(monkeypatch, 2)
    parent = os.getpid()
    ready_r, ready_w = os.pipe()
    sides = {"parent": lambda name: None, "child": lambda name: None, "armed": True}

    def stub(name, instances=1, seed=0):
        if os.getpid() == parent:
            if sides["armed"]:
                assert select.select([ready_r], [], [], 30.0)[0], "no child took a suite"
                os.read(ready_r, 1)
                sides["armed"] = False
            sides["parent"](name)
        else:
            os.write(ready_w, b"x")
            sides["child"](name)
        return verify.SuiteResult(name, seed, instances)

    for name in verify.SUITES:
        monkeypatch.setitem(verify._SUITE_FN, name,
                            lambda name=name, **kw: stub(name, **kw))
    yield sides
    os.close(ready_r)
    os.close(ready_w)


def test_child_exception_is_raised_in_the_parent(rigged, capsys):
    def boom(name):
        raise RuntimeError(f"{name} broke in a child")

    rigged["child"] = boom
    with pytest.raises(RuntimeError, match=r"^\w+ broke in a child$") as exc:
        verify.run_suite("all")
    assert type(exc.value) is RuntimeError
    assert_no_children()
    # the CLI prints it as an error line and exits 2
    rigged["armed"] = True
    assert cli.console_main(["verify"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert_no_children()


def test_child_exception_keeps_its_type(rigged):
    def bad(name):
        raise ZeroDivisionError("a child divided by zero")

    rigged["child"] = bad
    with pytest.raises(ZeroDivisionError, match="^a child divided by zero$"):
        verify.run_suite("all")
    assert_no_children()


def test_child_killed_mid_run_names_its_suites(rigged):
    rigged["child"] = lambda name: os.kill(os.getpid(), signal.SIGKILL)
    with pytest.raises(RuntimeError, match="without the results of suite") as exc:
        verify.run_suite("all")
    assert sum(name in str(exc.value) for name in verify.SUITES) == 1
    assert_no_children()


def test_parent_failure_kills_and_reaps_its_children(rigged):
    def fail(name):
        raise ValueError("the parent's suite failed")

    rigged["child"] = lambda name: time.sleep(60)
    rigged["parent"] = fail
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="the parent's suite failed"):
        verify.run_suite("all")
    assert time.perf_counter() - t0 < 30.0  # the sleeping child was killed
    assert_no_children()


# `chaoscope verify` with every suite replaced by one that logs "pid name" and
# sleeps; argv: log path, seconds to sleep, "pdeathsig" or "no-pdeathsig"
STUB_VERIFY = """
import os, sys, time
from chaoscope import cli, verify
log, pause, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]

def stub(name):
    def run(instances=1, seed=0):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {name}\\n")
        time.sleep(pause)
        return verify.SuiteResult(name, seed, instances)
    return run

for name in verify.SUITES:
    verify._SUITE_FN[name] = stub(name)
os.sched_getaffinity = lambda pid: {0, 1}
if mode == "no-pdeathsig":
    verify._die_with_parent = lambda: None
sys.exit(cli.console_main(["verify"]))
"""


def gone(pid):
    """True once pid has exited (a zombie left to an init that does not reap
    counts as exited)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def kill_verify_mid_run(tmp_path, pause, mode):
    """SIGKILL a stubbed `chaoscope verify` once both of its workers have
    taken a suite; the child's pid, the log's lines and whether the child
    was gone within 20 s."""
    import chaoscope
    log = tmp_path / "taken.log"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(chaoscope.__file__)),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", STUB_VERIFY, str(log), str(pause), mode],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 30.0
        while child is None and time.monotonic() < deadline:
            time.sleep(0.02)
            pids = {int(line.split()[0]) for line in
                    (log.read_text().splitlines() if log.exists() else [])}
            if len(pids) == 2:
                (child,) = pids - {proc.pid}
        assert child is not None, "the two workers never both took a suite"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 20.0
        while not gone(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        return child, log.read_text().splitlines(), gone(child)
    finally:
        proc.kill()
        proc.wait()
        if child is not None and not gone(child):
            os.kill(child, signal.SIGKILL)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_killed_verify_takes_its_worker_with_it(tmp_path):
    # the worker sleeps for a minute in its suite; it must not outlive its parent
    t0 = time.monotonic()
    child, taken, child_gone = kill_verify_mid_run(tmp_path, 60.0, "pdeathsig")
    assert child_gone and time.monotonic() - t0 < 30.0
    assert len(taken) == 2


def test_orphaned_worker_takes_no_further_suite(tmp_path):
    # without the kernel's help the worker ends its suite and stops there,
    # leaving the two suites still in the pipe untaken
    child, taken, child_gone = kill_verify_mid_run(tmp_path, 3.0, "no-pdeathsig")
    assert child_gone
    assert len(taken) == 2, taken
