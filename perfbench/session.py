"""One Ray session with run-local state, plus the peak-RSS sampler.

Everything a run writes goes under one scratch root inside the checkout
(``perfbench/.run-<pid>``): encode outputs, the exchange tier, the salt-plan
cache and, when the path is short enough for Ray's socket names, Ray's own
session directory. The root is removed when the session closes.
"""

from __future__ import annotations

import os
import shutil
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Ray puts AF_UNIX sockets at <temp_dir>/session_<stamp>_<pid>/sockets/
# plasma_store (up to 64 characters below temp_dir); the kernel caps the
# path at 107
_SOCKET_SUFFIX_LEN = 64
_AF_UNIX_MAX = 107


class Session:
    """``with Session(...) as s:`` starts Ray on ``num_cpus`` CPUs with the
    repository root on the workers' ``PYTHONPATH`` (Ray workers inherit the
    driver's cwd, not its ``sys.path``), and tears everything down on exit.

    The driver, and with it every process Ray starts, is pinned to
    ``num_cpus`` of the CPUs it may use, for the life of the session. Spread
    over all of a shared VM's CPUs, each op waits on whichever of them the
    host has slowed; pinned, the ops and the reference kernel that runs
    between them (``reference.py``) run on the same CPUs and slow together."""

    def __init__(self, num_cpus: int, worker_hook: str | None = None, env: dict | None = None):
        self.num_cpus = num_cpus
        self.worker_hook = worker_hook
        self.env = dict(env or {})
        self.root = os.path.join(HERE, f".run-{os.getpid()}")
        self.rss: RssSampler | None = None
        self._saved_env: dict[str, str | None] = {}
        self._saved_cpus: set[int] | None = None
        self._ray_tmp: str | None = None

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    def __enter__(self) -> "Session":
        import ray

        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        env = {
            "PYTHONPATH": os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")])),
            "UPXR_PLAN_CACHE_DIR": self.path("plan_cache"),
            **self.env,
        }
        for k, v in env.items():
            self._saved_env[k] = os.environ.get(k)
            os.environ[k] = v
        self._saved_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, sorted(self._saved_cpus)[-self.num_cpus:])
        runtime_env: dict = {"env_vars": env}
        if self.worker_hook:
            runtime_env["worker_process_setup_hook"] = self.worker_hook
        kw = {}
        ray_tmp = os.path.join(ROOT, ".ray")
        if len(ray_tmp) + _SOCKET_SUFFIX_LEN <= _AF_UNIX_MAX:
            kw["_temp_dir"] = self._ray_tmp = ray_tmp
        try:
            ray.init(
                address="local",
                num_cpus=self.num_cpus,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                object_store_memory=512 * 1024 * 1024,
                runtime_env=runtime_env,
                **kw,
            )
        except BaseException:
            self.__exit__(None, None, None)
            raise
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.rss = RssSampler()
        self.rss.start()
        return self

    def __exit__(self, *exc) -> None:
        import ray

        if self.rss is not None:
            self.rss.stop()
        ray.shutdown()
        if self._ray_tmp:  # this process's Ray logs and sockets
            for entry in os.listdir(self._ray_tmp):
                if entry.startswith("session_2") and entry.endswith(f"_{os.getpid()}"):
                    shutil.rmtree(os.path.join(self._ray_tmp, entry), ignore_errors=True)
        if self._saved_cpus is not None:
            os.sched_setaffinity(0, self._saved_cpus)
        for k, v in self._saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        shutil.rmtree(self.root, ignore_errors=True)


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name field may hold spaces; ppid follows its ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().split(b"\0", 1)[0].decode(errors="replace")
    except OSError:
        return ""


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def driver_and_worker_pids() -> list[int]:
    """This process plus every descendant that is a Ray worker (its
    command line starts with ``ray::``); the GCS and raylet are left out."""
    me = os.getpid()
    kids = _children_map()
    out, stack = [me], list(kids.get(me, []))
    while stack:
        pid = stack.pop()
        stack.extend(kids.get(pid, []))
        if _cmdline(pid).startswith("ray::"):
            out.append(pid)
    return out


class RssSampler(threading.Thread):
    """Polls ``/proc`` and keeps the largest sum, over the live driver and
    worker processes, of each process's peak resident set (``VmHWM``)."""

    # VmHWM is each process's own high-water mark, so a slow poll loses
    # nothing from a process that lives across two polls, and steals little
    # time from the measured ops
    def __init__(self, interval_s: float = 1.0):
        super().__init__(daemon=True)
        self.interval_s = interval_s
        self.peak_kb = 0
        self._halt = threading.Event()

    def sample(self) -> None:
        total = sum(_hwm_kb(p) for p in driver_and_worker_pids())
        self.peak_kb = max(self.peak_kb, total)

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            self.sample()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
