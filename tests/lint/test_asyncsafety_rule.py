"""Known answers for the ``async-safety`` family.

One mini-package per scenario (written under ``repro/serve/`` so the
rules' scope applies), exercising every rule positively *and*
negatively.  The negative cases encode the zero-false-positive design:
unresolved calls, core-boundary edges, lock-guarded mutations and
token-disciplined ContextVars must all stay silent.
"""

from .conftest import rule_ids


def select(lint_files, files):
    return lint_files(files, select="async-safety")


class TestBlockingCall:
    def test_direct_blocking_in_async_def(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import time
                async def handler():
                    time.sleep(0.5)
                """,
            },
        )
        assert rule_ids(findings) == ["async-blocking-call"]
        assert "time.sleep" in findings[0].message

    def test_transitive_through_two_sync_helpers(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/io_helpers.py": """
                def write_report(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                """,
                "repro/serve/m.py": """
                from .io_helpers import write_report
                def persist(path, text):
                    write_report(path, text)
                async def handler(path):
                    persist(path, "done")
                """,
            },
        )
        assert rule_ids(findings) == ["async-blocking-call"]
        message = findings[0].message
        assert "open" in message and "persist" in message

    def test_subprocess_and_requests_style(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import subprocess
                import urllib.request
                async def shell():
                    subprocess.run(["ls"])
                async def fetch(url):
                    urllib.request.urlopen(url)
                """,
            },
        )
        assert rule_ids(findings) == [
            "async-blocking-call",
            "async-blocking-call",
        ]

    def test_asyncio_sleep_is_fine(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                async def handler():
                    await asyncio.sleep(0.5)
                """,
            },
        )
        assert findings == []

    def test_core_boundary_not_traversed(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/sim/engine.py": """
                def trace_open(path):
                    return open(path)
                """,
                "repro/serve/m.py": """
                from repro.sim.engine import trace_open
                async def handler(path):
                    trace_open(path)
                """,
            },
        )
        assert findings == []

    def test_sync_caller_of_blocking_not_flagged(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import time
                def warmup():
                    time.sleep(0.1)
                """,
            },
        )
        assert findings == []

    def test_async_def_outside_scope_not_flagged(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/experiments/m.py": """
                import time
                async def campaign():
                    time.sleep(1.0)
                """,
            },
        )
        assert findings == []


class TestSharedMutation:
    def test_read_await_write_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                class Server:
                    def __init__(self):
                        self._conn = object()
                    async def close(self):
                        if self._conn is not None:
                            await asyncio.sleep(0)
                            self._conn = None
                """,
            },
        )
        assert rule_ids(findings) == ["async-shared-mutation"]
        assert "_conn" in findings[0].message

    def test_detach_before_await_is_clean(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                class Server:
                    def __init__(self):
                        self._conn = object()
                    async def close(self):
                        conn, self._conn = self._conn, None
                        if conn is not None:
                            await asyncio.sleep(0)
                """,
            },
        )
        assert findings == []

    def test_write_under_lock_is_clean(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                class Counter:
                    def __init__(self):
                        self._lock = asyncio.Lock()
                        self.total = 0
                    async def add(self, value):
                        n = self.total
                        await asyncio.sleep(0)
                        async with self._lock:
                            self.total = n + value
                """,
            },
        )
        assert findings == []

    def test_augassign_across_await_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                class Counter:
                    def __init__(self):
                        self.total = 0
                    async def add(self, value):
                        _ = self.total
                        await asyncio.sleep(0)
                        self.total += value
                """,
            },
        )
        assert rule_ids(findings) == ["async-shared-mutation"]

    def test_container_mutation_not_flagged(self, lint_files):
        # append/setitem mutate the container, they do not re-bind the
        # attribute — a queue-append pattern, deliberately legal.
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                class Batcher:
                    def __init__(self):
                        self.pending = []
                    async def submit(self, item):
                        self.pending.append(item)
                        await asyncio.sleep(0)
                        self.pending.append(item)
                """,
            },
        )
        assert findings == []

    def test_write_without_await_not_flagged(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                class Server:
                    def __init__(self):
                        self.state = 0
                    async def reset(self):
                        n = self.state
                        self.state = n + 1
                """,
            },
        )
        assert findings == []


class TestUnawaitedCoroutine:
    def test_bare_call_of_async_def_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                async def job():
                    pass
                async def handler():
                    job()
                """,
            },
        )
        assert rule_ids(findings) == ["async-unawaited-coroutine"]

    def test_bare_call_from_sync_function_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                async def job():
                    pass
                def kick():
                    job()
                """,
            },
        )
        assert rule_ids(findings) == ["async-unawaited-coroutine"]

    def test_awaited_gathered_and_scheduled_are_clean(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                async def job():
                    pass
                async def handler():
                    await job()
                    await asyncio.gather(job(), job())
                    task = asyncio.create_task(job())
                    await task
                    return job()
                """,
            },
        )
        assert findings == []


class TestLockAcrossBlocking:
    def test_blocking_inside_lock_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                import time
                class S:
                    def __init__(self):
                        self._lock = asyncio.Lock()
                    async def slow(self):
                        async with self._lock:
                            time.sleep(0.5)
                """,
            },
        )
        ids = rule_ids(findings)
        assert "async-lock-across-blocking" in ids
        # the same call also stalls the loop — both rules fire
        assert "async-blocking-call" in ids

    def test_transitive_blocking_inside_lock_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                import time
                def helper():
                    time.sleep(0.5)
                class S:
                    def __init__(self):
                        self._lock = asyncio.Lock()
                    async def slow(self):
                        async with self._lock:
                            helper()
                """,
            },
        )
        assert "async-lock-across-blocking" in rule_ids(findings)

    def test_pure_critical_section_is_clean(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import asyncio
                class S:
                    def __init__(self):
                        self._lock = asyncio.Lock()
                        self.n = 0
                    async def bump(self):
                        async with self._lock:
                            self.n = self.n + 1
                """,
            },
        )
        assert findings == []


class TestContextvarLeak:
    def test_discarded_token_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                from contextvars import ContextVar
                STATE = ContextVar("state", default=None)
                async def handler():
                    STATE.set("tenant-1")
                """,
            },
        )
        assert rule_ids(findings) == ["async-contextvar-leak"]
        assert "discards the token" in findings[0].message

    def test_token_without_finally_reset_flags(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                from contextvars import ContextVar
                STATE = ContextVar("state", default=None)
                async def handler():
                    token = STATE.set("tenant-1")
                    STATE.reset(token)
                """,
            },
        )
        # reset exists but not in a finally: an exception path leaks
        assert rule_ids(findings) == ["async-contextvar-leak"]
        assert "finally" in findings[0].message

    def test_token_disciplined_pattern_is_clean(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                from contextvars import ContextVar
                STATE = ContextVar("state", default=None)
                async def handler(work):
                    token = STATE.set("tenant-1")
                    try:
                        await work()
                    finally:
                        STATE.reset(token)
                """,
            },
        )
        assert findings == []

    def test_non_contextvar_set_not_flagged(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                async def handler(store):
                    store.set("value")
                """,
            },
        )
        assert findings == []


class TestScopeAndSuppression:
    def test_family_suppression_comment(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import time
                async def handler():
                    time.sleep(0.5)  # lint: ignore[async-safety]
                """,
            },
        )
        assert findings == []

    def test_rule_id_suppression_comment(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/serve/m.py": """
                import time
                async def handler():
                    time.sleep(0.5)  # lint: ignore[async-blocking-call]
                """,
            },
        )
        assert findings == []

    def test_obs_package_is_in_scope(self, lint_files):
        findings = select(
            lint_files,
            {
                "repro/obs/m.py": """
                import time
                async def exporter():
                    time.sleep(0.5)
                """,
            },
        )
        assert rule_ids(findings) == ["async-blocking-call"]
