"""The project call graph: naming, resolution, summaries, reachability.

These tests build small snippet trees (same convention as ``conftest``:
paths under ``repro/...`` scope exactly like the real sources) and
inspect the :class:`repro.lint.graph.ProjectGraph` directly — the
``async-safety`` rules are tested separately on top of it
(``test_asyncsafety_rule.py``).
"""

import json
import textwrap

import pytest

from repro.lint import Project, ProjectGraph
from repro.lint.engine import collect_files, parse_module
from repro.lint.graph import blocking_kind, module_dotted_name


def build_graph(tmp_path, files):
    """Write ``{relpath: code}`` and build the graph over the tree."""
    for relpath, code in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
    modules = []
    for path in collect_files([tmp_path]):
        module, parse_finding = parse_module(path)
        assert parse_finding is None, parse_finding
        modules.append(module)
    return Project(modules).graph()


class TestModuleNaming:
    def test_plain_module_and_package_init(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/http.py": "def f():\n    pass\n",
                "repro/serve/__init__.py": "",
            },
        )
        assert set(graph.modules_by_name) == {
            "repro.serve.http",
            "repro.serve",
        }
        assert "repro.serve.http.f" in graph.functions

    def test_module_dotted_name_outside_repro_tree(self, tmp_path):
        (tmp_path / "loose.py").write_text("x = 1\n")
        module, _ = parse_module(tmp_path / "loose.py")
        assert module_dotted_name(module) == "loose"


class TestResolution:
    def test_local_function_call(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "def helper():\n"
                    "    pass\n"
                    "def caller():\n"
                    "    helper()\n"
                ),
            },
        )
        summary = graph.functions["repro.serve.m.caller"]
        assert [c.target for c in summary.calls] == ["repro.serve.m.helper"]
        assert summary.calls[0].kind == "project"

    def test_absolute_and_relative_imports(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/a.py": "def target():\n    pass\n",
                "repro/serve/b.py": (
                    "from .a import target\n"
                    "from repro.serve.a import target as absolute\n"
                    "def f():\n"
                    "    target()\n"
                    "    absolute()\n"
                ),
            },
        )
        targets = [
            c.target for c in graph.functions["repro.serve.b.f"].calls
        ]
        assert targets == ["repro.serve.a.target", "repro.serve.a.target"]

    def test_self_method_and_attr_method(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "class Helper:\n"
                    "    def work(self):\n"
                    "        pass\n"
                    "class Server:\n"
                    "    def __init__(self):\n"
                    "        self.helper = Helper()\n"
                    "    def own(self):\n"
                    "        pass\n"
                    "    def run(self):\n"
                    "        self.own()\n"
                    "        self.helper.work()\n"
                ),
            },
        )
        targets = [
            c.target for c in graph.functions["repro.serve.m.Server.run"].calls
        ]
        assert targets == [
            "repro.serve.m.Server.own",
            "repro.serve.m.Helper.work",
        ]

    def test_method_inherited_from_project_base(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        pass\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        self.shared()\n"
                ),
            },
        )
        calls = graph.functions["repro.serve.m.Child.run"].calls
        assert calls[0].target == "repro.serve.m.Base.shared"

    def test_instantiation_edges_to_init(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "class Thing:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "def make():\n"
                    "    return Thing()\n"
                ),
            },
        )
        calls = graph.functions["repro.serve.m.make"].calls
        assert calls[0].target == "repro.serve.m.Thing.__init__"

    def test_reexport_through_package_init(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/impl.py": "def real():\n    pass\n",
                "repro/serve/__init__.py": "from .impl import real\n",
                "repro/obs/user.py": (
                    "from repro.serve import real\n"
                    "def f():\n"
                    "    real()\n"
                ),
            },
        )
        calls = graph.functions["repro.obs.user.f"].calls
        assert calls[0].target == "repro.serve.impl.real"

    def test_unresolvable_call_produces_no_edge(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "def f(callback):\n"
                    "    callback()\n"
                    "    (lambda: 1)()\n"
                ),
            },
        )
        summary = graph.functions["repro.serve.m.f"]
        assert all(c.kind == "unresolved" for c in summary.calls)


class TestSummaries:
    def test_awaits_reads_writes_and_locks(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "import asyncio\n"
                    "class S:\n"
                    "    def __init__(self):\n"
                    "        self._lock = asyncio.Lock()\n"
                    "        self.count = 0\n"
                    "    async def tick(self):\n"
                    "        n = self.count\n"
                    "        await asyncio.sleep(0)\n"
                    "        async with self._lock:\n"
                    "            self.count = n + 1\n"
                ),
            },
        )
        summary = graph.functions["repro.serve.m.S.tick"]
        assert summary.is_async
        assert summary.awaits == 2  # the await and the async-with acquire
        assert "count" in summary.self_reads
        assert "count" in summary.self_writes
        assert summary.locks_held == ["self._lock"]

    def test_nested_defs_are_separate_summaries(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "import time\n"
                    "async def outer():\n"
                    "    async def inner():\n"
                    "        time.sleep(1)\n"
                    "    return inner\n"
                ),
            },
        )
        outer = graph.functions["repro.serve.m.outer"]
        assert not outer.blocking  # inner's body is not outer's
        inner = graph.functions["repro.serve.m.outer.<locals>.inner"]
        assert [c.target for c in inner.blocking] == ["time.sleep"]


class TestBlockingReachability:
    def test_direct_and_transitive_chain(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "import time\n"
                    "def deep():\n"
                    "    time.sleep(1)\n"
                    "def middle():\n"
                    "    deep()\n"
                    "def top():\n"
                    "    middle()\n"
                ),
            },
        )
        chain = graph.blocking_chain("repro.serve.m.top")
        assert chain == (
            "repro.serve.m.top",
            "repro.serve.m.middle",
            "repro.serve.m.deep",
            "time.sleep",
        )

    def test_chain_stops_at_core_boundary(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/sim/engine.py": (
                    "def core_helper():\n"
                    "    open('x')\n"
                ),
                "repro/serve/m.py": (
                    "from repro.sim.engine import core_helper\n"
                    "def handler_helper():\n"
                    "    core_helper()\n"
                ),
            },
        )
        # the sim package is outside the async traversal scope: the edge
        # exists but is never followed, so no chain is reported.
        assert graph.blocking_chain("repro.serve.m.handler_helper") is None

    def test_cycle_tolerance(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "def a():\n"
                    "    b()\n"
                    "def b():\n"
                    "    a()\n"
                ),
            },
        )
        assert graph.blocking_chain("repro.serve.m.a") is None

    def test_pathlib_chained_call_is_blocking(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "from pathlib import Path\n"
                    "def dump(p, text):\n"
                    "    Path(p).write_text(text)\n"
                ),
            },
        )
        summary = graph.functions["repro.serve.m.dump"]
        assert [c.target for c in summary.blocking] == [
            "pathlib.Path.write_text"
        ]

    def test_blocking_kind_vocabulary(self):
        assert blocking_kind("time.sleep")
        assert blocking_kind("subprocess.run")
        assert blocking_kind("requests.get")
        assert blocking_kind("open")
        assert blocking_kind("pathlib.Path.read_text")
        assert blocking_kind("asyncio.sleep") is None
        assert blocking_kind("math.sqrt") is None
        assert blocking_kind(None) is None


class TestGraphDump:
    def test_to_dict_is_json_serializable_and_sorted(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "repro/serve/m.py": (
                    "import time\n"
                    "def helper():\n"
                    "    time.sleep(1)\n"
                    "async def handler():\n"
                    "    helper()\n"
                ),
            },
        )
        payload = json.loads(json.dumps(graph.to_dict()))
        functions = payload["functions"]
        assert list(functions) == sorted(functions)
        handler = functions["repro.serve.m.handler"]
        assert handler["async"] is True
        assert handler["calls"] == ["repro.serve.m.helper"]
        assert functions["repro.serve.m.helper"]["blocking"] == ["time.sleep"]


class TestRealTree:
    """The graph over the real sources resolves the serve hot path."""

    @pytest.fixture(scope="class")
    def graph(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        modules = []
        for path in collect_files([src]):
            module, _ = parse_module(path)
            if module is not None:
                modules.append(module)
        return Project(modules).graph()

    def test_serve_handlers_are_roots(self, graph):
        roots = {s.qualname for s in graph.async_roots()}
        handle = "repro.serve.http.ThermalServer._handle_connection"
        assert handle in roots
        # the request handlers are plain synchronous calls made from that
        # root, so the async rules still walk them from it
        dispatch = "repro.serve.http.ThermalServer._dispatch"
        assert not graph.functions[dispatch].is_async
        calls = graph.functions[handle].calls
        assert dispatch in {c.target for c in calls if c.kind == "project"}

    def test_dispatch_resolves_into_service_layer(self, graph):
        summary = graph.functions[
            "repro.serve.http.ThermalServer._observe_latency"
        ]
        targets = {c.target for c in summary.calls if c.kind == "project"}
        assert "repro.serve.service.ThermalService.tenant" in targets

    def test_no_committed_async_root_reaches_blocking(self, graph):
        for root in graph.async_roots():
            for site in root.calls:
                if site.kind != "project":
                    continue
                callee = graph.functions.get(site.target)
                if callee is None or callee.is_async:
                    continue
                if not graph.in_async_scope(callee.module):
                    continue
                chain = graph.blocking_chain(site.target)
                assert chain is None, (root.qualname, chain)
