"""Determinism family: scoped to repro.sim/sched/thermal/core paths."""

from .conftest import rule_ids

DOC = '"""doc."""\n'


class TestGlobalRandom:
    def test_stdlib_random_import_fires_in_sim(self, lint_files):
        code = DOC + "import random\nx = random.random()\n"
        findings = lint_files(
            {"repro/sim/snippet.py": code}, select="det-global-random"
        )
        assert rule_ids(findings) == ["det-global-random"]

    def test_from_random_import_fires(self, lint_files):
        code = DOC + "from random import shuffle\n"
        findings = lint_files(
            {"repro/sched/snippet.py": code}, select="det-global-random"
        )
        assert rule_ids(findings) == ["det-global-random"]

    def test_np_random_module_function_fires(self, lint_files):
        code = DOC + "import numpy as np\nx = np.random.rand(4)\n"
        findings = lint_files(
            {"repro/thermal/snippet.py": code}, select="det-global-random"
        )
        assert rule_ids(findings) == ["det-global-random"]

    def test_seeded_generator_is_clean(self, lint_files):
        code = DOC + (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "x = rng.normal()\n"
        )
        assert (
            lint_files({"repro/core/snippet.py": code}, select="determinism")
            == []
        )

    def test_outside_scoped_packages_is_clean(self, lint_files):
        code = DOC + "import random\nx = random.random()\n"
        assert (
            lint_files(
                {"repro/workload/snippet.py": code}, select="determinism"
            )
            == []
        )


class TestUnseededRng:
    def test_unseeded_default_rng_fires(self, lint_files):
        code = DOC + "import numpy as np\nrng = np.random.default_rng()\n"
        findings = lint_files(
            {"repro/sim/snippet.py": code}, select="det-unseeded-rng"
        )
        assert rule_ids(findings) == ["det-unseeded-rng"]

    def test_unseeded_imported_default_rng_fires(self, lint_files):
        code = DOC + (
            "from numpy.random import default_rng\nrng = default_rng()\n"
        )
        findings = lint_files(
            {"repro/sim/snippet.py": code}, select="det-unseeded-rng"
        )
        assert rule_ids(findings) == ["det-unseeded-rng"]

    def test_seeded_default_rng_is_clean(self, lint_files):
        code = DOC + (
            "import numpy as np\nrng = np.random.default_rng(seed=7)\n"
        )
        assert (
            lint_files(
                {"repro/sim/snippet.py": code}, select="det-unseeded-rng"
            )
            == []
        )

    def test_local_function_named_default_rng_is_clean(self, lint_files):
        code = DOC + (
            "def default_rng():\n    return 4\n\nrng = default_rng()\n"
        )
        assert (
            lint_files(
                {"repro/sim/snippet.py": code}, select="det-unseeded-rng"
            )
            == []
        )


class TestWallClock:
    def test_time_time_fires(self, lint_files):
        code = DOC + "import time\nstamp = time.time()\n"
        findings = lint_files(
            {"repro/sim/snippet.py": code}, select="det-wallclock"
        )
        assert rule_ids(findings) == ["det-wallclock"]

    def test_aliased_time_import_fires(self, lint_files):
        code = DOC + "import time as _time\nstamp = _time.time()\n"
        findings = lint_files(
            {"repro/sched/snippet.py": code}, select="det-wallclock"
        )
        assert rule_ids(findings) == ["det-wallclock"]

    def test_datetime_now_fires(self, lint_files):
        code = DOC + (
            "import datetime\nstamp = datetime.datetime.now()\n"
        )
        findings = lint_files(
            {"repro/core/snippet.py": code}, select="det-wallclock"
        )
        assert rule_ids(findings) == ["det-wallclock"]

    def test_perf_counter_telemetry_is_clean(self, lint_files):
        code = DOC + "import time as _time\nstart = _time.perf_counter()\n"
        assert (
            lint_files(
                {"repro/sim/snippet.py": code}, select="det-wallclock"
            )
            == []
        )


class TestTopLevelDeterministicModules:
    """repro/parallel.py is held to the determinism rules despite living
    at the package top level (its serial/parallel equivalence depends on
    never consulting the wall clock or global RNG state)."""

    def test_wallclock_in_parallel_module_fires(self, lint_files):
        code = DOC + "import time\nseed = int(time.time())\n"
        findings = lint_files(
            {"repro/parallel.py": code}, select="det-wallclock"
        )
        assert rule_ids(findings) == ["det-wallclock"]

    def test_global_random_in_parallel_module_fires(self, lint_files):
        code = DOC + "import random\nseed = random.randint(0, 99)\n"
        findings = lint_files(
            {"repro/parallel.py": code}, select="det-global-random"
        )
        assert rule_ids(findings) == ["det-global-random"]

    def test_perf_counter_in_parallel_module_is_clean(self, lint_files):
        code = DOC + "import time as _time\nstart = _time.perf_counter()\n"
        assert (
            lint_files({"repro/parallel.py": code}, select="determinism")
            == []
        )

    def test_other_top_level_modules_stay_unscoped(self, lint_files):
        code = DOC + "import time\nstamp = time.time()\n"
        assert (
            lint_files({"repro/units.py": code}, select="determinism") == []
        )

    def test_committed_parallel_module_is_clean(self):
        from pathlib import Path

        from repro.lint import run_lint

        src = (
            Path(__file__).resolve().parent.parent.parent
            / "src"
            / "repro"
            / "parallel.py"
        )
        determinism = [
            f for f in run_lint([src]) if f.family == "determinism"
        ]
        assert determinism == []


class TestServePackageIsDeterministic:
    """repro/serve/ joined DETERMINISTIC_MODULES: identical request
    payloads must yield identical answers and the loadgen request tape
    is a pure function of its seed, so calendar time and global RNG are
    banned; monotonic clocks (latency measurement) stay allowed."""

    def test_wallclock_in_serve_fires(self, lint_files):
        code = DOC + "import time\nstamp = time.time()\n"
        findings = lint_files(
            {"repro/serve/snippet.py": code}, select="det-wallclock"
        )
        assert rule_ids(findings) == ["det-wallclock"]

    def test_global_random_in_serve_fires(self, lint_files):
        code = DOC + "import random\nport = random.randint(1024, 65535)\n"
        findings = lint_files(
            {"repro/serve/snippet.py": code}, select="det-global-random"
        )
        assert rule_ids(findings) == ["det-global-random"]

    def test_perf_counter_in_serve_is_clean(self, lint_files):
        code = DOC + "import time\nstart = time.perf_counter()\n"
        assert (
            lint_files({"repro/serve/snippet.py": code}, select="determinism")
            == []
        )

    def test_committed_serve_package_is_clean(self):
        from pathlib import Path

        from repro.lint import run_lint

        serve = (
            Path(__file__).resolve().parent.parent.parent
            / "src"
            / "repro"
            / "serve"
        )
        sources = sorted(serve.glob("*.py"))
        assert sources, "serve package sources not found"
        determinism = [
            f for f in run_lint(sources) if f.family == "determinism"
        ]
        assert determinism == []


class TestSpansModuleIsDeterministic:
    """repro/obs/spans.py joined DETERMINISTIC_MODULES: trace and span
    ids are monotonic counters and durations come from ``perf_counter``,
    so a replayed request tape produces an identical span tree; wall
    clock and global RNG would break that silently."""

    def test_wallclock_in_spans_fires(self, lint_files):
        code = DOC + "import time\nstart_s = time.time()\n"
        findings = lint_files(
            {"repro/obs/spans.py": code}, select="det-wallclock"
        )
        assert rule_ids(findings) == ["det-wallclock"]

    def test_global_random_in_spans_fires(self, lint_files):
        code = DOC + "import random\nspan_id = random.getrandbits(64)\n"
        findings = lint_files(
            {"repro/obs/spans.py": code}, select="det-global-random"
        )
        assert rule_ids(findings) == ["det-global-random"]

    def test_perf_counter_in_spans_is_clean(self, lint_files):
        code = DOC + "import time\nstart_s = time.perf_counter()\n"
        assert (
            lint_files({"repro/obs/spans.py": code}, select="determinism")
            == []
        )

    def test_rest_of_obs_package_stays_unscoped(self, lint_files):
        code = DOC + "import time\nstamp = time.time()\n"
        assert (
            lint_files({"repro/obs/export.py": code}, select="determinism")
            == []
        )

    def test_committed_spans_module_is_clean(self):
        from pathlib import Path

        from repro.lint import run_lint

        spans = (
            Path(__file__).resolve().parent.parent.parent
            / "src"
            / "repro"
            / "obs"
            / "spans.py"
        )
        determinism = [
            f for f in run_lint([spans]) if f.family == "determinism"
        ]
        assert determinism == []


class TestTrafficPackageIsDeterministic:
    """repro/traffic/ joined DETERMINISTIC_MODULES: every arrival
    schedule and JSONL trace is a pure function of its seed (the
    scenario-matrix suite and the loadgen byte-compat guarantee depend
    on it), so calendar time and global RNG are banned."""

    def test_wallclock_in_traffic_fires(self, lint_files):
        code = DOC + "import time\nstamp = time.time()\n"
        findings = lint_files(
            {"repro/traffic/snippet.py": code}, select="det-wallclock"
        )
        assert rule_ids(findings) == ["det-wallclock"]

    def test_global_random_in_traffic_fires(self, lint_files):
        code = DOC + "import random\ngap = random.expovariate(30.0)\n"
        findings = lint_files(
            {"repro/traffic/snippet.py": code}, select="det-global-random"
        )
        assert rule_ids(findings) == ["det-global-random"]

    def test_perf_counter_in_traffic_is_clean(self, lint_files):
        code = DOC + "import time\nstart = time.perf_counter()\n"
        assert (
            lint_files(
                {"repro/traffic/snippet.py": code}, select="determinism"
            )
            == []
        )

    def test_committed_traffic_package_is_clean(self):
        from pathlib import Path

        from repro.lint import run_lint

        traffic = (
            Path(__file__).resolve().parent.parent.parent
            / "src"
            / "repro"
            / "traffic"
        )
        sources = sorted(traffic.glob("*.py"))
        assert sources, "traffic package sources not found"
        determinism = [
            f for f in run_lint(sources) if f.family == "determinism"
        ]
        assert determinism == []
