"""The CI pipeline definition must stay valid and cover the right steps."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
REQUIREMENTS = REPO / "requirements-ci.txt"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text("utf-8"))


def setup_python_steps(job):
    return [s for s in job["steps"] if "setup-python" in (s.get("uses") or "")]


class TestWorkflow:
    def test_parses_and_has_jobs(self, workflow):
        assert workflow["name"] == "CI"
        # YAML 1.1 reads the `on:` trigger key as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers and "push" in triggers
        assert set(workflow["jobs"]) == {
            "lint", "typecheck", "test", "smoke-benchmark",
            "engine-benchmark", "engine-speedup", "fault-smoke",
            "backend-equivalence", "detection-smoke", "farm-smoke",
            "topology-smoke", "cdg-certify", "service-smoke",
        }

    def test_concurrency_cancels_superseded_runs(self, workflow):
        conc = workflow["concurrency"]
        assert conc["cancel-in-progress"] is True
        # Group must be per-ref so unrelated branches don't cancel each
        # other, only newer pushes to the same ref.
        assert "github.ref" in conc["group"]

    def test_every_job_caches_pip_on_the_pinned_requirements(self, workflow):
        for name, job in workflow["jobs"].items():
            steps = setup_python_steps(job)
            assert steps, f"{name}: no setup-python step"
            for step in steps:
                with_ = step["with"]
                assert with_.get("cache") == "pip", f"{name}: pip cache off"
                assert with_.get("cache-dependency-path") == "requirements-ci.txt", name
            runs = " ".join(s.get("run") or "" for s in job["steps"])
            assert "pip install -r requirements-ci.txt" in runs, name

    def test_requirements_file_is_fully_pinned(self):
        lines = [
            line.strip() for line in REQUIREMENTS.read_text("utf-8").splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
        assert lines, "requirements-ci.txt is empty"
        for line in lines:
            assert "==" in line, f"unpinned CI dependency: {line}"

    def test_python_matrix(self, workflow):
        matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_lint_runs_ruff(self, workflow):
        steps = workflow["jobs"]["lint"]["steps"]
        assert any("ruff check" in (s.get("run") or "") for s in steps)

    def test_typecheck_runs_mypy_on_package(self, workflow):
        steps = workflow["jobs"]["typecheck"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        assert "mypy src/repro" in runs

    def test_test_job_runs_pytest_with_src_on_path(self, workflow):
        steps = workflow["jobs"]["test"]["steps"]
        run_step = next(
            s for s in steps if "python -m pytest" in (s.get("run") or "")
        )
        assert run_step["env"]["PYTHONPATH"] == "src"

    def test_smoke_job_exercises_runner_and_parallel_sweep(self, workflow):
        steps = workflow["jobs"]["smoke-benchmark"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        assert "repro.experiments.runner smoke table1" in runs
        assert "--workers 4" in runs

    def test_fault_smoke_runs_campaign_and_faulted_cli(self, workflow):
        steps = workflow["jobs"]["fault-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        assert "repro.experiments.runner smoke faults" in runs
        assert "--fault consumer-stall:" in runs
        assert "--watchdog" in runs and "--invariants-every" in runs

    def test_detection_smoke_runs_lab_and_cmh_cli(self, workflow):
        steps = workflow["jobs"]["detection-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        # The lab's run() raises on any broken guarantee, so the
        # runner's exit code is the gate.
        assert "repro.experiments.runner smoke detection_lab" in runs
        # And one end-to-end CMH run through the CLI, with the CWG
        # ground-truth checker armed alongside the probes.
        assert "--detector cmh" in runs
        assert "--cwg-interval" in runs
        for step in steps:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_farm_smoke_runs_chaos_suite_and_cli_campaign(self, workflow):
        steps = workflow["jobs"]["farm-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        # the robustness suite carries the bit-identical and quarantine
        # assertions; the CLI leg proves the operator path end to end
        assert "tests/test_farm.py" in runs
        assert "tests/test_cache_concurrency.py" in runs
        # run_points and the service share the farm's dispatch loop
        assert "tests/test_parallel.py" in runs
        assert "tests/test_service.py" in runs
        # ... and the three dispatch suites must pass 10 runs in a row,
        # failing on the first red one
        [loop] = [s["run"] for s in steps
                  if "seq 1 10" in (s.get("run") or "")]
        for suite in ("test_farm.py", "test_parallel.py", "test_service.py"):
            assert f"tests/{suite}" in loop
        assert "|| exit 1" in loop
        assert "farm plan" in runs and "farm run" in runs
        assert "--chaos crash:" in runs and "--chaos hang:" in runs
        assert "--hang-timeout" in runs
        assert "farm resume" in runs
        for step in steps:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_topology_smoke_runs_campaign_and_file_topology_cli(self, workflow):
        steps = workflow["jobs"]["topology-smoke"]["steps"]
        runs = " ".join(s.get("run") or "" for s in steps)
        # The campaign's run() raises on any broken guarantee (drain,
        # conservation, SA knot-freedom), so the runner exit code gates.
        assert "repro.experiments.runner smoke topologies" in runs
        # And one end-to-end run on a JSON-loaded irregular graph.
        assert "--topology file" in runs
        assert "--topology-file" in runs
        assert "--watchdog" in runs and "--invariants-every" in runs
        for step in steps:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_cdg_certify_gates_on_registry_and_uploads_witnesses(self, workflow):
        job = workflow["jobs"]["cdg-certify"]
        runs = " ".join(s.get("run") or "" for s in job["steps"])
        # No pair arguments: the whole built-in registry is audited, and
        # cdg-check exits 1 on a mismatch or un-annotated REFUTED pair.
        assert "repro.cli cdg-check" in runs
        assert "--json cdg_report.json" in runs
        upload = next(
            s for s in job["steps"] if "upload-artifact" in (s.get("uses") or "")
        )
        # Witness orderings / refutation cycles must survive a red run.
        assert upload["if"] == "always()"
        assert upload["with"]["path"] == "cdg_report.json"
        for step in job["steps"]:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_service_smoke_runs_suite_and_http_flow(self, workflow):
        job = workflow["jobs"]["service-smoke"]
        runs = " ".join(s.get("run") or "" for s in job["steps"])
        # The deterministic suite (framing, backpressure, job manager).
        assert "tests/test_service.py" in runs
        # And the operator path: a real serve process, a scenario
        # submitted over HTTP, SSE progress + samples asserted, the
        # Perfetto artifact shape-checked, and a clean drain (server
        # exit code 0).
        assert '"serve"' in runs
        assert "client.submit(" in runs
        assert "stream_events" in runs
        assert '"sample" in kinds' in runs and '"done" in kinds' in runs
        assert "client.trace(" in runs
        assert "client.shutdown()" in runs
        assert "srv.wait" in runs
        upload = next(
            s for s in job["steps"] if "upload-artifact" in (s.get("uses") or "")
        )
        assert upload["if"] == "always()"
        assert upload["with"]["path"] == "service_trace.json"
        for step in job["steps"]:
            if step.get("run") and "repro" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_backend_equivalence_runs_default_and_campaign_grid(self, workflow):
        steps = workflow["jobs"]["backend-equivalence"]["steps"]
        runs = [s.get("run") or "" for s in steps if s.get("run")]
        eq_runs = [r for r in runs if "tests/test_backend_equivalence.py" in r]
        # Both passes: the default ladder/property suite AND the full
        # seeded smoke campaign grid (pytest -m campaign, which is
        # deselected from the default suite by pyproject addopts).
        assert any("-m campaign" in r for r in eq_runs)
        assert any("-m campaign" not in r for r in eq_runs)
        for step in steps:
            if step.get("run") and "pytest" in step["run"]:
                assert step["env"]["PYTHONPATH"] == "src"

    def test_engine_benchmark_is_a_backend_matrix(self, workflow):
        job = workflow["jobs"]["engine-benchmark"]
        matrix = job["strategy"]["matrix"]
        assert matrix["backend"] == ["reference", "vector"]
        runs = " ".join(s.get("run") or "" for s in job["steps"])
        assert "benchmarks/report.py --smoke" in runs
        assert "--backend ${{ matrix.backend }}" in runs
        assert "--check BENCH_engine.json" in runs
        upload = next(
            s for s in job["steps"] if "upload-artifact" in (s.get("uses") or "")
        )
        assert upload["if"] == "always()"
        # Per-leg artifact names so the matrix legs don't collide.
        assert "${{ matrix.backend }}" in upload["with"]["name"]

    def test_engine_benchmark_has_trace_overhead_guard(self, workflow):
        steps = workflow["jobs"]["engine-benchmark"]["steps"]
        guard = next(
            s for s in steps
            if "--traced" in (s.get("run") or "")
        )
        # Disabled hooks must be free: 2% bound against the report the
        # previous step wrote on the same runner.
        assert "--tolerance 0.02" in guard["run"]
        assert "--check BENCH_engine.ci.json" in guard["run"]
        # Tracing is reference-only (the vector backend refuses a
        # tracer), so the guard must not run on the vector matrix leg.
        assert guard["if"] == "matrix.backend == 'reference'"

    def test_speedup_job_gates_the_vector_floor(self, workflow):
        job = workflow["jobs"]["engine-speedup"]
        runs = " ".join(s.get("run") or "" for s in job["steps"])
        assert "--backend both" in runs
        assert "--min-speedup" in runs
        upload = next(
            s for s in job["steps"] if "upload-artifact" in (s.get("uses") or "")
        )
        assert upload["if"] == "always()"
        assert "speedup" in upload["with"]["name"]

    def test_speedup_floor_has_margin_under_the_measured_baseline(self, workflow):
        """The CI floor must sit below the checked-in measured minimum.

        Otherwise ordinary runner noise fails the gate, and the gate gets
        deleted instead of trusted.  A floor above the baseline minimum
        would also mean the checked-in numbers no longer back the claim.
        """
        import json
        import re

        runs = " ".join(
            s.get("run") or ""
            for s in workflow["jobs"]["engine-speedup"]["steps"]
        )
        floor = float(re.search(r"--min-speedup\s+([\d.]+)", runs).group(1))
        baseline = json.loads((REPO / "BENCH_engine.json").read_text("utf-8"))
        measured_min = min(baseline["vector_speedup"].values())
        assert 1.0 < floor < measured_min

    def test_checked_in_baseline_covers_both_backends(self):
        import json

        baseline = json.loads((REPO / "BENCH_engine.json").read_text("utf-8"))
        results = baseline["cycles_per_second"]
        # Every tracked scenario must carry a vector twin so the
        # engine-benchmark vector leg has a baseline to gate against.
        plain = {name for name in results if "@" not in name and "+" not in name}
        for name in plain:
            assert f"{name}@vector" in results, name
        assert set(baseline["vector_speedup"]) == plain

    def test_gitignore_covers_generated_dirs(self):
        gitignore = (WORKFLOW.parents[2] / ".gitignore").read_text("utf-8")
        for entry in ("*.egg-info/", "__pycache__/", ".pytest_cache/",
                      ".hypothesis/", ".benchmarks/", ".repro_cache/",
                      "results/", "BENCH_engine.ci.json",
                      "BENCH_engine.speedup.json"):
            assert entry in gitignore
