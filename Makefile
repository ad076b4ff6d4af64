# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-fast bench-perf lint lint-streams reach evaluate evaluate-quick figures clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The performance benchmark (benchmarks/perf, contract in
# BENCHMARK.json): self-test that every probe still resolves, then all
# six workloads; writes benchmarks/perf/out/results.json (numpy needed).
bench-perf:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/perf/tests -q
	PYTHONPATH=src $(PYTHON) -m benchmarks.perf run

# Static analysis: the determinism linter always runs; ruff/mypy run
# when installed (CI installs both; the minimal dev container may not).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src/repro
	@if $(PYTHON) -c 'import ruff' 2>/dev/null || command -v ruff >/dev/null; \
		then ruff check .; else echo "ruff not installed; skipping"; fi
	@if $(PYTHON) -c 'import mypy' 2>/dev/null; \
		then $(PYTHON) -m mypy; else echo "mypy not installed; skipping"; fi

# Regenerate the pinned RNG stream manifest and show what changed.
# tests/lint/test_stream_manifest.py pins this file, so an intentional
# stream addition/rename is: run this target, review the diff, commit.
lint-streams:
	PYTHONPATH=src $(PYTHON) -m repro.lint --streams src/repro > tests/lint/data/stream_manifest.json
	git diff --stat --exit-code tests/lint/data/stream_manifest.json \
		|| echo "stream manifest updated; review the diff above"

# Regenerate the pinned list of functions no product entry point enters
# (tests/reach/collect.py, numpy needed) and show what changed.  CI
# diffs this file, so a reach change is: run this target, review, commit.
reach:
	PYTHONPATH=src $(PYTHON) -m tests.reach.collect
	git diff --stat --exit-code tests/reach/unreached.txt \
		|| echo "unreached list updated; review the diff above"

# Paper-scale regeneration of every table and figure (several minutes).
evaluate:
	$(PYTHON) examples/run_full_evaluation.py | tee results/full_evaluation.txt

evaluate-quick:
	$(PYTHON) examples/run_full_evaluation.py --quick

figures:
	$(PYTHON) -m repro figure 5.1
	$(PYTHON) -m repro figure 4
	$(PYTHON) -m repro figure 5a

clean:
	rm -rf build src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
