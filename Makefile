# Convenience targets for the radio-broadcast reproduction package.

PY ?= python

.PHONY: install test bench bench-experiments quick full examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

bench:
	$(PY) bench/run.py

bench-experiments:
	$(PY) -m pytest benchmarks/ --benchmark-only

quick:
	$(PY) -m repro run-all

full:
	$(PY) -m repro run-all --full --markdown --out results_full.md

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PY) $$f || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
